//! A whole run: the passes of one mode and the metrics they yield.
//!
//! * End-to-end mode (`--trace 0`): two untraced timed passes, a count
//!   pass and untraced saturation passes, each on a fresh cluster, all
//!   over the same stream.
//! * Traced mode (`--trace 1`): a traced count pass on the framed and on
//!   the channel transport, a traced and an untraced timed pass, and the
//!   codec cost over sample envelopes. Its times are per-layer only; no
//!   end-to-end figure comes from a traced run.

use crate::drive::{build, ClockKind, Setup};
use crate::pass::{self, metric, value, Kind, Metric, Pass};
use crate::stats::{median, quantile, ratio, sorted};
use crate::trace::{span_cost_ns, Layer};
use crate::workload::{Stream, Workload};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::wire::samples::sample_payloads;
use canon_node::{Envelope, Payload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Consecutive requests per latency window: each window's 99th
/// percentile has 10 samples beyond it. A latency figure is the median
/// over windows, so a host stall moves the few windows it falls in, not
/// the figure.
pub const WINDOW_REQUESTS: usize = 1000;

/// Rounds per saturation window: `sat_rps` is the median completion rate
/// over such windows.
pub const SATURATION_WINDOW_ROUNDS: usize = 8;

/// Set-ups whose median is `setup_s`: one per pass, the rest extra
/// clusters built and dropped.
pub const SETUPS: usize = 20;

/// Least saturation drive time an end-to-end run measures, s: the stream
/// is driven again, each time on a fresh cluster, until this much is
/// measured.
pub const SATURATION_MIN_S: f64 = 3.0;

/// The least share of a traced pass's drive time the child layers' self
/// times must cover; the driver's own bookkeeping is the rest.
pub const MIN_COVERAGE: f64 = 0.95;

/// Where a traced run writes its spans, relative to the working directory.
pub const TRACE_DIR: &str = ".bench_out";

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted over every pass.
    pub attempted: u64,
    /// Of those, requests that failed a check.
    pub failed: u64,
    /// Failed checks, described; empty when the run is correct.
    pub problems: Vec<String>,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    fn absorb(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        let name = format!("{:?}", p.kind);
        self.problems
            .extend(p.problems.iter().map(|s| format!("{name}: {s}")));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The `q`-quantile of the pass's latencies in each window of
/// [`WINDOW_REQUESTS`] requests in intended-send order, ms.
fn window_latencies(pass: &Pass, stream: &Stream, q: f64) -> Vec<f64> {
    pass.latencies(stream)
        .chunks_exact(WINDOW_REQUESTS)
        .map(|w| quantile(&sorted(w.to_vec()), q))
        .collect()
}

/// The completion rate over each run of [`SATURATION_WINDOW_ROUNDS`]
/// consecutive rounds of a saturation pass, requests per second. A round
/// stamps its completions with its own tick, so windows that start and
/// end on round boundaries hold whole rounds, whatever their length.
fn window_rates(pass: &Pass) -> Vec<f64> {
    let mut done: Vec<u64> = pass.completed_at.iter().flatten().copied().collect();
    done.sort_unstable();
    let mut rounds: Vec<(u64, usize)> = Vec::new();
    for t in done {
        match rounds.last_mut() {
            Some((tick, n)) if *tick == t => *n += 1,
            _ => rounds.push((t, 1)),
        }
    }
    let tick_s = pass.drive.tick_us * 1e-6;
    rounds
        .windows(SATURATION_WINDOW_ROUNDS + 1)
        .step_by(SATURATION_WINDOW_ROUNDS)
        .map(|w| {
            let completed: usize = w[..SATURATION_WINDOW_ROUNDS].iter().map(|r| r.1).sum();
            completed as f64 / ((w[SATURATION_WINDOW_ROUNDS].0 - w[0].0) as f64 * tick_s)
        })
        .collect()
}

/// Peak resident set of this process, MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run.
pub fn end_to_end(w: Workload, seed: Seed, seconds: f64) -> Report {
    let stream = Stream::generate(w, seed, seconds);
    let mut r = Report::default();
    let (mut setups, mut p50s, mut p99s, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut counts, mut samples, mut sat_s) = (vec![], 0, 0.0);
    // Timed and saturation passes alternate, so a slow spell of the host
    // weighs on few of their windows. Each pass is dropped once its
    // figures are taken, so the peak resident set is one pass's.
    let mut order = [Kind::Timed, Kind::Count, Kind::Saturation, Kind::Timed].into_iter();
    loop {
        let kind = match order.next() {
            Some(kind) => kind,
            None if sat_s < SATURATION_MIN_S => Kind::Saturation,
            None => break,
        };
        let p = pass::run(&stream, kind, false);
        r.absorb(&p);
        setups.push(p.setup.total_s());
        match kind {
            Kind::Timed => {
                p50s.extend(window_latencies(&p, &stream, 0.50));
                p99s.extend(window_latencies(&p, &stream, 0.99));
                samples += p.completed_at.iter().flatten().count();
            }
            Kind::Saturation => {
                sat_s += p.drive.drive_s;
                rates.extend(window_rates(&p));
            }
            _ => counts = p.counts,
        }
    }
    while setups.len() < SETUPS {
        setups.push(build(&stream, ClockKind::Wall, w.framed()).setup.total_s());
    }
    r.metrics = vec![
        metric("setup_s", "s", median(setups)),
        metric("lat_p50_ms", "ms", median(p50s)),
        metric("lat_p99_ms", "ms", median(p99s)),
        metric("sat_rps", "req/s", median(rates)),
        metric("hops_mean", "hops", value(&counts, "hops_mean")),
        metric("msgs_per_req", "msgs", value(&counts, "msgs_per_req")),
        metric("bytes_per_req", "B", value(&counts, "bytes_per_req")),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    r.lines.push(format!(
        "# {}: {} requests at {} req/s over {seconds} s; timed-pass latency samples {samples}",
        w.name(),
        stream.requests.len(),
        w.rate(),
    ));
    r.lines.push(format!(
        "fail_frac {:.6} ratio",
        ratio(r.failed as f64, r.attempted as f64)
    ));
    r
}

/// Codec cost over envelopes of the sample payloads: (encode, decode)
/// ns per message, and whether every envelope decoded to itself.
fn wire_costs(seed: Seed) -> (f64, f64, bool) {
    const ROUNDS: u64 = 64;
    const REPS: usize = 7;
    const ITERS: usize = 50;
    let envs: Vec<Envelope<Payload>> = (1..=ROUNDS)
        .flat_map(|round| sample_payloads(seed.derive("wire"), round))
        .enumerate()
        .map(|(i, payload)| {
            let i = i as u64;
            Envelope {
                from: NodeId::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                to: NodeId::new(!i),
                sent_at: 1000 + i,
                deliver_at: 1001 + i,
                seq: i,
                payload,
            }
        })
        .collect();
    let bytes: Vec<Vec<u8>> = envs.iter().map(canon_wire::to_bytes).collect();
    let roundtrip = envs
        .iter()
        .zip(&bytes)
        .all(|(e, b)| canon_wire::from_bytes::<Envelope<Payload>>(b).as_ref() == Ok(e));
    let per_msg = (envs.len() * ITERS) as f64;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..ITERS {
            for e in &envs {
                black_box(canon_wire::to_bytes(black_box(e)));
            }
        }
        enc.push(t.elapsed().as_nanos() as f64 / per_msg);
        let t = Instant::now();
        for _ in 0..ITERS {
            for b in &bytes {
                let _ = black_box(canon_wire::from_bytes::<Envelope<Payload>>(black_box(b)));
            }
        }
        dec.push(t.elapsed().as_nanos() as f64 / per_msg);
    }
    (median(enc), median(dec), roundtrip)
}

/// The traced run.
pub fn traced(w: Workload, seed: Seed, seconds: f64) -> Report {
    let stream = Stream::generate(w, seed, seconds);
    let framed = pass::run(&stream, Kind::Count, true);
    let channel = pass::run(&stream, Kind::CountChannel, true);
    let timed = pass::run(&stream, Kind::Timed, true);
    let plain = pass::run(&stream, Kind::Timed, false);
    let mut r = Report::default();
    for p in [&framed, &channel, &timed, &plain] {
        r.absorb(p);
    }
    if framed.summary != channel.summary || framed.completed_at != channel.completed_at {
        r.problems
            .push("framed and channel count passes disagree".to_owned());
    }
    let (enc_ns, dec_ns, roundtrip) = wire_costs(seed);
    if !roundtrip {
        r.problems
            .push("a sample envelope did not decode to itself".to_owned());
    }

    let t = timed.trace.as_ref().expect("traced pass records spans");
    let step_s = |p: &Pass| p.trace.as_ref().map_or(0.0, |t| t.total_s(Layer::Round));
    let msgs = value(&framed.counts, "msgs_per_req") * stream.requests.len() as f64;
    let drive = timed.drive.drive_s;
    let rounds = timed.drive.rounds as f64;
    let late = sorted(timed.lateness(&stream));
    let p50 = |p: &Pass| median(window_latencies(p, &stream, 0.5));
    let (p50_traced, p50_plain) = (p50(&timed), p50(&plain));
    let self_times = t.self_times();
    let covered: f64 = self_times
        .iter()
        .filter(|(l, _)| *l != Layer::Pass)
        .map(|(_, s)| s)
        .sum();
    let coverage = ratio(covered, drive);
    if coverage < MIN_COVERAGE {
        r.problems.push(format!(
            "layer self times cover {coverage:.3} of the drive, below {MIN_COVERAGE}"
        ));
    }
    let drive_spans = t.spans().len() - t.count(Layer::Request);
    let span_cost_share = drive_spans as f64 * span_cost_ns() * 1e-9 / drive;
    let setups = [&framed, &channel, &timed, &plain];
    let setup_median = |f: fn(&Setup) -> f64| median(setups.iter().map(|p| f(&p.setup)).collect());

    let mut m = vec![
        metric(
            "runtime.step_us_per_round",
            "us",
            t.total_s(Layer::Round) * 1e6 / rounds,
        ),
        metric(
            "runtime.step_ns_per_event",
            "ns",
            ratio(t.total_s(Layer::Round) * 1e9, timed.drive.events as f64),
        ),
        metric(
            "runtime.scan_us_per_round",
            "us",
            t.total_s(Layer::Scan) * 1e6 / rounds,
        ),
        metric(
            "runtime.inject_ns",
            "ns",
            ratio(
                t.total_s(Layer::Inject) * 1e9,
                t.count(Layer::Inject) as f64,
            ),
        ),
        metric(
            "runtime.busy_share",
            "ratio",
            (t.total_s(Layer::Round) + t.total_s(Layer::Scan)) / drive,
        ),
        metric("clock.wait_share", "ratio", t.total_s(Layer::Wait) / drive),
        metric("driver.late_p50_ms", "ms", quantile(&late, 0.5)),
        metric("driver.late_p99_ms", "ms", quantile(&late, 0.99)),
        metric(
            "framed.cost_ns_per_msg",
            "ns",
            ratio((step_s(&framed) - step_s(&channel)) * 1e9, msgs),
        ),
        metric("wire.encode_ns_per_msg", "ns", enc_ns),
        metric("wire.decode_ns_per_msg", "ns", dec_ns),
    ];
    // The count pass's per-layer counts: the dotted names.
    m.extend(
        framed
            .counts
            .iter()
            .filter(|c| c.name.contains('.'))
            .cloned(),
    );
    m.extend([
        metric("setup.build_s", "s", setup_median(|s| s.build_s)),
        metric("setup.seed_s", "s", setup_median(|s| s.seed_s)),
        metric("setup.preload_s", "s", setup_median(|s| s.preload_s)),
    ]);
    for (layer, s) in &self_times {
        m.push(metric(
            &format!("trace.{}_self_ms", layer.name()),
            "ms",
            s * 1e3,
        ));
    }
    m.extend([
        metric("trace.coverage", "ratio", coverage),
        metric("trace.span_cost_share", "ratio", span_cost_share),
        metric(
            "trace.overhead_p50",
            "ratio",
            ratio(p50_traced, p50_plain) - 1.0,
        ),
    ]);

    r.lines.push(format!(
        "# {}: traced timed pass, {} requests, drive {:.3} s, {} rounds, {} spans",
        w.name(),
        stream.requests.len(),
        drive,
        timed.drive.rounds,
        t.spans().len()
    ));
    r.lines
        .push(format!("# {:<8} {:>12} {:>8}", "layer", "self_ms", "share"));
    for (layer, s) in &self_times {
        r.lines.push(format!(
            "# {:<8} {:>12.3} {:>8.4}",
            layer.name(),
            s * 1e3,
            s / drive
        ));
    }
    r.lines.push(format!(
        "# coverage {coverage:.4} (floor {MIN_COVERAGE}); tracing overhead on lat_p50 {:+.4} \
         (traced {:.4} ms vs untraced {:.4} ms); span recording {:.4} of the drive",
        ratio(p50_traced, p50_plain) - 1.0,
        p50_traced,
        p50_plain,
        span_cost_share
    ));
    let path = Path::new(TRACE_DIR).join(format!("{}.spans", w.name()));
    match t.write(&path) {
        Ok(()) => r
            .lines
            .push(format!("# spans written to {}", path.display())),
        Err(e) => r.problems.push(format!("writing {}: {e}", path.display())),
    }
    r.metrics = m;
    r
}
