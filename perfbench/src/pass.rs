//! One pass: a fresh cluster, the drive, and the checks and counts taken
//! from the runtime's public accounting afterwards.

use crate::drive::{build, drive, ClockKind, Drive, Pacing, Setup};
use crate::stats::ratio;
use crate::trace::{Layer, Tracer};
use crate::workload::{Stream, Workload, COUNT_TICK_US, TICK_US};
use canon_id::ring::SortedRing;
use canon_node::{
    CacheTally, Completion, Op, OpKind, Outcome, Runtime, Summary, Tick, WireSummary,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Written keys whose replication every pass checks after its drain.
pub const REPLICATION_SAMPLE: usize = 64;

/// Problems quoted in full; the rest are only counted.
const QUOTED_PROBLEMS: usize = 8;

/// Counts that a correct run keeps at exactly zero.
const MUST_BE_ZERO: [&str; 4] = [
    "framed.decode_errors",
    "cache.stale_fills",
    "cache.corrupt_fills",
    "shard.unsatisfied",
];

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The value of the metric named `name`.
///
/// # Panics
///
/// Panics if `metrics` has no such metric.
pub fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric named {name}"))
        .value
}

/// Builds a [`Metric`].
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

/// How a pass is set up and paced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Virtual 1 ms ticks, framed transport, open-loop schedule: exact
    /// counts.
    Count,
    /// The count pass on the channel transport, for the framing cost.
    CountChannel,
    /// Wall clock, open-loop schedule, the workload's transport.
    Timed,
    /// Wall clock, saturation pacing, the workload's transport.
    Saturation,
}

impl Kind {
    fn clock(self) -> ClockKind {
        match self {
            Kind::Count | Kind::CountChannel => ClockKind::Virtual,
            Kind::Timed | Kind::Saturation => ClockKind::Wall,
        }
    }

    fn framed(self, w: Workload) -> bool {
        match self {
            Kind::Count => true,
            Kind::CountChannel => false,
            Kind::Timed | Kind::Saturation => w.framed(),
        }
    }

    fn tick_us(self) -> f64 {
        match self.clock() {
            ClockKind::Virtual => COUNT_TICK_US,
            ClockKind::Wall => TICK_US,
        }
    }
}

/// Everything one pass yields.
#[derive(Debug)]
pub struct Pass {
    /// The pass kind.
    pub kind: Kind,
    /// Set-up phase times.
    pub setup: Setup,
    /// The driver's observations.
    pub drive: Drive,
    /// Stream requests the pass attempted.
    pub attempted: u64,
    /// Requests that never completed, timed out, completed twice, or
    /// answered wrongly.
    pub failed: u64,
    /// Failed checks, described.
    pub problems: Vec<String>,
    /// Completion tick of each request, by index (`None` if missing).
    pub completed_at: Vec<Option<Tick>>,
    /// The pass's counts, by name: exact under the virtual clock.
    pub counts: Vec<Metric>,
    /// Core summary of the stream part of the run.
    pub summary: Summary,
    /// The spans of a traced pass.
    pub trace: Option<Tracer>,
}

impl Pass {
    /// Latency of each completed request from its intended send time, ms,
    /// in intended-send order.
    pub fn latencies(&self, stream: &Stream) -> Vec<f64> {
        stream
            .requests
            .iter()
            .zip(&self.completed_at)
            .filter_map(|(r, done)| {
                let done = (*done)? as f64 * self.drive.tick_us;
                Some(((done - self.drive.intended_us(r.at_us)) / 1e3).max(0.0))
            })
            .collect()
    }

    /// How late each request was injected after its intended send time,
    /// ms.
    pub fn lateness(&self, stream: &Stream) -> Vec<f64> {
        stream
            .requests
            .iter()
            .zip(&self.drive.injected_at)
            .map(|(r, &at)| {
                let sent = at as f64 * self.drive.tick_us;
                ((sent - self.drive.intended_us(r.at_us)) / 1e3).max(0.0)
            })
            .collect()
    }
}

/// Runs one pass of `kind` over `stream` on a fresh cluster.
/// A traced pass records every driver call as a span; on the wall clock
/// each request also gets a span from inject to completion.
pub fn run(stream: &Stream, kind: Kind, traced: bool) -> Pass {
    let w = stream.workload;
    let mut cluster = build(stream, kind.clock(), kind.framed(w));
    let rt = &mut cluster.rt;
    let before = Snapshot::take(rt);
    let pacing = match kind {
        Kind::Saturation => Pacing::Saturate,
        _ => Pacing::Open,
    };
    // Request spans end at completion ticks, so a wall clock's tick 0 is
    // the time base.
    let mut trace =
        traced.then(|| Tracer::new(cluster.wall.map_or_else(Instant::now, |c| c.start())));
    let drive = drive(rt, stream, kind.tick_us(), pacing, trace.as_mut());
    let after = Snapshot::take(rt);

    let mut problems = Vec::new();
    if cluster.preload_failed > 0 {
        problems.push(format!(
            "{} preload PUTs did not complete Ok",
            cluster.preload_failed
        ));
    }
    let Checked {
        failed,
        problems: wrong,
        completed_at,
        responders,
        hops,
    } = check_completions(rt, stream, &cluster.preload_per_slot);
    problems.extend(wrong);
    let summary = after.summary_delta(&before);
    if summary.injected != summary.completed {
        problems.push(format!(
            "injected {} != completed {}",
            summary.injected, summary.completed
        ));
    }
    let failed = failed + summary.duplicates;
    let counts = counts(rt, stream, &drive, &before, &after, responders, hops);
    for m in &counts {
        if MUST_BE_ZERO.contains(&m.name.as_str()) && m.value != 0.0 {
            problems.push(format!("{} = {}, must be 0", m.name, m.value));
        }
    }
    if responders < w.responder_floor() {
        problems.push(format!(
            "node.responders = {responders} below the floor {}",
            w.responder_floor()
        ));
    }
    if let (Some(t), ClockKind::Wall) = (trace.as_mut(), kind.clock()) {
        record_requests(t, &completed_at, kind.tick_us());
    }
    Pass {
        kind,
        setup: cluster.setup,
        drive,
        attempted: stream.requests.len() as u64,
        failed,
        problems,
        completed_at,
        counts,
        summary,
        trace,
    }
}

/// Adds a span per completed request, from its inject span's start to its
/// completion tick (the tracer's time base is tick 0).
fn record_requests(t: &mut Tracer, completed_at: &[Option<Tick>], tick_us: f64) {
    let mut inject_start = vec![None; completed_at.len()];
    for s in t.spans().iter().filter(|s| s.layer == Layer::Inject) {
        inject_start[s.id as usize] = Some(s.start);
    }
    for (i, (done, start)) in completed_at.iter().zip(inject_start).enumerate() {
        if let (Some(done), Some(start)) = (done, start) {
            let end = (*done as f64 * tick_us * 1e3) as u64;
            t.record(Layer::Request, i as u32, start, end.max(start));
        }
    }
}

/// The runtime's cumulative accounting at one moment.
struct Snapshot {
    summary: Summary,
    cache: CacheTally,
    wire: WireSummary,
    loads: Vec<u64>,
}

impl Snapshot {
    fn take(rt: &Runtime) -> Snapshot {
        Snapshot {
            summary: rt.summary(),
            cache: rt.cache_summary().tally,
            wire: rt.wire_summary().unwrap_or_default(),
            loads: rt.forwarding_loads(),
        }
    }

    fn summary_delta(&self, b: &Snapshot) -> Summary {
        let (a, b) = (&self.summary, &b.summary);
        Summary {
            injected: a.injected - b.injected,
            completed: a.completed - b.completed,
            ok: a.ok - b.ok,
            not_found: a.not_found - b.not_found,
            timed_out: a.timed_out - b.timed_out,
            duplicates: a.duplicates - b.duplicates,
            forwarded: a.forwarded - b.forwarded,
            served: a.served - b.served,
            retransmits: a.retransmits - b.retransmits,
            network_drops: a.network_drops - b.network_drops,
            dropped_dead: a.dropped_dead - b.dropped_dead,
            undeliverable: a.undeliverable - b.undeliverable,
            hop_limit_drops: a.hop_limit_drops - b.hop_limit_drops,
        }
    }
}

/// The outcome of matching completions to requests.
struct Checked {
    failed: u64,
    problems: Vec<String>,
    completed_at: Vec<Option<Tick>>,
    responders: usize,
    hops: u64,
}

/// Maps each stream completion to its request by (origin, per-origin
/// ordinal) and checks it: right key and kind, completed once, Lookups
/// and PUTs answered by the key's owner, GETs answered with a value the
/// preload or some PUT wrote to that key.
fn check_completions(rt: &Runtime, stream: &Stream, preload_per_slot: &[u64]) -> Checked {
    let ids = rt.ids();
    let slot_of: BTreeMap<u64, usize> = ids
        .iter()
        .enumerate()
        .map(|(s, id)| (id.raw(), s))
        .collect();
    let ring = SortedRing::new(ids.clone());
    let mut by_origin: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
    for (i, r) in stream.requests.iter().enumerate() {
        by_origin[slot_of[&r.origin.raw()]].push(i as u32);
    }
    let mut completed_at = vec![None; stream.requests.len()];
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut responders = BTreeSet::new();
    let mut hops = 0u64;
    let mut fail = |problems: &mut Vec<String>, what: String| {
        failed += 1;
        if problems.len() < QUOTED_PROBLEMS {
            problems.push(what);
        }
    };
    // Request ids grow in issue order at each origin, so after an
    // origin's preload PUTs its k-th smallest id is the k-th stream
    // request issued there.
    let mut by_slot: Vec<Vec<Completion>> = vec![Vec::new(); ids.len()];
    for c in rt.completions() {
        by_slot[slot_of[&c.origin.raw()]].push(c);
    }
    for (slot, mut done) in by_slot.into_iter().enumerate() {
        done.sort_by_key(|c| c.req);
        let all = done.len();
        done.dedup_by_key(|c| c.req);
        if done.len() < all {
            let at = ids[slot];
            fail(
                &mut problems,
                format!("{} repeated completions at {at}", all - done.len()),
            );
        }
        for (k, c) in done
            .iter()
            .skip(preload_per_slot[slot] as usize)
            .enumerate()
        {
            let Some(&i) = by_origin[slot].get(k) else {
                fail(
                    &mut problems,
                    format!("completion {} at {} maps to no request", c.req, c.origin),
                );
                continue;
            };
            let r = &stream.requests[i as usize];
            let key = r.op.key_point().raw();
            completed_at[i as usize] = Some(c.completed_at);
            hops += u64::from(c.hops);
            if let Some(n) = c.responder {
                responders.insert(n);
            }
            let owner = ring.responsible(r.op.key_point());
            let ok = c.key == key
                && c.kind == r.op.kind()
                && match &r.op {
                    Op::Lookup { .. } | Op::Put { .. } => {
                        c.outcome == Outcome::Ok && c.responder == owner
                    }
                    Op::Get { .. } => {
                        c.outcome == Outcome::Ok
                            && c.value.is_some_and(|v| stream.was_written(key, v))
                    }
                    _ => false,
                };
            if !ok {
                fail(
                    &mut problems,
                    format!("request {i} ({:?}) answered {c:?}", r.op),
                );
            }
        }
    }
    let missing = completed_at.iter().filter(|c| c.is_none()).count();
    if missing > 0 {
        failed += missing as u64;
        problems.push(format!("{missing} requests never completed"));
    }
    Checked {
        failed,
        problems,
        completed_at,
        responders: responders.len(),
        hops,
    }
}

/// The pass's deterministic counts: exact under the virtual clock.
fn counts(
    rt: &Runtime,
    stream: &Stream,
    drive: &Drive,
    before: &Snapshot,
    after: &Snapshot,
    responders: usize,
    hops: u64,
) -> Vec<Metric> {
    let reqs = stream.requests.len().max(1) as f64;
    let per_req = |v: u64| v as f64 / reqs;
    let (w, w0) = (&after.wire, &before.wire);
    let (c, c0) = (&after.cache, &before.cache);
    let s = after.summary_delta(before);
    let loads: Vec<u64> = after
        .loads
        .iter()
        .zip(&before.loads)
        .map(|(a, b)| a - b)
        .collect();
    let forward_max = loads.iter().copied().max().unwrap_or(0) as f64;
    let forward_mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let frames = (w.frames - w0.frames) as f64;
    let msgs = w.msgs - w0.msgs;
    let bytes = (w.bytes - w0.bytes) as f64;
    let (hits, misses) = (c.hits - c0.hits, c.misses - c0.misses);
    let entries_max = rt
        .ids()
        .into_iter()
        .map(|id| rt.shard_of(id).len())
        .max()
        .unwrap_or(0);
    let unsatisfied = stream
        .sampled_written(REPLICATION_SAMPLE)
        .into_iter()
        .filter(|&k| !rt.replication_status(k).satisfied)
        .count();
    vec![
        metric("hops_mean", "hops", per_req(hops)),
        metric("msgs_per_req", "msgs", per_req(msgs)),
        metric("bytes_per_req", "B", bytes / reqs),
        metric(
            "runtime.rounds_per_req",
            "rounds",
            drive.rounds as f64 / reqs,
        ),
        metric(
            "runtime.events_per_round",
            "events",
            ratio(drive.events as f64, drive.rounds as f64),
        ),
        metric("framed.msgs_per_frame", "msgs", ratio(msgs as f64, frames)),
        metric(
            "framed.header_share",
            "ratio",
            ratio((w.header_bytes - w0.header_bytes) as f64, bytes),
        ),
        metric(
            "framed.batch_saving",
            "ratio",
            1.0 - ratio(bytes, (w.unbatched_bytes - w0.unbatched_bytes) as f64),
        ),
        metric(
            "framed.decode_errors",
            "count",
            (w.decode_errors - w0.decode_errors) as f64,
        ),
        metric(
            "cache.hit_rate",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        metric(
            "cache.fills_per_get",
            "fills",
            ratio(
                (c.fills - c0.fills) as f64,
                stream.count(OpKind::Get) as f64,
            ),
        ),
        metric(
            "cache.invalidations_per_put",
            "msgs",
            ratio(
                (c.invalidations - c0.invalidations) as f64,
                stream.count(OpKind::Put) as f64,
            ),
        ),
        metric(
            "cache.evictions",
            "count",
            (c.evictions - c0.evictions) as f64,
        ),
        metric(
            "cache.stale_fills",
            "count",
            (c.stale_fills - c0.stale_fills) as f64,
        ),
        metric(
            "cache.corrupt_fills",
            "count",
            (c.corrupt_fills - c0.corrupt_fills) as f64,
        ),
        metric("node.forwarded_per_req", "msgs", per_req(s.forwarded)),
        metric("node.forward_max", "msgs", forward_max),
        metric(
            "node.forward_max_over_mean",
            "ratio",
            ratio(forward_max, forward_mean),
        ),
        metric("node.responders", "nodes", responders as f64),
        metric("rpc.retransmits", "count", s.retransmits as f64),
        metric("rpc.timed_out", "count", s.timed_out as f64),
        metric("rpc.duplicates", "count", s.duplicates as f64),
        metric("shard.entries_max", "entries", entries_max as f64),
        metric("shard.unsatisfied", "keys", unsatisfied as f64),
    ]
}
