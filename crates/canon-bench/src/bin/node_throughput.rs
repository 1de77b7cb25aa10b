//! Live-traffic load harness for the `canon-node` runtime.
//!
//! Builds a Crescendo cluster of `--max-n` nodes (default 1024) inside one
//! process, injects `100·n` concurrent client requests (50% lookups, 25%
//! PUTs, 25% GETs), and drives the whole cluster to completion on the
//! `canon-par` worker pool under a real [`MonotonicClock`] — the same
//! runtime code the deterministic tests run under the virtual clock.
//!
//! Reported per run:
//!
//! * sustained throughput (completed requests per second of drive time);
//! * round-trip latency percentiles (p50/p90/p99) of the answered
//!   requests, from the completion records;
//! * mean route hops, from the completion records;
//! * the zero-loss account: injected == completed, zero duplicate
//!   responses — the run **fails** if either is violated.
//!
//! `--json` emits one machine-readable JSON object (the committed baseline
//! `results/BENCH_node_throughput.json`); the default is an aligned table.
//! `--transport framed` swaps in `canon_node::FramedTransport`, so every
//! message round-trips through the wire codec in batched length-prefixed
//! frames; the row then reports wire bytes, bytes/frames per request and
//! the batching saving (all zero under the default channel transport).
//! `--workload {uniform,zipf,flash}` picks the key stream: independent
//! uniform keys (default), Zipf(0.9) popularity, or a Zipf stream with a
//! mid-run flash-crowd spike on one hot key.

use canon::crescendo::build_crescendo;
use canon_bench::{
    banner, emit_row, latencies, percentile, row, BenchConfig, MonotonicClock, PhaseTimer,
    TransportChoice, WorkloadChoice,
};
use canon_hierarchy::{Hierarchy, Placement};
use canon_node::{
    from_graph, ChannelTransport, Command, FramedTransport, Op, RpcConfig, RuntimeConfig, Transport,
};
use canon_workloads::{FlashCrowd, ZipfKeys};
use std::sync::Arc;
use std::time::Duration;

/// Requests injected per node.
const REQUESTS_PER_NODE: u64 = 100;

/// Real-time length of one runtime tick.
const TICK: Duration = Duration::from_micros(20);

fn main() {
    let cfg = BenchConfig::from_args(1024, 1);
    let n = cfg.max_n;
    let requests = REQUESTS_PER_NODE * n as u64;
    if !cfg.json {
        banner(
            "node_throughput",
            "live cluster load: concurrent lookups/PUTs/GETs over the canon-node runtime",
            &cfg,
        );
    }

    let mut times = PhaseTimer::default();
    let seed = cfg.trial_seed("node-throughput", 0);
    let rt_config = RuntimeConfig {
        // The channel transport never loses messages, so deadlines exist
        // only as a safety net; a generous value keeps retransmissions (and
        // thus duplicate responses) impossible under load.
        rpc: RpcConfig {
            timeout: 1 << 40,
            max_retries: 1,
        },
        ..RuntimeConfig::default()
    };
    let mut rt = times.construct(|| {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::uniform(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let transport: Arc<dyn Transport> = match cfg.transport {
            TransportChoice::Channel => Arc::new(ChannelTransport::new(1)),
            // Same channel underneath; every message additionally
            // round-trips through the wire codec in batched frames.
            TransportChoice::Framed => Arc::new(FramedTransport::new(ChannelTransport::new(1))),
        };
        from_graph(
            net.graph(),
            Arc::new(MonotonicClock::new(TICK)),
            transport,
            rt_config,
        )
    });

    // Inject the full storm up front: every request is concurrently in
    // flight from round one. `--workload` picks the key stream; origins
    // and the op mix are common to all three.
    let ids = rt.ids();
    let traffic = seed.derive("traffic");
    let universe = n.max(16);
    let zipf = matches!(cfg.workload, WorkloadChoice::Zipf)
        .then(|| ZipfKeys::new(universe, 0.9, seed.derive("zipf")));
    let flash = matches!(cfg.workload, WorkloadChoice::Flash).then(|| {
        FlashCrowd::new(
            universe,
            0.9,
            universe / 2,
            requests / 4,
            requests / 4,
            0.9,
            seed.derive("flash"),
        )
    });
    let mut wl_rng = seed.derive("workload").rng();
    for i in 0..requests {
        let r = traffic.derive_index(i).0;
        let origin = ids[(r % ids.len() as u64) as usize];
        let key = match (&zipf, &flash) {
            (Some(z), _) => z.draw(&mut wl_rng).raw(),
            (_, Some(f)) => f.draw_at(i, &mut wl_rng).raw(),
            _ => traffic.derive_index(i).derive("key").0 % (n as u64 * 16),
        };
        let op = match i % 4 {
            0 | 1 => Op::Lookup { key },
            2 => Op::Put { key, value: r },
            _ => Op::Get { key },
        };
        rt.inject(origin, Command::Issue(op));
    }

    let rounds = times.measure(|| rt.run_until_idle());
    let drive = times.measure;

    let summary = rt.summary();
    let tick_us = TICK.as_secs_f64() * 1e6;
    let completions = rt.completions();
    let rtt = latencies(&completions);
    let mean_hops = if completions.is_empty() {
        0.0
    } else {
        completions.iter().map(|c| f64::from(c.hops)).sum::<f64>() / completions.len() as f64
    };
    let throughput = summary.completed as f64 / drive.as_secs_f64();
    // Wire accounting is zero for the unframed channel stack, which never
    // serializes anything.
    let wire = rt.wire_summary().unwrap_or_default();
    let per_req = |v: u64| v as f64 / requests as f64;

    let pairs = [
        ("transport", cfg.transport.name().to_string()),
        ("workload", cfg.workload.name().to_string()),
        ("nodes", n.to_string()),
        ("requests", requests.to_string()),
        ("injected", summary.injected.to_string()),
        ("completed", summary.completed.to_string()),
        ("duplicates", summary.duplicates.to_string()),
        ("timed_out", summary.timed_out.to_string()),
        ("throughput_rps", format!("{throughput:.0}")),
        ("p50_us", format!("{:.1}", percentile(&rtt, 0.50) * tick_us)),
        ("p90_us", format!("{:.1}", percentile(&rtt, 0.90) * tick_us)),
        ("p99_us", format!("{:.1}", percentile(&rtt, 0.99) * tick_us)),
        ("mean_hops", format!("{mean_hops:.2}")),
        ("forwarded", summary.forwarded.to_string()),
        ("rounds", rounds.to_string()),
        (
            "construct_s",
            format!("{:.3}", times.construct.as_secs_f64()),
        ),
        ("drive_s", format!("{:.3}", drive.as_secs_f64())),
        ("wire_bytes", wire.bytes.to_string()),
        ("bytes_per_req", format!("{:.1}", per_req(wire.bytes))),
        ("frames_per_req", format!("{:.3}", per_req(wire.frames))),
        ("batch_saving", format!("{:.3}", wire.batching_savings())),
        (
            "zero_loss",
            if summary.zero_loss() { "pass" } else { "FAIL" }.to_string(),
        ),
    ];
    if !cfg.json {
        row(&pairs.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>());
    }
    emit_row(&cfg, &pairs);

    assert!(
        summary.zero_loss(),
        "zero-loss accounting violated: injected={} completed={} duplicates={}",
        summary.injected,
        summary.completed,
        summary.duplicates
    );
    assert_eq!(
        rtt.len() as u64,
        summary.completed - summary.timed_out,
        "every answered request must contribute one latency sample"
    );
    assert_eq!(
        wire.decode_errors, 0,
        "wire codec round-trip failed in flight"
    );
}
