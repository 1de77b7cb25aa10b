//! Flash-crowd experiment: proves the en-route cache keeps tail latency
//! and per-node forwarding load flat when one key suddenly goes hot.
//!
//! Builds a Crescendo cluster of `--max-n` nodes (default 1024), PUTs a
//! key universe, then replays the **same seeded flash-crowd GET storm**
//! (`canon_workloads::FlashCrowd`: Zipf(0.9) base, one mid-tail key
//! spiking to 90% of draws — several hundred times its baseline share —
//! inside a positional window) against two otherwise identical runtimes:
//!
//! * **uncached** — cache capacity 0, every GET walks to the key's owner;
//! * **cached** — a 64-entry en-route cache per node, filled along
//!   converged response paths and invalidated by owners on overwrite.
//!
//! Reported per run: GET round-trip percentiles (p50/p90/p99), the
//! per-node forwarding-load distribution of the GET phase (max and mean —
//! the max is the funnel node the crowd converges on), and the cache
//! account (hits, fills, invalidations, stale/corrupt fills, hit rate).
//! The binary **fails** unless the cached run's peak forwarding load and
//! p99 latency are no worse than the uncached run's, the cache actually
//! absorbed traffic (nonzero hits), and both runs complete with zero
//! loss.
//!
//! `--json` emits one object per run (the committed baseline
//! `results/BENCH_flash_crowd.json`); `--transport framed` runs both
//! variants over the wire codec.

use canon::crescendo::build_crescendo;
use canon_bench::{
    banner, emit_row, latencies, percentile, row, BenchConfig, MonotonicClock, PhaseTimer,
    TransportChoice,
};
use canon_hierarchy::{Hierarchy, Placement};
use canon_node::{
    from_graph, CacheConfig, ChannelTransport, Command, FramedTransport, Op, OpKind, RpcConfig,
    Runtime, RuntimeConfig, Transport,
};
use canon_workloads::FlashCrowd;
use std::sync::Arc;
use std::time::Duration;

/// GET requests injected per node in the storm phase.
const GETS_PER_NODE: u64 = 100;

/// Per-node cache capacity of the cached variant.
const CACHE_CAPACITY: usize = 64;

/// Hot-key share of in-window draws.
const SPIKE_SHARE: f64 = 0.9;

/// Real-time length of one runtime tick.
const TICK: Duration = Duration::from_micros(20);

/// Everything one variant run reports and the cross-run asserts compare.
struct Outcome {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    forward_max: u64,
    hits: u64,
    hit_rate: f64,
}

fn run_variant(cfg: &BenchConfig, cache_capacity: usize) -> Outcome {
    let n = cfg.max_n;
    let gets = GETS_PER_NODE * n as u64;
    let seed = cfg.trial_seed("flash-crowd", 0);
    let mut times = PhaseTimer::default();
    let rt_config = RuntimeConfig {
        rpc: RpcConfig {
            timeout: 1 << 40,
            max_retries: 1,
        },
        cache: CacheConfig::with_capacity(cache_capacity),
        ..RuntimeConfig::default()
    };
    let mut rt: Runtime = times.construct(|| {
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::uniform(&h, n, seed);
        let net = build_crescendo(&h, &p);
        let transport: Arc<dyn Transport> = match cfg.transport {
            TransportChoice::Channel => Arc::new(ChannelTransport::new(1)),
            TransportChoice::Framed => Arc::new(FramedTransport::new(ChannelTransport::new(1))),
        };
        from_graph(
            net.graph(),
            Arc::new(MonotonicClock::new(TICK)),
            transport,
            rt_config,
        )
    });

    // Phase 1: seed the key universe, one PUT per key, and drain — the
    // storm then reads a fully populated store.
    let ids = rt.ids();
    let universe = n.max(16);
    let crowd = FlashCrowd::new(
        universe,
        0.9,
        universe / 2,
        gets / 4,
        gets / 4,
        SPIKE_SHARE,
        seed.derive("crowd"),
    );
    let puts = seed.derive("puts");
    for r in 0..universe {
        let origin = ids[(puts.derive_index(r as u64).0 % ids.len() as u64) as usize];
        rt.inject(
            origin,
            Command::Issue(Op::Put {
                key: crowd.base().key(r).raw(),
                value: puts.derive_index(r as u64).derive("value").0,
            }),
        );
    }
    rt.run_until_idle();
    let baseline_loads = rt.forwarding_loads();

    // Phase 2: the flash-crowd GET storm as a stream of waves — one
    // request per node per wave, drained between waves. A crowd arrives
    // over time; requests behind the front hit the caches the front
    // filled, which an all-at-once burst (every GET in flight before any
    // fill lands) would hide.
    let traffic = seed.derive("traffic");
    let mut wl_rng = seed.derive("workload").rng();
    let wave = n as u64;
    let mut i = 0;
    while i < gets {
        for _ in 0..wave.min(gets - i) {
            let origin = ids[(traffic.derive_index(i).0 % ids.len() as u64) as usize];
            let key = crowd.draw_at(i, &mut wl_rng).raw();
            rt.inject(origin, Command::Issue(Op::Get { key }));
            i += 1;
        }
        times.measure(|| rt.run_until_idle());
    }

    let summary = rt.summary();
    assert!(
        summary.zero_loss(),
        "zero-loss accounting violated (cache={cache_capacity}): \
         injected={} completed={} duplicates={}",
        summary.injected,
        summary.completed,
        summary.duplicates
    );
    assert_eq!(summary.not_found, 0, "storm GET missed a seeded key");

    // Storm-phase latencies and per-node forwarding deltas only. The
    // storm is GET-only and the seeding phase PUT-only, so the storm's
    // completions are exactly the GETs.
    let tick_us = TICK.as_secs_f64() * 1e6;
    let completions = rt.completions();
    let rtt = latencies(completions.iter().filter(|c| c.kind == OpKind::Get));
    let loads: Vec<u64> = rt
        .forwarding_loads()
        .iter()
        .zip(&baseline_loads)
        .map(|(now, before)| now - before)
        .collect();
    let forward_max = loads.iter().copied().max().unwrap_or(0);
    let forward_mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let cache = rt.cache_summary();

    let outcome = Outcome {
        p50_us: percentile(&rtt, 0.50) * tick_us,
        p90_us: percentile(&rtt, 0.90) * tick_us,
        p99_us: percentile(&rtt, 0.99) * tick_us,
        forward_max,
        hits: cache.tally.hits,
        hit_rate: cache.hit_rate(),
    };
    let pairs = [
        (
            "variant",
            if cache_capacity == 0 {
                "uncached".to_string()
            } else {
                "cached".to_string()
            },
        ),
        ("transport", cfg.transport.name().to_string()),
        ("nodes", n.to_string()),
        ("cache_capacity", cache_capacity.to_string()),
        ("gets", gets.to_string()),
        ("amplification", format!("{:.0}", crowd.amplification())),
        ("p50_us", format!("{:.1}", outcome.p50_us)),
        ("p90_us", format!("{:.1}", outcome.p90_us)),
        ("p99_us", format!("{:.1}", outcome.p99_us)),
        ("forward_max", forward_max.to_string()),
        ("forward_mean", format!("{forward_mean:.1}")),
        ("cache_hits", cache.tally.hits.to_string()),
        ("cache_fills", cache.tally.fills.to_string()),
        ("cache_evictions", cache.tally.evictions.to_string()),
        ("cache_invalidations", cache.tally.invalidations.to_string()),
        ("stale_fills", cache.tally.stale_fills.to_string()),
        ("corrupt_fills", cache.tally.corrupt_fills.to_string()),
        ("hit_rate", format!("{:.3}", outcome.hit_rate)),
        ("entries", cache.entries.to_string()),
        ("drive_s", format!("{:.3}", times.measure.as_secs_f64())),
    ];
    if !cfg.json {
        row(&pairs.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>());
    }
    emit_row(cfg, &pairs);
    outcome
}

fn main() {
    let cfg = BenchConfig::from_args(1024, 1);
    if !cfg.json {
        banner(
            "flash_crowd",
            "hot-key GET storm, cached vs uncached: en-route caching must keep \
             p99 latency and peak forwarding load flat",
            &cfg,
        );
    }
    let uncached = run_variant(&cfg, 0);
    let cached = run_variant(&cfg, CACHE_CAPACITY);

    assert_eq!(uncached.hits, 0, "the uncached run must not hit a cache");
    assert!(
        cached.hits > 0,
        "the cached run absorbed no traffic: the flash crowd never hit the cache"
    );
    assert!(
        cached.forward_max <= uncached.forward_max,
        "peak forwarding load rose with caching: {} > {}",
        cached.forward_max,
        uncached.forward_max
    );
    // Latency flatness: tail percentiles must not regress. Wall-clock tick
    // quantization gives the cached run a small grace margin.
    for (name, c, u) in [
        ("p50", cached.p50_us, uncached.p50_us),
        ("p90", cached.p90_us, uncached.p90_us),
        ("p99", cached.p99_us, uncached.p99_us),
    ] {
        assert!(
            c <= u * 1.05 + 2.0 * TICK.as_secs_f64() * 1e6,
            "{name} regressed with caching: {c:.1}us > {u:.1}us"
        );
    }
    if !cfg.json {
        println!(
            "# expect: cached p99 and forward_max at or below uncached — the crowd \
             is absorbed en route (hit rate {:.1}%)",
            cached.hit_rate * 100.0
        );
    }
}
