//! Cluster set-up and the driver loop every pass runs.
//!
//! The driver uses only the runtime's public calls: `inject`, `step`,
//! `next_event` and `clock().advance_to`. It injects each request of the
//! stream when it falls due, runs a round, finds the next pending event,
//! and advances the clock to whichever comes first — the next event or
//! the next arrival.

use crate::clock::WallClock;
use crate::trace::{Layer, Tracer};
use crate::workload::{topology, Stream, TICK_US};
use canon::crescendo::build_crescendo;
use canon_node::{
    from_graph, CacheConfig, ChannelTransport, Clock, Command, FramedTransport, Op, RpcConfig,
    Runtime, RuntimeConfig, Tick, Transport, VirtualClock,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests a saturation pass injects before every round.
pub const SATURATION_BATCH: usize = 1024;

/// The time source of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockKind {
    /// Lock-step virtual ticks: exact, repeatable counts.
    Virtual,
    /// Real time at [`TICK_US`] per tick.
    Wall,
}

/// Wall time of each set-up phase, s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Hierarchy, placement and `build_crescendo`.
    pub build_s: f64,
    /// `from_graph`: seeding every node's runtime state.
    pub seed_s: f64,
    /// Injecting the preload PUTs and draining them.
    pub preload_s: f64,
}

impl Setup {
    /// The whole set-up, s.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.seed_s + self.preload_s
    }
}

/// A set-up cluster with the preload drained.
pub struct Cluster {
    /// The runtime.
    pub rt: Runtime,
    /// How long each set-up phase took.
    pub setup: Setup,
    /// The wall clock, for wall-clock passes.
    pub wall: Option<WallClock>,
    /// Preload requests issued at each slot: the first stream request at
    /// a slot gets this request id there.
    pub preload_per_slot: Vec<u64>,
    /// Preload requests that did not complete with `Ok`.
    pub preload_failed: u64,
}

/// Builds the workload's cluster on a fresh clock, then PUTs and drains
/// the stream's preload.
pub fn build(stream: &Stream, clock: ClockKind, framed: bool) -> Cluster {
    let t0 = Instant::now();
    let (h, p) = topology();
    let net = build_crescendo(&h, &p);
    let t1 = Instant::now();
    let config = RuntimeConfig {
        // The channel never loses a message, so deadlines are only a
        // safety net; this one never fires and never retransmits.
        rpc: RpcConfig {
            timeout: 1 << 40,
            max_retries: 1,
        },
        cache: CacheConfig::with_capacity(stream.workload.cache_entries()),
        ..RuntimeConfig::default()
    };
    let transport: Arc<dyn Transport> = if framed {
        Arc::new(FramedTransport::new(ChannelTransport::new(1)))
    } else {
        Arc::new(ChannelTransport::new(1))
    };
    let (clock_arc, wall): (Arc<dyn Clock>, _) = match clock {
        ClockKind::Virtual => (Arc::new(VirtualClock::new()), None),
        ClockKind::Wall => {
            let c = WallClock::new(Duration::from_nanos((TICK_US * 1e3) as u64));
            (Arc::new(c), Some(c))
        }
    };
    let mut rt = from_graph(net.graph(), clock_arc, transport, config);
    drop(net);
    let t2 = Instant::now();
    let ids = rt.ids();
    let mut preload_per_slot = vec![0u64; ids.len()];
    for (k, &(key, value)) in stream.preload.iter().enumerate() {
        let slot = k % ids.len();
        preload_per_slot[slot] += 1;
        rt.inject(ids[slot], Command::Issue(Op::Put { key, value }));
    }
    rt.run_until_idle();
    let t3 = Instant::now();
    let s = rt.summary();
    let preload_failed = stream.preload.len() as u64 - s.ok.min(stream.preload.len() as u64)
        + s.duplicates
        + s.timed_out;
    Cluster {
        rt,
        setup: Setup {
            build_s: (t1 - t0).as_secs_f64(),
            seed_s: (t2 - t1).as_secs_f64(),
            preload_s: (t3 - t2).as_secs_f64(),
        },
        wall,
        preload_per_slot,
        preload_failed,
    }
}

/// How a pass releases the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Open loop: each request at its intended send time.
    Open,
    /// Saturation: [`SATURATION_BATCH`] requests before every round,
    /// whatever the schedule says.
    Saturate,
}

/// What the driver observed while driving one pass.
#[derive(Clone, Debug)]
pub struct Drive {
    /// The tick the schedule is anchored at (the drive's first tick).
    pub anchor: Tick,
    /// Length of one tick, µs.
    pub tick_us: f64,
    /// The tick each request was injected at, by request index.
    pub injected_at: Vec<Tick>,
    /// Rounds run (`step` calls).
    pub rounds: u64,
    /// Events those rounds processed.
    pub events: u64,
    /// Wall time of the whole drive, s.
    pub drive_s: f64,
}

impl Drive {
    /// The intended send time of a request due `at_us` after the anchor,
    /// µs on the pass clock.
    pub fn intended_us(&self, at_us: f64) -> f64 {
        self.anchor as f64 * self.tick_us + at_us
    }
}

/// Runs `f`, inside a span of `layer` when the pass is traced.
fn traced<R>(tracer: &mut Option<&mut Tracer>, layer: Layer, id: u32, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(layer, id, f),
        None => f(),
    }
}

/// Drives `stream` through `rt` until every request is injected and the
/// cluster is idle. `tick_us` is the real (or, under a virtual clock,
/// nominal) length of a tick.
pub fn drive(
    rt: &mut Runtime,
    stream: &Stream,
    tick_us: f64,
    pacing: Pacing,
    mut tracer: Option<&mut Tracer>,
) -> Drive {
    let reqs = &stream.requests;
    let mut injected_at = vec![0; reqs.len()];
    let (mut rounds, mut events) = (0u64, 0u64);
    let start = Instant::now();
    let anchor = rt.clock().now();
    let due = |i: usize| anchor + (reqs[i].at_us / tick_us) as Tick;
    let mut next = 0;
    loop {
        let now = rt.clock().now();
        let mut batch = 0;
        while next < reqs.len()
            && match pacing {
                Pacing::Open => due(next) <= now,
                Pacing::Saturate => batch < SATURATION_BATCH,
            }
        {
            let r = &reqs[next];
            traced(&mut tracer, Layer::Inject, next as u32, || {
                rt.inject(r.origin, Command::Issue(r.op.clone()))
            });
            injected_at[next] = now;
            next += 1;
            batch += 1;
        }
        events += traced(&mut tracer, Layer::Round, 0, || rt.step()) as u64;
        rounds += 1;
        let pending = traced(&mut tracer, Layer::Scan, 0, || rt.next_event());
        let arrival = match pacing {
            Pacing::Open if next < reqs.len() => Some(due(next)),
            Pacing::Saturate if next < reqs.len() => Some(now + 1),
            _ => None,
        };
        let target = match (pending, arrival) {
            (None, None) => break,
            (Some(a), Some(b)) => a.min(b),
            (Some(t), None) | (None, Some(t)) => t,
        };
        let clock = rt.clock();
        traced(&mut tracer, Layer::Wait, 0, || {
            clock.advance_to(target.max(now + 1))
        });
    }
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record_between(Layer::Pass, 0, start, end);
    }
    Drive {
        anchor,
        tick_us,
        injected_at,
        rounds,
        events,
        drive_s: (end - start).as_secs_f64(),
    }
}
