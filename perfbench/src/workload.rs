//! The three workloads: what traffic each sends, the cluster settings it
//! runs on, and the seeded request stream every pass of a run replays.

use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::{Op, OpKind};
use canon_workloads::{FlashCrowd, LocalityQueries};
use rand::Rng;

/// Nodes in every cluster.
pub const NODES: usize = 1024;

/// Real length of one runtime tick in the wall-clock passes, µs.
pub const TICK_US: f64 = 20.0;

/// Virtual length of one tick in the count pass, µs.
pub const COUNT_TICK_US: f64 = 1000.0;

/// Per-node cache capacity of the cached workloads.
pub const CACHE_ENTRIES: usize = 64;

/// Full-ring keys preloaded for `uniform-framed`'s GETs and PUTs.
const UNIFORM_POOL: usize = 2048;

/// Tags preload values so they can never equal a PUT's value: a PUT of
/// request `i` writes `i + 1`, a preload of key `k` writes `TAG | k`.
const PRELOAD_TAG: u64 = 1 << 63;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-ring uniform keys, 50% Lookup / 25% PUT / 25% GET, framed
    /// transport, cache off.
    UniformFramed,
    /// GET-only flash crowd over preloaded Zipf keys, 64-entry caches,
    /// channel transport.
    FlashCached,
    /// Domain-local Zipf keys, 50% PUT / 50% GET, 64-entry caches,
    /// channel transport.
    LocalRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::UniformFramed,
        Workload::FlashCached,
        Workload::LocalRw,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformFramed => "uniform-framed",
            Workload::FlashCached => "flash-cached",
            Workload::LocalRw => "local-rw",
        }
    }

    /// The workload named `s`, if any.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered load of the open-loop pass, requests per second.
    pub fn rate(self) -> f64 {
        match self {
            Workload::UniformFramed => 20_000.0,
            Workload::FlashCached => 40_000.0,
            Workload::LocalRw => 10_000.0,
        }
    }

    /// Cache entries per node (0 disables the cache).
    pub fn cache_entries(self) -> usize {
        match self {
            Workload::UniformFramed => 0,
            Workload::FlashCached | Workload::LocalRw => CACHE_ENTRIES,
        }
    }

    /// Whether the wall-clock passes frame every message (the count pass
    /// always does).
    pub fn framed(self) -> bool {
        self == Workload::UniformFramed
    }

    /// Fewest distinct responders a correct run shows: a key stream that
    /// collapses onto a few owners falls below it.
    pub fn responder_floor(self) -> usize {
        match self {
            Workload::UniformFramed => 850,
            Workload::FlashCached | Workload::LocalRw => 700,
        }
    }
}

/// Seeds the cluster's placement and the workloads' key universes. They
/// are fixed, so figures from different `--seed`s describe the same
/// system: on `flash-cached` the placement alone moves `forward_max`
/// sevenfold (13k–92k over five placements).
const FIXED: Seed = Seed(0x0c41_07e5_2004);

/// The hierarchy and node placement every cluster shares.
pub fn topology() -> (Hierarchy, Placement) {
    let h = Hierarchy::balanced(4, 3);
    let p = Placement::uniform(&h, NODES, FIXED.derive("placement"));
    (h, p)
}

/// One client request of the stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Intended send time, µs after the drive's first tick.
    pub at_us: f64,
    /// The node the request is issued at.
    pub origin: NodeId,
    /// The operation.
    pub op: Op,
}

/// A run's inputs: the keys written before the drive, and the requests.
#[derive(Clone, Debug)]
pub struct Stream {
    /// The workload the stream belongs to.
    pub workload: Workload,
    /// `(key, value)` pairs PUT and drained during set-up.
    pub preload: Vec<(u64, u64)>,
    /// Requests in intended-send order.
    pub requests: Vec<Request>,
}

impl Stream {
    /// The stream of `workload` for `seconds` of Poisson arrivals at the
    /// workload's rate. The seed draws arrivals, origins, operations and
    /// keys; the same seed gives the same stream.
    pub fn generate(workload: Workload, seed: Seed, seconds: f64) -> Stream {
        let (h, p) = topology();
        let ids: Vec<NodeId> = p.iter().map(|(id, _)| id).collect();
        let mut arrivals = seed.derive("arrivals").rng();
        let mut at = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = arrivals.gen();
            t -= (1.0 - u).ln() / workload.rate() * 1e6;
            if t >= seconds * 1e6 {
                break;
            }
            at.push(t);
        }
        let n = at.len() as u64;
        let mut rng = seed.derive("ops").rng();
        let put = |i: usize, key: u64| Op::Put {
            key,
            value: i as u64 + 1,
        };
        let (preload_keys, ops): (Vec<u64>, Vec<(NodeId, Op)>) = match workload {
            Workload::UniformFramed => {
                let mut keys = FIXED.derive("pool").rng();
                let pool: Vec<u64> = (0..UNIFORM_POOL).map(|_| keys.gen::<u64>()).collect();
                let ops = (0..at.len())
                    .map(|i| {
                        let origin = ids[rng.gen_range(0..ids.len())];
                        let op = match rng.gen_range(0..4u32) {
                            0 | 1 => Op::Lookup { key: rng.gen() },
                            2 => put(i, pool[rng.gen_range(0..pool.len())]),
                            _ => Op::Get {
                                key: pool[rng.gen_range(0..pool.len())],
                            },
                        };
                        (origin, op)
                    })
                    .collect();
                (pool, ops)
            }
            Workload::FlashCached => {
                let universe = NODES;
                let crowd = FlashCrowd::new(
                    universe,
                    0.9,
                    universe / 2,
                    n / 4,
                    n / 2,
                    0.9,
                    FIXED.derive("crowd"),
                );
                let keys = (0..universe).map(|r| crowd.base().key(r).raw()).collect();
                let ops = (0..n)
                    .map(|i| {
                        let origin = ids[rng.gen_range(0..ids.len())];
                        let key = crowd.draw_at(i, &mut rng).raw();
                        (origin, Op::Get { key })
                    })
                    .collect();
                (keys, ops)
            }
            Workload::LocalRw => {
                let queries = LocalityQueries::new(&h, &p, 1, 256, 0.9, 0.9, FIXED.derive("local"));
                let keys = (0..queries.domain_count())
                    .flat_map(|d| {
                        let slice = queries.slice(d);
                        (0..slice.len()).map(|r| slice.key(r).raw())
                    })
                    .collect();
                let ops = (0..at.len())
                    .map(|i| {
                        let q = queries.draw(&mut rng);
                        let key = q.key.raw();
                        let op = if rng.gen_bool(0.5) {
                            put(i, key)
                        } else {
                            Op::Get { key }
                        };
                        (q.querier, op)
                    })
                    .collect();
                (keys, ops)
            }
        };
        let preload = preload_keys
            .into_iter()
            .enumerate()
            .map(|(k, key)| (key, PRELOAD_TAG | k as u64))
            .collect();
        let requests = at
            .into_iter()
            .zip(ops)
            .map(|(at_us, (origin, op))| Request { at_us, origin, op })
            .collect();
        Stream {
            workload,
            preload,
            requests,
        }
    }

    /// Requests of kind `kind`.
    pub fn count(&self, kind: OpKind) -> usize {
        self.requests.iter().filter(|r| r.op.kind() == kind).count()
    }

    /// Whether `value` was written to `key` by the preload or by some PUT
    /// of the stream (PUT values are unique per request).
    pub fn was_written(&self, key: u64, value: u64) -> bool {
        if value & PRELOAD_TAG != 0 {
            let k = (value & !PRELOAD_TAG) as usize;
            return self.preload.get(k).is_some_and(|&(pk, _)| pk == key);
        }
        value
            .checked_sub(1)
            .and_then(|i| self.requests.get(i as usize))
            .is_some_and(|r| r.op == Op::Put { key, value })
    }

    /// Up to `n` written keys, evenly spaced over the preload, whose
    /// replication the run checks after its drain.
    pub fn sampled_written(&self, n: usize) -> Vec<u64> {
        let step = (self.preload.len() / n.max(1)).max(1);
        self.preload.iter().step_by(step).map(|&(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = Stream::generate(w, Seed(1), 0.05);
            let b = Stream::generate(w, Seed(1), 0.05);
            let c = Stream::generate(w, Seed(2), 0.05);
            let ops = |s: &Stream| s.requests.iter().map(|r| r.op.clone()).collect::<Vec<_>>();
            assert_eq!(ops(&a), ops(&b), "{}", w.name());
            assert_ne!(ops(&a), ops(&c), "{}", w.name());
            let expected = w.rate() * 0.05;
            let n = a.requests.len() as f64;
            assert!((n - expected).abs() < 0.3 * expected, "{} arrivals", n);
        }
    }

    #[test]
    fn uniform_keys_span_the_ring() {
        let s = Stream::generate(Workload::UniformFramed, Seed(3), 0.1);
        let high = s
            .requests
            .iter()
            .filter(|r| r.op.key_point().raw() > u64::MAX / 2)
            .count();
        let share = high as f64 / s.requests.len() as f64;
        assert!((0.4..0.6).contains(&share), "upper-half share {share}");
    }

    #[test]
    fn written_values_are_recognized() {
        let s = Stream::generate(Workload::LocalRw, Seed(4), 0.05);
        let (key, value) = s.preload[7];
        assert!(s.was_written(key, value));
        assert!(!s.was_written(key ^ 1, value));
        let (i, put) = s
            .requests
            .iter()
            .enumerate()
            .find(|(_, r)| r.op.kind() == OpKind::Put)
            .expect("local-rw issues PUTs");
        let Op::Put { key, value } = put.op else {
            unreachable!()
        };
        assert_eq!(value, i as u64 + 1);
        assert!(s.was_written(key, value));
        assert!(!s.was_written(key ^ 1, value));
    }
}
