//! The count pass is the benchmark's exact half: the same seed must give
//! the same counts, and another seed must give other counts, on every
//! workload. Run with `cargo test --release` (each pass drives a
//! 1024-node cluster).

use canon_id::rng::Seed;
use perfbench::pass::{run, Kind, Metric, Pass};
use perfbench::workload::{Stream, Workload};

/// Seconds of stream per pass: long enough for every responder floor.
const SECONDS: f64 = 2.0;

fn count_pass(w: Workload, seed: u64, kind: Kind) -> Pass {
    let stream = Stream::generate(w, Seed(seed), SECONDS);
    let pass = run(&stream, kind, false);
    assert!(
        pass.problems.is_empty() && pass.failed == 0,
        "{} seed {seed}: {:?}",
        w.name(),
        pass.problems
    );
    pass
}

fn counts(w: Workload, seed: u64) -> Vec<Metric> {
    count_pass(w, seed, Kind::Count).counts
}

#[test]
fn count_pass_repeats_per_seed_and_moves_with_it() {
    for w in Workload::ALL {
        let a = counts(w, 7);
        assert_eq!(a, counts(w, 7), "{}: same seed, different counts", w.name());
        assert_ne!(a, counts(w, 8), "{}: the seed moved no count", w.name());
    }
}

#[test]
fn framing_changes_no_completion() {
    for w in Workload::ALL {
        let framed = count_pass(w, 3, Kind::Count);
        let channel = count_pass(w, 3, Kind::CountChannel);
        assert_eq!(framed.summary, channel.summary, "{}", w.name());
        assert_eq!(framed.completed_at, channel.completed_at, "{}", w.name());
    }
}
