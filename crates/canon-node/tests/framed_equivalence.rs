//! The framing equivalence guarantee: wrapping the transport stack in
//! [`FramedTransport`] — so every message round-trips through the wire
//! codec and is delivered from decoded frames — changes *nothing*
//! observable. Event logs, completions, summaries, RTT samples and hop
//! totals are byte-identical to the unframed run, clean and under
//! deterministic faults, across 1, 4 and 8 worker threads.
//!
//! Frame-granular fault semantics (faults *outside* the framer) are a
//! deliberately different behavior and are pinned separately in
//! `tests/frame_atomicity.rs`.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_node::{
    from_graph, ChannelTransport, Command, FaultyTransport, FramedTransport, Op, RuntimeConfig,
    VirtualClock, WireSummary,
};
use std::sync::Arc;

/// Runs the same storm as `tests/determinism.rs` over a transport stack
/// chosen by `framed`/`lossy`, returning the observable digest plus the
/// wire accounting (`None` for unframed stacks).
fn storm(threads: usize, framed: bool, lossy: bool) -> (String, Option<WireSummary>) {
    canon_par::with_threads(threads, || {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 96, Seed(42));
        let net = build_crescendo(&h, &p);
        // The faulty wrapper sits *inside* the framer so loss and jitter
        // are decided per message with the same seeds and sequence numbers
        // as the unframed stack — that is what makes the runs comparable.
        let transport: Arc<dyn canon_node::Transport> = match (framed, lossy) {
            (false, false) => Arc::new(ChannelTransport::new(1)),
            (false, true) => Arc::new(FaultyTransport::new(
                ChannelTransport::new(2),
                Seed(1234),
                80,
                3,
            )),
            (true, false) => Arc::new(FramedTransport::new(ChannelTransport::new(1))),
            (true, true) => Arc::new(FramedTransport::new(FaultyTransport::new(
                ChannelTransport::new(2),
                Seed(1234),
                80,
                3,
            ))),
        };
        let config = RuntimeConfig {
            record_events: true,
            ..RuntimeConfig::default()
        };
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            transport,
            config,
        );
        let ids = rt.ids();
        let base = Seed(7).derive("determinism-storm");
        for i in 0..600u64 {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = base.derive_index(i).derive("key").0;
            let cmd = match i % 3 {
                0 => Command::Issue(Op::Lookup { key }),
                1 => Command::Issue(Op::Put { key, value: r }),
                _ => Command::Issue(Op::Get { key }),
            };
            rt.inject(origin, cmd);
        }
        rt.run_until_idle();

        let mut out = String::new();
        for line in rt.event_log() {
            out.push_str(&line);
            out.push('\n');
        }
        for c in rt.completions() {
            out.push_str(&format!("{c:?}\n"));
        }
        out.push_str(&format!("{:?}\n", rt.summary()));
        (out, rt.wire_summary())
    })
}

#[test]
fn framed_clean_run_matches_channel_byte_for_byte() {
    let (channel, no_wire) = storm(1, false, false);
    assert!(no_wire.is_none(), "unframed stack reported wire accounting");
    let (framed, wire) = storm(1, true, false);
    assert_eq!(channel, framed, "framing changed the observable run");
    let wire = wire.expect("framed stack must report wire accounting");
    assert!(wire.frames > 0, "no frames were accounted");
    assert!(wire.msgs >= wire.frames);
    assert_eq!(wire.decode_errors, 0, "codec round-trip failed in-run");
    assert_eq!(wire.frames_lost, 0, "clean run lost frames");
    assert!(wire.bytes > 0 && wire.bytes <= wire.unbatched_bytes);
}

#[test]
fn framed_clean_run_is_byte_identical_across_worker_counts() {
    let (one, wire_one) = storm(1, true, false);
    let (four, wire_four) = storm(4, true, false);
    let (eight, wire_eight) = storm(8, true, false);
    assert_eq!(one, four, "1-thread and 4-thread framed runs diverged");
    assert_eq!(one, eight, "1-thread and 8-thread framed runs diverged");
    // The ledger aggregates commutatively, so even the wire accounting is
    // thread-count independent.
    assert_eq!(wire_one, wire_four, "wire accounting diverged at 4 threads");
    assert_eq!(
        wire_one, wire_eight,
        "wire accounting diverged at 8 threads"
    );
}

#[test]
fn framed_lossy_run_matches_faulty_channel_byte_for_byte() {
    let (channel, _) = storm(1, false, true);
    let (framed, wire) = storm(1, true, true);
    assert!(
        channel.contains("retransmits"),
        "summary missing from digest"
    );
    assert_eq!(channel, framed, "framing changed the observable lossy run");
    let wire = wire.expect("framed stack must report wire accounting");
    assert!(wire.frames > 0);
    assert_eq!(wire.decode_errors, 0);
    // Per-message fates: the framer only ever sees survivors, so the
    // frame-level loss counters stay zero even on a lossy network.
    assert_eq!(wire.frames_lost, 0);
    assert_eq!(wire.msgs_lost, 0);
}

#[test]
fn framed_lossy_run_is_byte_identical_across_worker_counts() {
    let (one, wire_one) = storm(1, true, true);
    let (four, wire_four) = storm(4, true, true);
    let (eight, wire_eight) = storm(8, true, true);
    assert_eq!(
        one, four,
        "1-thread and 4-thread framed lossy runs diverged"
    );
    assert_eq!(
        one, eight,
        "1-thread and 8-thread framed lossy runs diverged"
    );
    assert_eq!(wire_one, wire_four);
    assert_eq!(wire_one, wire_eight);
}

#[test]
fn per_link_counters_cover_the_wire_totals() {
    let (_, wire) = storm(2, true, false);
    let wire = wire.expect("wire accounting");
    canon_par::with_threads(2, || {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 96, Seed(42));
        let net = build_crescendo(&h, &p);
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            Arc::new(FramedTransport::new(ChannelTransport::new(1))),
            RuntimeConfig::default(),
        );
        let ids = rt.ids();
        let base = Seed(7).derive("determinism-storm");
        for i in 0..600u64 {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = base.derive_index(i).derive("key").0;
            rt.inject(origin, Command::Issue(Op::Lookup { key }));
            let _ = (r, key);
        }
        rt.run_until_idle();
        let links = rt.link_bytes().expect("link counters");
        let sum = rt.wire_summary().expect("wire summary");
        assert_eq!(sum.links as usize, links.len());
        let (mut frames, mut msgs, mut bytes) = (0u64, 0u64, 0u64);
        for lb in links.values() {
            frames += lb.frames;
            msgs += lb.msgs;
            bytes += lb.bytes;
        }
        // Link counters partition the totals exactly.
        assert_eq!((frames, msgs, bytes), (sum.frames, sum.msgs, sum.bytes));
    });
    // And the recorded storm saw more than one distinct link.
    assert!(wire.links > 1);
}
