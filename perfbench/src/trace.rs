//! In-memory spans around the benchmark's calls into the runtime, the
//! per-layer self-time table built from them, and their write-out.
//!
//! A traced pass records one span per call at each boundary the driver
//! crosses: `round` (`Runtime::step`), `scan` (`Runtime::next_event`),
//! `wait` (`Clock::advance_to`) and `inject` (`Runtime::inject`), all
//! children of the `pass` span that covers the whole drive. Each request
//! also gets a `request` span from its inject to its completion tick,
//! carrying the request's index; request spans cross layers and are not
//! part of the self-time table.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A boundary the driver crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole drive of one pass.
    Pass,
    /// One `Runtime::step` call.
    Round,
    /// One `Runtime::next_event` call.
    Scan,
    /// One `Clock::advance_to` call.
    Wait,
    /// One `Runtime::inject` call.
    Inject,
    /// One request, inject to completion.
    Request,
}

impl Layer {
    /// The layers of the self-time table, parent first.
    pub const TABLE: [Layer; 5] = [
        Layer::Pass,
        Layer::Round,
        Layer::Scan,
        Layer::Wait,
        Layer::Inject,
    ];

    /// The span name in the table and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Round => "round",
            Layer::Scan => "scan",
            Layer::Wait => "wait",
            Layer::Inject => "inject",
            Layer::Request => "request",
        }
    }
}

/// One recorded span; times are ns after the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The boundary.
    pub layer: Layer,
    /// The request index for `inject` and `request` spans, else 0.
    pub id: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose time base is `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, id: u32, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_between(layer, id, start, Instant::now());
        r
    }

    /// Records a span between two instants.
    pub fn record_between(&mut self, layer: Layer, id: u32, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.record(layer, id, start, end);
    }

    /// Records a span whose bounds are already known, ns.
    pub fn record(&mut self, layer: Layer, id: u32, start: u64, end: u64) {
        self.spans.push(Span {
            layer,
            id,
            start,
            end,
        });
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time of the `layer` spans, s.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end - s.start) as f64)
            .sum::<f64>()
            * 1e-9
    }

    /// Number of `layer` spans.
    pub fn count(&self, layer: Layer) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Self time per table layer, s: a span's duration minus the part of
    /// it that its child spans cover. Every non-pass table layer is a
    /// child of the pass span enclosing it.
    pub fn self_times(&self) -> Vec<(Layer, f64)> {
        let passes: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Pass)
            .collect();
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.layer != Layer::Pass && s.layer != Layer::Request)
            .map(|s| (s.start, s.end))
            .collect();
        children.sort_unstable();
        let covered: u64 = passes
            .iter()
            .map(|p| union_within(&children, p.start, p.end))
            .sum();
        let pass_total: u64 = passes.iter().map(|p| p.end - p.start).sum();
        Layer::TABLE
            .iter()
            .map(|&layer| {
                let s = if layer == Layer::Pass {
                    pass_total.saturating_sub(covered) as f64 * 1e-9
                } else {
                    self.total_s(layer)
                };
                (layer, s)
            })
            .collect()
    }

    /// Writes every span as `layer id start_ns end_ns` lines, one file.
    ///
    /// # Errors
    ///
    /// Returns any error creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# layer id start_ns end_ns")?;
        for s in &self.spans {
            writeln!(out, "{} {} {} {}", s.layer.name(), s.id, s.start, s.end)?;
        }
        out.flush()
    }
}

/// What recording one span costs on this host, ns: the median over a few
/// batches of spans recorded around an empty call.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let mut costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(Instant::now());
            t.spans.reserve(SPANS as usize);
            let start = Instant::now();
            for i in 0..SPANS {
                t.span(Layer::Round, i, || std::hint::black_box(i));
            }
            start.elapsed().as_nanos() as f64 / f64::from(SPANS)
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

/// Length of the union of the sorted intervals `spans`, clipped to
/// `[lo, hi)`.
fn union_within(spans: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in spans {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new(Instant::now());
        t.record(Layer::Pass, 0, 0, 100);
        t.record(Layer::Round, 0, 10, 30);
        t.record(Layer::Scan, 0, 25, 40); // overlaps the round by 5
        t.record(Layer::Wait, 0, 90, 120); // runs past the pass end
        let table = t.self_times();
        let ns = |i: usize| (table[i].1 * 1e9).round();
        // The children cover 10..40 and 90..100 of the pass.
        assert_eq!((table[0].0, ns(0)), (Layer::Pass, 60.0));
        assert_eq!((table[1].0, ns(1)), (Layer::Round, 20.0));
        assert_eq!(t.count(Layer::Scan), 1);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_within(&[(0, 5), (3, 8), (10, 12)], 0, 100), 10);
        assert_eq!(union_within(&[(0, 5)], 2, 4), 2);
    }
}
