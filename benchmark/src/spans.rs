//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function; the program itself carries no instrumentation. Spans
//! are kept in memory and written out once the run ends, so recording one
//! costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Which run (client thread, phase) recorded the span.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread of work.
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, run: u32) -> Self {
        Tracer { epoch, run, spans: Vec::new(), open: Vec::new() }
    }

    /// The instant span times count from (tracers that will be merged
    /// share one).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; close it with
    /// [`Self::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span and return its result with the span's index.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// [`Self::time`] without the index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time(name, f).0
    }

    /// Rename a closed span once its outcome is known (a cache probe is a
    /// hit or a miss only after it returns).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another tracer's spans in (client threads record separately
    /// and are merged once they have been joined).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"run\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children (parallel work) count once,
/// and any child time outside the parent's interval is ignored.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
        // Overlapping children are covered once.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 70)]), 40);
        // A child nested inside another sibling adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Child time outside the parent's interval is clipped away.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Fully covered parents have no self time.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn tracer_links_parents_and_computes_self_times() {
        let mut t = Tracer::new(Instant::now(), 7);
        let outer = t.open("outer");
        let (_, inner) =
            t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans.iter().all(|s| s.run == 7));
        let selfs = t.self_times();
        assert_eq!(selfs[inner], spans[inner].duration_ns());
        assert_eq!(selfs[outer], spans[outer].duration_ns() - spans[inner].duration_ns());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        a.span("a", || ());
        let mut b = Tracer::new(epoch, 1);
        let outer = b.open("b.outer");
        b.span("b.inner", || ());
        b.close(outer);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].run, 1);
    }
}
