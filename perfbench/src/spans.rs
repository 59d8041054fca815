//! In-memory span recording around calls into the program's layers.
//!
//! Spans are recorded by the benchmark's own code only — around each
//! public call it makes — and written out once, when the run ends. A
//! disabled recorder runs the same closures without touching the clock,
//! so traced and untraced passes execute the same calls.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `runner.campaign`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (or census) this span belongs to.
    pub pass: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for one benchmark process.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    /// A recorder that keeps spans only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts or stops keeping spans (between top-level calls only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Closes every span still open (after a call panicked through it).
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    /// Tags the spans that follow with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `body` inside a span named `name`; spans opened by `body`
    /// become its children.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.begin(name);
        let out = body(self);
        self.end(index);
        out
    }

    /// Opens a span named `name` (a child of the innermost open span)
    /// and returns its handle for [`Recorder::end`].
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` opened.
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(index) = handle {
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans as a JSON array, one object per line, with each span's
    /// self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.pass, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

/// Each span's duration minus the part of its interval covered by its
/// direct children (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_owned(), start_ns, end_ns, parent, pass: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 40, 30 - 20, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn recorder_nests_and_attributes_passes() {
        let mut rec = Recorder::new(true);
        rec.set_pass(3);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        let selfs = self_times_ns(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].end_ns - spans[0].start_ns);
        assert!(rec.to_json().contains("\"name\":\"inner\",\"pass\":3,\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("outer", |rec| rec.span("inner", |_| 1)), 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_left_open_by_a_panic_are_closed() {
        let mut rec = Recorder::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.span("outer", |rec| rec.span("inner", |_| panic!("layer failed")))
        }));
        assert!(caught.is_err());
        rec.close_open();
        rec.set_enabled(false);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(self_times_ns(rec.spans()).len(), 2);
    }
}
