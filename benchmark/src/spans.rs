//! The benchmark's own spans, recorded around calls into the engine's
//! public functions. Spans live in a pre-sized vector and are written
//! out when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work inside the span (blocks, tuples, queries).
    pub count: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span that is a child of whichever span is
    /// open; returns what `work` returns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        count: u64,
        work: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            count,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// A span around work that opens no span of its own.
    pub fn leaf<T>(&mut self, name: &'static str, count: u64, work: impl FnOnce() -> T) -> T {
        self.span(name, count, |_| work())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration less the part its children
/// cover. Children run one after another on one thread, so they never
/// overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Work count and busy (self) time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    pub spans: u64,
    pub count: u64,
    pub self_ns: u64,
}

impl Busy {
    /// Busy nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// Spans folded by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Busy> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let b = out.entry(s.name).or_default();
        b.spans += 1;
        b.count += s.count;
        b.self_ns += own_ns;
    }
    out
}

/// The order of the values in each row of [`to_json`].
pub fn fields() -> Json {
    Json::Arr(
        [
            "id", "parent", "workload", "name", "start_ns", "end_ns", "count",
        ]
        .into_iter()
        .map(Json::from)
        .collect(),
    )
}

/// One row per span, in the order [`fields`] names.
pub fn to_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    u64::from(s.id).into(),
                    s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                    workload.into(),
                    s.name.into(),
                    s.start_ns.into(),
                    s.end_ns.into(),
                    s.count.into(),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    /// root 0..100 { read 10..30, decode 30..70 { alloc 40..50 }, read 70..80 }
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "read", 10, 30),
            span(2, Some(0), "decode", 30, 70),
            span(3, Some(2), "alloc", 40, 50),
            span(4, Some(0), "read", 70, 80),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_times(&tree()), vec![30, 20, 30, 10, 10]);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = tree();
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn folding_by_name_adds_counts_and_self_time() {
        let busy = by_name(&tree());
        assert_eq!(
            busy["read"],
            Busy {
                spans: 2,
                count: 2,
                self_ns: 30
            }
        );
        assert_eq!(busy["decode"].self_ns, 30);
        assert_eq!(busy["read"].ns_per_unit(), 15.0);
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut rec = Recorder::with_capacity(4);
        let out = rec.span("root", 2, |rec| {
            rec.leaf("a", 1, || std::hint::black_box(1 + 1));
            rec.leaf("b", 1, || 7)
        });
        assert_eq!(out, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
        let own = self_times(s);
        assert_eq!(own.iter().sum::<u64>(), s[0].end_ns - s[0].start_ns);
    }
}
