//! The benchmark's own span recorder.
//!
//! The traced pass wraps every call into a layer in a span: name, start,
//! end, the span that caused it, and the operation (kernel or request) it
//! belongs to. Spans stay in memory and are written out once at the end.
//! A span's *self time* is its duration minus the part of that interval
//! its children cover, so a layer is charged only for what it did itself.
//! Nothing here touches the program's tracer (`accsat::obs`).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation the span belongs to: spans of one kernel or request
    /// share it.
    pub op: u32,
}

/// Self time, inclusive time and call count of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { enabled: true, ..Recorder::disabled() }
    }

    /// A recorder that records nothing: code written against the
    /// recorder runs at full speed in the timed passes.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Label the spans that follow with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` may open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a span that has no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Record a finished span under the innermost open one — for work
    /// that ran on another thread and measured itself with [`now_ns`]
    /// readings of this recorder's clock.
    ///
    /// [`now_ns`]: Recorder::now_ns
    pub fn add_child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// A clock other threads can read: nanoseconds on this recorder's
    /// time line.
    pub fn clock(&self) -> impl Fn() -> u64 + Send + Sync + Copy {
        let epoch = self.epoch;
        move || epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive time of the top-level spans: the wall time the traced
    /// pass spent inside spans.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.self_ns += self_ns;
            t.total_ns += s.end_ns - s.start_ns;
            t.count += 1;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op", Json::Num(f64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span. Children may overlap each other (the
/// branch-and-bound strategies race on two threads), so the union, not
/// the sum, is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // b and c overlap in [50, 60): covered once
            span("b", 40, 60, Some(0)),
            span("c", 50, 80, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            // a child that outlives its parent is clipped to it
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 40 - 10, 20 - 8, 20, 30, 8, 40]);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let mut rec = Recorder::new();
        rec.set_op(7);
        let got = rec.span("outer", |r| {
            r.leaf("inner", || std::hint::black_box(1 + 1));
            r.leaf("inner", || ());
            let clock = r.clock();
            let (a, b) = (clock(), clock());
            r.add_child("worker", a, b);
            41 + 1
        });
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let totals = rec.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["outer"].count, 1);
        let kids: u64 = ["inner", "worker"].iter().map(|n| totals[n].total_ns).sum();
        assert_eq!(totals["outer"].self_ns + kids, totals["outer"].total_ns);
        assert_eq!(rec.root_ns(), totals["outer"].total_ns);
        assert_eq!(rec.to_json().as_arr().len(), 4);

        let mut off = Recorder::disabled();
        assert_eq!(off.span("outer", |r| r.leaf("inner", || 5)), 5);
        off.add_child("worker", 0, 1);
        assert!(off.spans().is_empty());
    }
}
