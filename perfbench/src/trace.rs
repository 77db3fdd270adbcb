//! In-memory spans recorded by the benchmark around its calls into each
//! layer. One `Tracer` per thread; spans nest through an explicit stack,
//! so a span's children are disjoint and lie inside it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `client.call` or `engine.exec_warm`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Recording thread (index into the merged tracer list).
    pub thread: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    thread: usize,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            thread,
            enabled: true,
        }
    }

    /// A tracer that records nothing: `span` only runs its closure.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of operation `op`; spans
    /// opened by `f` through the tracer it receives become children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            thread: self.thread,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The spans of every thread of a traced run, merged.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Merges per-thread tracers, renumbering parent links.
    pub fn merge(tracers: Vec<Tracer>) -> Trace {
        let mut spans = Vec::new();
        for t in tracers {
            let base = spans.len();
            spans.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Trace { spans }
    }

    /// Every span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children are disjoint by construction).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child_cover)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Checks the span-tree invariant: for every span, its own self time
    /// plus the self times of all its descendants equals its duration.
    pub fn check_tree(&self) -> Result<(), String> {
        let selfs = self.self_times();
        let mut subtree_self: Vec<u64> = selfs.clone();
        // Children always follow their parent, so one reverse pass folds
        // every subtree into its root.
        for i in (0..self.spans.len()).rev() {
            let s = &self.spans[i];
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!("span {i} precedes its parent {p}"));
                }
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
                }
                subtree_self[p] += subtree_self[i];
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if subtree_self[i] != s.duration() {
                return Err(format!(
                    "span {i} ({}): self times sum to {} ns, duration is {} ns",
                    s.name,
                    subtree_self[i],
                    s.duration()
                ));
            }
        }
        Ok(())
    }

    /// Self times in nanoseconds of every span called `name`.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let selfs = self.self_times();
        let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            by.entry(s.name).or_default().push(t);
        }
        by
    }

    /// Writes the spans as JSON lines: name, start, end, parent, op,
    /// thread and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, st)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"thread\": {}, \"self_ns\": {st}}}",
                s.name, s.start, s.end, s.op, s.thread
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_times_add_up_in_a_recorded_tree() {
        let mut tr = Tracer::new(Instant::now(), 0);
        tr.span("op", 1, |tr| {
            tr.span("a", 1, |tr| {
                tr.span("a.inner", 1, |_| std::hint::black_box(1))
            });
            tr.span("b", 1, |_| std::hint::black_box(2));
        });
        let trace = Trace::merge(vec![tr, Tracer::disabled()]);
        assert_eq!(trace.spans().len(), 4);
        trace.check_tree().unwrap();
    }

    #[test]
    fn a_child_outside_its_parent_is_caught() {
        let trace = Trace {
            spans: vec![span("op", 0, 10, None), span("late", 5, 12, Some(0))],
        };
        assert!(trace.check_tree().is_err());
    }

    #[test]
    fn self_time_excludes_children() {
        let trace = Trace {
            spans: vec![
                span("op", 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("b", 50, 60, Some(0)),
                span("a.inner", 20, 30, Some(1)),
            ],
        };
        assert_eq!(trace.self_times(), vec![60, 20, 10, 10]);
        trace.check_tree().unwrap();
    }
}
