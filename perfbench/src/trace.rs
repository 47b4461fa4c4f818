//! Span recording from the benchmark's own code.
//!
//! Every call the benchmark makes into a module's public API can be
//! wrapped in a span named `<module>.<what>` (`osgi.kill`, `gc.collect`,
//! `minijava.compile`, ...). An *operation* is a root span (`op.<kind>`)
//! and every span under it shares its operation id. Spans are kept in
//! memory and written out once, when the run ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. The self time of an operation's root span is the part of the
//! operation no layer span explains: the benchmark's *unattributed*
//! time.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    /// `<module>.<what>`, or `op.<kind>` for an operation's root.
    name: &'static str,
    /// Start, in ns since the recorder was created.
    start_ns: u64,
    /// End, in ns since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The operation this span belongs to.
    op: u64,
    /// Duration of the child spans directly under this one.
    child_ns: u64,
}

impl Span {
    /// Wall time of the span.
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall time not covered by a child span.
    fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// The in-memory span recorder. When off, [`Tracer::span`] only calls
/// its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Switches recording on or off between operations (the traced run
    /// alternates traced and untraced rounds to measure the overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Runs `f` as a new operation rooted at span `name`.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "operations do not nest");
        self.next_op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.next_op,
            child_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        if let Some(parent) = self.spans[index].parent {
            let dur = self.spans[index].dur_ns();
            self.spans[parent].child_ns += dur;
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self times in ns of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64)
            .collect()
    }

    /// Share of the operations' wall time that no layer span covers:
    /// (operation wall − Σ layer self time) ÷ operation wall.
    pub fn unattributed_share(&self) -> f64 {
        let (mut wall, mut unattributed) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            wall += s.dur_ns();
            unattributed += s.self_ns();
        }
        if wall == 0 {
            0.0
        } else {
            unattributed as f64 / wall as f64
        }
    }

    /// Writes the spans as JSON lines: one object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_ops_share_an_id() {
        let mut t = Tracer::new(true);
        t.op("op.test", |t| {
            busy(200_000);
            t.span("a.outer", |t| {
                busy(200_000);
                t.span("b.inner", |_| busy(300_000));
            });
        });
        t.op("op.test", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (1, 1, 1, 2));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].self_ns(), s[1].dur_ns() - s[2].dur_ns());
        assert_eq!(s[0].self_ns(), s[0].dur_ns() - s[1].dur_ns());
        let share = t.unattributed_share();
        assert!(share > 0.0 && share < 1.0, "{share}");
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op("op.x", |t| t.span("a.b", |_| 5)), 5);
        assert!(t.spans.is_empty());
        assert_eq!(t.unattributed_share(), 0.0);
    }
}
