//! Spans recorded from outside the program, around the calls into each
//! layer: name, start, end and the span that caused it. Kept in memory
//! during the traced pass and written out when it ends.

use std::io::Write;
use std::path::Path;

use harness::WallClock;

/// One closed (or still open) interval of host time.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Seconds since the log was created.
    pub start_s: f64,
    /// Seconds since the log was created; equals `start_s` while open.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Units of work done inside (events, operations), as the caller
    /// counted them at the same boundary.
    pub ops: u64,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// What [`SpanLog::time`] measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Units of work done.
    pub ops: u64,
    /// Host seconds taken.
    pub secs: f64,
}

/// An in-memory span log over one shared clock.
#[derive(Debug)]
pub struct SpanLog {
    clock: WallClock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { clock: WallClock::start(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let at = self.clock.elapsed_secs();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: at,
            end_s: at,
            parent: self.open.last().copied(),
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, records the work done inside it, and returns its
    /// duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: usize, ops: u64) -> f64 {
        let at = self.clock.elapsed_secs();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_s = at;
        self.spans[id].ops = ops;
        self.spans[id].duration_s()
    }

    /// Runs `work` inside a span; `work` returns the units of work it did.
    pub fn time(&mut self, name: &'static str, work: impl FnOnce() -> u64) -> Timed {
        let id = self.enter(name);
        let ops = work();
        Timed { ops, secs: self.exit(id, ops) }
    }

    /// Seconds since the log was created.
    pub fn now_s(&self) -> f64 {
        self.clock.elapsed_secs()
    }

    /// Adds an already-closed span under the innermost open one — for
    /// intervals whose ends are seen from a callback.
    pub fn record(&mut self, name: &'static str, start_s: f64, end_s: f64, ops: u64) {
        self.spans.push(Span { name, start_s, end_s, parent: self.open.last().copied(), ops });
    }

    /// All spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as tab-separated text, one span per line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_s\tend_s\tops")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{:.9}\t{:.9}\t{}",
                s.name, s.start_s, s.end_s, s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer");
        let inner = log.time("inner", || 7);
        let outer_s = log.exit(outer, 1);
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[1].parent, Some(outer));
        assert_eq!((log.spans()[1].ops, inner.ops), (7, 7));
        assert_eq!(log.spans()[0].parent, None);
        assert!(outer_s >= inner.secs);
        assert_eq!(log.enter("next"), 2);
        assert_eq!(log.spans()[2].parent, None);
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer");
        log.time("inner", || 3);
        log.exit(outer, 0);
        // `out/` is the package's own (ignored) output directory.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/spans-unit-test.tsv");
        log.write_tsv(&path).expect("package directory is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        std::fs::remove_file(&path).expect("just written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0\t-\touter\t"));
        assert!(lines[2].starts_with("1\t0\tinner\t") && lines[2].ends_with("\t3"));
    }
}
