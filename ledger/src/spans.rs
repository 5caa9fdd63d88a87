//! In-memory span recorder wrapped around the calls into each layer.
//!
//! Spans are kept in a vector while the benchmark runs and written out
//! once at the end, so recording costs two clock reads and a push. When
//! the recorder is disabled, [`Recorder::span`] is a plain call.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `machsuite.kernel`.
    pub name: &'static str,
    /// Index of the workload unit the call belongs to.
    pub unit: u32,
    /// Round of the unit list the call belongs to.
    pub round: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; passes calls straight through otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
    round: u32,
}

/// Handle for a span opened by [`Recorder::begin`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<u32>);

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder with no spans.
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            round: 0,
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Attributes the spans that follow to `unit` in `round`. Any span a
    /// panicking unit left open is abandoned.
    pub fn enter_unit(&mut self, unit: u32, round: u32) {
        self.unit = unit;
        self.round = round;
        self.open.clear();
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            round: self.round,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            self.spans[idx as usize].end_ns = end_ns;
            if self.open.last() == Some(&idx) {
                self.open.pop();
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time in seconds — a span's duration minus what its child
    /// spans cover — summed per `(layer, unit)` and then per round.
    pub fn self_times(&self) -> BTreeMap<(&'static str, u32), BTreeMap<u32, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, u32), BTreeMap<u32, f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children) as f64 * 1e-9;
            *out.entry((span.name, span.unit))
                .or_default()
                .entry(span.round)
                .or_default() += own;
        }
        out
    }

    /// Writes the spans as a Chrome trace (`ph: "X"` events, microsecond
    /// timestamps) that Perfetto and `chrome://tracing` load.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.unit,
                s.round
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        assert_eq!(rec.span("x", || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        rec.enter_unit(3, 1);
        let outer = rec.begin("outer");
        rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let times = rec.self_times();
        let inner = times[&("inner", 3)][&1];
        let outer = times[&("outer", 3)][&1];
        assert!(inner >= 0.005);
        assert!(outer < inner, "outer self time {outer} includes its child");
    }
}
