//! Spans the benchmark records around its own calls into Pulse's layers.
//!
//! A span is a name, a start and end (ns since the log's epoch), the id of
//! the span that caused it, and the emission group it belongs to. Spans
//! stay in memory during the run and are written out once at the end.

use std::io::Write;
use std::time::Instant;

/// Group id for spans outside any emission group (setup, whole replays).
pub const NO_GROUP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    pub group: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span log. When off, every call is a no-op, so the timed
/// pass runs the same replay code without keeping spans.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn off() -> Self {
        SpanLog { on: false, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn on() -> Self {
        SpanLog { on: true, ..SpanLog::off() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves the id of a span whose children are recorded before it
    /// ends; [`Self::close`] fills it in. Returns 0 when the log is off.
    pub fn open(&mut self, name: &'static str, parent: u32, start: Instant) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, group: NO_GROUP });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        if id != 0 {
            let end_ns = self.ns(end);
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Records a finished span; returns its id (0 when the log is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        group: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, group });
        self.spans.len() as u32
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Number of spans recorded.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as CSV: `id,name,start_ns,end_ns,parent,group`
    /// (`group` empty outside emission groups).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,group")?;
        for (i, s) in self.spans.iter().enumerate() {
            let group = if s.group == NO_GROUP { String::new() } else { s.group.to_string() };
            writeln!(w, "{},{},{},{},{},{}", i + 1, s.name, s.start_ns, s.end_ns, s.parent, group)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_log_keeps_nothing() {
        let mut log = SpanLog::off();
        let t = Instant::now();
        assert_eq!(log.open("replay", 0, t), 0);
        assert_eq!(log.record("call", 0, 1, t, t), 0);
        log.close(0, t);
        assert_eq!(log.recorded(), 0);
    }

    #[test]
    fn children_point_at_their_parent() {
        let mut log = SpanLog::on();
        let t0 = Instant::now();
        let root = log.open("replay", 0, t0);
        let child = log.record("call", root, 0, t0, t0 + Duration::from_millis(2));
        log.close(root, t0 + Duration::from_millis(3));
        assert_eq!(log.spans[child as usize - 1].parent, root);
        assert!((log.total_s("call") - 0.002).abs() < 1e-9);
        assert!((log.total_s("replay") - 0.003).abs() < 1e-9);
    }
}
