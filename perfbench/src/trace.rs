//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Each span has a name, a start, an end, a parent and a request id.
//! They are kept in memory and written out once, at the end of the run, as
//! Chrome trace-event JSON. A disabled tracer records nothing.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span and returns its id (0 when disabled).
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as a Chrome trace-event `X` record; the parent
    /// and request ids ride in `args`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            write!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.request % 64,
                s.id,
                s.parent.unwrap_or(0),
                s.request
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}
