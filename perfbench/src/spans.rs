//! Benchmark-side host spans of the traced run: set-up phases, each
//! operation, each client call inside it, each rebalancer tick. Kept in
//! memory and written once, as Chrome trace-event JSON, when the run ends.

use std::fmt::Write as _;

/// One host span. Times are nanoseconds since the benchmark's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the causing span (0 for a top-level span).
    pub parent: u64,
}

/// The spans of one repetition.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span and returns its id (ids start at 1).
    pub fn add(&mut self, name: impl Into<String>, start_ns: u64, end_ns: u64, parent: u64) -> u64 {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() as u64
    }

    /// Closes span `id` (as returned by [`Spans::add`]) at `end_ns`.
    pub fn set_end(&mut self, id: u64, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Chrome trace-event JSON (`ts`/`dur` in µs). Spans nest in time,
    /// so one row shows each operation above its calls.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent
            );
        }
        out.push_str("]}");
        out
    }
}
