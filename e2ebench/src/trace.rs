//! Spans recorded from the benchmark's own code around calls into each
//! layer. Spans stay in memory and are written out when the run ends; a
//! layer's self time is its spans' duration minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    req: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Per-name aggregate of recorded spans.
pub struct Layer {
    pub count: usize,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a finished span whose ends were taken elsewhere (a reply
    /// that completes on the wire long after its request went out).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` under a span of its own.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Aggregate spans by name: count and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_insert(Layer {
                count: 0,
                self_ns: 0,
            });
            layer.count += 1;
            layer.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if d.is_empty() {
            return None;
        }
        d.sort_unstable();
        Some(d[(d.len() - 1) / 2] as f64 / 1e3)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 96);
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == NONE {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let t0 = t.t0;
        let root = t.record("request", t0, t0 + Duration::from_micros(100), NONE, 7);
        t.record("decode", t0, t0 + Duration::from_micros(30), root, 7);
        t.record(
            "search",
            t0 + Duration::from_micros(30),
            t0 + Duration::from_micros(90),
            root,
            7,
        );
        let layers = t.layers();
        assert_eq!(layers["request"].self_ns, 10_000);
        assert_eq!(layers["decode"].self_ns, 30_000);
        assert_eq!(t.median_us("search"), Some(60.0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", NONE, 0);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.layers().is_empty());
    }
}
