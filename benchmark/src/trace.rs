//! Benchmark-side spans: recorded in memory around the benchmark's own
//! calls into each layer, written out once the run ends.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The population host the call worked on, when it worked on one.
    pub host: Option<u64>,
    /// Units of work done inside the span (samples, packets, bytes,
    /// events: whatever its metric divides by).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span inside the innermost open one; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, host: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            host,
            work: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, the innermost open one, crediting `work` to it.
    pub fn exit(&mut self, id: usize, work: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.work = work;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Closed spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns > 0)
    }

    /// Total duration over total work of the spans named `name` that did
    /// some work; `None` when none did.
    pub fn ns_per_work(&self, name: &str) -> Option<f64> {
        let (ns, work) = self
            .named(name)
            .filter(|s| s.work > 0)
            .fold((0u64, 0u64), |(ns, w), s| (ns + s.dur_ns(), w + s.work));
        (work > 0).then(|| ns as f64 / work as f64)
    }

    /// Mean duration of the spans named `name`.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (ns, n) = self
            .named(name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.dur_ns(), n + 1));
        (n > 0).then(|| ns as f64 / n as f64)
    }

    /// Self time per span name: each span's duration minus what its
    /// direct children cover (children of one span never overlap: the
    /// tracer is single-threaded and closes innermost first).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"host\":{},\"work\":{}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.host),
                s.work
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_derive_self_time() {
        let mut t = Tracer::default();
        let root = t.enter("host", Some(7));
        let a = t.enter("build", Some(7));
        t.exit(a, 1);
        let b = t.enter("measure", Some(7));
        t.exit(b, 15);
        t.exit(root, 0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = t.self_ns();
        let root_dur = spans[0].dur_ns();
        assert_eq!(
            selfs["host"] + selfs["build"] + selfs["measure"],
            root_dur,
            "self times partition the root span"
        );
        assert_eq!(t.named("measure").count(), 1);
        assert!(t.ns_per_work("host").is_none(), "no work credited");
        assert!(t.ns_per_work("measure").is_some());
        let json = t.spans_json();
        assert!(json.starts_with("[{\"name\":\"host\",\"start_ns\":"));
        assert!(json.contains("\"parent\":0,\"host\":7,\"work\":15}"));
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.enter("a", None);
        let _b = t.enter("b", None);
        t.exit(a, 0);
    }
}
