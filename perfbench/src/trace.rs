//! Host-time spans recorded by the benchmark around each call it makes
//! into a layer's public functions.
//!
//! Span names are `<layer>.<call>` (`sim.timed.base`, `core.fig5_sweep`,
//! ...); the layer is everything before the last dot. Each top-level
//! ("root") span is one setup repetition or one measured pass, and every
//! span carries the id of its root as its pass id. Spans are held in
//! memory and written out as a Chrome trace when the run ends. A disabled
//! tracer reads no clock at all.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index of this span's root (the setup repetition or pass it belongs to).
    pub pass: usize,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span name belongs to: everything before its last dot.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Span recorder; see the module docs.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or one that only runs the closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span, if any).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            pass: parent.map_or(id, |p| self.spans[p].pass),
        });
        self.open.push(id);
        let start = origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        out
    }

    /// Everything recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children never overlap each other).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per root span: the root's name, and the self time (s) of every span
/// name inside it, the root itself included.
#[must_use]
pub fn self_time_by_root(spans: &[Span]) -> Vec<(&'static str, BTreeMap<&'static str, f64>)> {
    let own = self_times_ns(spans);
    let mut roots: BTreeMap<usize, (&'static str, BTreeMap<&'static str, f64>)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let root = roots
            .entry(s.pass)
            .or_insert_with(|| (spans[s.pass].name, BTreeMap::new()));
        *root.1.entry(s.name).or_default() += ns as f64 * 1e-9;
    }
    roots.into_values().collect()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, with its id, parent and pass id in `args`.
#[must_use]
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"pass\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.pass,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        pass: usize,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) > a [10,40) > a.inner [15,35); pass > b [50,60)
        let spans = vec![
            span("bench.pass", 0, 100, None, 0),
            span("sim.timed.base", 10, 40, Some(0), 0),
            span("sim.timed.inner", 15, 35, Some(1), 0),
            span("core.fig5_sweep", 50, 60, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 10, 20, 10]);
        let roots = self_time_by_root(&spans);
        assert_eq!(roots.len(), 1);
        let (name, by_span) = &roots[0];
        assert_eq!(*name, "bench.pass");
        let total: f64 = by_span.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
        assert!((by_span["bench.pass"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn roots_keep_their_own_spans() {
        let spans = vec![
            span("bench.setup", 0, 10, None, 0),
            span("kernels.build", 1, 9, Some(0), 0),
            span("bench.pass", 20, 50, None, 2),
            span("kernels.verify", 25, 30, Some(2), 2),
            span("kernels.verify", 30, 40, Some(2), 2),
        ];
        let roots = self_time_by_root(&spans);
        assert_eq!(roots[0].0, "bench.setup");
        assert_eq!(roots[1].0, "bench.pass");
        assert!((roots[1].1["kernels.verify"] - 15e-9).abs() < 1e-15);
        assert!(!roots[1].1.contains_key("kernels.build"));
    }

    #[test]
    fn tracer_records_nesting_and_pass_ids() {
        let mut tr = Tracer::new(true);
        tr.span("bench.pass", |tr| {
            tr.span("isa.mem_clone", |_| ());
            tr.span("sim.timed.base", |tr| tr.span("sim.timed.inner", |_| ()));
        });
        tr.span("bench.pass", |_| ());
        let parents: Vec<Option<usize>> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        let passes: Vec<usize> = tr.spans().iter().map(|s| s.pass).collect();
        assert_eq!(passes, vec![0, 0, 0, 0, 4]);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let json = to_chrome_json(tr.spans());
        assert!(json.contains("\"cat\":\"sim.timed\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("bench.pass", |tr| tr.span("core.fig3_corr", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn layer_is_the_name_before_the_last_dot() {
        assert_eq!(layer_of("sim.timed.base"), "sim.timed");
        assert_eq!(layer_of("kernels.verify"), "kernels");
        assert_eq!(layer_of("bench"), "bench");
    }
}
