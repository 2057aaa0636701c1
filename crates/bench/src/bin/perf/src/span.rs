//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function; nothing inside the program is instrumented. Spans are
//! kept in memory and written once, when the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The cell or request this call served.
    pub id: u64,
}

/// Records spans from one thread, nesting them by call order.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing: the untraced twin of a pass.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                id,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer (sorted by layer).
pub fn self_ms_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some(slot) => slot.1 += own,
            None => by_layer.push((s.layer, own)),
        }
    }
    by_layer.sort_by(|a, b| a.0.cmp(b.0));
    by_layer
}

/// Self time of the spans named `name`, in milliseconds.
pub fn self_ms_of(spans: &[Span], name: &str) -> f64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, child)| (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6)
        .sum()
}

/// The span file: one JSON object with the per-layer self times and every
/// span, one per line.
pub fn render(spans: &[Span], workload: &str, seed: u64) -> String {
    let mut out =
        format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_ms_by_layer\": {{");
    for (i, (layer, ms)) in self_ms_by_layer(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{layer}\": {ms:?}"));
    }
    out.push_str("},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "{{\"index\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"id\": {}}}{sep}\n",
            s.name, s.layer, s.start_ns, s.end_ns, s.id
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "cell",
                layer: "perf",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 1,
            },
            Span {
                name: "run_trace",
                layer: "sim",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                id: 1,
            },
            Span {
                name: "build_engine",
                layer: "proto",
                start_ns: 5,
                end_ns: 10,
                parent: Some(0),
                id: 1,
            },
        ];
        let by = self_ms_by_layer(&spans);
        assert_eq!(by, vec![("perf", 35e-6), ("proto", 5e-6), ("sim", 60e-6)]);
        assert_eq!(self_ms_of(&spans, "cell"), 35e-6);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let t = Tracer::new();
        t.span("perf", "outer", 7, || t.span("sim", "inner", 7, || ()));
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
