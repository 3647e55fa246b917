//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the library itself is not instrumented). Spans are written out
//! as JSON when the traced run ends, with per-name self time: a span's
//! duration minus the part covered by its child spans.

use crate::host::{thread_cpu_ns, CALIB_REFERENCE_NS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `backend.solve_batch`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall-clock start and end, ns since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// On-CPU ns of the benchmark thread inside the span.
    pub cpu_ns: u64,
    /// Calibration ns in effect when the span ran.
    pub calib_ns: u64,
}

impl Span {
    /// On-CPU ns scaled to the reference host speed.
    pub fn calibrated_ns(&self) -> f64 {
        self.cpu_ns as f64 * CALIB_REFERENCE_NS / self.calib_ns as f64
    }
}

/// Span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    calib_ns: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calib_ns: CALIB_REFERENCE_NS as u64,
        }
    }

    /// Calibrate (as a `calibrate` span) and use the result for the spans
    /// that follow.
    pub fn calibrate(&mut self) {
        let id = self.enter("calibrate");
        self.calib_ns = crate::host::calibrate();
        self.exit(id);
    }

    /// Calibration ns in effect for new spans.
    pub fn calib_ns(&self) -> u64 {
        self.calib_ns
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ns: 0,
            calib_ns: self.calib_ns,
        });
        self.open.push((id, thread_cpu_ns()));
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) -> &Span {
        let cpu_end = thread_cpu_ns();
        let (top, cpu_start) = self.open.pop().expect("exit matches an open span");
        assert_eq!(top, id, "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.cpu_ns = cpu_end - cpu_start;
        span
    }

    /// Run `work` inside a span and return its result with the span's
    /// calibrated ns.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let out = std::hint::black_box(work());
        let ns = self.exit(id).calibrated_ns();
        (out, ns)
    }

    /// Calibrated ns of the latest closed span called `name` (0 if none).
    pub fn last_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::calibrated_ns)
    }

    /// Per-name `(count, total wall ns, self wall ns)`, self time being
    /// each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// Render every span and the self-time summary as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"cpu_ns\": {}, \"calib_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_ns, s.calib_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("], \"self_time\": {\n");
        let summary = self.self_times();
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
            out.push_str(if i + 1 < summary.len() { ",\n" } else { "\n" });
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        let s = t.self_times();
        let (n_outer, total_outer, self_outer) = s["outer"];
        let (_, total_inner, self_inner) = s["inner"];
        assert_eq!(n_outer, 1);
        assert_eq!(self_outer, total_outer - total_inner);
        assert_eq!(self_inner, total_inner);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.to_json().contains("\"self_time\""));
    }
}
