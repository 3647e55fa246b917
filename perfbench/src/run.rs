//! The timed end-to-end loop shared by the untraced and traced runs.

use crate::host::{self, median, Jiffies, Sample};
use crate::trace::Tracer;
use crate::workload::{check_pass, Check, Def, Inputs, Program, Solved};
use std::time::{Duration, Instant};
use symtensor::{flops, Scalar, TensorBatch};

/// Fewest complete passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// A program set-up the timed loop can repeat between chunks.
pub type Setup<'a, S> = &'a mut dyn FnMut() -> Result<Program<S>, String>;

/// What the timed loop measured.
pub struct Measured<S> {
    /// Chunks in one pass.
    pub chunks_per_pass: usize,
    /// SS-HOPM iterations in one pass (the same on every pass).
    pub pass_iterations: u64,
    /// Chunk samples (raw clocks) with the iterations each did.
    pub samples: Vec<(Sample, u64)>,
    /// Whether each pass ran traced (only in the traced run).
    pub traced: Vec<bool>,
    /// System-wide jiffies over the loop.
    pub jiffies: Jiffies,
    /// The first pass's output check.
    pub check: Check,
    /// The first pass's eigenpairs, per tensor.
    pub results: Vec<Vec<sshopm::Eigenpair<S>>>,
    /// Problems found by the per-pass checks (empty when all passed).
    pub failures: Vec<String>,
    /// Complete passes made.
    pub passes: usize,
    /// Kernel strategy in effect, as the backend reported it.
    pub kernel: String,
    /// Calibrated ns of each set-up timed between chunks.
    pub setup_ns: Vec<f64>,
}

/// Solve the whole batch in chunks, pass after pass, for at least
/// `seconds` and `MIN_PASSES` passes. Each chunk is preceded by its own
/// calibration. With `setup`, one more program set-up is timed after
/// every chunk under that chunk's calibration, so the set-up samples
/// span the whole run rather than its first moments. With a tracer,
/// every other pass (never the first) runs inside spans; the difference
/// to the untraced passes is the tracing overhead.
pub fn timed_loop<S: Scalar>(
    def: &Def,
    inputs: &Inputs,
    program: &Program<S>,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
    mut setup: Option<Setup<S>>,
) -> Measured<S> {
    let chunks = program.chunks(def.chunk);
    let total_tensors = program.tensors.len() as u64;
    let starts = program.starts.len() as u64;
    let (m, n) = (program.tensors.order(), program.tensors.dim());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let jiffies_start = Jiffies::now();
    let mut out = Measured {
        chunks_per_pass: chunks.len(),
        pass_iterations: 0,
        samples: Vec::new(),
        traced: Vec::new(),
        jiffies: Jiffies::default(),
        check: Check::default(),
        results: Vec::new(),
        failures: Vec::new(),
        passes: 0,
        kernel: String::new(),
        setup_ns: Vec::new(),
    };
    let mut first_lambdas: Vec<u64> = Vec::new();
    let mut first_gflops: Vec<u64> = Vec::new();
    while out.passes < MIN_PASSES || Instant::now() < deadline {
        let traced = out.passes % 2 == 1 && tracer.is_some();
        let pass_span = match (traced, tracer.as_deref_mut()) {
            (true, Some(t)) => Some(t.enter("pass")),
            _ => None,
        };
        let mut solved: Vec<Solved<S>> = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let (result, sample) = match (traced, tracer.as_deref_mut()) {
                (true, Some(t)) => traced_chunk(t, program, chunk),
                _ => host::measure(|| program.solve(chunk)),
            };
            let s = match result {
                Ok(s) => s,
                Err(e) => {
                    out.failures.push(format!("solve failed: {e}"));
                    return out;
                }
            };
            out.samples.push((sample, s.report.total_iterations.max(1)));
            solved.push(s);
            if let Some(setup) = setup.as_deref_mut() {
                let (result, cpu_ns, _) = host::time(&mut *setup);
                if let Err(e) = result {
                    out.failures.push(format!("set-up failed: {e}"));
                    return out;
                }
                let timed = Sample { cpu_ns, ..sample };
                out.setup_ns.push(timed.calibrated_ns());
            }
        }
        if let (Some(id), Some(t)) = (pass_span, tracer.as_deref_mut()) {
            t.exit(id);
        }
        out.traced.push(traced);

        let iterations: u64 = solved.iter().map(|s| s.report.total_iterations).sum();
        let useful_flops: u64 = solved.iter().map(|s| s.report.useful_flops).sum();
        if let Some(k) = def.fixed_iters {
            let expected = total_tensors * starts * k as u64;
            if iterations != expected {
                out.failures.push(format!(
                    "total_iterations {iterations} != T·V·{k} = {expected}"
                ));
            }
            let expected_flops = iterations * flops::sshopm_iter_flops(m, n);
            if useful_flops != expected_flops {
                out.failures.push(format!(
                    "useful_flops {useful_flops} != iterations × sshopm_iter_flops = {expected_flops}"
                ));
            }
        }
        // Modeled rates of the GPU model's launches (empty on the CPU).
        let gflops: Vec<u64> = solved
            .iter()
            .filter(|s| !s.report.profiles.is_empty())
            .map(|s| s.report.gflops().to_bits())
            .collect();
        let lambdas: Vec<u64> = solved
            .iter()
            .flat_map(|s| s.report.results.iter().flatten())
            .map(|p| p.lambda.to_f64().to_bits())
            .collect();
        if out.passes == 0 {
            let results: Vec<_> = solved
                .iter()
                .flat_map(|s| s.report.results.iter().cloned())
                .collect();
            let fibers: Vec<_> = solved.iter().flat_map(|s| s.fibers.clone()).collect();
            out.check = check_pass(def, inputs, &results, &fibers);
            out.results = results;
            out.kernel = solved[0].report.kernel.clone();
            first_gflops = gflops;
            first_lambdas = lambdas;
            out.pass_iterations = iterations;
        } else {
            if lambdas != first_lambdas || iterations != out.pass_iterations {
                out.failures
                    .push(format!("pass {} differs from pass 0", out.passes));
            }
            if gflops != first_gflops {
                out.failures.push(format!(
                    "pass {}: modeled GFLOP/s not bit-identical to pass 0",
                    out.passes
                ));
            }
        }
        out.passes += 1;
    }
    out.jiffies = Jiffies::now().since(&jiffies_start);
    out
}

/// A chunk inside spans. The sample runs from before the outer `enter`
/// to after the outer `exit`, so it includes the tracer's own work; the
/// calibration before it is left out, as in an untraced chunk.
fn traced_chunk<S: Scalar>(
    t: &mut Tracer,
    program: &Program<S>,
    chunk: &TensorBatch<S>,
) -> (Result<Solved<S>, String>, Sample) {
    t.calibrate();
    let name = if program.extract.is_some() {
        "dwmri.extract_fibers_reported"
    } else {
        "backend.solve_batch"
    };
    let (result, cpu_ns, wall_ns) = host::time(|| {
        let chunk_span = t.enter("chunk");
        let id = t.enter(name);
        let result = program.solve(chunk);
        t.exit(id);
        t.exit(chunk_span);
        result
    });
    let sample = Sample {
        cpu_ns,
        wall_ns,
        calib_ns: t.calib_ns(),
    };
    (result, sample)
}

impl<S> Measured<S> {
    /// Calibrated ns per SS-HOPM iteration: the median over the chunks
    /// of the passes selected by `traced`. Hundreds of ~45 ms chunks
    /// make the median robust to slow host phases.
    pub fn iter_ns(&self, traced: bool) -> f64 {
        let per_iter: Vec<f64> = self
            .samples
            .chunks(self.chunks_per_pass)
            .zip(&self.traced)
            .filter(|(_, &tr)| tr == traced)
            .flat_map(|(pass, _)| pass.iter())
            .map(|(s, iters)| s.calibrated_ns() / *iters as f64)
            .collect();
        median(&per_iter)
    }

    /// Calibrated seconds of a whole pass at that per-iteration cost.
    pub fn pass_s(&self, traced: bool) -> f64 {
        self.iter_ns(traced) * self.pass_iterations as f64 * 1e-9
    }

    /// Host diagnostics: raw on-CPU ns per iteration, wall/CPU ratio,
    /// system-wide steal share and the calibration loop's ns (medians
    /// over chunks).
    pub fn host(&self) -> [(&'static str, f64, &'static str); 4] {
        let raw: Vec<f64> = self
            .samples
            .iter()
            .map(|(s, it)| s.cpu_ns as f64 / *it as f64)
            .collect();
        let ratio: Vec<f64> = self
            .samples
            .iter()
            .map(|(s, _)| s.wall_ns as f64 / s.cpu_ns.max(1) as f64)
            .collect();
        let calib: Vec<f64> = self
            .samples
            .iter()
            .map(|(s, _)| s.calib_ns as f64)
            .collect();
        let steal = self.jiffies.steal as f64 / self.jiffies.total.max(1) as f64;
        [
            ("host.cpu_ns_raw", median(&raw), "ns"),
            ("host.wall_over_cpu", median(&ratio), "ratio"),
            ("host.steal_frac", steal, "fraction"),
            ("host.calib_ns", median(&calib), "ns"),
        ]
    }
}
