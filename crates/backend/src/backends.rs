//! The [`SolveBackend`] trait, the CPU backend, and the helpers every
//! backend shares.

use crate::report::{BatchReport, FaultLog};
use crate::spec::BackendError;
use crate::strategy::{KernelRegistry, KernelStrategy};
use sshopm::batch::BatchSolver;
use sshopm::Solver;
use std::time::Instant;
use symtensor::{flops, Scalar, TensorBatch};
use telemetry::Telemetry;

/// An execution substrate for the paper's batched SS-HOPM workload: many
/// same-shaped tensors, each solved from a shared set of starting vectors.
///
/// Implementations differ only in *where* the arithmetic runs; the
/// numerics are the identical library kernels everywhere, so all backends
/// produce bit-identical eigenpairs for the same kernel strategy (the
/// backend-parity test in this crate asserts exactly that).
///
/// The trait is object-safe: dispatch on `Box<dyn SolveBackend<S>>` built
/// from a [`crate::BackendSpec`].
pub trait SolveBackend<S: Scalar>: Sync {
    /// Human-readable backend label for reports (`cpu:4`, `gpusim:...`).
    fn label(&self) -> String;

    /// Solve every tensor from every starting vector with `solver`'s
    /// iteration scheme (SS-HOPM, GEAP, QRST, ...), recording progress on
    /// `telemetry`.
    ///
    /// The batch arrives as a [`TensorBatch`]: one contiguous arena of
    /// same-shape packed tensors, so every backend can hand sub-ranges
    /// around by zero-copy slicing and GPU-style substrates can model the
    /// host→device staging as a single coalesced transfer. Uniform shape
    /// is guaranteed by construction. CPU substrates run any
    /// [`Solver`]; GPU-simulated backends support only solvers that
    /// report a fixed shift via [`Solver::fixed_shift`] (SS-HOPM with
    /// `Shift::Fixed`, the paper's `α = 0` setting) and return a
    /// descriptive [`BackendError`] otherwise — adaptive shifts and the
    /// QR-based iteration need per-iterate spectral information the
    /// kernel model does not stage on-device. Overflowing shapes are
    /// reported as errors, never panics.
    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError>;

    /// Like [`solve_batch`](SolveBackend::solve_batch), but also returns
    /// the unified [`telemetry::RunReport`] with the run's aggregated
    /// telemetry (counters, gauges, histograms) folded in. Every backend
    /// produces one, with per-chunk latency quantiles.
    fn solve_batch_with_report(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<(BatchReport<S>, telemetry::RunReport), BackendError> {
        let report = self.solve_batch(batch, starts, solver, telemetry)?;
        let mut run = report.run_report();
        if telemetry.is_enabled() {
            run.merge_telemetry(&telemetry.snapshot());
        }
        Ok((report, run))
    }
}

/// Emit the run's unified report as a structured `run.report` event, so
/// sinks (JSON-lines, memory) and the snapshot's event list carry the
/// same record the `report` renderers print. Called by every backend at
/// the end of a successful `solve_batch`.
pub(crate) fn emit_run_report<S: Scalar>(telemetry: &Telemetry, report: &BatchReport<S>) {
    if telemetry.is_enabled() {
        use serde::Serialize as _;
        telemetry.event("run.report", report.run_report().to_value());
    }
}

pub(crate) fn empty_report<S: Scalar>(
    label: String,
    kernel: KernelStrategy,
    solver: &dyn Solver<S>,
) -> BatchReport<S> {
    BatchReport {
        backend: label,
        kernel: kernel.name().to_string(),
        solver: solver.name().to_string(),
        results: Vec::new(),
        total_iterations: 0,
        seconds: 0.0,
        useful_flops: 0,
        profiles: Vec::new(),
        hosts: Vec::new(),
        comm: Default::default(),
        fault_log: FaultLog::default(),
        kernel_cache: None,
        timeline: None,
    }
}

/// What the process-wide kernel registry did since `before`, in the
/// [`telemetry::KernelCacheStats`] export form reports carry. `None` when
/// this solve touched no registry-managed kernels, so reports from paths
/// that never consult the registry stay unchanged.
pub(crate) fn kernel_cache_delta(
    before: &kernelgen::CacheStats,
) -> Option<telemetry::KernelCacheStats> {
    let d = KernelRegistry::global().stats().delta_since(before);
    if d.is_empty() {
        return None;
    }
    Some(telemetry::KernelCacheStats {
        memo_hits: d.memo_hits,
        memo_misses: d.memo_misses,
        disk_hits: d.disk_hits,
        disk_misses: d.disk_misses,
        generated: d.generated,
        generate_seconds: d.generate_seconds,
    })
}

/// The paper's CPU rows: `threads == 1` is the "CPU – 1 core" row,
/// strictly sequential on the calling thread with no thread pool
/// involved; otherwise rayon `par_iter` over tensors (the OpenMP rows).
///
/// Under [`KernelStrategy::Unrolled`], every fixed-shift SS-HOPM batch
/// runs in lockstep lanes ([`sshopm::solve_batch_lockstep`] on
/// [`KernelRegistry::batched`]) and reports kernel `unrolled-lanes` when
/// the shape has generated lane bodies, `lanes` when the lanes walk the
/// shape's tables; every other combination (adaptive and convex shifts,
/// GEAP, QRST, the other strategies) runs the per-tensor driver on the
/// registry's plan.
#[derive(Debug, Clone, Copy)]
pub struct Cpu {
    /// Worker threads: `1` = sequential on the calling thread, `0` = the
    /// global rayon pool, `k` = a dedicated pool of exactly `k` workers
    /// (the 4-core / 8-core benchmark rows).
    pub threads: usize,
    /// Kernel implementation to use.
    pub strategy: KernelStrategy,
}

impl Cpu {
    /// A CPU backend on `threads` workers (`1` = sequential, `0` = all
    /// cores) with the given kernel strategy.
    pub fn new(threads: usize, strategy: KernelStrategy) -> Self {
        Self { threads, strategy }
    }
}

impl<S: Scalar> SolveBackend<S> for Cpu {
    fn label(&self) -> String {
        match self.threads {
            1 => "cpu".to_string(),
            0 => "cpu:all".to_string(),
            k => format!("cpu:{k}"),
        }
    }

    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError> {
        let label = SolveBackend::<S>::label(self);
        if batch.is_empty() {
            return Ok(empty_report(label, self.strategy, solver));
        }
        let (m, n) = (batch.order(), batch.dim());
        let registry = KernelRegistry::global();
        let cache_before = registry.stats();
        let lane_alpha =
            sshopm::lockstep_alpha(solver).filter(|_| self.strategy == KernelStrategy::Unrolled);
        let (result, kernel, seconds) = match lane_alpha {
            Some(alpha) => {
                let lanes = registry.batched(m, n);
                let kernel = if lanes.is_generated() {
                    "unrolled-lanes"
                } else {
                    "lanes"
                };
                let started = Instant::now();
                let result = sshopm::solve_batch_lockstep(
                    &lanes,
                    batch.view(),
                    starts,
                    alpha,
                    solver.policy(),
                    self.threads,
                    telemetry,
                );
                (result, kernel, started.elapsed().as_secs_f64())
            }
            None => {
                let plan = registry.plan::<S>(m, n, self.strategy);
                let started = Instant::now();
                let result = BatchSolver::new(solver).with_threads(self.threads).run(
                    &*plan.kernels,
                    batch,
                    starts,
                    telemetry,
                );
                (
                    result,
                    plan.effective.name(),
                    started.elapsed().as_secs_f64(),
                )
            }
        };
        let report = BatchReport {
            backend: label,
            kernel: kernel.to_string(),
            solver: solver.name().to_string(),
            useful_flops: result.total_iterations * flops::sshopm_iter_flops(m, n),
            results: result.results,
            total_iterations: result.total_iterations,
            seconds,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: Default::default(),
            fault_log: FaultLog::default(),
            kernel_cache: kernel_cache_delta(&cache_before),
            timeline: None,
        };
        emit_run_report(telemetry, &report);
        Ok(report)
    }
}

/// Extract the fixed shift the GPU kernels support, or return an error
/// pointing at the CPU backends.
pub(crate) fn fixed_alpha<S: Scalar>(
    solver: &dyn Solver<S>,
    what: &str,
) -> Result<f64, BackendError> {
    match solver.fixed_shift() {
        Some(alpha) => Ok(alpha),
        None => Err(BackendError(format!(
            "{what} supports only Shift::Fixed (the paper's GPU setting); solver `{}` \
             needs per-iterate host work — run it on a cpu backend",
            solver.name()
        ))),
    }
}

/// Record the same progress counters the CPU paths emit, so traces from
/// different substrates stay comparable.
pub(crate) fn record_gpu_batch_counters<S: Scalar>(
    telemetry: &Telemetry,
    results: &[Vec<sshopm::Eigenpair<S>>],
    total_iterations: u64,
) {
    if !telemetry.is_enabled() {
        return;
    }
    let solves: u64 = results.iter().map(|row| row.len() as u64).sum();
    let converged: u64 = results
        .iter()
        .flat_map(|row| row.iter())
        .filter(|p| p.converged)
        .count() as u64;
    telemetry.counter("batch.tensors_done", results.len() as u64);
    telemetry.counter("batch.solves", solves);
    telemetry.counter("batch.converged", converged);
    telemetry.counter("batch.iterations", total_iterations);
}

pub(crate) fn total_iterations_of<S: Scalar>(results: &[Vec<sshopm::Eigenpair<S>>]) -> u64 {
    results
        .iter()
        .flat_map(|row| row.iter())
        .map(|p| p.iterations as u64)
        .sum()
}
