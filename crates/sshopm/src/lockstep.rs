//! Lockstep batched SS-HOPM: iterate a *panel* of tensors simultaneously
//! through the vectorized [`LanePanel`] kernels.
//!
//! The scalar batch driver ([`crate::BatchSolver`]) runs one tensor at a
//! time. With a fixed shift, every tensor in a panel executes the *same*
//! instruction sequence — only the data differs — so the driver here
//! evaluates each contraction for all `LANE_WIDTH` tensors of a panel in
//! one [`LaneKernel`] call (the CPU analogue of the paper's
//! one-thread-block-per-tensor GPU mapping). A per-lane *retirement mask*
//! freezes tensors whose eigenvalue estimate has converged while the rest
//! of the panel keeps iterating, so ragged convergence costs bookkeeping,
//! not extra kernel work.
//!
//! The lane kernel is whatever [`BatchedKernels`] carries: the generated
//! straight-line bodies for shapes the `unrolled` crate generates (each
//! lane bit for bit `UnrolledKernels`), the walk over the shape's
//! [`PrecomputedTables`](symtensor::PrecomputedTables) otherwise (each
//! lane bit for bit those tables). The panel loop is compiled twice — a
//! portable copy and, on x86-64, a copy with AVX2 and FMA enabled — and
//! the host's features pick one per panel. Neither copy fuses a multiply
//! into an add, so both give the same bits.
//!
//! Lockstep execution requires a state-independent update rule, so the
//! driver accepts exactly the solvers whose [`Solver::fixed_shift`]
//! reports `Some` (fixed-shift SS-HOPM — the paper's GPU setting);
//! adaptive solvers stay on the per-tensor [`crate::BatchSolver`]. The
//! CPU backend runs every fixed-shift SS-HOPM batch through this driver
//! under the `unrolled` strategy.

use crate::batch::BatchResult;
use crate::solver::{Eigenpair, IterationPolicy};
use crate::traits::Solver;
use rayon::prelude::*;
use std::time::Instant;
use symtensor::{
    BatchedKernels, LaneKernel, LanePanel, LaneRow, Scalar, TensorBatchRef, LANE_WIDTH,
};
use telemetry::Telemetry;
use unrolled::LaneVisitor;

/// The fixed shift a solver must expose to run in lockstep: `Some(α)`
/// exactly when the solver is fixed-shift SS-HOPM. GEAP/QRST (and
/// adaptive-shift SS-HOPM) re-evaluate state per iterate, which breaks
/// the "same instruction stream for every lane" premise.
pub fn lockstep_alpha<S: Scalar>(solver: &dyn Solver<S>) -> Option<f64> {
    if solver.name() == "sshopm" {
        solver.fixed_shift()
    } else {
        None
    }
}

/// Solve every tensor of `batch` from every start in lockstep panels of
/// up to [`LANE_WIDTH`] tensors, using the fixed shift `alpha`.
///
/// Per lane, arithmetic is ordered identically to the scalar
/// [`SsHopm`](crate::SsHopm) iteration over the kernel the lanes mirror
/// (`UnrolledKernels` for generated bodies, `PrecomputedTables` for the
/// table walk), so results are bitwise equal to
/// `BatchSolver::solve_sequential` with that kernel. Mismatched or zero
/// starting vectors yield per-lane poisoned eigenpairs (`lambda = NaN`),
/// never a panic.
///
/// `threads == 1` runs panels sequentially on the calling thread;
/// `threads == 0` uses the current rayon pool; `threads == k` builds a
/// dedicated `k`-worker pool. Telemetry names match the scalar driver
/// (`batch.solve`, `batch.tensor_seconds`, `batch.tensors_done`,
/// `batch.solves`, `batch.converged`, `batch.iterations`).
pub fn solve_batch_lockstep<S: Scalar>(
    kernels: &BatchedKernels,
    batch: TensorBatchRef<'_, S>,
    starts: &[Vec<S>],
    alpha: f64,
    policy: IterationPolicy,
    threads: usize,
    telemetry: &Telemetry,
) -> BatchResult<S> {
    let _batch_span = telemetry.span("batch.solve");
    let count = batch.len();
    let num_panels = count.div_ceil(LANE_WIDTH);

    let solve_panel_at = |p: usize| -> (Vec<Vec<Eigenpair<S>>>, u64) {
        let start = p * LANE_WIDTH;
        let width = LANE_WIDTH.min(count - start);
        let started = telemetry.is_enabled().then(Instant::now);
        let (rows, iters, converged) = match LanePanel::gather(kernels, batch, start, width) {
            Ok(panel) => {
                let job = PanelJob {
                    a: panel.rows(),
                    width,
                    n: kernels.dim(),
                    starts,
                    alpha,
                    policy,
                };
                solve_panel(kernels, &job, Isa::detect())
            }
            // A shape mismatch between the batch and the kernels poisons
            // the whole panel rather than aborting the batch.
            Err(_) => (
                vec![vec![poisoned_pair(kernels.dim(), 0.0); starts.len()]; width],
                0,
                0,
            ),
        };
        if let Some(started) = started {
            let per_tensor = started.elapsed().as_secs_f64() / width as f64;
            for _ in 0..width {
                telemetry.observe("batch.tensor_seconds", per_tensor);
            }
            telemetry.counter("batch.tensors_done", width as u64);
            telemetry.counter("batch.solves", (width * starts.len()) as u64);
            telemetry.counter("batch.converged", converged);
            telemetry.counter("batch.iterations", iters);
        }
        (rows, iters)
    };

    let collect = |panels: Vec<(Vec<Vec<Eigenpair<S>>>, u64)>| {
        let mut results = Vec::with_capacity(count);
        let mut total_iterations = 0u64;
        for (rows, iters) in panels {
            total_iterations += iters;
            results.extend(rows);
        }
        BatchResult {
            results,
            total_iterations,
        }
    };

    if threads == 1 {
        return collect((0..num_panels).map(solve_panel_at).collect());
    }
    let solve_all = || {
        collect(
            (0..num_panels)
                .into_par_iter()
                .map(solve_panel_at)
                .collect(),
        )
    };
    if threads == 0 {
        solve_all()
    } else {
        match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => pool.install(solve_all),
            // Pool creation only fails on resource exhaustion; degrade to
            // the global pool rather than aborting.
            Err(_) => solve_all(),
        }
    }
}

fn poisoned_pair<S: Scalar>(n: usize, alpha: f64) -> Eigenpair<S> {
    Eigenpair {
        lambda: S::from_f64(f64::NAN),
        x: vec![S::ZERO; n],
        iterations: 0,
        converged: false,
        alpha,
    }
}

/// One gathered panel's work: its entry rows (`a[e][t]`), its tensor
/// count, and the solve parameters shared by every panel.
#[derive(Clone, Copy)]
struct PanelJob<'a, S> {
    a: &'a [LaneRow<S>],
    width: usize,
    n: usize,
    starts: &'a [Vec<S>],
    alpha: f64,
    policy: IterationPolicy,
}

/// Per-tensor rows (`rows[t][v]`), total iterations, converged count.
type PanelOut<S> = (Vec<Vec<Eigenpair<S>>>, u64, u64);

/// Which compiled copy of the panel loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// Baseline code for the build target.
    Portable,
    /// The copy compiled with AVX2 and FMA enabled (x86-64 only).
    Avx2Fma,
}

impl Isa {
    /// The best copy this host runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return Isa::Avx2Fma;
        }
        Isa::Portable
    }
}

/// Iterate one panel through all starting vectors on the kernels' lane
/// kernel, in the copy of the panel loop `isa` names. Generated bodies are
/// reached through [`unrolled::visit_lanes`] rather than the kernels'
/// function pointers, so they inline into (and compile with the features
/// of) the panel loop.
fn solve_panel<S: Scalar>(
    kernels: &BatchedKernels,
    job: &PanelJob<'_, S>,
    isa: Isa,
) -> PanelOut<S> {
    let mut run = PanelRun { job, isa };
    if kernels.is_generated() {
        match unrolled::visit_lanes(kernels.order(), kernels.dim(), run) {
            Ok(out) => return out,
            Err(unvisited) => run = unvisited,
        }
    }
    run.visit(kernels.tables())
}

/// [`run_panel`] as a [`LaneVisitor`], so the shape's generated kernel is
/// passed in by type.
struct PanelRun<'j, 'a, S> {
    job: &'j PanelJob<'a, S>,
    isa: Isa,
}

impl<S: Scalar> LaneVisitor<S> for PanelRun<'_, '_, S> {
    type Output = PanelOut<S>;

    fn visit<K: LaneKernel<S>>(self, kernel: K) -> PanelOut<S> {
        run_panel(kernel, self.job, self.isa)
    }
}

fn run_panel<S: Scalar, K: LaneKernel<S>>(k: K, job: &PanelJob<'_, S>, isa: Isa) -> PanelOut<S> {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2Fma && Isa::detect() == Isa::Avx2Fma {
        // SAFETY: the host supports AVX2 and FMA, checked just above.
        return unsafe { panel_loop_avx2_fma(k, job) };
    }
    panel_loop(k, job)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn panel_loop_avx2_fma<S: Scalar, K: LaneKernel<S>>(k: K, job: &PanelJob<'_, S>) -> PanelOut<S> {
    panel_loop(k, job)
}

/// The SS-HOPM iteration for every lane of a panel: one kernel call per
/// contraction, then the shift, norm, divide and retire step for the
/// whole panel under the lane mask, in the scalar iteration's per-lane
/// operation order.
///
/// The panel's solves — every (tensor, start) pair — form one queue, each
/// solve exactly the scalar one. A lane that retires (converged,
/// degenerate or at the iteration cap) records its eigenpair and takes
/// the next solve at once, copying that solve's tensor into its column
/// of the working rows when it differs. So under a tolerance the panel
/// does not idle behind its slowest solves, and a ragged panel's spare
/// lanes share its work. The queue is start-major: with a fixed
/// iteration count the lanes of a full panel retire together and lane
/// `w` keeps tensor `w`.
#[inline(always)]
fn panel_loop<S: Scalar, K: LaneKernel<S>>(k: K, job: &PanelJob<'_, S>) -> PanelOut<S> {
    let PanelJob {
        a,
        width,
        n,
        starts,
        alpha,
        policy,
    } = *job;
    let (tol, max_iters) = match policy {
        IterationPolicy::Converge { tol, max_iters } => (tol, max_iters),
        IterationPolicy::Fixed(k) => (0.0, k),
    };
    let converge_mode = matches!(policy, IterationPolicy::Converge { .. });
    let alpha_s = S::from_f64(alpha);

    // The scalar solver normalizes each start once; every lane shares the
    // starts, so one normalization serves the whole panel. `None` marks a
    // mismatched or zero start, which poisons its eigenpair.
    let normalized: Vec<Option<Vec<S>>> = starts
        .iter()
        .map(|x0| {
            let mut x = x0.clone();
            let valid = x0.len() == n && symtensor::scalar::normalize(&mut x) != S::ZERO;
            valid.then_some(x)
        })
        .collect();

    // Solve j is (tensor j % width, start j / width); its eigenpair lands
    // in slots[tensor][start].
    let solves = width * starts.len();
    let mut next = 0usize;
    let mut slots: Vec<Vec<Option<Eigenpair<S>>>> = vec![vec![None; starts.len()]; width];
    let mut total_iters = 0u64;
    let mut total_converged = 0u64;

    // Working entry rows (lane w holds tensor holds[w]) and lane vectors:
    // xs[i][w] is component i of lane w's iterate.
    let mut rows = vec![[S::ZERO; LANE_WIDTH]; a.len()];
    let mut holds = [usize::MAX; LANE_WIDTH];
    let mut xs = vec![[S::ZERO; LANE_WIDTH]; n];
    let mut ys = vec![[S::ZERO; LANE_WIDTH]; n];
    // Per-lane solve state: the (tensor, start) being solved, and the
    // scalar iteration's λ, iteration count and convergence flag.
    let mut solving = [(0usize, 0usize); LANE_WIDTH];
    let mut active = [false; LANE_WIDTH];
    let mut lambda = [S::ZERO; LANE_WIDTH];
    let mut iterations = [0usize; LANE_WIDTH];
    let mut converged = [false; LANE_WIDTH];

    loop {
        // Idle lanes take the next valid solve; λ₀ for all of them in
        // one call.
        let mut fresh = [false; LANE_WIDTH];
        for w in 0..LANE_WIDTH {
            while !active[w] && next < solves {
                let (t, v) = (next % width, next / width);
                next += 1;
                let Some(x0) = &normalized[v] else {
                    slots[t][v] = Some(poisoned_pair(n, 0.0));
                    continue;
                };
                if holds[w] != t {
                    for (row, src) in rows.iter_mut().zip(a) {
                        row[w] = src[t];
                    }
                    holds[w] = t;
                }
                for (x, &c) in xs.iter_mut().zip(x0) {
                    x[w] = c;
                }
                solving[w] = (t, v);
                (active[w], fresh[w]) = (true, true);
                (iterations[w], converged[w]) = (0, false);
            }
        }
        if fresh.contains(&true) {
            let lambda0 = k.axm(&rows, &xs);
            for w in 0..LANE_WIDTH {
                if fresh[w] {
                    lambda[w] = lambda0[w];
                }
            }
        }

        if !active.contains(&true) {
            break;
        }

        // Iterate until some lane retires. No lane reaches the cap before
        // the one closest to it, so the cap is checked once, after.
        let budget = (0..LANE_WIDTH)
            .filter(|&w| active[w])
            .map(|w| max_iters.saturating_sub(iterations[w]))
            .min()
            .unwrap_or(0);
        let mut retire = [false; LANE_WIDTH];
        for _ in 0..budget {
            // ŷ ← A x^{m-1} for every lane.
            k.axm1(&rows, &xs, &mut ys);
            // ŷ ← ŷ + α x (negated when α < 0), per component in the
            // scalar order; ys is scratch, so idle lanes compute too.
            if alpha >= 0.0 {
                for (y, x) in ys.iter_mut().zip(&xs) {
                    for w in 0..LANE_WIDTH {
                        y[w] += alpha_s * x[w];
                    }
                }
            } else {
                for (y, x) in ys.iter_mut().zip(&xs) {
                    for w in 0..LANE_WIDTH {
                        y[w] = -(y[w] + alpha_s * x[w]);
                    }
                }
            }
            let mut acc = [S::ZERO; LANE_WIDTH];
            for y in &ys {
                for w in 0..LANE_WIDTH {
                    acc[w] += y[w] * y[w];
                }
            }
            let nrm = acc.map(S::sqrt);
            let mut live = active;
            for w in 0..LANE_WIDTH {
                if live[w] && nrm[w] == S::ZERO {
                    // Degenerate: x already solves the shifted fixed point.
                    iterations[w] += 1;
                    converged[w] = converge_mode;
                    (live[w], retire[w]) = (false, true);
                }
            }
            // x ← ŷ / ‖ŷ‖ on live lanes; the others keep their iterate.
            for (x, y) in xs.iter_mut().zip(&ys) {
                for w in 0..LANE_WIDTH {
                    x[w] = if live[w] { y[w] / nrm[w] } else { x[w] };
                }
            }
            // λ_{k+1} per lane (only live lanes read theirs).
            let out = k.axm(&rows, &xs);
            for w in 0..LANE_WIDTH {
                if live[w] {
                    iterations[w] += 1;
                    if converge_mode && (out[w] - lambda[w]).abs().to_f64() <= tol {
                        (converged[w], retire[w]) = (true, true);
                    }
                    lambda[w] = out[w];
                }
            }
            if retire.contains(&true) {
                break;
            }
        }
        for w in 0..LANE_WIDTH {
            retire[w] |= active[w] && iterations[w] >= max_iters;
        }

        for w in 0..LANE_WIDTH {
            if !retire[w] {
                continue;
            }
            let pair = Eigenpair {
                lambda: lambda[w],
                x: xs.iter().map(|x| x[w]).collect(),
                iterations: iterations[w],
                converged: converged[w] || !converge_mode,
                alpha,
            };
            total_iters += pair.iterations as u64;
            total_converged += u64::from(pair.converged);
            let (t, v) = solving[w];
            slots[t][v] = Some(pair);
            active[w] = false;
        }
    }

    // Every slot was filled exactly once above.
    let rows = slots
        .into_iter()
        .map(|row| row.into_iter().flatten().collect())
        .collect();
    (rows, total_iters, total_converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSolver;
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use crate::starts::random_uniform_starts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::{PrecomputedTables, SymTensor, TensorBatch};

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    fn scalar_reference(
        tensors: &TensorBatch<f64>,
        starts: &[Vec<f64>],
        solver: SsHopm,
    ) -> BatchResult<f64> {
        let tables = PrecomputedTables::new(4, 3);
        BatchSolver::new(solver).solve_sequential(&tables, tensors, starts)
    }

    #[test]
    fn lockstep_is_bitwise_equal_to_scalar_precomputed_path() {
        // 11 tensors: one full panel plus a ragged 3-lane tail.
        let (tensors, starts) = workload(11, 4, 42);
        let solver = SsHopm::new(Shift::Fixed(2.5)).with_tolerance(1e-12);
        let reference = scalar_reference(&tensors, &starts, solver);
        let kernels = BatchedKernels::new(4, 3);
        let got = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            2.5,
            solver.policy(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(got.num_tensors(), reference.num_tensors());
        assert_eq!(got.total_iterations, reference.total_iterations);
        for (t, v, want) in reference.iter_flat() {
            let have = &got.results[t][v];
            assert_eq!(
                want.lambda.to_bits(),
                have.lambda.to_bits(),
                "tensor {t} start {v}"
            );
            assert_eq!(want.iterations, have.iterations, "tensor {t} start {v}");
            assert_eq!(want.converged, have.converged);
            for (a, b) in want.x.iter().zip(&have.x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn lockstep_matches_scalar_under_fixed_iteration_policy() {
        let (tensors, starts) = workload(9, 3, 7);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
        let reference = scalar_reference(&tensors, &starts, solver);
        let kernels = BatchedKernels::new(4, 3);
        let got = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            0.0,
            solver.policy(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(got.total_iterations, 9 * 3 * 20);
        for (t, v, want) in reference.iter_flat() {
            let have = &got.results[t][v];
            assert_eq!(want.lambda.to_bits(), have.lambda.to_bits());
            assert_eq!(have.iterations, 20);
            assert!(have.converged);
        }
    }

    #[test]
    fn negative_shift_branch_matches_scalar() {
        let (tensors, starts) = workload(5, 3, 13);
        let solver = SsHopm::new(Shift::Fixed(-3.0)).with_tolerance(1e-12);
        let reference = scalar_reference(&tensors, &starts, solver);
        let kernels = BatchedKernels::new(4, 3);
        let got = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            -3.0,
            solver.policy(),
            1,
            &Telemetry::disabled(),
        );
        for (t, v, want) in reference.iter_flat() {
            let have = &got.results[t][v];
            assert_eq!(want.lambda.to_bits(), have.lambda.to_bits());
            assert_eq!(want.iterations, have.iterations);
        }
    }

    #[test]
    fn thread_count_does_not_change_lockstep_results() {
        let (tensors, starts) = workload(20, 2, 3);
        let kernels = BatchedKernels::new(4, 3);
        let policy = IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 1000,
        };
        let tel = Telemetry::disabled();
        let r1 = solve_batch_lockstep(&kernels, tensors.view(), &starts, 1.0, policy, 1, &tel);
        let r4 = solve_batch_lockstep(&kernels, tensors.view(), &starts, 1.0, policy, 4, &tel);
        for (t, v, p) in r1.iter_flat() {
            let q = &r4.results[t][v];
            assert_eq!(p.lambda.to_bits(), q.lambda.to_bits());
            assert_eq!(p.iterations, q.iterations);
        }
    }

    #[test]
    fn bad_starts_poison_per_lane_without_panicking() {
        let (tensors, _) = workload(3, 1, 5);
        let kernels = BatchedKernels::new(4, 3);
        let starts = vec![vec![0.0; 3], vec![1.0, 0.0], vec![0.5, 0.5, 0.5]];
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            1.0,
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        for t in 0..3 {
            assert!(res.results[t][0].lambda.is_nan(), "zero start");
            assert!(res.results[t][1].lambda.is_nan(), "short start");
            assert!(res.results[t][2].lambda.is_finite(), "good start");
            assert!(!res.results[t][0].converged);
            assert_eq!(res.results[t][0].iterations, 0);
        }
    }

    #[test]
    fn lockstep_alpha_gates_on_solver_identity() {
        let fixed: &dyn Solver<f64> = &SsHopm::new(Shift::Fixed(1.25));
        assert_eq!(lockstep_alpha(fixed), Some(1.25));
        let adaptive: &dyn Solver<f64> = &SsHopm::new(Shift::Adaptive);
        assert_eq!(lockstep_alpha(adaptive), None);
        let geap: &dyn Solver<f64> = &crate::Geap::new();
        assert_eq!(lockstep_alpha(geap), None);
        let qrst: &dyn Solver<f64> = &crate::Qrst::new();
        assert_eq!(lockstep_alpha(qrst), None);
    }

    #[test]
    fn telemetry_names_match_the_scalar_driver() {
        let (tensors, starts) = workload(10, 2, 21);
        let kernels = BatchedKernels::new(4, 3);
        let tel = Telemetry::enabled();
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            1.0,
            IterationPolicy::Fixed(5),
            1,
            &tel,
        );
        let snap = tel.snapshot();
        assert_eq!(snap.counter("batch.tensors_done"), Some(10));
        assert_eq!(snap.counter("batch.solves"), Some(20));
        assert_eq!(snap.counter("batch.iterations"), Some(res.total_iterations));
        assert_eq!(
            snap.histogram("batch.tensor_seconds").map(|h| h.count),
            Some(10)
        );
        assert_eq!(snap.span("batch.solve").map(|s| s.count), Some(1));
    }

    #[test]
    fn kolda_mayo_example_3_6_maxima_in_lockstep() {
        // Kolda & Mayo, Example 3.6: the Kofidis–Regalia tensor
        // A ∈ ℝ^[4,3], unique entries in the storage's lexicographic
        // index-class order. With α = 2, SS-HOPM finds exactly the three
        // published local maxima; each x is an eigenvector up to sign.
        let a = SymTensor::from_values(
            4,
            3,
            vec![
                0.2883, -0.0031, 0.1973, -0.2485, -0.2939, 0.3847, 0.2972, 0.1862, 0.0919, -0.3619,
                0.1241, -0.3420, 0.2127, 0.2727, -0.3054,
            ],
        )
        .unwrap();
        let maxima: [(f64, [f64; 3]); 3] = [
            (0.8893, [0.6672, 0.2471, -0.7027]),
            (0.8169, [0.8412, -0.2635, 0.4722]),
            (0.3633, [0.2676, 0.6448, 0.7160]),
        ];
        let tensors = TensorBatch::from_tensors(&[a]).unwrap();
        let mut rng = StdRng::seed_from_u64(36);
        let starts = random_uniform_starts(3, 128, &mut rng);
        let policy = IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 5000,
        };
        let kernels = BatchedKernels::new(4, 3);
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            2.0,
            policy,
            1,
            &Telemetry::disabled(),
        );
        let mut found = [0usize; 3];
        for pair in res.results[0].iter().filter(|p| p.converged) {
            let which = maxima.iter().position(|(lambda, x)| {
                let close = |sign: f64| (0..3).all(|i| (pair.x[i] - sign * x[i]).abs() < 1e-4);
                (pair.lambda - lambda).abs() < 1e-4 && (close(1.0) || close(-1.0))
            });
            let which = which.unwrap_or_else(|| panic!("not a published maximum: {pair:?}"));
            found[which] += 1;
        }
        assert!(found.iter().all(|&k| k > 0), "basin counts {found:?}");
    }

    #[test]
    fn empty_batch_and_empty_starts() {
        let kernels = BatchedKernels::new(4, 3);
        let empty = TensorBatch::<f64>::new(4, 3).unwrap();
        let res = solve_batch_lockstep(
            &kernels,
            empty.view(),
            &[],
            1.0,
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(res.num_tensors(), 0);
        assert_eq!(res.total_iterations, 0);
    }
}

/// Lane-unrolled parity: the generated lane bodies through the lockstep
/// driver against the scalar driver over `UnrolledKernels`, and the two
/// compiled copies of the panel loop against each other, on every
/// generated shape.
#[cfg(test)]
mod lane_parity {
    use super::*;
    use crate::batch::BatchSolver;
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use crate::starts::random_uniform_starts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::TensorBatch;
    use unrolled::{UnrolledKernels, GENERATED_SHAPES};

    const POLICIES: [IterationPolicy; 2] = [
        IterationPolicy::Fixed(20),
        IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 200,
        },
    ];
    const ALPHAS: [f64; 3] = [0.0, 2.5, -3.0];

    fn bits<S: Scalar>(v: S) -> u64 {
        v.to_f64().to_bits()
    }

    fn assert_pairs_bitwise<S: Scalar>(got: &Eigenpair<S>, want: &Eigenpair<S>, tag: &str) {
        assert_eq!(bits(got.lambda), bits(want.lambda), "{tag}: lambda");
        assert_eq!(got.iterations, want.iterations, "{tag}: iterations");
        assert_eq!(got.converged, want.converged, "{tag}: converged");
        assert_eq!(got.x.len(), want.x.len(), "{tag}: x length");
        for (g, w) in got.x.iter().zip(&want.x) {
            assert_eq!(bits(*g), bits(*w), "{tag}: x");
        }
    }

    /// 11 tensors, so the second panel is ragged (3 live lanes).
    fn workload<S: Scalar>(m: usize, n: usize, seed: u64) -> (TensorBatch<S>, Vec<Vec<S>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(m, n, 11, &mut rng).unwrap();
        let starts = random_uniform_starts(n, 3, &mut rng);
        (tensors, starts)
    }

    fn lockstep_matches_scalar_unrolled<S: Scalar>() {
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let (tensors, starts) = workload::<S>(m, n, 700 + i as u64);
            let lanes = unrolled::lane_kernels(m, n).unwrap();
            let scalar = UnrolledKernels::for_shape(m, n).unwrap();
            for policy in POLICIES {
                for alpha in ALPHAS {
                    let solver = SsHopm::new(Shift::Fixed(alpha)).with_policy(policy);
                    let want =
                        BatchSolver::new(solver).solve_sequential(&scalar, &tensors, &starts);
                    let got = solve_batch_lockstep(
                        &lanes,
                        tensors.view(),
                        &starts,
                        alpha,
                        policy,
                        1,
                        &Telemetry::disabled(),
                    );
                    assert_eq!(got.total_iterations, want.total_iterations);
                    for (t, v, w) in want.iter_flat() {
                        let tag =
                            format!("{} [{m},{n}] {policy:?} alpha {alpha} ({t},{v})", S::NAME);
                        assert_pairs_bitwise(&got.results[t][v], w, &tag);
                    }
                }
            }
        }
    }

    #[test]
    fn generated_lanes_are_bitwise_scalar_unrolled_f32() {
        lockstep_matches_scalar_unrolled::<f32>();
    }

    #[test]
    fn generated_lanes_are_bitwise_scalar_unrolled_f64() {
        lockstep_matches_scalar_unrolled::<f64>();
    }

    /// Run every panel of `tensors` through `solve_panel` in both copies
    /// of the panel loop and compare them bit for bit.
    fn copies_agree<S: Scalar>(
        kernels: &BatchedKernels,
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
    ) {
        for policy in POLICIES {
            for alpha in ALPHAS {
                for start in (0..tensors.len()).step_by(LANE_WIDTH) {
                    let width = LANE_WIDTH.min(tensors.len() - start);
                    let panel = LanePanel::gather(kernels, tensors.view(), start, width).unwrap();
                    let job = PanelJob {
                        a: panel.rows(),
                        width,
                        n: kernels.dim(),
                        starts,
                        alpha,
                        policy,
                    };
                    let portable = solve_panel(kernels, &job, Isa::Portable);
                    let avx2 = solve_panel(kernels, &job, Isa::Avx2Fma);
                    assert_eq!((portable.1, portable.2), (avx2.1, avx2.2));
                    for (w, (p_row, a_row)) in portable.0.iter().zip(&avx2.0).enumerate() {
                        for (v, (p, a)) in p_row.iter().zip(a_row).enumerate() {
                            let tag = format!(
                                "{} [{},{}] {policy:?} alpha {alpha} tensor {} start {v}",
                                S::NAME,
                                kernels.order(),
                                kernels.dim(),
                                start + w
                            );
                            assert_pairs_bitwise(a, p, &tag);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_and_avx2_panel_loops_agree_bitwise() {
        if Isa::detect() != Isa::Avx2Fma {
            eprintln!("host lacks AVX2+FMA: only the portable panel loop exists here");
            return;
        }
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let lanes = unrolled::lane_kernels(m, n).unwrap();
            let (t32, s32) = workload::<f32>(m, n, 900 + i as u64);
            copies_agree(&lanes, &t32, &s32);
            let (t64, s64) = workload::<f64>(m, n, 950 + i as u64);
            copies_agree(&lanes, &t64, &s64);
        }
        // The table walk (shapes with no generated kernel) too.
        let tables = BatchedKernels::new(5, 4);
        let (t32, s32) = workload::<f32>(5, 4, 990);
        copies_agree(&tables, &t32, &s32);
    }
}
