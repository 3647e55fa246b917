//! Lockstep batched SS-HOPM: iterate a *panel* of tensors simultaneously
//! through the vectorized [`LanePanel`] kernels.
//!
//! The scalar batch driver ([`crate::BatchSolver`]) walks the shared
//! per-shape index tables once per tensor per iteration. With a fixed
//! shift, every tensor in a panel executes the *same* instruction sequence
//! — only the data differs — so the driver here walks the tables once per
//! panel per iteration and updates all `LANE_WIDTH` accumulators in each
//! step (the CPU analogue of the paper's one-thread-block-per-tensor GPU
//! mapping). A per-lane *retirement mask* freezes tensors whose eigenvalue
//! estimate has converged while the rest of the panel keeps iterating, so
//! ragged convergence costs bookkeeping, not extra kernel work.
//!
//! Lockstep execution requires a state-independent update rule, so the
//! driver accepts exactly the solvers whose [`Solver::fixed_shift`]
//! reports `Some` (fixed-shift SS-HOPM — the paper's GPU setting);
//! adaptive solvers stay on the per-tensor [`crate::BatchSolver`]. The
//! CPU backend picks this driver by shape: under the `unrolled` strategy,
//! for shapes with no generated kernel.

use crate::batch::BatchResult;
use crate::solver::{Eigenpair, IterationPolicy};
use crate::traits::Solver;
use rayon::prelude::*;
use std::time::Instant;
use symtensor::{BatchedKernels, LanePanel, Scalar, TensorBatchRef, LANE_WIDTH};
use telemetry::Telemetry;

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
/// Arithmetic is ordered identically to the scalar
/// [`SsHopm`](crate::SsHopm) iteration over
/// [`PrecomputedTables`](symtensor::PrecomputedTables), so results are
/// bitwise equal to `BatchSolver::solve_sequential` with those kernels.
/// Mismatched or zero starting vectors yield per-lane poisoned eigenpairs
/// (`lambda = NaN`), never a panic.
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
            Ok(panel) => solve_panel(kernels, &panel, width, starts, alpha, policy),
            // A shape mismatch between the batch and the kernel tables
            // poisons the whole panel rather than aborting the batch.
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

/// Iterate one gathered panel through all starting vectors. Returns the
/// per-tensor rows (`rows[w][v]`), total iterations, and converged count.
fn solve_panel<S: Scalar>(
    kernels: &BatchedKernels,
    panel: &LanePanel<S>,
    width: usize,
    starts: &[Vec<S>],
    alpha: f64,
    policy: IterationPolicy,
) -> (Vec<Vec<Eigenpair<S>>>, u64, u64) {
    let n = kernels.dim();
    let (tol, max_iters) = match policy {
        IterationPolicy::Converge { tol, max_iters } => (tol, max_iters),
        IterationPolicy::Fixed(k) => (0.0, k),
    };
    let converge_mode = matches!(policy, IterationPolicy::Converge { .. });

    let mut rows: Vec<Vec<Eigenpair<S>>> = vec![Vec::with_capacity(starts.len()); width];
    let mut total_iters = 0u64;
    let mut total_converged = 0u64;

    // Lane work buffers, reused across starts.
    let mut xs = vec![S::ZERO; n * LANE_WIDTH];
    let mut ys = vec![S::ZERO; n * LANE_WIDTH];
    let mut out = [S::ZERO; LANE_WIDTH];

    for x0 in starts {
        // The scalar solver normalizes the start once; every lane shares
        // the same start, so one normalization serves the whole panel.
        let mut x0n = x0.clone();
        let valid = x0.len() == n && symtensor::scalar::normalize(&mut x0n) != S::ZERO;
        if !valid {
            for row in rows.iter_mut() {
                row.push(poisoned_pair(n, 0.0));
            }
            continue;
        }
        for i in 0..n {
            for w in 0..LANE_WIDTH {
                xs[i * LANE_WIDTH + w] = x0n[i];
            }
        }

        // λ₀ per lane.
        if panel.axm(kernels, &xs, &mut out).is_err() {
            for row in rows.iter_mut() {
                row.push(poisoned_pair(n, alpha));
            }
            continue;
        }
        let mut lambda = out;
        let alpha_s = S::from_f64(alpha);

        // The retirement mask: lanes drop out as they converge; the panel
        // keeps iterating until every lane has retired or the cap hits.
        let mut active = [false; LANE_WIDTH];
        active[..width].iter_mut().for_each(|a| *a = true);
        let mut iterations = [0usize; LANE_WIDTH];
        let mut converged = [false; LANE_WIDTH];
        let mut poisoned = [false; LANE_WIDTH];

        for _ in 0..max_iters {
            if !active.iter().any(|&a| a) {
                break;
            }
            // ŷ ← A x^{m-1} for every lane in one table walk.
            if panel.axm1(kernels, &xs, &mut ys).is_err() {
                for w in 0..width {
                    if active[w] {
                        active[w] = false;
                        poisoned[w] = true;
                    }
                }
                break;
            }
            for w in 0..LANE_WIDTH {
                if !active[w] {
                    continue;
                }
                // ŷ ← ŷ + α x (negated when α < 0), then normalize — the
                // exact per-component order of the scalar iteration.
                if alpha >= 0.0 {
                    for i in 0..n {
                        ys[i * LANE_WIDTH + w] += alpha_s * xs[i * LANE_WIDTH + w];
                    }
                } else {
                    for i in 0..n {
                        let v = ys[i * LANE_WIDTH + w] + alpha_s * xs[i * LANE_WIDTH + w];
                        ys[i * LANE_WIDTH + w] = -v;
                    }
                }
                let mut acc = S::ZERO;
                for i in 0..n {
                    let v = ys[i * LANE_WIDTH + w];
                    acc += v * v;
                }
                let nrm = acc.sqrt();
                if nrm == S::ZERO {
                    // Degenerate: x already solves the shifted fixed point.
                    iterations[w] += 1;
                    converged[w] = converge_mode;
                    active[w] = false;
                    continue;
                }
                for i in 0..n {
                    xs[i * LANE_WIDTH + w] = ys[i * LANE_WIDTH + w] / nrm;
                }
            }
            // λ_{k+1} per lane in one table walk (retired lanes' iterates
            // are frozen, so their recomputed λ is unchanged and unread).
            if panel.axm(kernels, &xs, &mut out).is_err() {
                for w in 0..width {
                    if active[w] {
                        active[w] = false;
                        poisoned[w] = true;
                    }
                }
                break;
            }
            for w in 0..LANE_WIDTH {
                if !active[w] {
                    continue;
                }
                let new_lambda = out[w];
                iterations[w] += 1;
                if converge_mode && (new_lambda - lambda[w]).abs().to_f64() <= tol {
                    converged[w] = true;
                    active[w] = false;
                }
                lambda[w] = new_lambda;
            }
        }

        for (w, row) in rows.iter_mut().enumerate() {
            if poisoned[w] {
                row.push(poisoned_pair(n, alpha));
                continue;
            }
            let pair = Eigenpair {
                lambda: lambda[w],
                x: (0..n).map(|i| xs[i * LANE_WIDTH + w]).collect(),
                iterations: iterations[w],
                converged: converged[w] || !converge_mode,
                alpha,
            };
            total_iters += pair.iterations as u64;
            total_converged += u64::from(pair.converged);
            row.push(pair);
        }
    }

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
