//! The CPU backend reads the lane driver off the shape: under `unrolled`,
//! a fixed-shift SS-HOPM batch whose shape has no generated kernel runs
//! in lockstep lanes, and every other combination keeps the per-tensor
//! driver on the registry's plan.

use backend::{BatchReport, Cpu, KernelRegistry, KernelStrategy, SolveBackend};
use rand::SeedableRng;
use sshopm::{starts, BatchResult, BatchSolver, Geap, IterationPolicy, Shift, Solver, SsHopm};
use symtensor::{special, PrecomputedTables, TensorBatch, TensorKernels};
use telemetry::Telemetry;
use unrolled::UnrolledKernels;

fn workload(m: usize, n: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // 11 tensors: one full lane panel plus a ragged tail.
    let tensors = TensorBatch::random(m, n, 11, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(n, 6, &mut rng);
    (tensors, starts)
}

fn solve_unrolled(
    tensors: &TensorBatch<f32>,
    starts: &[Vec<f32>],
    solver: &dyn Solver<f32>,
) -> BatchReport<f32> {
    Cpu::new(1, KernelStrategy::Unrolled)
        .solve_batch(tensors, starts, solver, &Telemetry::disabled())
        .unwrap()
}

fn assert_bitwise(report: &BatchReport<f32>, reference: &BatchResult<f32>) {
    assert_eq!(report.total_iterations, reference.total_iterations);
    for (t, v, want) in reference.iter_flat() {
        let got = &report.results[t][v];
        assert_eq!(got.lambda.to_bits(), want.lambda.to_bits(), "({t},{v})");
        assert_eq!(got.iterations, want.iterations, "({t},{v})");
        assert_eq!(got.converged, want.converged, "({t},{v})");
        for (g, w) in got.x.iter().zip(&want.x) {
            assert_eq!(g.to_bits(), w.to_bits(), "({t},{v})");
        }
    }
}

fn per_tensor<K: TensorKernels<f32> + ?Sized>(
    solver: &dyn Solver<f32>,
    kernels: &K,
    tensors: &TensorBatch<f32>,
    starts: &[Vec<f32>],
) -> BatchResult<f32> {
    BatchSolver::new(solver).solve_sequential(kernels, tensors, starts)
}

#[test]
fn unrolled_picks_the_kernel_path_by_shape_and_solver() {
    let fixed = SsHopm::new(Shift::Fixed(1.0)).with_policy(IterationPolicy::Converge {
        tol: 1e-6,
        max_iters: 300,
    });

    // (5,4) has no generated kernel: fixed-shift SS-HOPM runs in lanes,
    // bit for bit the scalar driver over the precomputed tables.
    let (tensors, starts) = workload(5, 4, 54);
    assert!(UnrolledKernels::for_shape(5, 4).is_none());
    let lanes = solve_unrolled(&tensors, &starts, &fixed);
    assert_eq!(lanes.kernel, "lanes");
    assert_bitwise(
        &lanes,
        &per_tensor(&fixed, &PrecomputedTables::new(5, 4), &tensors, &starts),
    );

    // GEAP adapts its shift per iterate, so it cannot run in lockstep:
    // the per-tensor driver on the blocked fallback, as before.
    let geap = Geap::new().with_policy(IterationPolicy::Fixed(30));
    let blocked = solve_unrolled(&tensors, &starts, &geap);
    assert_eq!(blocked.kernel, "blocked");
    let plan = KernelRegistry::new().plan::<f32>(5, 4, KernelStrategy::Blocked);
    assert_bitwise(
        &blocked,
        &per_tensor(&geap, &*plan.kernels, &tensors, &starts),
    );

    // (4,3) has a generated kernel: scalar unrolled, as before.
    let (tensors, starts) = workload(4, 3, 43);
    let unrolled = solve_unrolled(&tensors, &starts, &fixed);
    assert_eq!(unrolled.kernel, "unrolled");
    let kernels = UnrolledKernels::for_shape(4, 3).unwrap();
    assert_bitwise(&unrolled, &per_tensor(&fixed, &kernels, &tensors, &starts));
}

#[test]
fn explicit_strategies_never_take_lanes() {
    let fixed = SsHopm::new(Shift::Fixed(1.0)).with_policy(IterationPolicy::Fixed(10));
    let (tensors, starts) = workload(5, 4, 7);
    for strategy in [
        KernelStrategy::General,
        KernelStrategy::Blocked,
        KernelStrategy::Tape,
    ] {
        let report = Cpu::new(1, strategy)
            .solve_batch(&tensors, &starts, &fixed, &Telemetry::disabled())
            .unwrap();
        assert_eq!(report.kernel, strategy.name());
    }
}

/// An orthogonally decomposable (5,4) tensor A = Σ wᵢ vᵢ^⊗5 with
/// orthonormal vᵢ and positive wᵢ. With cᵢ = vᵢ·x, A·x⁴ = Σ wᵢ cᵢ⁴ vᵢ, so
/// the eigenpairs solve wᵢ cᵢ⁴ = λ cᵢ. Their local maxima on the sphere,
/// which a convex fixed shift converges to, are the (wᵢ, vᵢ) and, since
/// the order is odd, one more: every cᵢ = −(|λ|/wᵢ)^(1/3) with
/// λ = −(Σ wᵢ^(−2/3))^(−3/2).
#[test]
fn odeco_5_4_recovers_weights_and_vectors_through_lanes() {
    // Rows of the Householder reflection I - 2uuᵀ/uᵀu: orthonormal.
    let u = [1.0, -2.0, 0.5, 3.0];
    let uu: f64 = u.iter().map(|v| v * v).sum();
    let vectors: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            (0..4)
                .map(|j| if i == j { 1.0 } else { 0.0 } - 2.0 * u[i] * u[j] / uu)
                .collect()
        })
        .collect();
    let weights = [1.0, 0.8, 0.6, 0.4];
    let mut maxima: Vec<(f64, Vec<f64>)> = weights.iter().copied().zip(vectors.clone()).collect();
    let lambda = -weights
        .iter()
        .map(|w: &f64| w.powf(-2.0 / 3.0))
        .sum::<f64>()
        .powf(-1.5);
    let x = (0..4)
        .map(|j| {
            (0..4)
                .map(|i| -(lambda.abs() / weights[i]).cbrt() * vectors[i][j])
                .sum()
        })
        .collect();
    maxima.push((lambda, x));

    let a = special::from_rank_ones(5, &weights, &vectors);
    let tensors = TensorBatch::from_tensors(&[a]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let starts = starts::random_gaussian_starts::<f64, _>(4, 64, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(2.0)).with_policy(IterationPolicy::Converge {
        tol: 1e-14,
        max_iters: 5000,
    });

    let report = Cpu::new(1, KernelStrategy::Unrolled)
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    assert_eq!(report.kernel, "lanes");
    let mut found = [0usize; 5];
    for pair in report.results[0].iter().filter(|p| p.converged) {
        let which = maxima.iter().position(|(lambda, x)| {
            (pair.lambda - lambda).abs() < 1e-4
                && pair.x.iter().zip(x).all(|(a, b)| (a - b).abs() < 1e-4)
        });
        let which = which.unwrap_or_else(|| panic!("not a local maximum: {pair:?}"));
        found[which] += 1;
    }
    // Every (wᵢ, vᵢ) is recovered.
    assert!(found[..4].iter().all(|&k| k > 0), "basin counts {found:?}");
}
