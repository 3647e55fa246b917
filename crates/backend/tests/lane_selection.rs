//! The CPU backend runs every fixed-shift SS-HOPM batch under `unrolled`
//! in lockstep lanes — generated lane bodies where the shape has them
//! (`unrolled-lanes`), the table walk otherwise (`lanes`) — and every other
//! combination keeps the per-tensor driver on the registry's plan.

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

    // (4,3) has a generated kernel: generated lane bodies, each lane bit
    // for bit the scalar unrolled kernel.
    let (tensors, starts) = workload(4, 3, 43);
    let unrolled = solve_unrolled(&tensors, &starts, &fixed);
    assert_eq!(unrolled.kernel, "unrolled-lanes");
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

/// Kolda & Mayo, Example 3.6: the Kofidis–Regalia tensor A ∈ ℝ^[4,3], unique
/// entries in the storage's lexicographic index-class order, solved
/// through the CPU backend's generated lanes from 1000 seeded starts.
/// α = 2 finds exactly the three published local maxima (x up to sign);
/// α = −2 finds exactly the three published local minima.
#[test]
fn kolda_mayo_example_3_6_through_unrolled_lanes() {
    let a = symtensor::SymTensor::from_values(
        4,
        3,
        vec![
            0.2883, -0.0031, 0.1973, -0.2485, -0.2939, 0.3847, 0.2972, 0.1862, 0.0919, -0.3619,
            0.1241, -0.3420, 0.2127, 0.2727, -0.3054,
        ],
    )
    .unwrap();
    let tensors = TensorBatch::from_tensors(std::slice::from_ref(&a)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(36);
    let starts = starts::random_uniform_starts::<f64, _>(3, 1000, &mut rng);
    let solve = |alpha: f64| {
        let solver = SsHopm::new(Shift::Fixed(alpha)).with_policy(IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 5000,
        });
        let report = Cpu::new(1, KernelStrategy::Unrolled)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        assert_eq!(report.kernel, "unrolled-lanes");
        report.results.into_iter().next().unwrap()
    };

    let maxima: [(f64, [f64; 3]); 3] = [
        (0.8893, [0.6672, 0.2471, -0.7027]),
        (0.8169, [0.8412, -0.2635, 0.4722]),
        (0.3633, [0.2676, 0.6448, 0.7160]),
    ];
    let mut found = [0usize; 3];
    for pair in solve(2.0).iter().filter(|p| p.converged) {
        let which = maxima.iter().position(|(lambda, x)| {
            let close = |sign: f64| (0..3).all(|i| (pair.x[i] - sign * x[i]).abs() < 1e-4);
            (pair.lambda - lambda).abs() < 1e-4 && (close(1.0) || close(-1.0))
        });
        let which = which.unwrap_or_else(|| panic!("not a published maximum: {pair:?}"));
        found[which] += 1;
    }
    assert!(
        found.iter().all(|&k| k > 0),
        "maxima basin counts {found:?}"
    );

    let minima = [-0.0451, -0.5629, -1.0954];
    let mut found = [0usize; 3];
    for pair in solve(-2.0).iter().filter(|p| p.converged) {
        let which = minima
            .iter()
            .position(|lambda| (pair.lambda - lambda).abs() < 1e-4);
        let which = which.unwrap_or_else(|| panic!("not a published minimum: {pair:?}"));
        found[which] += 1;
        // And x is its eigenvector: A·x³ = λx.
        let mut y = [0.0; 3];
        symtensor::kernels::axm1(&a, &pair.x, &mut y).unwrap();
        let residual: f64 = (0..3)
            .map(|i| (y[i] - pair.lambda * pair.x[i]).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(residual < 1e-6, "residual {residual} at {pair:?}");
    }
    assert!(
        found.iter().all(|&k| k > 0),
        "minima basin counts {found:?}"
    );
}
