//! Per-layer probes of the traced run. Each times calls into one layer's
//! public functions from outside, inside a span, on the workload's own
//! tensors (the first `Def::probe` of them) and starts.

use crate::host::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{extract_default, paper_solver, Def, Program};
use backend::{BackendSpec, KernelRegistry};
use kernelgen::KernelStrategy;
use sshopm::{BatchSolver, DedupConfig, Eigenpair, Solver};
use symtensor::{flops, LanePanel, Scalar, TensorBatch, TensorKernels, LANE_WIDTH};
use telemetry::Telemetry;

/// Repetitions of each probe; metrics are medians over them.
const REPS: usize = 5;
/// Kernel calls per timed kernel-probe repetition (before rounding up to
/// whole sweeps over tensors × starts).
const KERNEL_CALLS: usize = 200_000;

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Run `work` `REPS` times, each calibrated and in a span called
/// `name`; returns the last result and the median calibrated ns.
fn reps<R>(t: &mut Tracer, name: &'static str, mut work: impl FnMut() -> R) -> (R, f64) {
    let mut ns = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        t.calibrate();
        let (out, took) = t.span(name, &mut work);
        ns.push(took);
        last = Some(out);
    }
    (last.expect("REPS > 0"), median(&ns))
}

/// Median calibrated ns per `axm1` and per `axm` call of `kernels`.
fn kernel_pair<S: Scalar>(
    t: &mut Tracer,
    names: (&'static str, &'static str),
    kernels: &dyn TensorKernels<S>,
    probe: &TensorBatch<S>,
    starts: &[Vec<S>],
) -> (f64, f64) {
    let per_sweep = probe.len() * starts.len();
    let sweeps = KERNEL_CALLS.div_ceil(per_sweep);
    let calls = (sweeps * per_sweep) as f64;
    let mut y = vec![S::ZERO; probe.dim()];
    let (_, axm1) = reps(t, names.0, || {
        for _ in 0..sweeps {
            for a in probe.iter() {
                for x in starts {
                    kernels.axm1(a, x, &mut y).expect("probe shapes match");
                    std::hint::black_box(&mut y);
                }
            }
        }
    });
    let (_, axm) = reps(t, names.1, || {
        let mut acc = S::ZERO;
        for _ in 0..sweeps {
            for a in probe.iter() {
                for x in starts {
                    acc += kernels.axm(a, x).expect("probe shapes match");
                }
            }
        }
        acc
    });
    (axm1 / calls, axm / calls)
}

/// Kernel, lane, solver, backend, GPU-model, fiber and report probes.
pub fn probe<S: Scalar>(
    t: &mut Tracer,
    def: &Def,
    program: &Program<S>,
    results: &[Vec<Eigenpair<S>>],
) -> Vec<Metric> {
    let probe = program.head(def.probe);
    let starts = &program.starts;
    let (m, n) = (probe.order(), probe.dim());
    let registry = KernelRegistry::global();
    let mut out: Vec<Metric> = Vec::new();

    // Kernels: the workload's effective strategy, the paper's general
    // baseline, and the two arbitrary-shape candidates.
    let (axm1, axm) = kernel_pair(
        t,
        ("kernels.axm1", "kernels.axm"),
        &*program.plan.kernels,
        &probe,
        starts,
    );
    let general = registry.plan::<S>(m, n, KernelStrategy::General);
    let (g1, g0) = kernel_pair(
        t,
        ("kernels.general_axm1", "kernels.general_axm"),
        &*general.kernels,
        &probe,
        starts,
    );
    let tape = registry.plan::<S>(m, n, KernelStrategy::Tape);
    let (t1, t0) = kernel_pair(
        t,
        ("kernels.tape_axm1", "kernels.tape_axm"),
        &*tape.kernels,
        &probe,
        starts,
    );
    let blocked = registry.plan::<S>(m, n, KernelStrategy::Blocked);
    let (b1, b0) = kernel_pair(
        t,
        ("kernels.blocked_axm1", "kernels.blocked_axm"),
        &*blocked.kernels,
        &probe,
        starts,
    );
    let kernel_flops = flops::axm1_sym_flops(m, n) + flops::axm_sym_flops(m, n);
    out.extend([
        ("kernels.axm1_ns", axm1, "ns"),
        ("kernels.axm_ns", axm, "ns"),
        ("kernels.general_axm1_ns", g1, "ns"),
        ("kernels.general_axm_ns", g0, "ns"),
        ("kernels.tape_axm1_ns", t1, "ns"),
        ("kernels.tape_axm_ns", t0, "ns"),
        ("kernels.blocked_axm1_ns", b1, "ns"),
        ("kernels.blocked_axm_ns", b0, "ns"),
        (
            "kernels.flops_per_iter",
            flops::sshopm_iter_flops(m, n) as f64,
            "flop",
        ),
        (
            "kernels.gflops",
            kernel_flops as f64 / (axm1 + axm),
            "GFLOP/s",
        ),
    ]);

    // Lanes: panel gather, and panel kernels per tensor, every start
    // broadcast to all lanes.
    let lanes = registry.batched(m, n);
    let panels = probe.len().div_ceil(LANE_WIDTH);
    const GATHER_SWEEPS: usize = 100;
    let gather_all = || -> Vec<LanePanel<S>> {
        (0..panels)
            .map(|p| {
                let start = p * LANE_WIDTH;
                let width = LANE_WIDTH.min(probe.len() - start);
                LanePanel::gather(&lanes, probe.view(), start, width).expect("probe shape")
            })
            .collect()
    };
    let (_, gather_ns) = reps(t, "lanes.gather", || {
        for _ in 0..GATHER_SWEEPS {
            std::hint::black_box(gather_all());
        }
    });
    let gathered = gather_all();
    let xs: Vec<Vec<S>> = starts
        .iter()
        .map(|x| {
            x.iter()
                .flat_map(|&v| std::iter::repeat_n(v, LANE_WIDTH))
                .collect()
        })
        .collect();
    let lane_calls = (probe.len() * starts.len()) as f64;
    let mut ys = vec![S::ZERO; n * LANE_WIDTH];
    let mut outs = vec![S::ZERO; LANE_WIDTH];
    let (_, lane_axm1) = reps(t, "lanes.axm1", || {
        for panel in &gathered {
            for x in &xs {
                panel.axm1(&lanes, x, &mut ys).expect("lane shapes");
                std::hint::black_box(&mut ys);
            }
        }
    });
    let (_, lane_axm) = reps(t, "lanes.axm", || {
        for panel in &gathered {
            for x in &xs {
                panel.axm(&lanes, x, &mut outs).expect("lane shapes");
                std::hint::black_box(&mut outs);
            }
        }
    });
    out.extend([
        (
            "lanes.gather_ns_per_panel",
            gather_ns / (GATHER_SWEEPS * panels) as f64,
            "ns",
        ),
        ("lanes.axm1_ns_per_tensor", lane_axm1 / lane_calls, "ns"),
        ("lanes.axm_ns_per_tensor", lane_axm / lane_calls, "ns"),
    ]);

    // SS-HOPM drivers.
    let (batch, batch_ns) = reps(t, "sshopm.batch_solver_run", || {
        BatchSolver::new(&*program.solver).with_threads(1).run(
            &*program.plan.kernels,
            &probe,
            starts,
            &Telemetry::disabled(),
        )
    });
    let batch_per_iter = batch_ns / batch.total_iterations.max(1) as f64;
    let paper = paper_solver();
    let fixed: &dyn Solver<S> = if sshopm::lockstep_alpha(&*program.solver).is_some() {
        &*program.solver
    } else {
        &paper
    };
    let alpha = sshopm::lockstep_alpha(fixed).expect("fixed-shift SS-HOPM");
    let (lock, lock_ns) = reps(t, "sshopm.solve_batch_lockstep", || {
        sshopm::solve_batch_lockstep(
            &lanes,
            probe.view(),
            starts,
            alpha,
            fixed.policy(),
            1,
            &Telemetry::disabled(),
        )
    });
    let iters: Vec<f64> = results
        .iter()
        .flatten()
        .map(|p| p.iterations as f64)
        .collect();
    let converged = results.iter().flatten().filter(|p| p.converged).count();
    let dedup_tensors = results.len().min(def.probe);
    let (_, dedup_ns) = reps(t, "sshopm.spectrum_from_pairs", || {
        for (i, pairs) in results.iter().take(dedup_tensors).enumerate() {
            std::hint::black_box(sshopm::spectrum_from_pairs(
                program.tensors.get(i),
                pairs.iter().cloned(),
                &DedupConfig::default(),
                1e-5,
            ));
        }
    });
    out.extend([
        ("sshopm.batch_ns_per_iter", batch_per_iter, "ns"),
        (
            "sshopm.non_kernel_ns_per_iter",
            batch_per_iter - (axm1 + axm),
            "ns",
        ),
        (
            "sshopm.lockstep_ns_per_iter",
            lock_ns / lock.total_iterations.max(1) as f64,
            "ns",
        ),
        ("sshopm.iters_per_solve", mean(&iters), "iter"),
        ("sshopm.iters_per_solve_p99", quantile(&iters, 0.99), "iter"),
        (
            "sshopm.converged_frac",
            converged as f64 / iters.len().max(1) as f64,
            "fraction",
        ),
        (
            "sshopm.dedup_us_per_tensor",
            dedup_ns / 1e3 / dedup_tensors.max(1) as f64,
            "us",
        ),
    ]);

    // GPU model: host cost and modeled figures of one launch under the
    // fixed policy the model supports.
    let device = gpusim::DeviceSpec::tesla_c2050();
    let (variant, _) = backend::gpu_variant(program.strategy, m, n);
    let ((launched, launch), launch_ns) = reps(t, "gpusim.launch_sshopm", || {
        gpusim::launch_sshopm(&device, &probe, starts, fixed.policy(), alpha, variant)
            .expect("probe launch")
    });
    let gpu_iters: u64 = launched
        .results
        .iter()
        .flatten()
        .map(|p| p.iterations as u64)
        .sum();
    out.extend([
        ("gpusim.launch_host_s", launch_ns * 1e-9, "s"),
        (
            "gpusim.host_ns_per_iter",
            launch_ns / gpu_iters.max(1) as f64,
            "ns",
        ),
        ("gpusim.modeled_s", launch.timing.seconds, "s"),
        ("gpusim.occupancy", launch.occupancy.fraction, "fraction"),
    ]);

    // Backend: solve_batch against the inner driver it wraps (the GPU
    // launch on gpusim, BatchSolver::run on the CPU), interleaved so both
    // see the same host.
    let gpu = BackendSpec::parse(def.backend)
        .expect("workload spec parses")
        .is_gpu();
    let (mut solve, mut inner) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    let mut report = None;
    for _ in 0..REPS {
        t.calibrate();
        let (r, ns) = t.span("backend.solve_batch", || {
            program
                .backend
                .solve_batch(&probe, starts, &*program.solver, &Telemetry::disabled())
                .expect("probe solve")
        });
        solve.push(ns);
        report = Some(r);
        t.calibrate();
        let (_, ns) = t.span("backend.inner_driver", || {
            if gpu {
                let policy = program.solver.policy();
                let alpha = program.solver.fixed_shift().unwrap_or(0.0);
                let launch = gpusim::launch_sshopm(&device, &probe, starts, policy, alpha, variant);
                launch.expect("probe launch").0.results.len()
            } else {
                BatchSolver::new(&*program.solver)
                    .with_threads(1)
                    .run(
                        &*program.plan.kernels,
                        &probe,
                        starts,
                        &Telemetry::disabled(),
                    )
                    .results
                    .len()
            }
        });
        inner.push(ns);
    }
    let report = report.expect("REPS > 0");
    let (solve_ns, inner_ns) = (median(&solve), median(&inner));
    out.extend([
        ("backend.solve_batch_s", solve_ns * 1e-9, "s"),
        (
            "backend.overhead_frac",
            1.0 - inner_ns / solve_ns,
            "fraction",
        ),
    ]);

    // Fiber extraction: only 3-D, even-order tensors are fiber ODFs.
    let (extract_s, solve_share) = if n == 3 && m % 2 == 0 {
        let probe64 = probe.to_f64();
        let cpu = BackendSpec::parse("cpu:1")
            .and_then(|spec| spec.build::<f64>(program.strategy))
            .expect("cpu spec builds");
        t.calibrate();
        let id = t.enter("dwmri.extract_fibers_reported");
        let (_, report) = extract_default(&probe64, &*cpu).expect("probe extraction");
        let span = t.exit(id);
        let wall_s = (span.end_ns - span.start_ns) as f64 * 1e-9;
        (span.calibrated_ns() * 1e-9, report.seconds / wall_s)
    } else {
        (0.0, 0.0)
    };
    out.extend([
        ("dwmri.extract_s", extract_s, "s"),
        ("dwmri.solve_share", solve_share, "fraction"),
    ]);

    // Telemetry: unified report plus its JSON render.
    let (_, report_ns) = reps(t, "telemetry.run_report", || {
        report.run_report().to_json().len()
    });
    out.push(("telemetry.report_us", report_ns / 1e3, "us"));
    out
}

/// Mean of a sample (0 when empty).
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}
