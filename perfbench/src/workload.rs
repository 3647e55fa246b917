//! The four workloads: seeded input generation on the benchmark side, the
//! program side (set-up from the generated files and spec strings, then
//! the solve), and the output checks against references from outside the
//! solver.

use crate::oracle::{line_angle_deg, DenseOracle};
use crate::trace::Tracer;
use backend::{BackendError, BackendSpec, BatchReport, KernelPlan, KernelRegistry, SolveBackend};
use dwmri::{ExtractConfig, FiberConfig, FiberEstimate};
use kernelgen::KernelStrategy;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, Solver, SolverSpec};
use std::path::{Path, PathBuf};
use symtensor::{Scalar, TensorBatch};
use telemetry::Telemetry;

/// SS-HOPM iterations per solve on the fixed-iteration workloads (the
/// paper's Table III setting).
pub const FIXED_ITERS: usize = 20;

/// A returned λ matches the f64 oracle when within this share of
/// `1 + |λ|`: the solver evaluates λ = A·xᵐ in its own precision, so
/// only rounding separates the two.
pub fn lambda_tolerance<S: Scalar>() -> f64 {
    if std::mem::size_of::<S>() == 4 {
        1e-4
    } else {
        1e-9
    }
}

/// Minimum fibers-43 accuracy (share of voxels fully correct at 10°).
pub const FIBER_ACCURACY_FLOOR: f64 = 0.9;

/// Angular match threshold for fiber scoring, degrees.
pub const FIBER_MATCH_DEG: f64 = 10.0;

/// Kernel strategy every workload requests, as `--kernel unrolled` does;
/// shape-54 has no generated kernel, so the registry falls back.
const KERNEL: &str = "unrolled";

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Backend spec string the program builds.
    pub backend: &'static str,
    /// Solver spec string (`sshopm` alone means the extraction's convex
    /// shift).
    pub solver: &'static str,
    /// `Some(k)` for fixed-iteration workloads, `None` for
    /// converge-to-tolerance.
    pub fixed_iters: Option<usize>,
    /// Tensors per timed chunk (~45 ms of work, each preceded by its own
    /// calibration; many short chunks track fast host-speed changes).
    pub chunk: usize,
    /// Tensors the per-layer probes of the traced run use.
    pub probe: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Def; 4] = [
    Def {
        name: "paper-43",
        backend: "cpu:1",
        solver: "sshopm:0",
        fixed_iters: Some(FIXED_ITERS),
        chunk: 256,
        probe: 256,
    },
    Def {
        name: "fibers-43",
        backend: "cpu:1",
        solver: "sshopm",
        fixed_iters: None,
        chunk: 4,
        probe: 32,
    },
    Def {
        name: "shape-54",
        backend: "cpu:1",
        solver: "sshopm:0",
        fixed_iters: Some(FIXED_ITERS),
        chunk: 8,
        probe: 64,
    },
    Def {
        name: "gpusim-43",
        backend: "gpusim:c2050",
        solver: "sshopm:0",
        fixed_iters: Some(FIXED_ITERS),
        chunk: 256,
        probe: 256,
    },
];

/// Side length of the fibers-43 phantom grid.
const FIBER_GRID: usize = 16;
/// shape-54 batch size.
const SHAPE_TENSORS: usize = 512;
/// Starting vectors per tensor on every workload.
const STARTS: usize = 128;

/// What the benchmark generated, kept on its side: the files the program
/// reads, and the ground truth the program never sees.
pub struct Inputs {
    /// Generated tensor batch file.
    pub tensors_file: PathBuf,
    /// Generated starting-vector file (one order-1 tensor per start);
    /// `None` where the program picks its own starts (fiber extraction).
    pub starts_file: Option<PathBuf>,
    /// The generated tensors in f64, for the oracle.
    pub values: TensorBatch<f64>,
    /// Per-voxel phantom truth (empty for shape-54).
    pub truth: Vec<FiberConfig>,
}

/// Generate the seeded inputs of `def` and write them under `dir`.
pub fn generate(def: &Def, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let tensors_file = dir.join("tensors.txt");
    let starts_file = dir.join("starts.txt");
    let (tensors, starts, truth): (TensorBatch<f64>, Option<Vec<Vec<f32>>>, Vec<FiberConfig>) =
        match def.name {
            "paper-43" | "gpusim-43" => {
                let w = bench::Workload::paper_workload(seed);
                let truth = paper_truth(seed, &w.tensors)?;
                (w.tensors.to_f64(), Some(w.starts), truth)
            }
            "shape-54" => {
                let w = bench::Workload::random(SHAPE_TENSORS, STARTS, 5, 4, seed);
                (w.tensors.to_f64(), Some(w.starts), Vec::new())
            }
            "fibers-43" => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let phantom = dwmri::Phantom::generate(
                    dwmri::PhantomConfig {
                        width: FIBER_GRID,
                        height: FIBER_GRID,
                        noise: dwmri::NoiseModel::Rician {
                            sigma: 0.01,
                            b: 1.5,
                        },
                        crossing_angle: 75f64.to_radians(),
                        ..Default::default()
                    },
                    &mut rng,
                );
                let truth = phantom.voxels.iter().map(|v| v.truth.clone()).collect();
                (phantom.tensor_batch(), None, truth)
            }
            other => unreachable!("workload table has no {other}"),
        };
    if def.fixed_iters.is_some() {
        // The f32 workloads are f32 on the program side; the file holds
        // exactly those values.
        write_batch(&tensors_file, &tensors.to_f32())?;
    } else {
        write_batch(&tensors_file, &tensors)?;
    }
    let starts_file = match starts {
        Some(starts) => {
            let flat: Vec<f32> = starts.into_iter().flatten().collect();
            let batch =
                TensorBatch::from_values(1, tensors.dim(), flat).expect("starts are n-vectors");
            write_batch(&starts_file, &batch)?;
            Some(starts_file)
        }
        None => None,
    };
    Ok(Inputs {
        tensors_file,
        starts_file,
        values: tensors,
        truth,
    })
}

/// Fiber truth of `Workload::paper_workload(seed)`: its phantom,
/// generated again from the same seed and configuration. Fails if the
/// phantom no longer reproduces `tensors`.
fn paper_truth(seed: u64, tensors: &TensorBatch<f32>) -> std::io::Result<Vec<FiberConfig>> {
    let phantom = dwmri::Phantom::generate(
        dwmri::PhantomConfig {
            width: 32,
            height: 32,
            noise: dwmri::NoiseModel::Multiplicative { amplitude: 0.02 },
            ..Default::default()
        },
        &mut rand::rngs::StdRng::seed_from_u64(seed),
    );
    if phantom.tensor_batch_f32() != *tensors {
        return Err(std::io::Error::other(
            "the paper workload's phantom cannot be regenerated for its truth",
        ));
    }
    Ok(phantom.voxels.into_iter().map(|v| v.truth).collect())
}

fn write_batch<S: Scalar>(path: &Path, batch: &TensorBatch<S>) -> std::io::Result<()> {
    let mut buf = Vec::new();
    symtensor::io::write_tensor_batch(&mut buf, batch)?;
    std::fs::write(path, buf)
}

/// Fiber extraction entry point, present only for the f64 workload.
pub type Extract<S> = fn(
    &TensorBatch<S>,
    &dyn SolveBackend<S>,
) -> Result<(Vec<Vec<FiberEstimate>>, BatchReport<S>), BackendError>;

/// `dwmri::extract_fibers_reported` with the default `ExtractConfig`.
pub fn extract_default(
    tensors: &TensorBatch<f64>,
    backend: &dyn SolveBackend<f64>,
) -> Result<(Vec<Vec<FiberEstimate>>, BatchReport<f64>), BackendError> {
    dwmri::extract_fibers_reported(
        tensors,
        &ExtractConfig::default(),
        backend,
        &Telemetry::disabled(),
    )
}

/// The program side after set-up: everything it built from the files and
/// spec strings.
pub struct Program<S: Scalar> {
    /// The tensor batch read from the generated file.
    pub tensors: TensorBatch<S>,
    /// Starting vectors: read from the file, or the extraction's own
    /// Fibonacci-sphere starts.
    pub starts: Vec<Vec<S>>,
    /// Backend built from the spec string.
    pub backend: Box<dyn SolveBackend<S>>,
    /// Solver built from the spec string.
    pub solver: Box<dyn Solver<S>>,
    /// Requested kernel strategy.
    pub strategy: KernelStrategy,
    /// Cold registry plan for the batch shape and requested strategy.
    pub plan: KernelPlan<S>,
    /// Fiber extraction, when the workload runs it.
    pub extract: Option<Extract<S>>,
}

/// One solve of a chunk of tensors.
pub struct Solved<S> {
    /// The backend's report.
    pub report: BatchReport<S>,
    /// Extracted fibers per tensor (fiber workload only).
    pub fibers: Vec<Vec<FiberEstimate>>,
}

/// Full program set-up: read the generated files, build backend, strategy
/// and solver from the spec strings, and plan kernels cold. With a tracer
/// each step runs in its own span.
pub fn setup<S: Scalar>(
    def: &Def,
    inputs: &Inputs,
    extract: Option<Extract<S>>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Program<S>, String> {
    let mut step = |name: &'static str, work: &mut dyn FnMut()| match tracer.as_deref_mut() {
        Some(t) => t.span(name, work).0,
        None => work(),
    };
    let open = |p: &Path| std::fs::File::open(p).map_err(|e| format!("{}: {e}", p.display()));
    let read = |p: &Path| {
        symtensor::io::read_tensor_batch::<S, _>(open(p)?)
            .map_err(|e| format!("reading {}: {e}", p.display()))
    };

    let mut files = Err(String::new());
    step("io.read_tensor_batch", &mut || {
        files = read(&inputs.tensors_file).and_then(|tensors| {
            let starts = match &inputs.starts_file {
                Some(p) => Some(read(p)?.iter().map(|t| t.values().to_vec()).collect()),
                None => None,
            };
            Ok((tensors, starts))
        });
    });
    let (tensors, starts) = files?;

    let mut specs = Err(String::new());
    step("spec.build", &mut || {
        specs = (|| {
            let strategy = KernelStrategy::parse(KERNEL).map_err(|e| e.to_string())?;
            let backend = BackendSpec::parse(def.backend)
                .and_then(|spec| spec.build::<S>(strategy))
                .map_err(|e| e.to_string())?;
            let solver = SolverSpec::parse(def.solver).map_err(|e| e.to_string())?;
            Ok((backend, strategy, solver))
        })();
    });
    let (backend, strategy, solver_spec) = specs?;
    let cfg = ExtractConfig::default();
    let policy = match def.fixed_iters {
        Some(k) => IterationPolicy::Fixed(k),
        None => IterationPolicy::Converge {
            tol: cfg.tol,
            max_iters: cfg.max_iters,
        },
    };

    let mut plan = None;
    step("kernelgen.plan", &mut || {
        let registry = KernelRegistry::global();
        registry.clear_memory();
        plan = Some(registry.plan::<S>(tensors.order(), tensors.dim(), strategy));
    });
    Ok(Program {
        starts: starts.unwrap_or_else(|| sshopm::starts::fibonacci_sphere::<S>(cfg.num_starts)),
        plan: plan.expect("the plan step ran"),
        tensors,
        backend,
        solver: solver_spec.build::<S>(cfg.shift, policy),
        strategy,
        extract,
    })
}

impl<S: Scalar> Program<S> {
    /// Solve one chunk the way the workload does.
    pub fn solve(&self, chunk: &TensorBatch<S>) -> Result<Solved<S>, String> {
        match self.extract {
            Some(extract) => extract(chunk, &*self.backend)
                .map(|(fibers, report)| Solved { report, fibers })
                .map_err(|e| e.to_string()),
            None => self
                .backend
                .solve_batch(chunk, &self.starts, &*self.solver, &Telemetry::disabled())
                .map(|report| Solved {
                    report,
                    fibers: Vec::new(),
                })
                .map_err(|e| e.to_string()),
        }
    }

    /// The batch split into owned chunks of `size` tensors.
    pub fn chunks(&self, size: usize) -> Vec<TensorBatch<S>> {
        let t = self.tensors.len();
        (0..t)
            .step_by(size)
            .map(|s| self.tensors.slice(s..(s + size).min(t)).to_owned())
            .collect()
    }

    /// The first `count` tensors (the per-layer probe batch).
    pub fn head(&self, count: usize) -> TensorBatch<S> {
        self.tensors
            .slice(0..count.min(self.tensors.len()))
            .to_owned()
    }
}

/// Output check of one pass against the f64 oracle (and, where the
/// inputs come from a phantom, its truth).
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// (tensor, start) solves attempted.
    pub solves: u64,
    /// Solves that returned a finite unit eigenpair (within the cap on
    /// converge workloads).
    pub solved: u64,
    /// Tensors whose every returned λ matched the oracle.
    pub tensors_ok: usize,
    /// Tensors checked.
    pub tensors: usize,
    /// Largest |λ − A·xᵐ| / (1 + |A·xᵐ|) seen.
    pub max_lambda_err: f64,
    /// Mean angle between x and A·xᵐ⁻¹ over finite solves, degrees.
    pub mean_residual_angle_deg: f64,
    /// Phantom inputs solved at a fixed policy (paper-43, gpusim-43):
    /// mean over tensors of the angle between the largest-λ returned x
    /// and the nearest true fiber direction, degrees.
    pub principal_error_deg: Option<f64>,
    /// Fiber scoring (fibers-43 only): share of voxels fully correct and
    /// mean matched angular error.
    pub fiber_accuracy: Option<f64>,
    /// See `fiber_accuracy`.
    pub fiber_error_deg: Option<f64>,
}

impl Check {
    /// The workload's `accuracy` metric.
    pub fn accuracy(&self) -> f64 {
        self.fiber_accuracy
            .unwrap_or(self.tensors_ok as f64 / self.tensors.max(1) as f64)
    }

    /// The workload's `angular_error_deg` metric: against the phantom's
    /// truth where there is one, else the eigen-residual angle.
    pub fn angular_error_deg(&self) -> f64 {
        self.fiber_error_deg
            .or(self.principal_error_deg)
            .unwrap_or(self.mean_residual_angle_deg)
    }

    /// Every solve's λ matched the oracle.
    pub fn oracle_ok(&self) -> bool {
        self.tensors_ok == self.tensors
    }
}

/// Check a pass: `results[t]` are tensor `t`'s eigenpairs.
pub fn check_pass<S: Scalar>(
    def: &Def,
    inputs: &Inputs,
    results: &[Vec<sshopm::Eigenpair<S>>],
    fibers: &[Vec<FiberEstimate>],
) -> Check {
    let values = &inputs.values;
    let oracle = DenseOracle::new(values.order(), values.dim());
    let tol = lambda_tolerance::<S>();
    let unit_tol = if std::mem::size_of::<S>() == 4 {
        1e-3
    } else {
        1e-8
    };
    let mut c = Check {
        tensors: results.len(),
        ..Check::default()
    };
    let mut angle_sum = 0.0;
    let mut angle_count = 0u64;
    let mut principal: Vec<Vec<f64>> = Vec::with_capacity(results.len());
    for (t, pairs) in results.iter().enumerate() {
        let a = values.get(t).values().to_vec();
        let mut all_match = true;
        let mut best = (f64::NEG_INFINITY, Vec::new());
        for pair in pairs {
            c.solves += 1;
            let x: Vec<f64> = pair.x.iter().map(|v| v.to_f64()).collect();
            let lambda = pair.lambda.to_f64();
            let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let finite = lambda.is_finite() && x.iter().all(|v| v.is_finite());
            if !finite {
                all_match = false;
                continue;
            }
            let within_cap = def.fixed_iters.is_some() || pair.converged;
            if (norm - 1.0).abs() <= unit_tol && within_cap {
                c.solved += 1;
            }
            let (exact, y) = oracle.eval(&a, &x);
            let err = (lambda - exact).abs() / (1.0 + exact.abs());
            c.max_lambda_err = c.max_lambda_err.max(err);
            if err > tol {
                all_match = false;
            }
            angle_sum += line_angle_deg(&x, &y);
            angle_count += 1;
            if lambda > best.0 {
                best = (lambda, x);
            }
        }
        if all_match {
            c.tensors_ok += 1;
        }
        principal.push(best.1);
    }
    c.mean_residual_angle_deg = angle_sum / angle_count.max(1) as f64;
    if !inputs.truth.is_empty() && def.fixed_iters.is_some() {
        let errors: Vec<f64> = inputs
            .truth
            .iter()
            .zip(&principal)
            .map(|(truth, x)| {
                truth
                    .directions
                    .iter()
                    .map(|d| line_angle_deg(d, x))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        c.principal_error_deg = Some(errors.iter().sum::<f64>() / errors.len() as f64);
    } else if !inputs.truth.is_empty() {
        let scores: Vec<_> = inputs
            .truth
            .iter()
            .zip(fibers)
            .map(|(truth, est)| dwmri::score_voxel(truth, est, FIBER_MATCH_DEG))
            .collect();
        let score = dwmri::metrics::DatasetScore::aggregate(&scores);
        c.fiber_accuracy = Some(score.accuracy());
        c.fiber_error_deg = Some(score.mean_error_deg);
    }
    c
}

/// The paper's fixed-shift setting used where a fixed-shift layer (the
/// GPU model, the lockstep driver) probes a converge workload: α = 0,
/// 20 iterations.
pub fn paper_solver() -> sshopm::SsHopm {
    sshopm::SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(FIXED_ITERS))
}

/// Modeled C2050 GFLOP/s for `tensors` from `starts`: the Table III model
/// of the whole batch in one launch under the paper's fixed policy.
pub fn modeled_gflops<S: Scalar>(
    tensors: &TensorBatch<S>,
    starts: &[Vec<S>],
    strategy: KernelStrategy,
) -> Result<f64, String> {
    let backend = BackendSpec::parse("gpusim:c2050")
        .and_then(|spec| spec.build::<S>(strategy))
        .map_err(|e| e.to_string())?;
    let solver = paper_solver();
    let report = backend
        .solve_batch(tensors, starts, &solver, &Telemetry::disabled())
        .map_err(|e| e.to_string())?;
    Ok(report.gflops())
}
