//! Benchmark of the batched SS-HOPM system, one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-43 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The benchmark generates the workload's inputs from `--seed`, writes
//! them with `symtensor::io::write_tensor_batch` under `.bench_out/`, and
//! the program side sees only those files and spec strings. Everything
//! runs on this one thread (a one-worker pool), timed in steal-free
//! on-CPU time scaled by a calibration loop (see `host`). The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from spans around each layer call) with
//! `--trace 1`. A failed output check prints `"correct": false` and
//! exits with code 1. See `perfbench/README.md`.

mod host;
mod layers;
mod oracle;
mod run;
mod trace;
mod workload;

use run::timed_loop;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use symtensor::Scalar;
use trace::Tracer;
use workload::{Def, Extract, Inputs, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: Def,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|d| d.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The JSON result line and whether every output check passed.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn run<S: Scalar>(
    args: &Args,
    inputs: &Inputs,
    extract: Option<Extract<S>>,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let def = &args.workload;
    let mut tracer = args.trace.then(Tracer::new);
    let mut failures = Vec::new();

    // The untraced run times a set-up after every chunk of the loop; the
    // traced run repeats the set-up first, with a span around each step.
    let mut setup = || workload::setup::<S>(def, inputs, extract, None);
    let (program, mut metrics) = match tracer.as_mut() {
        None => (setup()?, Vec::new()),
        Some(t) => traced_setup(t, def, inputs, extract)?,
    };
    let interleaved: Option<run::Setup<S>> = match tracer {
        None => Some(&mut setup),
        Some(_) => None,
    };
    let measured = timed_loop(
        def,
        inputs,
        &program,
        args.seconds,
        tracer.as_mut(),
        interleaved,
    );
    failures.extend(measured.failures.iter().cloned());
    let check = &measured.check;
    if !check.oracle_ok() {
        failures.push(format!(
            "λ oracle: {} of {} tensors matched A·xᵐ (max relative error {:.3e}, tolerance {:.0e})",
            check.tensors_ok,
            check.tensors,
            check.max_lambda_err,
            workload::lambda_tolerance::<S>()
        ));
    }
    if let Some(acc) = check.fiber_accuracy {
        if acc < workload::FIBER_ACCURACY_FLOOR {
            failures.push(format!(
                "fiber accuracy {acc} below the floor {}",
                workload::FIBER_ACCURACY_FLOOR
            ));
        }
    }
    let passes = measured.passes as u64;
    let attempted = (check.solves * passes).max(1);
    let failed = (check.solves - check.solved) * passes;
    let host = measured.host();
    let mut csv = String::from("cpu_ns,wall_ns,calib_ns,iterations\n");
    for (s, iters) in &measured.samples {
        let _ = writeln!(csv, "{},{},{},{iters}", s.cpu_ns, s.wall_ns, s.calib_ns);
    }
    let path = out_dir.join("chunks.csv");
    std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: seed {} kernel {} passes {} chunks {} | {}",
        def.name,
        args.seed,
        measured.kernel,
        passes,
        measured.samples.len(),
        host.iter()
            .map(|(n, v, u)| format!("{n}={v:.4}{u}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    match tracer.as_mut() {
        None => {
            let modeled =
                workload::modeled_gflops(&program.tensors, &program.starts, program.strategy)?;
            let iter_ns = measured.iter_ns(false);
            let tensors_per_s = program.tensors.len() as f64 / measured.pass_s(false);
            // Host diagnostics go with every run, on their own line.
            println!(
                "host: {}",
                host.iter()
                    .map(|(n, v, u)| format!("{n}={v} {u}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            metrics.extend([
                ("setup_s", host::median(&measured.setup_ns) * 1e-9, "s"),
                ("iter_ns", iter_ns, "ns"),
                ("tensors_per_s", tensors_per_s, "1/s"),
                (
                    "solved_frac",
                    check.solved as f64 / check.solves.max(1) as f64,
                    "fraction",
                ),
                ("accuracy", check.accuracy(), "fraction"),
                ("angular_error_deg", check.angular_error_deg(), "deg"),
                ("modeled_gflops", modeled, "GFLOP/s"),
                ("peak_rss_mib", host::peak_rss_mib(), "MiB"),
            ]);
        }
        Some(t) => {
            metrics.extend(layers::probe(t, def, &program, &measured.results));
            metrics.extend(host);
            metrics.push((
                "trace.overhead_frac",
                measured.iter_ns(true) / measured.iter_ns(false) - 1.0,
                "fraction",
            ));
            let path = out_dir.join("trace.json");
            std::fs::write(&path, t.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
            for (name, (count, total, own)) in t.self_times() {
                eprintln!(
                    "span {name:<32} n={count:<6} total={:>10.3}ms self={:>10.3}ms",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Set-ups the traced run repeats.
const TRACED_SETUPS: usize = 9;

/// The traced set-up: `workload::setup` with a span around each step,
/// repeated; returns the last program and the io / kernelgen metrics.
fn traced_setup<S: Scalar>(
    t: &mut Tracer,
    def: &Def,
    inputs: &Inputs,
    extract: Option<Extract<S>>,
) -> Result<(workload::Program<S>, Vec<layers::Metric>), String> {
    let registry = backend::KernelRegistry::global();
    let (mut read, mut plan) = (Vec::new(), Vec::new());
    let mut generated = 0;
    let mut program = None;
    for _ in 0..TRACED_SETUPS {
        drop(program.take());
        t.calibrate();
        let root = t.enter("setup");
        let before = registry.stats();
        program = Some(workload::setup::<S>(def, inputs, extract, Some(&mut *t))?);
        generated = registry.stats().delta_since(&before).generated;
        t.exit(root);
        read.push(t.last_ns("io.read_tensor_batch") * 1e-9);
        plan.push(t.last_ns("kernelgen.plan") * 1e-9);
    }
    let program = program.expect("TRACED_SETUPS > 0");
    const WARM: usize = 10_000;
    let (m, n) = (program.tensors.order(), program.tensors.dim());
    let before = registry.stats();
    t.calibrate();
    let (_, warm_ns) = t.span("kernelgen.plan_warm", || {
        for _ in 0..WARM {
            std::hint::black_box(registry.plan::<S>(m, n, program.strategy));
        }
    });
    let memo_hits = registry.stats().delta_since(&before).memo_hits as f64 / WARM as f64;
    let bytes = [Some(&inputs.tensors_file), inputs.starts_file.as_ref()]
        .into_iter()
        .flatten()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum::<u64>();
    let metrics = vec![
        ("io.read_s", host::median(&read), "s"),
        ("io.bytes", bytes as f64, "B"),
        ("kernelgen.plan_cold_s", host::median(&plan), "s"),
        ("kernelgen.plan_warm_ns", warm_ns / WARM as f64, "ns"),
        ("kernelgen.generated", generated as f64, "count"),
        ("kernelgen.memo_hits", memo_hits, "count"),
    ];
    Ok((program, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir: PathBuf = Path::new(".bench_out").join(format!(
        "{}-{}{}",
        args.workload.name,
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    // One worker: parallel drives inside the library run inline on this
    // thread, so the thread's on-CPU time is the whole program's.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool builds");
    let outcome = pool.install(|| -> Result<Outcome, String> {
        let inputs = workload::generate(&args.workload, args.seed, &out_dir)
            .map_err(|e| format!("writing inputs: {e}"))?;
        if args.workload.fixed_iters.is_some() {
            run::<f32>(&args, &inputs, None, &out_dir)
        } else {
            run::<f64>(&args, &inputs, Some(workload::extract_default), &out_dir)
        }
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
