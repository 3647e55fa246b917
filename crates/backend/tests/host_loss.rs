//! Host-loss failover acceptance (satellite): whole-host failures on a
//! cluster-shaped resilient backend must walk the ladder host → sibling
//! host → CPU, keep the [`backend::FaultLog`] ledger balanced, and never
//! emit a silently wrong eigenpair. `ci` runs this suite seeded.

use backend::{BackendSpec, Cpu, FaultLog, KernelStrategy, ResilientBackend, SolveBackend};
use gpusim::{FaultKind, FaultPlan};
use rand::SeedableRng;
use sshopm::{starts, Eigenpair, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, v, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    (tensors, starts, solver)
}

fn cpu_reference(
    tensors: &TensorBatch<f32>,
    starts: &[Vec<f32>],
    solver: &SsHopm,
) -> Vec<Vec<Eigenpair<f32>>> {
    Cpu::new(1, KernelStrategy::General)
        .solve_batch(tensors, starts, solver, &Telemetry::disabled())
        .unwrap()
        .results
}

/// Every tensor is bitwise-recovered or exactly reported failed.
fn assert_recovered_or_reported(
    results: &[Vec<Eigenpair<f32>>],
    reference: &[Vec<Eigenpair<f32>>],
    log: &FaultLog,
) {
    assert!(
        log.accounts_for_all_faults(),
        "ledger out of balance: {}",
        log.summary()
    );
    for (t, (got, want)) in results.iter().zip(reference).enumerate() {
        if log.failed_indices.contains(&t) {
            assert!(got.is_empty(), "failed tensor {t} has a result row");
            continue;
        }
        assert_eq!(got.len(), want.len(), "tensor {t} row length");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "tensor {t}");
        }
    }
}

fn resilient(spec: &str, plan: FaultPlan) -> ResilientBackend {
    let spec = BackendSpec::parse(spec).unwrap();
    ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
        .unwrap()
        .with_retries(2)
        .with_failover(true)
}

/// The headline seeded run: host losses sprinkled over a 2×2 cluster
/// alongside the transient kinds; the ledger balances and every tensor
/// is recovered bitwise or reported.
#[test]
fn seeded_host_loss_run_keeps_the_ledger_balanced() {
    let (tensors, starts, solver) = workload(4_000, 4, 0x405e);
    let plan = FaultPlan::new(20260807)
        .with_ecc(0.1)
        .with_watchdog(0.1)
        .with_transfer(0.1)
        .with_host_loss(0.15);
    let backend = resilient("cluster:2:2", plan);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    assert!(
        log.injected.iter().any(|f| f.kind == FaultKind::HostLoss),
        "seeded plan should fire at least one host loss: {}",
        log.summary()
    );
    assert_eq!(log.failed, 0, "failover should recover everything");
    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
}

/// Certain host loss kills hosts one by one; the ladder walks host 0 →
/// host 1 → CPU and still recovers every tensor bitwise.
#[test]
fn certain_host_loss_fails_over_to_sibling_host_then_cpu() {
    let (tensors, starts, solver) = workload(600, 4, 0x1057);
    let plan = FaultPlan::new(23).with_host_loss(1.0);
    let backend = resilient("cluster:2:2", plan);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    // One loss per host: once a host dies every device on it is skipped,
    // and after the second loss nothing GPU-shaped is left to strike.
    assert_eq!(log.injected.len(), 2, "{}", log.summary());
    assert!(log.injected.iter().all(|f| f.kind == FaultKind::HostLoss));
    assert!(log.degraded, "CPU is the last rung of the ladder");
    assert!(log.failovers >= 2, "{}", log.summary());
    assert_eq!(log.failed, 0);
    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
}

/// Without failover a lost host takes its chunks with it loudly: every
/// tensor in them is reported failed, never silently wrong.
#[test]
fn host_loss_without_failover_fails_loudly() {
    let (tensors, starts, solver) = workload(50, 2, 0x1058);
    let plan = FaultPlan::new(31).with_host_loss(1.0);
    let spec = BackendSpec::parse("cluster:1:1").unwrap();
    let backend = ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
        .unwrap()
        .with_failover(false);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    assert_eq!(log.injected.len(), 1);
    assert_eq!(log.recovered, 0);
    assert_eq!(log.failed_indices.len(), 50);
    assert!(report.results.iter().all(Vec::is_empty));
    assert!(log.accounts_for_all_faults());
}

/// Adding host-loss probability to a plan must not perturb the draws of
/// the other fault kinds (per-kind independent hash streams). Once a
/// host loss *fires*, surviving chunks reroute to other devices and the
/// later attempt history legitimately diverges — so the pin compares
/// transient faults only on chunks processed before the first loss.
#[test]
fn host_loss_draws_are_independent_of_other_kinds() {
    let (tensors, starts, solver) = workload(2_000, 3, 0x1059);
    let base = FaultPlan::new(77).with_ecc(0.2).with_transfer(0.2);
    let with_hosts = base.with_host_loss(0.4);
    let run = |plan: FaultPlan| {
        resilient("cluster:2:2", plan)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap()
    };
    let a = run(base);
    let b = run(with_hosts);
    let first_loss = b
        .fault_log
        .injected
        .iter()
        .filter(|f| f.kind == FaultKind::HostLoss)
        .map(|f| f.chunk_index)
        .min()
        .expect("host loss at p=0.4 should fire somewhere in 2000 tensors");
    let pre_loss_transients = |log: &FaultLog| {
        log.injected
            .iter()
            .filter(|f| f.kind != FaultKind::HostLoss && f.chunk_index < first_loss)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        pre_loss_transients(&a.fault_log),
        pre_loss_transients(&b.fault_log)
    );
}
