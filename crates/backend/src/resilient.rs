//! [`ResilientBackend`]: fault-tolerant batched execution over simulated
//! GPUs.
//!
//! Wraps the same launch machinery as the plain GPU backends, but splits
//! the batch into small chunks and survives the faults a
//! [`gpusim::FaultPlan`] injects:
//!
//! * **Transient launch failures** (watchdog timeouts, transfer errors)
//!   are retried on the same device with exponential backoff, up to
//!   `max_retries` extra attempts per device.
//! * **Device loss** is sticky: the device is marked dead and, when
//!   failover is enabled, its chunks move to the next live device — or to
//!   the CPU once every simulated device is gone.
//! * **Host loss** is device loss at cluster scale: every device on the
//!   struck host dies at once, so surviving chunks ladder from the lost
//!   host to a sibling host's devices and finally to the CPU. On a
//!   single-host backend a host loss is a total loss.
//! * **ECC corruption** poisons one tensor with NaN before the launch;
//!   the post-launch scan detects the non-finite eigenpairs and re-solves
//!   that single tensor on the CPU from the pristine data. Only the
//!   affected tensor's packed entries (15 scalars at the paper shape) are
//!   ever copied into a one-tensor scratch batch — the chunk itself
//!   launches straight from the borrowed arena slice, so the fault-free
//!   tensors' results come out of the exact same buffers as a fault-free
//!   run. With failover disabled the poisoned tensor *fails alone* — its
//!   batch index lands in [`FaultLog::failed_indices`] and its result row
//!   is empty, while the rest of the chunk stands.
//!
//! Every substrate runs the identical library kernels, so recovered
//! results are **bit-identical** to a fault-free run (the resilience test
//! suite asserts this against a sequential CPU solve). The price of a
//! fault shows up only in the modeled wall time: timeouts, backoff waits
//! and re-solves all cost seconds, never correctness.
//!
//! Execution is stream-based: chunks are enqueued round-robin onto
//! per-device [`gpusim::StreamQueue`] streams, so fault recovery is
//! **in-flight-chunk granular**. A faulted attempt marks the chunk's
//! stream, cancels only that stream's pending ops from the mark
//! ([`StreamQueue::cancel_from`]), and enqueues a [`Op::Stall`] for the
//! watchdog/backoff time — other streams' chunks (earlier successful
//! launches included) keep their place on the event timeline. The modeled
//! wall-clock is the resolved [`gpusim::Timeline`] makespan plus any CPU
//! fallback time.

use crate::backends::{empty_report, fixed_alpha, SolveBackend};
use crate::report::{BatchReport, FaultLog};
use crate::spec::{device_slug, BackendError, BackendSpec};
use crate::strategy::KernelStrategy;
use gpusim::{
    corrupt_tensor, problem_traffic_bytes, DeviceSpec, FaultKind, FaultPlan, FaultSite, Op,
    StreamId, StreamQueue, TransferModel, BACKOFF_BASE_SECONDS, WATCHDOG_TIMEOUT_SECONDS,
};
use sshopm::batch::BatchSolver;
use sshopm::{Eigenpair, Solver};
use symtensor::{flops, Scalar, TensorBatch};
use telemetry::Telemetry;

/// Tensors per launch chunk. Small chunks bound the blast radius of one
/// fault (a lost launch re-runs at most this many tensors) and give the
/// fault plan many independent draw sites per batch.
const MAX_CHUNK_TENSORS: usize = 256;

/// A fault-tolerant execution backend over one or more simulated GPUs.
///
/// Construct with [`ResilientBackend::from_spec`] (the CLI path) or
/// [`ResilientBackend::new`], then layer on [`with_retries`] and
/// [`with_failover`]. With an inactive [`FaultPlan`] this behaves exactly
/// like the plain [`crate::GpuSimBackend`] over the same devices, modulo
/// chunked launches.
///
/// [`with_retries`]: ResilientBackend::with_retries
/// [`with_failover`]: ResilientBackend::with_failover
#[derive(Debug, Clone)]
pub struct ResilientBackend {
    /// The device models (chunks are dealt round-robin across them).
    pub devices: Vec<DeviceSpec>,
    /// Host↔device interconnect model the stream queue times copies with.
    pub transfer: TransferModel,
    /// Kernel implementation to use (mapped onto a GPU variant).
    pub strategy: KernelStrategy,
    /// The fault schedule to run under.
    pub plan: FaultPlan,
    /// Extra launch attempts per device after a transient fault.
    pub max_retries: u32,
    /// Move failed chunks to other devices / the CPU instead of failing.
    pub failover: bool,
    /// Streams per device: chunks are dealt round-robin across them, so
    /// ≥2 double-buffers transfers behind kernels even under faults.
    pub streams_per_device: usize,
    /// Host owning each device (global index → host index). All zeros for
    /// single-host backends; host-major for cluster specs. A
    /// [`FaultKind::HostLoss`] kills every device sharing the struck
    /// device's host.
    pub host_of: Vec<usize>,
}

impl ResilientBackend {
    /// A resilient backend over `devices`; errors if the list is empty.
    ///
    /// Defaults: 2 retries, failover disabled, 2 streams per device.
    pub fn new(
        devices: Vec<DeviceSpec>,
        transfer: TransferModel,
        strategy: KernelStrategy,
        plan: FaultPlan,
    ) -> Result<Self, BackendError> {
        if devices.is_empty() {
            return Err(BackendError(
                "resilient backend needs at least one device".to_string(),
            ));
        }
        let ndev = devices.len();
        Ok(Self {
            devices,
            transfer,
            strategy,
            plan,
            max_retries: 2,
            failover: false,
            streams_per_device: 2,
            host_of: vec![0; ndev],
        })
    }

    /// Wrap the device set a [`BackendSpec`] describes. Only `gpusim`
    /// specs have devices to fail; `cpu` specs are rejected. Cluster
    /// specs flatten host-major, so a host loss kills one contiguous run
    /// of device indices and its chunks ladder to the sibling hosts.
    pub fn from_spec(
        spec: &BackendSpec,
        strategy: KernelStrategy,
        plan: FaultPlan,
    ) -> Result<Self, BackendError> {
        match *spec {
            BackendSpec::GpuSim { device, devices }
            | BackendSpec::Pipelined { device, devices } => Self::new(
                vec![device.spec(); devices],
                TransferModel::pcie2(),
                strategy,
                plan,
            ),
            BackendSpec::Cluster {
                device,
                hosts,
                devices,
                ..
            } => {
                let mut backend = Self::new(
                    vec![device.spec(); hosts * devices],
                    TransferModel::pcie2(),
                    strategy,
                    plan,
                )?;
                backend.host_of = (0..hosts * devices).map(|i| i / devices).collect();
                Ok(backend)
            }
            BackendSpec::Cpu { .. } => Err(BackendError(format!(
                "fault injection requires a gpusim backend, got {spec}: cpu backends have \
                 no simulated devices to fail"
            ))),
        }
    }

    /// Number of hosts behind the device list (1 unless built from a
    /// cluster spec).
    pub fn num_hosts(&self) -> usize {
        self.host_of.iter().max().map_or(1, |&h| h + 1)
    }

    /// Set the per-device retry budget for transient faults.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Enable or disable failover to other devices / the CPU.
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Set the number of streams per device. Zero is an error (the CLI's
    /// `--streams` flag lands here): a device with no streams can never
    /// receive a chunk.
    pub fn with_streams(mut self, streams_per_device: usize) -> Result<Self, BackendError> {
        if streams_per_device == 0 {
            return Err(BackendError(
                "invalid --streams 0: need at least one stream per device".to_string(),
            ));
        }
        self.streams_per_device = streams_per_device;
        Ok(self)
    }
}

/// What one launch attempt of one chunk did.
enum Attempt<S> {
    /// The launch completed; rows are the chunk's eigenpairs.
    Completed(Vec<Vec<Eigenpair<S>>>),
    /// A transient fault (watchdog / transfer) killed the attempt.
    Transient,
    /// The device dropped off the bus.
    DeviceLost,
}

impl<S: Scalar> SolveBackend<S> for ResilientBackend {
    fn label(&self) -> String {
        let hosts = self.num_hosts();
        if hosts > 1 {
            format!(
                "resilient:cluster:gpusim:{}:{}x{}",
                device_slug(self.devices[0].name),
                hosts,
                self.devices.len() / hosts
            )
        } else {
            format!(
                "resilient:gpusim:{}:{}",
                device_slug(self.devices[0].name),
                self.devices.len()
            )
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
        if starts.is_empty() {
            return Err(gpusim::GpuError::EmptyStarts.into());
        }
        let (m, n) = (batch.order(), batch.dim());
        let alpha = fixed_alpha(solver, "ResilientBackend")?;
        let (variant, effective) = crate::strategy::gpu_variant(self.strategy, m, n);
        let cache_before = crate::strategy::KernelRegistry::global().stats();
        // The CPU kernels used for failover and NaN recovery: `effective`
        // is exactly what the GPU variant executes, so CPU re-solves are
        // bit-identical to what the device would have produced. The plan
        // comes from the process-wide registry, so repeated re-solves (and
        // the GPU tape launches) share one memoized kernel object.
        let cpu_plan = crate::strategy::KernelRegistry::global().plan::<S>(m, n, effective);
        let cpu_kernels = cpu_plan.kernels;
        let num_entries = batch.stride();
        let _span = telemetry.span("resilient.solve");

        let mut log = FaultLog::default();
        let mut results: Vec<Vec<Eigenpair<S>>> = vec![Vec::new(); batch.len()];
        let ndev = self.devices.len();
        // Every GPU-side cost — transfers, kernels, watchdog stalls — is an
        // op on a per-device stream; the wall-clock is the timeline makespan.
        let mut queue = StreamQueue::new(ndev, self.transfer);
        let streams: Vec<Vec<StreamId>> = (0..ndev)
            .map(|d| {
                (0..self.streams_per_device.max(1))
                    .map(|_| queue.stream(d))
                    .collect()
            })
            .collect();
        let mut cpu_seconds = 0.0_f64;
        let mut alive = vec![true; ndev];
        let mut total_iterations = 0u64;
        let mut useful_flops = 0u64;
        let iter_flops = flops::sshopm_iter_flops(m, n);

        let num_chunks = batch.len().div_ceil(MAX_CHUNK_TENSORS);
        for chunk_index in 0..num_chunks {
            let lo = chunk_index * MAX_CHUNK_TENSORS;
            let hi = (lo + MAX_CHUNK_TENSORS).min(batch.len());
            // Zero-copy view into the arena: the chunk is never cloned,
            // faults or not.
            let chunk = batch.slice(lo..hi);
            // Bytes a faulted attempt had in flight when it was torn down.
            let (chunk_down_bytes, _) =
                problem_traffic_bytes(chunk.len(), starts.len(), m, n, std::mem::size_of::<S>());
            // Faults injected into this chunk, not yet resolved either way.
            let mut pending: Vec<gpusim::InjectedFault> = Vec::new();
            let mut rows: Option<Vec<Vec<Eigenpair<S>>>> = None;
            let mut ecc_failed_locals: Vec<usize> = Vec::new();

            'devices: for offset in 0..ndev {
                let dev = (chunk_index + offset) % ndev;
                if !alive[dev] {
                    if !self.failover {
                        // The chunk's home device is gone and we may not
                        // move the work: the whole chunk fails.
                        break 'devices;
                    }
                    continue 'devices;
                }
                if offset > 0 {
                    // The chunk runs somewhere other than its home device.
                    log.failovers += 1;
                }
                let stream = streams[dev][chunk_index % streams[dev].len()];
                for attempt in 0..=self.max_retries {
                    let site = FaultSite {
                        device_index: dev,
                        chunk_index,
                        attempt,
                    };
                    let faults = self.plan.faults_at(site, chunk.len());
                    log.injected.extend(faults.iter().cloned());
                    pending.extend(faults.iter().cloned());
                    let host_lost = faults.iter().any(|f| f.kind == FaultKind::HostLoss);
                    let device_lost =
                        host_lost || faults.iter().any(|f| f.kind == FaultKind::DeviceLoss);
                    let transient = faults.iter().any(|f| {
                        matches!(
                            f.kind,
                            FaultKind::WatchdogTimeout | FaultKind::TransferFailure
                        )
                    });
                    let outcome = if device_lost {
                        // Losing the board aborts the attempt; any other
                        // fault drawn alongside dies with it (and is
                        // observed as part of the failed launch). The
                        // in-flight upload is cancelled — only *this*
                        // stream's pending ops, other chunks keep their
                        // timeline slots — and the watchdog time shows up
                        // as a stall on the dead device's engine.
                        log.observed += faults.len();
                        let mark = queue.mark(stream);
                        queue.enqueue(
                            stream,
                            Op::HostToDevice {
                                bytes: chunk_down_bytes,
                            },
                        );
                        queue.cancel_from(mark);
                        queue.enqueue(
                            stream,
                            Op::Stall {
                                seconds: WATCHDOG_TIMEOUT_SECONDS,
                            },
                        );
                        if host_lost {
                            // The whole host dropped: every sibling device
                            // dies with it, so this chunk (and all later
                            // ones homed here) ladder to the next host's
                            // devices, then to the CPU.
                            let struck = self.host_of.get(dev).copied().unwrap_or(0);
                            for (d, a) in alive.iter_mut().enumerate() {
                                if self.host_of.get(d).copied().unwrap_or(0) == struck {
                                    *a = false;
                                }
                            }
                        } else {
                            alive[dev] = false;
                        }
                        Attempt::DeviceLost
                    } else if transient {
                        // Same scoped teardown, plus exponential backoff
                        // before the retry re-enqueues on this stream.
                        log.observed += faults.len();
                        let mark = queue.mark(stream);
                        queue.enqueue(
                            stream,
                            Op::HostToDevice {
                                bytes: chunk_down_bytes,
                            },
                        );
                        queue.cancel_from(mark);
                        queue.enqueue(
                            stream,
                            Op::Stall {
                                seconds: WATCHDOG_TIMEOUT_SECONDS
                                    + BACKOFF_BASE_SECONDS * f64::from(1u32 << attempt.min(16)),
                            },
                        );
                        Attempt::Transient
                    } else {
                        // Clean launch straight from the borrowed arena
                        // slice — the fault-free tensors' results come out
                        // of exactly the buffers a fault-free run reads.
                        let ecc = faults.iter().find(|f| f.kind == FaultKind::EccCorruption);
                        let (res, report) = gpusim::enqueue_sshopm(
                            &mut queue,
                            stream,
                            &self.devices[dev],
                            chunk,
                            starts,
                            solver.policy(),
                            alpha,
                            variant,
                        )?;
                        useful_flops += report.useful_flops;
                        let mut chunk_rows = res.results;
                        total_iterations += chunk_rows
                            .iter()
                            .flatten()
                            .map(|p| p.iterations as u64)
                            .sum::<u64>();
                        if let Some(f) = ecc {
                            // ECC corruption hits one tensor: copy just its
                            // packed entries (15 scalars at the paper
                            // shape) into a one-tensor scratch batch,
                            // flip an entry to NaN, and launch that alone —
                            // never the whole chunk.
                            let j = f.tensor_index.unwrap_or(0);
                            let entry = self.plan.ecc_entry(site, num_entries);
                            let corrupted = corrupt_tensor(&chunk.get(j).to_owned(), entry);
                            let scratch = match TensorBatch::from_tensors(&[corrupted]) {
                                Ok(b) => b,
                                // The tensor came out of a valid batch, so
                                // its shape cannot overflow the arena stride.
                                Err(e) => {
                                    return Err(BackendError(format!("ECC scratch batch: {e}")))
                                }
                            };
                            let (pres, preport) = gpusim::enqueue_sshopm(
                                &mut queue,
                                stream,
                                &self.devices[dev],
                                &scratch,
                                starts,
                                solver.policy(),
                                alpha,
                                variant,
                            )?;
                            useful_flops += preport.useful_flops;
                            let prow = pres.results.into_iter().next().unwrap_or_default();
                            total_iterations +=
                                prow.iter().map(|p| p.iterations as u64).sum::<u64>();
                            let detected = prow.iter().any(|p| !p.is_finite());
                            chunk_rows[j] = prow;
                            if detected {
                                log.observed += 1;
                            }
                            if self.failover {
                                // Re-solve just the poisoned tensor on the
                                // CPU from the pristine arena slice — same
                                // kernels, bit-identical eigenpairs.
                                let started = std::time::Instant::now();
                                let cpu = BatchSolver::new(solver).solve_sequential(
                                    &*cpu_kernels,
                                    chunk.slice(j..j + 1),
                                    starts,
                                );
                                cpu_seconds += started.elapsed().as_secs_f64();
                                total_iterations += cpu.total_iterations;
                                useful_flops += cpu.total_iterations * iter_flops;
                                chunk_rows[j] = cpu.results.into_iter().next().unwrap_or_default();
                                log.degraded = true;
                            } else {
                                // The poisoned tensor fails alone; the
                                // rest of the chunk stands.
                                chunk_rows[j] = Vec::new();
                                ecc_failed_locals.push(j);
                                log.failed += 1;
                                if let Some(pos) = pending.iter().position(|p| p == f) {
                                    pending.remove(pos);
                                }
                            }
                        }
                        Attempt::Completed(chunk_rows)
                    };
                    match outcome {
                        Attempt::Completed(r) => {
                            rows = Some(r);
                            break 'devices;
                        }
                        Attempt::DeviceLost => {
                            // Sticky: stop retrying here. Failover (if
                            // any) happens at the device loop.
                            if !self.failover {
                                break 'devices;
                            }
                            continue 'devices;
                        }
                        Attempt::Transient => {
                            if attempt < self.max_retries {
                                log.retries += 1;
                            } else if !self.failover {
                                break 'devices;
                            }
                            // Retries exhausted with failover: fall
                            // through to the next device.
                        }
                    }
                }
            }

            if rows.is_none() && self.failover {
                // Every device is dead or exhausted: degrade to the CPU.
                log.failovers += 1;
                log.degraded = true;
                let started = std::time::Instant::now();
                let cpu = BatchSolver::new(solver).solve_sequential(&*cpu_kernels, chunk, starts);
                cpu_seconds += started.elapsed().as_secs_f64();
                total_iterations += cpu.total_iterations;
                useful_flops += cpu.total_iterations * iter_flops;
                rows = Some(cpu.results);
            }

            match rows {
                Some(r) => {
                    for (local, row) in r.into_iter().enumerate() {
                        results[lo + local] = row;
                    }
                    for j in ecc_failed_locals {
                        log.failed_indices.push(lo + j);
                    }
                    log.recovered += pending.len();
                }
                None => {
                    log.failed += pending.len();
                    log.failed_indices.extend(lo..hi);
                }
            }
        }

        log.failed_indices.sort_unstable();
        if telemetry.is_enabled() {
            telemetry.counter("fault.injected", log.injected.len() as u64);
            telemetry.counter("fault.observed", log.observed as u64);
            telemetry.counter("fault.recovered", log.recovered as u64);
            telemetry.counter("fault.retries", u64::from(log.retries));
            telemetry.counter("fault.failovers", u64::from(log.failovers));
            telemetry.counter("fault.failed_tensors", log.failed_indices.len() as u64);
        }
        // Devices run concurrently (the scheduler resolves their streams
        // against independent engines); CPU fallback work serializes after.
        let timeline = queue.synchronize();
        timeline.emit(telemetry);
        let wall = timeline.makespan() + cpu_seconds;
        let report = BatchReport {
            backend: label,
            kernel: effective.name().to_string(),
            solver: solver.name().to_string(),
            results,
            total_iterations,
            seconds: wall,
            useful_flops,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: telemetry::CommStats::default(),
            fault_log: log,
            kernel_cache: crate::backends::kernel_cache_delta(&cache_before),
            timeline: Some(timeline),
        };
        crate::backends::emit_run_report(telemetry, &report);
        Ok(report)
    }
}

/// Parse a `--faults` spec string into a [`FaultPlan`].
///
/// Grammar: comma-separated `key=value` fields, e.g.
/// `seed=42,ecc=0.01,watchdog=0.005,transfer=0.005,device-loss=0.001`.
/// Keys: `seed` (u64, default 0) and the five per-attempt probabilities
/// (`ecc`, `watchdog`, `transfer`, `device-loss`, `host-loss`), each in
/// `[0, 1]`, default 0.
pub fn parse_fault_plan(s: &str) -> Result<FaultPlan, BackendError> {
    let mut plan = FaultPlan::new(0);
    for field in s.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let Some((key, value)) = field.split_once('=') else {
            return Err(BackendError(format!(
                "malformed fault field {field:?} in {s:?}: expected key=value"
            )));
        };
        match key.trim() {
            "seed" => {
                plan.seed = value.trim().parse::<u64>().map_err(|_| {
                    BackendError(format!(
                        "invalid fault seed {value:?} in {s:?}: expected a non-negative integer"
                    ))
                })?;
            }
            key @ ("ecc" | "watchdog" | "transfer" | "device-loss" | "host-loss") => {
                let p = value.trim().parse::<f64>().map_err(|_| {
                    BackendError(format!(
                        "invalid probability {value:?} for fault kind {key:?} in {s:?}"
                    ))
                })?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(BackendError(format!(
                        "probability {p} for fault kind {key:?} in {s:?} is outside [0, 1]"
                    )));
                }
                plan = match key {
                    "ecc" => plan.with_ecc(p),
                    "watchdog" => plan.with_watchdog(p),
                    "transfer" => plan.with_transfer(p),
                    "device-loss" => plan.with_device_loss(p),
                    _ => plan.with_host_loss(p),
                };
            }
            other => {
                return Err(BackendError(format!(
                    "unknown fault kind {other:?} in {s:?}: expected seed, ecc, watchdog, \
                     transfer, device-loss or host-loss"
                )));
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_fault_specs() {
        let plan = parse_fault_plan(
            "seed=42,ecc=0.5,watchdog=0.25,transfer=0.125,device-loss=0.0625,host-loss=0.03125",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.ecc, 0.5);
        assert_eq!(plan.watchdog, 0.25);
        assert_eq!(plan.transfer, 0.125);
        assert_eq!(plan.device_loss, 0.0625);
        assert_eq!(plan.host_loss, 0.03125);
        assert!(plan.is_active());
    }

    #[test]
    fn parses_partial_and_spaced_specs() {
        let plan = parse_fault_plan(" seed=7 , ecc=1.0 ").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.ecc, 1.0);
        assert_eq!(plan.watchdog, 0.0);
        let empty = parse_fault_plan("").unwrap();
        assert!(!empty.is_active());
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        for (spec, needle) in [
            ("ecc", "expected key=value"),
            ("ecc=x", "invalid probability"),
            ("ecc=1.5", "outside [0, 1]"),
            ("ecc=-0.1", "outside [0, 1]"),
            ("seed=-1", "invalid fault seed"),
            ("cosmic-ray=0.5", "unknown fault kind"),
        ] {
            let err = parse_fault_plan(spec).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{spec:?} -> {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn from_spec_rejects_cpu_backends() {
        let cpu = BackendSpec::Cpu { threads: 4 };
        let err = ResilientBackend::from_spec(&cpu, KernelStrategy::General, FaultPlan::new(0))
            .unwrap_err();
        assert!(err.to_string().contains("gpusim"), "{err}");
    }

    #[test]
    fn from_spec_builds_gpu_device_lists() {
        let spec = BackendSpec::parse("gpusim:tesla-c2050:3").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(1))
                .unwrap()
                .with_retries(5)
                .with_failover(true);
        assert_eq!(backend.devices.len(), 3);
        assert_eq!(backend.max_retries, 5);
        assert!(backend.failover);
        assert_eq!(
            SolveBackend::<f64>::label(&backend),
            "resilient:gpusim:tesla-c2050:3"
        );
    }

    #[test]
    fn from_spec_builds_cluster_host_maps() {
        let spec = BackendSpec::parse("cluster:3:2").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(1)).unwrap();
        assert_eq!(backend.devices.len(), 6);
        assert_eq!(backend.host_of, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(backend.num_hosts(), 3);
        assert_eq!(
            SolveBackend::<f64>::label(&backend),
            "resilient:cluster:gpusim:tesla-c2050:3x2"
        );
    }

    #[test]
    fn zero_streams_is_a_typed_error_naming_the_flag() {
        let spec = BackendSpec::parse("gpusim:2").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(0)).unwrap();
        let err = backend.with_streams(0).unwrap_err();
        assert!(err.to_string().contains("--streams"), "{err}");
    }
}
