//! [`GpuSimBackend`]: the one simulated-GPU backend.
//!
//! Section V-B of the paper: the one-block-per-tensor mapping
//! "generalizes to a system with multiple GPUs" because the tensors are
//! independent. One device, N devices on one host, double-buffered
//! chunks and N hosts are therefore one topology with different values,
//! and this backend runs all of them over a [`gpusim::Cluster`] through
//! its single launch path, [`gpusim::Cluster::launch`]. The `gpusim`,
//! `pipelined` and `cluster` spec strings are spellings of it
//! ([`crate::BackendSpec::build`]):
//!
//! * `gpusim` (one device) sits behind an untimed link
//!   ([`gpusim::TransferModel::untimed`]), so its modeled seconds are the
//!   kernel estimate alone — the paper's Table III convention.
//! * `gpusim:N` (N ≥ 2) and every `cluster` spec time copies over PCIe
//!   2.0; one stream per device means one launch per device.
//! * `pipelined` and `cluster` with ≥ 2 streams cut each device's share
//!   into [`GpuSimBackend::DEFAULT_CHUNK_TENSORS`]-tensor chunks dealt
//!   round-robin over the streams, overlapping PCIe with kernels.
//!
//! The batch arena is cut into one contiguous slice per host
//! (proportional to the host's summed peak throughput — the
//! [`gpusim::Cluster::shard`] policy) and each non-root shard pays one
//! modeled NIC round trip. Reports carry one [`telemetry::HostStats`] row
//! per shard (NIC bytes/seconds, shard makespan), a
//! [`telemetry::CommStats`] charging the achieved NIC traffic against the
//! Al Daas et al. communication lower bound, and a `host` latency
//! distribution of per-shard completion times. A single-host run also
//! returns its host's stream timeline.

use crate::backends::{
    emit_run_report, empty_report, fixed_alpha, record_gpu_batch_counters, total_iterations_of,
    SolveBackend,
};
use crate::report::{BatchReport, DeviceProfile, FaultLog};
use crate::spec::{device_slug, BackendError};
use crate::strategy::KernelStrategy;
use gpusim::{Cluster, DeviceSpec, Host, ProfileSnapshot, TransferModel};
use sshopm::Solver;
use symtensor::{Scalar, TensorBatch};
use telemetry::{CommStats, HostStats, Telemetry};

/// Simulated-GPU execution on any [`Cluster`] topology (Section V of the
/// paper): one thread block per tensor, one thread per starting vector,
/// the batch split over hosts and devices by peak throughput.
///
/// [`GpuSimBackend::new`] is the paper's one-device setting;
/// [`GpuSimBackend::on_cluster`] and [`GpuSimBackend::homogeneous`] take
/// any topology, and [`with_streams`] / [`with_chunk_tensors`] set the
/// stream schedule.
///
/// [`with_streams`]: GpuSimBackend::with_streams
/// [`with_chunk_tensors`]: GpuSimBackend::with_chunk_tensors
#[derive(Debug, Clone)]
pub struct GpuSimBackend {
    /// The host/device/link topology the batch runs on.
    pub cluster: Cluster,
    /// Kernel implementation to use (mapped onto a GPU variant).
    pub strategy: KernelStrategy,
    /// Streams per device that chunks are dealt round-robin across.
    pub streams_per_device: usize,
    /// Tensors per launch: `None` launches each device's whole share at
    /// once; `Some(k)` cuts it into `k`-tensor chunks, each its own
    /// upload + kernel + download.
    pub chunk_tensors: Option<usize>,
}

impl GpuSimBackend {
    /// Tensors per chunk of the `pipelined` and multi-stream `cluster`
    /// specs: matches the resilient backend's chunking so the two models
    /// agree on launch granularity.
    pub const DEFAULT_CHUNK_TENSORS: usize = 256;

    /// One simulated device with the given kernel strategy, timed the way
    /// the paper's Table III is: kernel only. The device's host sits
    /// behind [`TransferModel::untimed`], so the modeled seconds are
    /// exactly the kernel estimate.
    pub fn new(device: DeviceSpec, strategy: KernelStrategy) -> Self {
        let host = Host {
            devices: vec![device],
            pcie: TransferModel::untimed(),
            nic: TransferModel::qdr_infiniband(),
        };
        Self::on_cluster(Cluster::from(host), strategy)
    }

    /// A backend over an explicit topology: one stream per device, one
    /// launch per device.
    pub fn on_cluster(cluster: Cluster, strategy: KernelStrategy) -> Self {
        Self {
            cluster,
            strategy,
            streams_per_device: 1,
            chunk_tensors: None,
        }
    }

    /// `hosts` identical hosts of `devices_per_host` copies of `device`,
    /// behind the default links (PCIe 2.0 inside each host, a
    /// QDR-InfiniBand-class NIC between hosts).
    ///
    /// Errors when either count is zero.
    pub fn homogeneous(
        device: DeviceSpec,
        hosts: usize,
        devices_per_host: usize,
        strategy: KernelStrategy,
    ) -> Result<Self, BackendError> {
        Ok(Self::on_cluster(
            Cluster::homogeneous(device, hosts, devices_per_host)?,
            strategy,
        ))
    }

    /// Set the number of streams per device. Zero is an error: a device
    /// with no streams can never receive a chunk. Streams only overlap
    /// when the batch is chunked ([`with_chunk_tensors`]).
    ///
    /// [`with_chunk_tensors`]: GpuSimBackend::with_chunk_tensors
    pub fn with_streams(mut self, streams_per_device: usize) -> Result<Self, BackendError> {
        if streams_per_device == 0 {
            return Err(BackendError(
                "invalid stream count 0: need at least one stream per device".to_string(),
            ));
        }
        self.streams_per_device = streams_per_device;
        Ok(self)
    }

    /// Cut each device's share into `chunk_tensors`-tensor launches. Zero
    /// is an error: a zero-sized chunk would make no progress.
    pub fn with_chunk_tensors(mut self, chunk_tensors: usize) -> Result<Self, BackendError> {
        if chunk_tensors == 0 {
            return Err(BackendError(
                "invalid chunk size 0: need at least one tensor per chunk".to_string(),
            ));
        }
        self.chunk_tensors = Some(chunk_tensors);
        Ok(self)
    }
}

impl<S: Scalar> SolveBackend<S> for GpuSimBackend {
    /// The spelling the topology answers to: `gpusim:{device}` for the
    /// untimed one-device setting, `gpusim:{device}:{N}` for one host,
    /// `pipelined:gpusim:{device}:{N}x{streams}` for one chunked host and
    /// `cluster:gpusim:{device}:{hosts}x{N}x{streams}` for several hosts.
    fn label(&self) -> String {
        let hosts = self.cluster.hosts();
        let root = &hosts[0];
        let slug = device_slug(root.devices[0].name);
        let (devices, streams) = (root.num_devices(), self.streams_per_device);
        if hosts.len() > 1 {
            format!("cluster:gpusim:{slug}:{}x{devices}x{streams}", hosts.len())
        } else if self.chunk_tensors.is_some() {
            format!("pipelined:gpusim:{slug}:{devices}x{streams}")
        } else if devices == 1 && root.pcie == TransferModel::untimed() {
            format!("gpusim:{slug}")
        } else {
            format!("gpusim:{slug}:{devices}")
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
        let alpha = fixed_alpha(solver, "GpuSimBackend")?;
        let (variant, effective) =
            crate::strategy::gpu_variant(self.strategy, batch.order(), batch.dim());
        let cache_before = crate::strategy::KernelRegistry::global().stats();
        let _batch_span = telemetry.span("batch.solve");
        let (result, report) = self.cluster.launch(
            batch,
            starts,
            solver.policy(),
            alpha,
            variant,
            self.chunk_tensors,
            self.streams_per_device,
        )?;
        let total_iterations = total_iterations_of(&result.results);
        record_gpu_batch_counters(telemetry, &result.results, total_iterations);
        let comm = CommStats {
            nic_bytes: report.nic_bytes,
            lower_bound_bytes: report.comm_lower_bound_bytes,
            ratio: report.comm_ratio(),
        };

        // Global (host-major) device index of each host's first device.
        let mut device_base = Vec::with_capacity(self.cluster.num_hosts());
        let mut acc = 0usize;
        for host in self.cluster.hosts() {
            device_base.push(acc);
            acc += host.num_devices();
        }

        let single_host = self.cluster.num_hosts() == 1;
        let mut profiles: Vec<DeviceProfile> = Vec::new();
        let mut hosts: Vec<HostStats> = Vec::new();
        let mut timeline = None;
        for shard in report.shards {
            let host = &self.cluster.hosts()[shard.host_index];
            for slice in &shard.report.slices {
                let snapshot =
                    ProfileSnapshot::from_report(&host.devices[slice.device_index], &slice.report);
                snapshot.emit(telemetry);
                profiles.push(DeviceProfile {
                    device_index: device_base[shard.host_index] + slice.device_index,
                    host_index: shard.host_index,
                    num_tensors: slice.num_tensors,
                    transfer_seconds: slice.transfer_seconds,
                    snapshot,
                });
            }
            shard.report.timeline.emit(telemetry);
            hosts.push(HostStats {
                host_index: shard.host_index as u64,
                num_devices: host.num_devices() as u64,
                num_tensors: shard.num_tensors as u64,
                nic_down_bytes: shard.nic_down_bytes,
                nic_up_bytes: shard.nic_up_bytes,
                nic_seconds: shard.nic_seconds,
                seconds: shard.seconds,
            });
            // One host's timeline is the whole run's; several hosts'
            // timelines share no clock, so none is reported.
            if single_host {
                timeline = Some(shard.report.timeline);
            }
        }
        if telemetry.is_enabled() {
            telemetry.counter("cluster.hosts", hosts.len() as u64);
            telemetry.counter("cluster.nic_bytes", report.nic_bytes);
        }
        let batch_report = BatchReport {
            backend: label,
            kernel: effective.name().to_string(),
            solver: solver.name().to_string(),
            results: result.results,
            total_iterations,
            seconds: report.seconds,
            useful_flops: report.useful_flops,
            profiles,
            hosts,
            comm,
            fault_log: FaultLog::default(),
            kernel_cache: crate::backends::kernel_cache_delta(&cache_before),
            timeline,
        };
        emit_run_report(telemetry, &batch_report);
        Ok(batch_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::gpu_variant;
    use crate::BackendSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use sshopm::{IterationPolicy, Shift, SsHopm};

    fn workload(t: usize, v: usize) -> (TensorBatch<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(21);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    #[test]
    fn label_names_topology_and_streams() {
        let b =
            GpuSimBackend::homogeneous(DeviceSpec::tesla_c2050(), 4, 2, KernelStrategy::Unrolled)
                .unwrap();
        assert_eq!(
            SolveBackend::<f64>::label(&b),
            "cluster:gpusim:tesla-c2050:4x2x1"
        );
        let piped = b.with_streams(3).unwrap();
        assert_eq!(
            SolveBackend::<f64>::label(&piped),
            "cluster:gpusim:tesla-c2050:4x2x3"
        );
        // One host answers to the single-host spellings it aliases.
        for (spelling, label) in [
            ("gpusim", "gpusim:tesla-c2050"),
            ("gpusim:gtx-580", "gpusim:gtx-580"),
            ("gpusim:2", "gpusim:tesla-c2050:2"),
            ("cluster:1:2", "gpusim:tesla-c2050:2"),
            ("pipelined:2", "pipelined:gpusim:tesla-c2050:2x2"),
            ("cluster:1:2:2", "pipelined:gpusim:tesla-c2050:2x2"),
        ] {
            let backend = BackendSpec::parse(spelling)
                .unwrap()
                .build::<f64>(KernelStrategy::Unrolled)
                .unwrap();
            assert_eq!(backend.label(), label, "{spelling}");
        }
    }

    #[test]
    fn zero_streams_and_zero_chunks_are_typed_errors_naming_the_flags() {
        let b =
            GpuSimBackend::homogeneous(DeviceSpec::tesla_c2050(), 2, 2, KernelStrategy::Unrolled)
                .unwrap();
        let err = b.clone().with_streams(0).unwrap_err();
        assert!(err.to_string().contains("stream count 0"), "{err}");
        let err = b.with_chunk_tensors(0).unwrap_err();
        assert!(err.to_string().contains("chunk size 0"), "{err}");
    }

    #[test]
    fn zero_hosts_or_devices_are_errors() {
        assert!(GpuSimBackend::homogeneous(
            DeviceSpec::tesla_c2050(),
            0,
            2,
            KernelStrategy::Unrolled
        )
        .is_err());
        assert!(GpuSimBackend::homogeneous(
            DeviceSpec::tesla_c2050(),
            2,
            0,
            KernelStrategy::Unrolled
        )
        .is_err());
    }

    #[test]
    fn report_carries_host_rows_and_comm_accounting() {
        let (tensors, starts) = workload(96, 8);
        let backend =
            GpuSimBackend::homogeneous(DeviceSpec::tesla_c2050(), 2, 2, KernelStrategy::Unrolled)
                .unwrap();
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(6));
        let report = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        assert_eq!(report.hosts.len(), 2);
        assert_eq!(report.hosts[0].nic_down_bytes, 0);
        assert!(report.hosts[1].nic_down_bytes > 0);
        assert!(report.comm.nic_bytes > 0);
        assert!(report.comm.lower_bound_bytes > 0);
        assert!(
            report.comm.ratio > 0.9 && report.comm.ratio < 8.0,
            "{}",
            report.comm.ratio
        );
        assert_eq!(report.profiles.len(), 4);
        assert_eq!(report.profiles[2].host_index, 1);
        assert_eq!(report.profiles[2].device_index, 2);
        let run = report.run_report();
        assert_eq!(run.hosts.len(), 2);
        assert!(run.latency("host").is_some());
    }

    /// The benchmark's `modeled_gflops` rests on this convention: the
    /// one-device `gpusim` spellings model exactly the paper's kernel-only
    /// Table III time — bit for bit what a bare `launch_sshopm` models —
    /// and charge no transfer time, while `gpusim:2` times its copies.
    #[test]
    fn one_device_gpusim_is_the_kernel_only_launch_model() {
        let mut rng = StdRng::seed_from_u64(43);
        let tensors = TensorBatch::<f32>::random(4, 3, 64, &mut rng).unwrap();
        let starts = random_uniform_starts::<f32, _>(3, 16, &mut rng);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
        let tel = Telemetry::disabled();
        for spelling in ["gpusim", "gpusim:c1060", "gpusim:gtx-580"] {
            let spec = BackendSpec::parse(spelling).unwrap();
            let BackendSpec::GpuSim { device, devices: 1 } = spec else {
                panic!("{spelling} is not a one-device gpusim spec");
            };
            for strategy in [KernelStrategy::General, KernelStrategy::Unrolled] {
                let report = spec
                    .build::<f32>(strategy)
                    .unwrap()
                    .solve_batch(&tensors, &starts, &solver, &tel)
                    .unwrap();
                let (variant, _) = gpu_variant(strategy, 4, 3);
                let (_, launch) = gpusim::launch_sshopm(
                    &device.spec(),
                    &tensors,
                    &starts,
                    solver.policy(),
                    0.0,
                    variant,
                )
                .unwrap();
                assert_eq!(
                    report.seconds.to_bits(),
                    launch.timing.seconds.to_bits(),
                    "{spelling} {strategy:?}: {} vs {}",
                    report.seconds,
                    launch.timing.seconds
                );
                assert_eq!(report.useful_flops, launch.useful_flops, "{spelling}");
                assert!(!report.profiles.is_empty());
                for profile in &report.profiles {
                    assert_eq!(profile.transfer_seconds, 0.0, "{spelling} {strategy:?}");
                }
            }
        }
        let two = BackendSpec::parse("gpusim:2")
            .unwrap()
            .build::<f32>(KernelStrategy::General)
            .unwrap()
            .solve_batch(&tensors, &starts, &solver, &tel)
            .unwrap();
        assert_eq!(two.profiles.len(), 2);
        for profile in &two.profiles {
            assert!(profile.transfer_seconds > 0.0, "gpusim:2 must time PCIe");
        }
    }

    /// A single-host run returns its host's stream timeline, so
    /// `cluster:1:2:2` reports exactly what its alias `pipelined:2` does;
    /// several hosts share no clock and report none.
    #[test]
    fn single_host_runs_return_their_timeline() {
        let (tensors, starts) = workload(600, 4);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
        let run = |spelling: &str| {
            BackendSpec::parse(spelling)
                .unwrap()
                .build::<f64>(KernelStrategy::Unrolled)
                .unwrap()
                .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
                .unwrap()
        };
        let cluster = run("cluster:1:2:2");
        let piped = run("pipelined:2");
        let a = cluster.timeline.as_ref().expect("cluster:1:2:2 timeline");
        let b = piped.timeline.as_ref().expect("pipelined:2 timeline");
        // 300 tensors per device in 256-tensor chunks: 2 chunks of 3 ops.
        assert_eq!(a.ops.len(), 2 * 2 * 3);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
        assert_eq!(cluster.seconds.to_bits(), piped.seconds.to_bits());
        let run_report = cluster.run_report();
        assert!(run_report.latency("stream").is_some());
        assert!(run_report.latency("device").is_some());
        assert!(run("cluster:2:2:2").timeline.is_none());
    }

    #[test]
    fn adaptive_solvers_are_rejected_with_a_pointer_to_cpu() {
        let (tensors, starts) = workload(4, 2);
        let backend =
            GpuSimBackend::homogeneous(DeviceSpec::tesla_c2050(), 2, 1, KernelStrategy::Unrolled)
                .unwrap();
        let solver = SsHopm::new(Shift::Adaptive).with_policy(IterationPolicy::Fixed(4));
        let err = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap_err();
        assert!(err.to_string().contains("cpu"), "{err}");
    }
}
