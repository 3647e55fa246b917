//! Link models and host↔device transfer accounting.
//!
//! Section V-B of the paper: "for larger numbers of tensors, this approach
//! generalizes to a system with multiple GPUs" — the tensors are
//! independent, so the batch splits across devices with no communication.
//! The split itself lives with the rest of the topology
//! ([`crate::topology::Cluster::launch`]); this module models the piece the
//! paper's timings exclude: moving the tensors to the device and the
//! eigenpairs back over a link (PCIe inside a host, a NIC between hosts).

use symtensor::multinomial::num_unique_entries;

/// Host↔device interconnect model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Sustained bandwidth in GB/s (PCIe 2.0 x16 ≈ 6 GB/s effective, the
    /// C2050's bus; PCIe 3.0 x16 ≈ 12).
    pub bandwidth_gbs: f64,
    /// Fixed per-transfer latency in seconds (DMA setup + driver).
    pub latency_s: f64,
}

impl TransferModel {
    /// The Tesla C2050's PCIe 2.0 x16 link.
    pub fn pcie2() -> Self {
        Self {
            bandwidth_gbs: 6.0,
            latency_s: 10e-6,
        }
    }

    /// A QDR-InfiniBand-class NIC (the cluster interconnect of the
    /// paper's era): ~4 GB/s sustained, microsecond-scale latency. The
    /// default inter-host link of [`crate::topology::Host`].
    pub fn qdr_infiniband() -> Self {
        Self {
            bandwidth_gbs: 4.0,
            latency_s: 2e-6,
        }
    }

    /// A zero-cost link: no latency, infinite bandwidth. A host behind it
    /// charges no transfer time, which is the paper's Table III convention
    /// (kernel time only) expressed as topology data — the stream makespan
    /// of one launch is then exactly its kernel estimate.
    pub fn untimed() -> Self {
        Self {
            bandwidth_gbs: f64::INFINITY,
            latency_s: 0.0,
        }
    }

    /// Time to move `bytes` in one transfer.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// One launch's host↔device staging: how many DMA operations it takes and
/// the bytes they move. Because the batch lives in a single contiguous
/// arena ([`symtensor::TensorBatch`]), the tensor payload goes down in ONE
/// coalesced copy; a `Vec<SymTensor>` layout would pay
/// [`TransferModel::latency_s`] once per tensor instead. This is the
/// memory-layout point of the paper's Section V: the device wants one flat,
/// densely packed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTransfer {
    /// Bytes staged host→device: the packed tensor arena plus the shared
    /// starting vectors.
    pub down_bytes: u64,
    /// Bytes returned device→host: one packed `(x, λ)` record per solve.
    pub up_bytes: u64,
    /// DMA operations host→device (1 for an arena-backed batch).
    pub down_copies: u64,
    /// DMA operations device→host (1: results are written packed).
    pub up_copies: u64,
}

impl HostTransfer {
    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.down_bytes + self.up_bytes
    }
}

/// Bytes shipped for a batched problem: tensors + shared starts down,
/// eigenpairs (vector + value per thread) back. `elem` is the scalar size.
pub fn problem_traffic_bytes(
    num_tensors: usize,
    num_starts: usize,
    m: usize,
    n: usize,
    elem: usize,
) -> (u64, u64) {
    let u = num_unique_entries(m, n);
    let down = (num_tensors as u64 * u + (num_starts * n) as u64) * elem as u64;
    let up = (num_tensors * num_starts) as u64 * (n as u64 + 1) * elem as u64;
    (down, up)
}

#[cfg(test)]
mod tests {
    //! Single-host launches: one [`Cluster`] host owning every device, so
    //! the device split, chunking and link timing are observed without
    //! any NIC traffic.

    use super::*;
    use crate::device::DeviceSpec;
    use crate::error::GpuError;
    use crate::kernel::{launch_sshopm, GpuBatchResult, GpuVariant};
    use crate::topology::{Cluster, ClusterReport, Host};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use sshopm::IterationPolicy;
    use symtensor::TensorBatch;

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    /// One host with `count` C2050s behind PCIe 2.0.
    fn c2050s(count: usize) -> Cluster {
        Cluster::single_host(
            vec![DeviceSpec::tesla_c2050(); count],
            TransferModel::pcie2(),
        )
        .unwrap()
    }

    fn launch(
        cluster: &Cluster,
        tensors: &TensorBatch<f32>,
        starts: &[Vec<f32>],
        policy: IterationPolicy,
        chunk_tensors: Option<usize>,
        streams_per_device: usize,
    ) -> (GpuBatchResult<f32>, ClusterReport) {
        cluster
            .launch(
                tensors,
                starts,
                policy,
                0.0,
                GpuVariant::Unrolled,
                chunk_tensors,
                streams_per_device,
            )
            .unwrap()
    }

    fn slice_sizes(report: &ClusterReport) -> Vec<usize> {
        report.shards[0]
            .report
            .slices
            .iter()
            .map(|s| s.num_tensors)
            .collect()
    }

    #[test]
    fn split_is_exact_and_proportional() {
        let (tensors, starts) = workload(1024, 1, 0);
        let (_, report) = launch(
            &c2050s(4),
            &tensors,
            &starts,
            IterationPolicy::Fixed(1),
            None,
            1,
        );
        let counts = slice_sizes(&report);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        assert_eq!(counts, vec![256; 4]);
    }

    #[test]
    fn heterogeneous_split_favors_faster_device() {
        let cluster = Cluster::single_host(
            vec![DeviceSpec::tesla_c2050(), DeviceSpec::tesla_c1060()],
            TransferModel::pcie2(),
        )
        .unwrap();
        let (tensors, starts) = workload(100, 1, 0);
        let (_, report) = launch(
            &cluster,
            &tensors,
            &starts,
            IterationPolicy::Fixed(1),
            None,
            1,
        );
        let counts = slice_sizes(&report);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts[0] > counts[1], "{counts:?}");
    }

    #[test]
    fn multi_gpu_results_match_single_gpu() {
        let (tensors, starts) = workload(16, 32, 1);
        let policy = IterationPolicy::Fixed(10);
        let single = DeviceSpec::tesla_c2050();
        let (base, _) = launch_sshopm(
            &single,
            &tensors,
            &starts,
            policy,
            0.0,
            GpuVariant::Unrolled,
        )
        .unwrap();
        let (multi, report) = launch(&c2050s(4), &tensors, &starts, policy, None, 1);
        assert_eq!(multi.results.len(), 16);
        for t in 0..16 {
            for v in 0..32 {
                assert_eq!(multi.results[t][v].lambda, base.results[t][v].lambda);
            }
        }
        assert_eq!(report.shards[0].report.slices.len(), 4);
    }

    #[test]
    fn two_gpus_are_faster_than_one_at_scale() {
        let (tensors, starts) = workload(512, 128, 2);
        let policy = IterationPolicy::Fixed(20);
        let (_, r1) = launch(&c2050s(1), &tensors, &starts, policy, None, 1);
        let (_, r2) = launch(&c2050s(2), &tensors, &starts, policy, None, 1);
        let speedup = r1.seconds / r2.seconds;
        assert!(
            speedup > 1.5,
            "2 GPUs should approach 2x at 512 tensors, got {speedup:.2}"
        );
    }

    #[test]
    fn tiny_batches_do_not_benefit_from_more_gpus() {
        let (tensors, starts) = workload(2, 32, 3);
        let policy = IterationPolicy::Fixed(5);
        let (_, r1) = launch(&c2050s(1), &tensors, &starts, policy, None, 1);
        let (_, r4) = launch(&c2050s(4), &tensors, &starts, policy, None, 1);
        // Fixed transfer latency and launch overhead dominate; no big win.
        assert!(
            r4.seconds > r1.seconds * 0.4,
            "{} vs {}",
            r4.seconds,
            r1.seconds
        );
    }

    #[test]
    fn transfer_traffic_accounting() {
        // 8 tensors (15 entries) + 32 starts of 3 floats down; 8*32 pairs
        // of (3+1) floats up. f32 = 4 bytes.
        let (down, up) = problem_traffic_bytes(8, 32, 4, 3, 4);
        assert_eq!(down, (8 * 15 + 32 * 3) * 4);
        assert_eq!(up, 8 * 32 * 4 * 4);
        let tm = TransferModel::pcie2();
        let t = tm.transfer_seconds(down);
        assert!(t > tm.latency_s);
        assert!(t < tm.latency_s + 1e-5);
    }

    #[test]
    fn transfer_share_is_bounded_and_dominated_by_results() {
        // Result traffic scales with tensors x starts — the same scaling as
        // the compute — so the transfer share tends to a *constant*
        // fraction rather than vanishing; the model must keep it modest
        // (kernel-bound overall) and attribute most bytes to the upload of
        // results, not the tensor download.
        let policy = IterationPolicy::Fixed(20);
        let cluster = c2050s(1);
        for t in [64usize, 1024] {
            let (tensors, starts) = workload(t, 128, 4);
            let (_, report) = launch(&cluster, &tensors, &starts, policy, None, 1);
            let slice = &report.shards[0].report.slices[0];
            let share = slice.transfer_seconds / slice.total_seconds;
            assert!(share < 0.5, "T={t}: transfer share {share:.3}");
            let (down, up) = problem_traffic_bytes(t, 128, 4, 3, 4);
            assert!(up > 5 * down, "T={t}: results dominate traffic");
        }
    }

    /// Regression pin (satellite): the pipeline refactor must not shift
    /// the Table II/III baselines by silently retuning the link model.
    #[test]
    fn pcie2_constants_are_pinned() {
        let tm = TransferModel::pcie2();
        assert_eq!(tm.bandwidth_gbs, 6.0);
        assert_eq!(tm.latency_s, 10e-6);
        assert_eq!(tm.transfer_seconds(0), 10e-6);
        // 6 GB at 6 GB/s: one second plus the DMA setup.
        assert!((tm.transfer_seconds(6_000_000_000) - (1.0 + 10e-6)).abs() < 1e-12);
    }

    /// The stream scheduler must reproduce the serial `transfer +
    /// compute` sum exactly when there is nothing to overlap: one stream
    /// per device means upload → kernel → download back to back, so the
    /// makespan equals kernel seconds plus both copies. Over the untimed
    /// link (the one-device `gpusim` spelling) the copies cost nothing and
    /// the makespan is the kernel estimate to the bit.
    #[test]
    fn synchronous_timeline_equals_serial_transfer_plus_compute() {
        let (tensors, starts) = workload(64, 32, 21);
        for tm in [TransferModel::pcie2(), TransferModel::untimed()] {
            let cluster = Cluster::single_host(vec![DeviceSpec::tesla_c2050()], tm).unwrap();
            let (_, report) = launch(
                &cluster,
                &tensors,
                &starts,
                IterationPolicy::Fixed(10),
                None,
                1,
            );
            let host = &report.shards[0].report;
            assert_eq!(host.timeline.ops.len(), 3);
            let slice = &host.slices[0];
            let ht = slice.report.host_transfer;
            let serial = slice.report.timing.seconds
                + tm.transfer_seconds(ht.down_bytes)
                + tm.transfer_seconds(ht.up_bytes);
            assert!(
                (report.seconds - serial).abs() < 1e-12,
                "makespan {} vs serial {}",
                report.seconds,
                serial
            );
            assert_eq!(slice.total_seconds, report.seconds);
            assert!(
                (slice.transfer_seconds
                    - (tm.transfer_seconds(ht.down_bytes) + tm.transfer_seconds(ht.up_bytes)))
                .abs()
                    < 1e-15
            );
            if tm == TransferModel::untimed() {
                let kernel = slice.report.timing.seconds;
                assert_eq!(report.seconds.to_bits(), kernel.to_bits());
            }
        }
    }

    #[test]
    fn pipelined_results_are_bitwise_identical_to_synchronous() {
        let (tensors, starts) = workload(300, 32, 22);
        let policy = IterationPolicy::Fixed(8);
        let cluster = c2050s(2);
        let (sync, _) = launch(&cluster, &tensors, &starts, policy, None, 1);
        let (piped, report) = launch(&cluster, &tensors, &starts, policy, Some(64), 2);
        assert_eq!(piped.results.len(), sync.results.len());
        for (t, (a, b)) in piped.results.iter().zip(&sync.results).enumerate() {
            for (v, (pa, pb)) in a.iter().zip(b).enumerate() {
                assert_eq!(pa.lambda.to_bits(), pb.lambda.to_bits(), "t{t} v{v}");
                for (xa, xb) in pa.x.iter().zip(&pb.x) {
                    assert_eq!(xa.to_bits(), xb.to_bits(), "t{t} v{v}");
                }
            }
        }
        // Both devices split the work and chunked it: 150 tensors / 64 →
        // 3 chunks each, 3 ops per chunk.
        assert_eq!(report.shards[0].report.timeline.ops.len(), 2 * 3 * 3);
    }

    /// Regression pin (satellite): chunked paths charge the launch
    /// overhead per *chunk*, not per batch — each chunk's kernel estimate
    /// carries its own `LAUNCH_OVERHEAD_S`.
    #[test]
    fn pipelined_charges_launch_overhead_per_chunk() {
        use crate::timing::LAUNCH_OVERHEAD_S;
        let (tensors, starts) = workload(512, 32, 23);
        let policy = IterationPolicy::Fixed(5);
        let cluster = c2050s(1);
        let (_, sync) = launch(&cluster, &tensors, &starts, policy, None, 1);
        let (_, piped) = launch(&cluster, &tensors, &starts, policy, Some(128), 1);
        // 4 chunks: 3 more launch overheads than the single launch.
        let kernel = |r: &ClusterReport| r.shards[0].report.slices[0].report.timing.seconds;
        let extra = kernel(&piped) - kernel(&sync);
        assert!(
            extra >= 3.0 * LAUNCH_OVERHEAD_S * 0.999,
            "per-chunk overhead missing: extra kernel time {extra:e}"
        );
    }

    #[test]
    fn double_buffering_beats_synchronous_at_scale() {
        // Enough result traffic that hiding downloads behind kernels pays
        // for the extra per-chunk launch overheads.
        let (tensors, starts) = workload(2048, 64, 24);
        let policy = IterationPolicy::Fixed(5);
        let cluster = c2050s(1);
        let (_, sync) = launch(&cluster, &tensors, &starts, policy, None, 1);
        let (_, piped) = launch(&cluster, &tensors, &starts, policy, Some(256), 2);
        assert!(
            piped.seconds < sync.seconds,
            "pipelined {} >= synchronous {}",
            piped.seconds,
            sync.seconds
        );
        assert!(piped.shards[0].report.timeline.overlap_seconds() > 0.0);
    }

    #[test]
    fn empty_device_list_is_an_error_not_a_panic() {
        let err = Cluster::single_host(vec![], TransferModel::pcie2()).unwrap_err();
        assert_eq!(err, GpuError::EmptyHost);
        let err = Host::homogeneous(DeviceSpec::tesla_c2050(), 0).unwrap_err();
        assert_eq!(err, GpuError::EmptyHost);
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let none = TensorBatch::<f32>::new(4, 3).unwrap();
        let starts = vec![vec![1.0f32, 0.0, 0.0]];
        let err = c2050s(2)
            .launch(
                &none,
                &starts,
                IterationPolicy::Fixed(5),
                0.0,
                GpuVariant::General,
                None,
                1,
            )
            .unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);
    }
}
