//! Kernel-strategy selection: *how* the tensor contractions are computed,
//! independently of *where* the batch runs.
//!
//! The strategy enum and the machinery that materializes kernels live in
//! the `kernelgen` crate: backends ask the process-wide [`KernelRegistry`]
//! for a [`KernelPlan`] and get back a memoized, shareable kernel object
//! (falling back one step: `Unrolled → Blocked`, `Tape → Blocked`, and
//! `Blocked → General` above order 8) instead of boxing a fresh kernel per
//! call. This module re-exports those types so `backend::KernelStrategy`
//! keeps working, and adds the one mapping that is backend-specific:
//! strategy → simulated-GPU kernel variant. The lane choice — lockstep
//! lanes for fixed-shift SS-HOPM under `Unrolled` — is made by
//! [`crate::Cpu`].

pub use kernelgen::{KernelPlan, KernelRegistry, KernelStrategy};

use gpusim::GpuVariant;
use unrolled::UnrolledKernels;

/// Map a strategy onto a simulated-GPU kernel variant for shape `(m, n)`.
///
/// The GPU model implements the general, unrolled, and tape variants, so
/// `Blocked` runs as `General`; `Unrolled` falls back to `General` for
/// ungenerated shapes and `Tape` falls back to `General` for shapes the
/// runtime generator does not support. Returns the variant and the
/// strategy actually in effect.
pub fn gpu_variant(strategy: KernelStrategy, m: usize, n: usize) -> (GpuVariant, KernelStrategy) {
    match strategy {
        KernelStrategy::Unrolled if UnrolledKernels::for_shape(m, n).is_some() => {
            (GpuVariant::Unrolled, KernelStrategy::Unrolled)
        }
        KernelStrategy::Tape if kernelgen::tape_supported(m, n) => {
            (GpuVariant::Tape, KernelStrategy::Tape)
        }
        _ => (GpuVariant::General, KernelStrategy::General),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_available_strategies() {
        let registry = KernelRegistry::new();
        for strategy in KernelStrategy::ALL {
            let plan = registry.plan::<f64>(4, 3, strategy);
            assert_eq!(plan.effective, strategy, "(4,3) supports every strategy");
        }
    }

    #[test]
    fn unrolled_falls_back_for_ungenerated_shape() {
        let registry = KernelRegistry::new();
        // (7, 7) has no generated kernel but is within the blocked range.
        let plan = registry.plan::<f64>(7, 7, KernelStrategy::Unrolled);
        assert_eq!(plan.effective, KernelStrategy::Blocked);
        assert_eq!(plan.kernels.name(), "blocked");
        // Order 9 is beyond the blocked range too: all the way to general.
        let plan = registry.plan::<f64>(9, 3, KernelStrategy::Unrolled);
        assert_eq!(plan.effective, KernelStrategy::General);
        assert_eq!(plan.kernels.name(), "general");
    }

    #[test]
    fn gpu_variant_mapping() {
        assert_eq!(
            gpu_variant(KernelStrategy::Unrolled, 4, 3),
            (GpuVariant::Unrolled, KernelStrategy::Unrolled)
        );
        assert_eq!(
            gpu_variant(KernelStrategy::Unrolled, 5, 9),
            (GpuVariant::General, KernelStrategy::General)
        );
        // The tape generator covers (5, 9); the slot cap rules out (5, 40).
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 5, 9),
            (GpuVariant::Tape, KernelStrategy::Tape)
        );
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 5, 40),
            (GpuVariant::General, KernelStrategy::General)
        );
        for s in [KernelStrategy::General, KernelStrategy::Blocked] {
            assert_eq!(gpu_variant(s, 4, 3).0, GpuVariant::General);
        }
    }

    #[test]
    fn names_round_trip() {
        for s in KernelStrategy::ALL {
            assert_eq!(KernelStrategy::parse(s.name()).unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert!(KernelStrategy::parse("fused").is_err());
    }
}
