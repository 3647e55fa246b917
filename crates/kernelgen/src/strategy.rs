//! Kernel-strategy selection: *how* the tensor contractions are computed,
//! independently of *where* the batch runs.
//!
//! The enum lives here (rather than in `backend`, where it started) because
//! the [`KernelRegistry`](crate::KernelRegistry) is the single place
//! strategy fallback policy is applied; `backend` re-exports it unchanged.
//!
//! There are four strategies, and a missing kernel falls back one step:
//! `Unrolled → Blocked`, `Tape → Blocked`, and `Blocked → General` above
//! order 8. Under `Unrolled`, the CPU backend runs fixed-shift SS-HOPM in
//! lockstep lanes from [`KernelRegistry::batched`](crate::KernelRegistry::batched)
//! (DESIGN.md §4).

use std::fmt;

/// Error type for kernel-strategy parsing and tape materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

/// Which `A·xᵐ` / `A·xᵐ⁻¹` implementation a backend should use.
///
/// Unavailable strategies fall back one step (see the module docs; the
/// simulated GPU, which has no blocked variant, falls back to `General`).
/// [`KernelRegistry::plan`](crate::KernelRegistry::plan) and
/// `backend::gpu_variant` report the strategy actually chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelStrategy {
    /// On-the-fly index/coefficient computation (works for every shape).
    General,
    /// Const-generic blocked kernels (orders 1–8, any dimension).
    Blocked,
    /// Straight-line generated kernels (build.rs `GENERATED_SHAPES` only).
    Unrolled,
    /// Runtime-generated kernel tape ([`crate::TapeKernels`]): the unrolled
    /// straight-line structure emitted as data for *any* small shape, loaded
    /// through the content-addressed artifact cache.
    Tape,
}

impl KernelStrategy {
    /// All strategies, for sweeps and tests.
    pub const ALL: [KernelStrategy; 4] = [
        KernelStrategy::General,
        KernelStrategy::Blocked,
        KernelStrategy::Unrolled,
        KernelStrategy::Tape,
    ];

    /// Short name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            KernelStrategy::General => "general",
            KernelStrategy::Blocked => "blocked",
            KernelStrategy::Unrolled => "unrolled",
            KernelStrategy::Tape => "tape",
        }
    }

    /// Parse a CLI token (`general`, `blocked`, `unrolled`, `tape`). The
    /// retired tokens `batched` and `precomputed` are errors naming their
    /// replacement.
    pub fn parse(s: &str) -> Result<Self, KernelError> {
        match s {
            "general" => Ok(KernelStrategy::General),
            "blocked" => Ok(KernelStrategy::Blocked),
            "unrolled" => Ok(KernelStrategy::Unrolled),
            "tape" => Ok(KernelStrategy::Tape),
            "batched" => Err(removed(s, "unrolled, which picks lockstep lanes by shape")),
            "precomputed" => Err(removed(s, "blocked, which is faster per call")),
            other => Err(KernelError(format!(
                "unknown kernel strategy {other:?}: expected one of general, blocked, \
                 unrolled, tape"
            ))),
        }
    }
}

fn removed(token: &str, replacement: &str) -> KernelError {
    KernelError(format!(
        "kernel strategy {token:?} was removed: use {replacement}"
    ))
}

impl fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelStrategy {
    type Err = KernelError;

    fn from_str(s: &str) -> Result<Self, KernelError> {
        KernelStrategy::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in KernelStrategy::ALL {
            assert_eq!(KernelStrategy::parse(s.name()).unwrap(), s);
            assert_eq!(s.to_string(), s.name());
            assert_eq!(s.name().parse::<KernelStrategy>().unwrap(), s);
        }
        assert!(KernelStrategy::parse("fused").is_err());
    }

    #[test]
    fn parse_error_lists_tape() {
        let err = KernelStrategy::parse("nope").unwrap_err();
        assert!(err.0.contains("tape"), "{err}");
    }

    #[test]
    fn retired_tokens_name_their_replacement() {
        let err = KernelStrategy::parse("batched").unwrap_err();
        assert!(err.0.contains("use unrolled"), "{err}");
        let err = KernelStrategy::parse("precomputed").unwrap_err();
        assert!(err.0.contains("use blocked"), "{err}");
    }
}
