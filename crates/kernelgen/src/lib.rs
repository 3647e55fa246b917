//! # kernelgen — runtime kernel generation behind a content-addressed cache
//!
//! The paper's Section V-D resolves index representations and multinomial
//! coefficients at code-generation time and unrolls the `A·xᵐ` / `A·xᵐ⁻¹`
//! loops into straight-line FP code. The `unrolled` crate does exactly that
//! at *build* time, but only for the shapes listed in its `build.rs`
//! ([`unrolled::GENERATED_SHAPES`]). This crate extends the idea to **any
//! small shape at runtime**: the same straight-line structure is emitted as
//! *data* — a flat [`KernelTape`] of pre-resolved entry offsets and folded
//! multinomial coefficients — and executed by a tight loop
//! ([`TapeKernels`]), giving near-unrolled performance without a compiler
//! in the loop.
//!
//! Three layers live here:
//!
//! * [`KernelTape`] / [`TapeKernels`] — the generator and its executor.
//!   The tape replays the *exact* floating-point operation order of the
//!   generated unrolled code, so on a generated shape the results are
//!   bitwise identical to [`unrolled::UnrolledKernels`].
//! * an **artifact cache** — generated tapes are serialized to disk keyed
//!   by a content hash of `(m, n, scalar, tape-format version)`, the way
//!   wasmer caches compiled modules: corrupt, truncated, or
//!   version-mismatched entries are detected (magic, header fields, and an
//!   FNV-1a payload checksum) and silently regenerated, never trusted.
//! * [`KernelRegistry`] — the single place kernel lifetime, caching, and
//!   fallback policy live. Callers ask for a [`KernelPlan`] for
//!   `(m, n, scalar, strategy)` and get back a memoized, shareable kernel
//!   object; repeated `solve_batch` calls on the same shape stop re-deriving
//!   blocked kernels, lane tables and tapes.
//!
//! ```
//! use kernelgen::{KernelRegistry, KernelStrategy};
//! use symtensor::{SymTensor, TensorKernels};
//!
//! // (5, 4) is not in unrolled::GENERATED_SHAPES — the tape covers it.
//! let registry = KernelRegistry::new();
//! let plan = registry.plan::<f64>(5, 4, KernelStrategy::Tape);
//! assert_eq!(plan.effective, KernelStrategy::Tape);
//!
//! let a = SymTensor::<f64>::from_fn(5, 4, |c| c.rank() as f64);
//! let x = [0.1, 0.2, 0.3, 0.4];
//! assert!(plan.kernels.axm(a.view(), &x).unwrap().is_finite());
//! ```

#![deny(missing_docs)]

mod artifact;
mod registry;
mod strategy;
mod tape;

pub use artifact::{artifact_path, inspect_dir, DiskEntry, TAPE_FORMAT_VERSION};
pub use registry::{CacheStats, KernelPlan, KernelRegistry};
pub use strategy::{KernelError, KernelStrategy};
pub use tape::{tape_supported, KernelTape, TapeKernels};
