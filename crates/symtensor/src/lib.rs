//! # symtensor — packed symmetric tensors and symmetry-exploiting kernels
//!
//! This crate implements the core contribution of Ballard, Kolda & Plantenga,
//! *Efficiently Computing Tensor Eigenvalues on a GPU* (IPPS 2011):
//!
//! * a **packed storage format** for symmetric order-`m`, dimension-`n`
//!   tensors that stores only the `C(m+n-1, m)` unique entries in
//!   lexicographic order of *index classes* (Section III-A of the paper);
//! * **symmetry-exploiting kernels** for the tensor-vector products
//!   `A·xᵐ` (scalar) and `A·xᵐ⁻¹` (vector) that weight each unique entry by
//!   a multinomial coefficient, reducing both storage and computation by a
//!   factor of roughly `m!` (Section III-B);
//! * a **dense (nonsymmetric) baseline** implementing the same products by
//!   repeated mode contraction, used for correctness cross-checks and as the
//!   "general" column of the paper's Table II;
//! * **arena batch storage** ([`TensorBatch`]) packing N same-shape tensors
//!   into one contiguous buffer with zero-copy [`SymTensorRef`] views and
//!   [`TensorBatchRef`] sub-batch slices — the layout a GPU batch transfer
//!   actually moves as a single coalesced copy.
//!
//! ## Quick example
//!
//! ```
//! use symtensor::{SymTensor, kernels};
//!
//! // A symmetric 3x3x3x3 tensor (order m=4, dimension n=3): 15 unique entries.
//! let a = SymTensor::<f64>::from_fn(4, 3, |class| class.indices().iter().sum::<usize>() as f64);
//! let x = [1.0, 0.5, -0.25];
//!
//! let s = kernels::axm(&a, &x).unwrap(); // A·x^m, a scalar
//! let mut y = [0.0; 3];
//! kernels::axm1(&a, &x, &mut y).unwrap(); // A·x^{m-1}, a vector
//! // Euler's identity for homogeneous forms: x·(A x^{m-1}) = A x^m.
//! let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
//! assert!((dot - s).abs() < 1e-12);
//! ```
//!
//! All tensors in this crate are real-valued and use 0-based indices
//! internally (the paper uses 1-based).

#![deny(missing_docs)]

pub mod batch;
pub mod blocked;
pub mod dense;
pub mod error;
pub mod flops;
pub mod index;
pub mod io;
pub mod kernels;
pub mod lanes;
pub mod multinomial;
pub mod scalar;
pub mod special;
pub mod storage;

pub use batch::{TensorBatch, TensorBatchRef};
pub use blocked::BlockedKernels;
pub use dense::DenseTensor;
pub use error::{Error, Result};
pub use index::{IndexClass, IndexClassIter, MonomialRep};
pub use kernels::{GeneralKernels, PrecomputedTables, TensorKernels};
pub use lanes::{BatchedKernels, LaneBodies, LaneKernel, LanePanel, LaneRow, LANE_WIDTH};
pub use multinomial::CombinatoricsOverflow;
pub use scalar::Scalar;
pub use storage::{SymTensor, SymTensorRef};
