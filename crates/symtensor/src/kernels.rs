//! Symmetry-exploiting tensor-times-same-vector kernels (Section III-B).
//!
//! * [`axm`] — `A·xᵐ` (scalar; the generalized Rayleigh quotient), Figure 2.
//! * [`axm1`] — `A·xᵐ⁻¹` (vector; the generalized matrix-vector product),
//!   Figure 3.
//! * [`axmp`] — the general `(m-p)`-times product `A·x^{m-p}` returning a
//!   symmetric order-`p` tensor (Definition 2), which subsumes both (`p=0`,
//!   `p=1`) and also provides the `p=2` projected-Hessian matrix used for
//!   eigenpair classification.
//! * [`PrecomputedTables`] — the Section III-B5 / V-C storage-for-compute
//!   trade-off: index representations and multinomial coefficients stored
//!   once per `(m, n)` and shared by all tensors of that shape.
//!
//! Every kernel walks the packed unique entries in lexicographic order using
//! the `UPDATEINDEX` successor, weighting each entry by the number of tensor
//! indices in its class ([`crate::multinomial::multinomial0`] /
//! [`crate::multinomial::multinomial1`]), so the flop count is proportional to `n^m / m!`
//! instead of `n^m`.

use crate::error::{Error, Result};
use crate::index::{IndexClass, IndexClassIter};
use crate::multinomial::{multinomial0, multinomial1_from_stored, num_unique_entries};
use crate::scalar::Scalar;
use crate::storage::{SymTensor, SymTensorRef};

/// A strategy for evaluating the two SS-HOPM kernels on packed symmetric
/// tensors. Implemented by the on-the-fly [`GeneralKernels`], the
/// table-driven [`PrecomputedTables`], the const-generic blocked kernels,
/// and (in the `unrolled` crate) the compile-time fully-unrolled kernels —
/// letting the power-method driver and the benchmark harness swap
/// implementations without code changes.
///
/// Methods take borrowed [`SymTensorRef`] views, so a tensor living inside a
/// [`crate::TensorBatch`] arena is evaluated in place — no owned
/// [`SymTensor`] is ever required on the hot path. Call sites holding an
/// owned tensor pass `a.view()`.
///
/// Both kernels are fallible: a vector of the wrong length or a tensor whose
/// shape does not match the shape an implementation was built for surfaces as
/// a typed [`Error`], never a panic or a silently wrong value — this is what
/// lets a mismatched tensor inside a batch fail alone on the resilient path.
pub trait TensorKernels<S: Scalar>: Sync {
    /// Evaluate `A·xᵐ`.
    ///
    /// # Errors
    /// Returns [`Error::VectorLengthMismatch`] if `x.len() != a.dim()`, or
    /// [`Error::ShapeMismatch`] if the implementation was built for a
    /// different shape than `a`.
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S>;

    /// Evaluate `A·xᵐ⁻¹` into `y` (overwritten).
    ///
    /// # Errors
    /// Returns a typed error on length or shape mismatch; `y` may have been
    /// partially zeroed in that case but is never left with garbage values.
    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()>;

    /// Short human-readable name for reports ("general", "precomputed",
    /// "unrolled(m,n)").
    fn name(&self) -> &'static str {
        "kernels"
    }
}

impl<S: Scalar, K: TensorKernels<S> + ?Sized> TensorKernels<S> for &K {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        (**self).axm(a, x)
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        (**self).axm1(a, x, y)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The paper's Figure 2 / Figure 3 kernels computing index representations
/// and multinomial coefficients on the fly (no extra storage).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralKernels;

impl<S: Scalar> TensorKernels<S> for GeneralKernels {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        axm(a, x)
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        axm1(a, x, y)
    }

    fn name(&self) -> &'static str {
        "general"
    }
}

impl<S: Scalar> TensorKernels<S> for PrecomputedTables {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        PrecomputedTables::axm(self, a, x)
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        PrecomputedTables::axm1(self, a, x, y)
    }

    fn name(&self) -> &'static str {
        "precomputed"
    }
}

/// Validate that `x` has length `n`.
pub(crate) fn check_vec<S>(x: &[S], n: usize) -> Result<()> {
    if x.len() != n {
        return Err(Error::VectorLengthMismatch {
            expected: n,
            actual: x.len(),
        });
    }
    Ok(())
}

/// Validate that a tensor view has shape `(m, n)`.
pub(crate) fn check_shape<S: Scalar>(a: &SymTensorRef<'_, S>, m: usize, n: usize) -> Result<()> {
    if a.order() != m || a.dim() != n {
        return Err(Error::ShapeMismatch {
            expected: (m, n),
            found: (a.order(), a.dim()),
        });
    }
    Ok(())
}

/// `A·xᵐ`: the tensor applied to the same vector in all modes, yielding a
/// scalar (Figure 2 / Equation 4 of the paper).
///
/// Cost: `O(m · n^m / m!)` flops (each of the `C(m+n-1, m)` unique entries
/// contributes an `m`-fold product, a multinomial weight and one
/// accumulation).
///
/// # Errors
/// Returns [`Error::VectorLengthMismatch`] if `x.len() != A.dim()`.
///
/// Accepts `&SymTensor<S>` or a [`SymTensorRef`] view interchangeably.
pub fn axm<'a, S: Scalar>(a: impl Into<SymTensorRef<'a, S>>, x: &[S]) -> Result<S> {
    let a = a.into();
    check_vec(x, a.dim())?;
    let m = a.order();
    let n = a.dim();
    let mut y = S::ZERO;
    let mut index = vec![0usize; m];
    let last = n - 1;
    for &av in a.values() {
        // xhat = x_{I_1} * ... * x_{I_m}
        let mut xhat = S::ONE;
        for &i in &index {
            xhat *= x[i];
        }
        let c = multinomial0(&index);
        y += S::from_u64(c) * av * xhat;
        // UPDATEINDEX (Figure 4), inlined.
        if let Some(j) = index.iter().rposition(|&i| i != last) {
            let v = index[j] + 1;
            for slot in &mut index[j..] {
                *slot = v;
            }
        }
    }
    Ok(y)
}

/// `A·xᵐ⁻¹`: the tensor applied to the same vector in all modes but one,
/// yielding a vector (Figure 3 / Equation 6 of the paper). The result is
/// accumulated into `y` (which is zeroed first).
///
/// Cost: `O(m² · n^m / m!)` flops — the inner loop visits each *distinct*
/// index of each class.
///
/// # Errors
/// Returns [`Error::VectorLengthMismatch`] if `x` or `y` is not of length
/// `A.dim()`.
///
/// Accepts `&SymTensor<S>` or a [`SymTensorRef`] view interchangeably.
pub fn axm1<'a, S: Scalar>(a: impl Into<SymTensorRef<'a, S>>, x: &[S], y: &mut [S]) -> Result<()> {
    let a = a.into();
    let n = a.dim();
    check_vec(x, n)?;
    check_vec(y, n)?;
    let m = a.order();
    y.iter_mut().for_each(|e| *e = S::ZERO);
    let mut index = vec![0usize; m];
    let last = n - 1;
    for &av in a.values() {
        // Full product x_{I_1} * ... * x_{I_m}; per-entry products below
        // divide one factor out *by recomputation* (not division, which
        // would be unstable at x_i = 0): for each distinct i in I we form
        // the product over the remaining positions.
        let mut t = 0usize;
        while t < m {
            let i = index[t];
            // Skip repeated indices: only the first occurrence of each
            // distinct index spawns a contribution (Figure 3 line 5).
            if t > 0 && index[t - 1] == i {
                t += 1;
                continue;
            }
            // xhat = product over all positions except this occurrence of i.
            let mut xhat = S::ONE;
            for (s, &is) in index.iter().enumerate() {
                if s != t {
                    xhat *= x[is];
                }
            }
            let c = crate::multinomial::multinomial1(&index, i);
            y[i] += S::from_u64(c) * av * xhat;
            t += 1;
        }
        if let Some(j) = index.iter().rposition(|&i| i != last) {
            let v = index[j] + 1;
            for slot in &mut index[j..] {
                *slot = v;
            }
        }
    }
    Ok(())
}

/// The general symmetric tensor-vector multiply of Definition 2:
/// `A·x^{m-p}` for `0 <= p <= m-1`, returning the symmetric order-`p`
/// result as a packed [`SymTensor`] (for `p = 0` a 1-entry order-... scalar
/// is inconvenient, so `p = 0` returns an order-1 tensor is *not* used;
/// instead use [`axm`]; this function requires `p >= 1`).
///
/// Entry `(A·x^{m-p})_J` for a result class `J` is computed by summing over
/// all order-`(m-p)` completion classes `K`:
///
/// ```text
/// (A x^{m-p})_J = Σ_K  C(m-p; mono(K)) · a_{sort(J ∪ K)} · Π_{i∈K} x_i
/// ```
///
/// which exploits symmetry in the contracted modes exactly as Equation 6
/// does for `p = 1`.
pub fn axmp<'a, S: Scalar>(
    a: impl Into<SymTensorRef<'a, S>>,
    x: &[S],
    p: usize,
) -> Result<SymTensor<S>> {
    let a = a.into();
    let m = a.order();
    let n = a.dim();
    check_vec(x, n)?;
    if p < 1 || p > m - 1 {
        return Err(Error::InvalidContraction { p, m });
    }
    let q = m - p; // number of contracted modes
    let mut out = SymTensor::zeros(p, n);
    // Precompute for every completion class K: its multinomial weight and
    // the product of x over its indices.
    let completions: Vec<(IndexClass, S)> = IndexClassIter::new(q, n)
        .map(|k| {
            let w = S::from_u64(k.occurrences());
            let prod: S = k.indices().iter().fold(S::ONE, |acc, &i| acc * x[i]);
            (k, w * prod)
        })
        .collect();
    let mut merged = vec![0usize; m];
    let out_len = out.num_unique();
    for jr in 0..out_len {
        let j = IndexClass::unrank(jr as u64, p, n);
        let mut acc = S::ZERO;
        for (k, wx) in &completions {
            // merge sorted J (p) and K (q) into a sorted tensor index, then
            // rank it directly — no per-iteration IndexClass allocation in
            // this O(U_p · U_q) loop (it feeds GEAP Hessian assembly).
            merge_sorted(j.indices(), k.indices(), &mut merged);
            let rank = rank_sorted(&merged, n);
            acc += *wx * a.value_at_rank(rank as usize);
        }
        out.values_mut()[jr] = acc;
    }
    Ok(out)
}

/// Rank a sorted (non-decreasing) tensor index in the combinatorial number
/// system — the same ordering as [`IndexClass::rank`], computed without
/// constructing an [`IndexClass`].
fn rank_sorted(indices: &[usize], n: usize) -> u64 {
    let m = indices.len();
    let mut rank = 0u64;
    let mut lo = 0usize;
    for (t, &it) in indices.iter().enumerate() {
        let rem = m - t - 1;
        for v in lo..it {
            rank += crate::multinomial::binomial(rem + n - v - 1, rem);
        }
        lo = it;
    }
    rank
}

/// Merge two sorted index slices into `out` (standard two-pointer merge).
fn merge_sorted(a: &[usize], b: &[usize], out: &mut [usize]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut ia, mut ib) = (0, 0);
    for slot in out.iter_mut() {
        if ia < a.len() && (ib >= b.len() || a[ia] <= b[ib]) {
            *slot = a[ia];
            ia += 1;
        } else {
            *slot = b[ib];
            ib += 1;
        }
    }
}

/// `A·x^{m-2}` reshaped as a dense symmetric `n × n` matrix (row-major),
/// used for the projected-Hessian eigenpair classification.
pub fn axm2_matrix<'a, S: Scalar>(a: impl Into<SymTensorRef<'a, S>>, x: &[S]) -> Result<Vec<S>> {
    let a = a.into();
    let m = a.order();
    let n = a.dim();
    if m < 2 {
        return Err(Error::InvalidContraction { p: 2, m });
    }
    if m == 2 {
        // The tensor is itself the matrix; expand packed to dense.
        let mut mat = vec![S::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                mat[i * n + j] = a.get(&[i, j])?;
            }
        }
        return Ok(mat);
    }
    let t = axmp(a, x, 2)?;
    let mut mat = vec![S::ZERO; n * n];
    for i in 0..n {
        for j in 0..n {
            let v = t.get(&[i.min(j), i.max(j)])?;
            mat[i * n + j] = v;
        }
    }
    Ok(mat)
}

/// Precomputed index and multinomial-coefficient tables for a fixed shape
/// `(m, n)`: the paper's Section V-C data structures. The tables depend only
/// on the shape, so one instance is shared by *all* tensors of that shape
/// (e.g. every voxel of a DW-MRI dataset).
#[derive(Debug, Clone)]
pub struct PrecomputedTables {
    m: usize,
    n: usize,
    /// Index representations, flattened `m × U` (class-major).
    index_reps: Vec<u32>,
    /// `C(m; k)` for each class (the `MULTINOMIAL0` value).
    coeffs: Vec<u64>,
    /// Occurrence counts `k_i` per (class, distinct index) pair, flattened as
    /// a prefix list: for each class, pairs `(index, count)` of its distinct
    /// indices, with `starts[u]..starts[u+1]` delimiting class `u`.
    distinct: Vec<(u32, u32)>,
    starts: Vec<u32>,
}

impl PrecomputedTables {
    /// Build the tables for shape `(m, n)`.
    ///
    /// Storage: `m·U` `u32`s of index data + `U` `u64` coefficients — the
    /// factor-`(m+2)` overhead discussed in Section III-B5.
    pub fn new(m: usize, n: usize) -> Self {
        let u = num_unique_entries(m, n) as usize;
        let mut index_reps = Vec::with_capacity(m * u);
        let mut coeffs = Vec::with_capacity(u);
        let mut distinct = Vec::new();
        let mut starts = Vec::with_capacity(u + 1);
        starts.push(0u32);
        for class in IndexClassIter::new(m, n) {
            index_reps.extend(class.indices().iter().map(|&i| i as u32));
            coeffs.push(class.occurrences());
            let mono = class.monomial();
            for (i, &k) in mono.counts().iter().enumerate() {
                if k > 0 {
                    distinct.push((i as u32, k as u32));
                }
            }
            starts.push(distinct.len() as u32);
        }
        Self {
            m,
            n,
            index_reps,
            coeffs,
            distinct,
            starts,
        }
    }

    /// Tensor order the tables were built for.
    #[inline]
    pub fn order(&self) -> usize {
        self.m
    }

    /// Tensor dimension the tables were built for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of unique entries `U`.
    #[inline]
    pub fn num_unique(&self) -> usize {
        self.coeffs.len()
    }

    /// Bytes of table storage (the "extra storage" of Section III-B5).
    pub fn storage_bytes(&self) -> usize {
        self.index_reps.len() * 4
            + self.coeffs.len() * 8
            + self.distinct.len() * 8
            + self.starts.len() * 4
    }

    /// Index representation of class `u` as a `u32` slice of length `m`.
    #[inline]
    pub(crate) fn rep(&self, u: usize) -> &[u32] {
        &self.index_reps[u * self.m..(u + 1) * self.m]
    }

    /// The stored `C(m; k)` coefficient of every class (lane kernels walk
    /// these once per panel).
    #[inline]
    pub(crate) fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The `(index, count)` pairs of class `u`'s distinct indices.
    #[inline]
    pub(crate) fn distinct(&self, u: usize) -> &[(u32, u32)] {
        &self.distinct[self.starts[u] as usize..self.starts[u + 1] as usize]
    }

    /// `A·xᵐ` using the precomputed tables: no successor updates and no
    /// multinomial recomputation in the loop (pure look-ups).
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if `a` has a different shape than the
    /// tables were built for (a wrong-shape tensor would silently index the
    /// wrong tables), and [`Error::VectorLengthMismatch`] on a bad `x`.
    pub fn axm<'a, S: Scalar>(&self, a: impl Into<SymTensorRef<'a, S>>, x: &[S]) -> Result<S> {
        let a = a.into();
        check_shape(&a, self.m, self.n)?;
        check_vec(x, self.n)?;
        let mut y = S::ZERO;
        for (u, &av) in a.values().iter().enumerate() {
            let mut xhat = S::ONE;
            for &i in self.rep(u) {
                xhat *= x[i as usize];
            }
            y += S::from_u64(self.coeffs[u]) * av * xhat;
        }
        Ok(y)
    }

    /// `A·xᵐ⁻¹` using the precomputed tables. The per-entry coefficient
    /// `C(m-1; …, k_j-1, …)` is derived from the stored `C(m; k)` by the
    /// paper's look-up trick `σ(j) = c·k_j/m` (footnote 3).
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if `a` has a different shape than the
    /// tables were built for, and [`Error::VectorLengthMismatch`] on a bad
    /// `x` or `y`.
    pub fn axm1<'a, S: Scalar>(
        &self,
        a: impl Into<SymTensorRef<'a, S>>,
        x: &[S],
        y: &mut [S],
    ) -> Result<()> {
        let a = a.into();
        check_shape(&a, self.m, self.n)?;
        check_vec(x, self.n)?;
        check_vec(y, self.n)?;
        y.iter_mut().for_each(|e| *e = S::ZERO);
        let m = self.m;
        for (u, &av) in a.values().iter().enumerate() {
            let c = self.coeffs[u];
            let rep = self.rep(u);
            let lo = self.starts[u] as usize;
            let hi = self.starts[u + 1] as usize;
            for &(j, kj) in &self.distinct[lo..hi] {
                // Product of x over the representation with one `j` removed.
                let mut xhat = S::ONE;
                let mut skipped = false;
                for &i in rep {
                    if !skipped && i == j {
                        skipped = true;
                        continue;
                    }
                    xhat *= x[i as usize];
                }
                let sigma = multinomial1_from_stored(c, kj as usize, m);
                y[j as usize] += S::from_u64(sigma) * av * xhat;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sym(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    fn random_unit(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        crate::scalar::normalize(&mut v);
        v
    }

    #[test]
    fn axm_matches_dense_baseline() {
        for (m, n, seed) in [
            (3, 2, 1),
            (3, 3, 2),
            (4, 3, 3),
            (4, 5, 4),
            (6, 3, 5),
            (2, 4, 6),
        ] {
            let a = random_sym(m, n, seed);
            let x = random_unit(n, seed + 100);
            let dense = DenseTensor::from_sym(&a);
            let want = dense.axm_dense(&x).unwrap();
            let got = axm(&a, &x).unwrap();
            assert!((got - want).abs() < 1e-10, "[{m},{n}]: {got} vs {want}");
        }
    }

    #[test]
    fn axm1_matches_dense_baseline() {
        for (m, n, seed) in [
            (3, 2, 11),
            (3, 3, 12),
            (4, 3, 13),
            (4, 5, 14),
            (6, 3, 15),
            (2, 4, 16),
        ] {
            let a = random_sym(m, n, seed);
            let x = random_unit(n, seed + 200);
            let dense = DenseTensor::from_sym(&a);
            let want = dense.axm1_dense(&x).unwrap();
            let mut got = vec![0.0; n];
            axm1(&a, &x, &mut got).unwrap();
            for j in 0..n {
                assert!(
                    (got[j] - want[j]).abs() < 1e-10,
                    "[{m},{n}] j={j}: {} vs {}",
                    got[j],
                    want[j]
                );
            }
        }
    }

    #[test]
    fn eulers_identity_links_axm_and_axm1() {
        // x · (A x^{m-1}) == A x^m for any x (not just unit).
        let a = random_sym(5, 4, 77);
        let mut rng = StdRng::seed_from_u64(78);
        let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let s = axm(&a, &x).unwrap();
        let mut y = vec![0.0; 4];
        axm1(&a, &x, &mut y).unwrap();
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot - s).abs() < 1e-9, "{dot} vs {s}");
    }

    #[test]
    fn axm_homogeneity() {
        // A (c x)^m = c^m A x^m.
        let a = random_sym(4, 3, 31);
        let x = random_unit(3, 32);
        let c = 1.7;
        let cx: Vec<f64> = x.iter().map(|&e| c * e).collect();
        let lhs = axm(&a, &cx).unwrap();
        let rhs = c.powi(4) * axm(&a, &x).unwrap();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn axm_rank_one_tensor_gives_power_of_dot() {
        let v = random_unit(4, 41);
        let a = SymTensor::rank_one(3, &v);
        let x = random_unit(4, 42);
        let d: f64 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((axm(&a, &x).unwrap() - d.powi(3)).abs() < 1e-10);
    }

    #[test]
    fn axm1_identity_matrix_is_identity_map() {
        // m=2 identity: A x^{m-1} = x.
        let a = SymTensor::<f64>::diagonal_ones(2, 5);
        let x = random_unit(5, 51);
        let mut y = vec![0.0; 5];
        axm1(&a, &x, &mut y).unwrap();
        for j in 0..5 {
            assert!((y[j] - x[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn axm1_handles_zero_components_of_x() {
        // The per-entry product divides out one factor by recomputation, so
        // zeros in x must not poison other components.
        let a = random_sym(4, 3, 61);
        let x = [0.0, 1.0, -0.5];
        let dense = DenseTensor::from_sym(&a);
        let want = dense.axm1_dense(&x).unwrap();
        let mut got = vec![0.0; 3];
        axm1(&a, &x, &mut got).unwrap();
        for j in 0..3 {
            assert!((got[j] - want[j]).abs() < 1e-10, "j={j}");
        }
    }

    #[test]
    fn axmp_p1_matches_axm1() {
        let a = random_sym(4, 3, 71);
        let x = random_unit(3, 72);
        let t = axmp(&a, &x, 1).unwrap();
        let mut y = vec![0.0; 3];
        axm1(&a, &x, &mut y).unwrap();
        for (j, yj) in y.iter().enumerate() {
            assert!((t.get(&[j]).unwrap() - yj).abs() < 1e-10);
        }
    }

    #[test]
    fn axmp_result_is_symmetric_and_matches_dense() {
        let a = random_sym(5, 3, 81);
        let x = random_unit(3, 82);
        let t = axmp(&a, &x, 2).unwrap();
        assert_eq!(t.order(), 2);
        // Dense check: contract last 3 modes of the dense expansion.
        let mut dense = DenseTensor::from_sym(&a);
        for _ in 0..3 {
            dense = dense.contract_last(&x).unwrap();
        }
        for i in 0..3 {
            for j in 0..3 {
                let want = dense.get(&[i, j]);
                let got = t.get(&[i.min(j), i.max(j)]).unwrap();
                assert!((got - want).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn axmp_rejects_invalid_p() {
        let a = random_sym(4, 3, 91);
        let x = [1.0, 0.0, 0.0];
        assert!(matches!(
            axmp(&a, &x, 0),
            Err(Error::InvalidContraction { p: 0, m: 4 })
        ));
        assert!(matches!(
            axmp(&a, &x, 4),
            Err(Error::InvalidContraction { p: 4, m: 4 })
        ));
    }

    #[test]
    fn axm2_matrix_is_symmetric_and_consistent_with_axm1() {
        let a = random_sym(4, 3, 101);
        let x = random_unit(3, 102);
        let mat = axm2_matrix(&a, &x).unwrap();
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert!((mat[i * 3 + j] - mat[j * 3 + i]).abs() < 1e-12);
            }
        }
        // (A x^{m-2}) x == A x^{m-1}.
        let mut y = vec![0.0; 3];
        axm1(&a, &x, &mut y).unwrap();
        for i in 0..3 {
            let row: f64 = (0..3).map(|j| mat[i * 3 + j] * x[j]).sum();
            assert!((row - y[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn axm2_matrix_order2_returns_the_matrix_itself() {
        let a = random_sym(2, 4, 111);
        let x = [1.0, 0.0, 0.0, 0.0];
        let mat = axm2_matrix(&a, &x).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(mat[i * 4 + j], a.get(&[i.min(j), i.max(j)]).unwrap());
            }
        }
    }

    #[test]
    fn precomputed_tables_match_on_the_fly_kernels() {
        for (m, n, seed) in [(3, 3, 121), (4, 3, 122), (4, 5, 123), (6, 3, 124)] {
            let tables = PrecomputedTables::new(m, n);
            assert_eq!(tables.num_unique() as u64, num_unique_entries(m, n));
            let a = random_sym(m, n, seed);
            let x = random_unit(n, seed + 300);
            let s0 = axm(&a, &x).unwrap();
            let s1 = tables.axm(&a, &x).unwrap();
            assert!((s0 - s1).abs() < 1e-10, "[{m},{n}] axm");
            let mut y0 = vec![0.0; n];
            let mut y1 = vec![0.0; n];
            axm1(&a, &x, &mut y0).unwrap();
            tables.axm1(&a, &x, &mut y1).unwrap();
            for j in 0..n {
                assert!((y0[j] - y1[j]).abs() < 1e-10, "[{m},{n}] axm1 j={j}");
            }
        }
    }

    #[test]
    fn precomputed_storage_overhead_is_reported() {
        let t = PrecomputedTables::new(4, 3);
        // 15 classes * 4 indices * 4B + 15 coeffs * 8B + distinct + starts.
        assert!(t.storage_bytes() >= 15 * 4 * 4 + 15 * 8);
        assert_eq!(t.order(), 4);
        assert_eq!(t.dim(), 3);
    }

    #[test]
    fn kernels_work_in_f32() {
        let mut rng = StdRng::seed_from_u64(131);
        let a = SymTensor::<f32>::random(4, 3, &mut rng);
        let x = [0.5f32, -0.5, std::f32::consts::FRAC_1_SQRT_2];
        let s = axm(&a, &x).unwrap();
        let mut y = [0.0f32; 3];
        axm1(&a, &x, &mut y).unwrap();
        let dot: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot - s).abs() < 1e-4, "{dot} vs {s}");
    }

    #[test]
    fn checked_variants_reject_bad_lengths() {
        let a = random_sym(3, 3, 141);
        assert!(axm(&a, &[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(axm1(&a, &[1.0, 2.0, 3.0], &mut y).is_err());
        let tables = PrecomputedTables::new(3, 3);
        assert!(tables.axm(&a, &[1.0]).is_err());
    }

    #[test]
    fn precomputed_tables_reject_wrong_shape_in_release() {
        // These are real checks, not debug_asserts: a wrong-shape tensor
        // must produce a typed error in every build profile instead of
        // silently indexing the wrong tables.
        let tables = PrecomputedTables::new(4, 3);
        let wrong = random_sym(3, 3, 161);
        let x = [1.0, 0.0, 0.0];
        assert_eq!(
            tables.axm(&wrong, &x).unwrap_err(),
            Error::ShapeMismatch {
                expected: (4, 3),
                found: (3, 3),
            }
        );
        let mut y = [0.0; 3];
        assert!(matches!(
            tables.axm1(&wrong, &x, &mut y),
            Err(Error::ShapeMismatch { .. })
        ));
        // The trait-object path surfaces the same typed error (no panic).
        let k: &dyn TensorKernels<f64> = &tables;
        assert!(k.axm(wrong.view(), &x).is_err());
        assert!(k.axm1(wrong.view(), &x, &mut y).is_err());
    }

    #[test]
    fn kernel_trait_objects_agree() {
        let a = random_sym(4, 3, 151);
        let x = random_unit(3, 152);
        let tables = PrecomputedTables::new(4, 3);
        let impls: Vec<&dyn TensorKernels<f64>> = vec![&GeneralKernels, &tables];
        let want = axm(&a, &x).unwrap();
        for k in &impls {
            let got = k.axm(a.view(), &x).unwrap();
            assert!((got - want).abs() < 1e-12, "{}", k.name());
            let mut y0 = vec![0.0; 3];
            let mut y1 = vec![0.0; 3];
            axm1(&a, &x, &mut y0).unwrap();
            k.axm1(a.view(), &x, &mut y1).unwrap();
            for j in 0..3 {
                assert!((y0[j] - y1[j]).abs() < 1e-12);
            }
        }
        assert_eq!(TensorKernels::<f64>::name(&GeneralKernels), "general");
        assert_eq!(TensorKernels::<f64>::name(&tables), "precomputed");
    }

    #[test]
    fn merge_sorted_merges() {
        let mut out = vec![0usize; 5];
        merge_sorted(&[0, 2, 4], &[1, 3], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        merge_sorted(&[1, 1], &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 1, 1, 1, 2]);
    }
}
