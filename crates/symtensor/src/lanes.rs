//! Lockstep batch-lane kernels: `A·xᵐ` / `A·xᵐ⁻¹` for a panel of
//! [`LANE_WIDTH`] tensors evaluated *in lockstep* over the packed
//! [`crate::TensorBatch`] arena.
//!
//! The paper's workload (Section VI) is millions of independent small
//! tensors of one shape. The per-tensor kernels walk the shared index and
//! coefficient tables once *per tensor*; this module restructures the loop
//! the way Schatz et al. block symmetric contractions: gather each
//! unique-entry stride across a panel of `W` tensors into a
//! structure-of-arrays lane buffer (one transpose per panel, amortized over
//! every subsequent kernel call) of [`LaneRow`]s, and evaluate each
//! contraction for all `W` lanes in one call. The `W`-wide steps carry no
//! cross-lane dependencies, so they vectorize — and the
//! dependent-accumulation chain of the scalar kernel is broken `W` ways.
//!
//! A [`LaneKernel`] is one of two things:
//!
//! * the shape's [`PrecomputedTables`], walked once per panel; per-lane
//!   arithmetic is ordered exactly as in
//!   [`PrecomputedTables::axm`]/[`PrecomputedTables::axm1`], so each lane
//!   is bitwise the scalar table-driven kernel;
//! * generated straight-line [`LaneBodies`] (the `unrolled` crate emits
//!   them for its generated shapes), each lane bitwise the scalar unrolled
//!   kernel.
//!
//! [`BatchedKernels`] carries the tables and, when the shape has them,
//! the generated bodies; [`LanePanel::axm`]/[`LanePanel::axm1`] use the
//! bodies when present. The lockstep SS-HOPM driver in `sshopm` relies on
//! the per-lane bitwise identities for its parity suite.

use std::any::Any;

use crate::batch::TensorBatchRef;
use crate::error::{Error, Result};
use crate::kernels::{check_shape, check_vec, PrecomputedTables};
use crate::multinomial::multinomial1_from_stored;
use crate::scalar::Scalar;
use crate::storage::SymTensorRef;

/// Number of tensors evaluated in lockstep by one [`LanePanel`].
///
/// Eight lanes of `f32` fill one 256-bit AVX2 register (two for `f64`);
/// the tail panel of a batch simply runs with zero-padded lanes.
pub const LANE_WIDTH: usize = 8;

/// One value per lane: row `e` of a panel holds unique entry `e` of each
/// of its tensors, row `i` of a lane vector holds component `i` of each
/// lane's vector.
pub type LaneRow<S> = [S; LANE_WIDTH];

/// The all-NaN row a lane kernel returns for wrongly sized rows, so a
/// misuse poisons the lanes instead of panicking.
#[inline]
pub fn poisoned_row<S: Scalar>() -> LaneRow<S> {
    [S::from_f64(f64::NAN); LANE_WIDTH]
}

/// `A·xᵐ` and `A·xᵐ⁻¹` for every lane of a panel, one call per
/// contraction. `a` holds the panel's `U` entry rows, `x` and `y` the `n`
/// component rows of the lane vectors. Wrongly sized rows yield NaN lanes
/// ([`poisoned_row`]), never a panic.
pub trait LaneKernel<S: Scalar>: Copy {
    /// `A·xᵐ` for every lane.
    fn axm(self, a: &[LaneRow<S>], x: &[LaneRow<S>]) -> LaneRow<S>;
    /// `A·xᵐ⁻¹` for every lane, into `y` (overwritten).
    fn axm1(self, a: &[LaneRow<S>], x: &[LaneRow<S>], y: &mut [LaneRow<S>]);
}

/// The table-walking lane kernel: one walk of the shared per-shape tables
/// per panel, bitwise the scalar [`PrecomputedTables`] kernel per lane.
///
/// The walks stay out of line: inlined into the lockstep panel loop, the
/// (5,4) SS-HOPM iteration measured ~25% slower (390 against 300 ns).
impl<S: Scalar> LaneKernel<S> for &PrecomputedTables {
    #[inline(never)]
    fn axm(self, a: &[LaneRow<S>], x: &[LaneRow<S>]) -> LaneRow<S> {
        if a.len() != self.num_unique() || x.len() != self.dim() {
            return poisoned_row();
        }
        let mut out = [S::ZERO; LANE_WIDTH];
        for ((u, &coeff), av) in self.coeffs().iter().enumerate().zip(a) {
            let mut xhat = [S::ONE; LANE_WIDTH];
            for &i in self.rep(u) {
                let xi = &x[i as usize];
                for w in 0..LANE_WIDTH {
                    xhat[w] *= xi[w];
                }
            }
            let c = S::from_u64(coeff);
            for w in 0..LANE_WIDTH {
                out[w] += c * av[w] * xhat[w];
            }
        }
        out
    }

    #[inline(never)]
    fn axm1(self, a: &[LaneRow<S>], x: &[LaneRow<S>], y: &mut [LaneRow<S>]) {
        let n = self.dim();
        if a.len() != self.num_unique() || x.len() != n || y.len() != n {
            y.iter_mut().for_each(|row| *row = poisoned_row());
            return;
        }
        let m = self.order();
        y.iter_mut().for_each(|row| *row = [S::ZERO; LANE_WIDTH]);
        for ((u, &c), av) in self.coeffs().iter().enumerate().zip(a) {
            let rep = self.rep(u);
            for &(j, kj) in self.distinct(u) {
                // Product over the representation with one `j` removed —
                // recomputed per distinct index exactly as the scalar
                // kernel does, but across W lanes per multiply.
                let mut xhat = [S::ONE; LANE_WIDTH];
                let mut skipped = false;
                for &i in rep {
                    if !skipped && i == j {
                        skipped = true;
                        continue;
                    }
                    let xi = &x[i as usize];
                    for w in 0..LANE_WIDTH {
                        xhat[w] *= xi[w];
                    }
                }
                let sigma = S::from_u64(multinomial1_from_stored(c, kj as usize, m));
                let yj = &mut y[j as usize];
                for w in 0..LANE_WIDTH {
                    yj[w] += sigma * av[w] * xhat[w];
                }
            }
        }
    }
}

/// A generated `A·xᵐ` lane body: entry rows, component rows → one value
/// per lane.
pub type LaneAxmFn<S> = fn(&[LaneRow<S>], &[LaneRow<S>]) -> LaneRow<S>;

/// A generated `A·xᵐ⁻¹` lane body: entry rows, component rows → output
/// component rows.
pub type LaneAxm1Fn<S> = fn(&[LaneRow<S>], &[LaneRow<S>], &mut [LaneRow<S>]);

/// Generated straight-line lane bodies for one shape in one scalar type,
/// as plain function pointers (the form [`BatchedKernels`] can carry
/// without naming the crate that generates them).
#[derive(Debug, Clone, Copy)]
pub struct LaneBodies<S> {
    /// `A·xᵐ` for every lane.
    pub axm: LaneAxmFn<S>,
    /// `A·xᵐ⁻¹` for every lane.
    pub axm1: LaneAxm1Fn<S>,
}

impl<S: Scalar> LaneKernel<S> for LaneBodies<S> {
    #[inline(always)]
    fn axm(self, a: &[LaneRow<S>], x: &[LaneRow<S>]) -> LaneRow<S> {
        (self.axm)(a, x)
    }

    #[inline(always)]
    fn axm1(self, a: &[LaneRow<S>], x: &[LaneRow<S>], y: &mut [LaneRow<S>]) {
        (self.axm1)(a, x, y)
    }
}

/// The lockstep kernel family of one shape: the shared per-shape tables
/// plus, for shapes with generated code, the straight-line
/// [`LaneBodies`] in both scalar types. It has no per-tensor
/// [`crate::TensorKernels`] form: a single tensor goes through
/// [`Self::tables`] directly.
#[derive(Debug, Clone)]
pub struct BatchedKernels {
    tables: PrecomputedTables,
    generated: Option<(LaneBodies<f32>, LaneBodies<f64>)>,
}

impl BatchedKernels {
    /// Table-walking lane kernels for shape `(m, n)`.
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            tables: PrecomputedTables::new(m, n),
            generated: None,
        }
    }

    /// Lane kernels for shape `(m, n)` served by generated bodies (in
    /// `f32` and `f64`), with the tables kept for panel layout.
    pub fn with_bodies(m: usize, n: usize, f32: LaneBodies<f32>, f64: LaneBodies<f64>) -> Self {
        Self {
            tables: PrecomputedTables::new(m, n),
            generated: Some((f32, f64)),
        }
    }

    /// Tensor order the kernels were built for.
    #[inline]
    pub fn order(&self) -> usize {
        self.tables.order()
    }

    /// Tensor dimension the kernels were built for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.tables.dim()
    }

    /// The underlying shared tables.
    #[inline]
    pub fn tables(&self) -> &PrecomputedTables {
        &self.tables
    }

    /// True when generated bodies serve the panels (otherwise the tables
    /// are walked).
    #[inline]
    pub fn is_generated(&self) -> bool {
        self.generated.is_some()
    }

    /// The generated bodies in scalar type `S`, if the shape has them.
    pub fn bodies<S: Scalar>(&self) -> Option<LaneBodies<S>> {
        let (f32, f64) = self.generated.as_ref()?;
        let both: [&dyn Any; 2] = [f32, f64];
        both.iter()
            .find_map(|b| b.downcast_ref::<LaneBodies<S>>())
            .copied()
    }
}

/// A structure-of-arrays view of up to [`LANE_WIDTH`] same-shape tensors:
/// entry `e` of lane `w` lives at `rows()[e][w]`, so the panel kernels
/// stream `W` contiguous values per step.
///
/// Unused tail lanes are zero tensors — they compute harmless zeros (or
/// NaNs) and their outputs are simply never read.
#[derive(Debug, Clone)]
pub struct LanePanel<S> {
    width: usize,
    rows: Vec<LaneRow<S>>,
}

impl<S: Scalar> LanePanel<S> {
    /// Gather `width` tensors of a batch, starting at `start`, into lane
    /// form (the one transpose per panel that every later kernel call
    /// amortizes).
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if the batch shape differs from the
    /// kernels' shape, and [`Error::ValueLengthMismatch`] if `width` is zero
    /// or exceeds [`LANE_WIDTH`] or the batch slice is out of range.
    pub fn gather(
        kernels: &BatchedKernels,
        batch: TensorBatchRef<'_, S>,
        start: usize,
        width: usize,
    ) -> Result<Self> {
        if width == 0 || width > LANE_WIDTH || start + width > batch.len() {
            return Err(Error::ValueLengthMismatch {
                expected: LANE_WIDTH,
                actual: width,
            });
        }
        let (m, n) = batch.shape();
        if (m, n) != (kernels.order(), kernels.dim()) {
            return Err(Error::ShapeMismatch {
                expected: (kernels.order(), kernels.dim()),
                found: (m, n),
            });
        }
        let mut rows = vec![[S::ZERO; LANE_WIDTH]; kernels.tables.num_unique()];
        for w in 0..width {
            let t = batch.try_get(start + w)?;
            for (row, &v) in rows.iter_mut().zip(t.values()) {
                row[w] = v;
            }
        }
        Ok(Self { width, rows })
    }

    /// Gather from a slice of same-shape tensor views (the non-arena entry
    /// point used by tests and the bench harness).
    ///
    /// # Errors
    /// Same contract as [`LanePanel::gather`].
    pub fn gather_views(kernels: &BatchedKernels, tensors: &[SymTensorRef<'_, S>]) -> Result<Self> {
        if tensors.is_empty() || tensors.len() > LANE_WIDTH {
            return Err(Error::ValueLengthMismatch {
                expected: LANE_WIDTH,
                actual: tensors.len(),
            });
        }
        let mut rows = vec![[S::ZERO; LANE_WIDTH]; kernels.tables.num_unique()];
        for (w, t) in tensors.iter().enumerate() {
            check_shape(t, kernels.order(), kernels.dim())?;
            for (row, &v) in rows.iter_mut().zip(t.values()) {
                row[w] = v;
            }
        }
        Ok(Self {
            width: tensors.len(),
            rows,
        })
    }

    /// Number of live lanes (gathered tensors).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The panel's entry rows: `rows()[e][w]` is unique entry `e` of lane
    /// `w` (the `a` argument of a [`LaneKernel`]).
    #[inline]
    pub fn rows(&self) -> &[LaneRow<S>] {
        &self.rows
    }

    /// `A·xᵐ` for every lane at once.
    ///
    /// `xs` holds the per-lane vectors component-major
    /// (`xs[i * LANE_WIDTH + w]` is component `i` of lane `w`, length
    /// `n · LANE_WIDTH`); `out` receives one scalar per lane (length
    /// [`LANE_WIDTH`]; entries past [`width`](Self::width) are meaningless).
    ///
    /// # Errors
    /// Returns [`Error::VectorLengthMismatch`] on wrongly sized `xs`/`out`,
    /// and [`Error::ValueLengthMismatch`] if the panel was gathered for a
    /// shape with a different entry count than `kernels`.
    pub fn axm(&self, kernels: &BatchedKernels, xs: &[S], out: &mut [S]) -> Result<()> {
        let x = self.lane_rows(kernels, xs)?;
        check_vec(out, LANE_WIDTH)?;
        let o = match kernels.bodies::<S>() {
            Some(bodies) => bodies.axm(&self.rows, x),
            None => LaneKernel::axm(kernels.tables(), &self.rows, x),
        };
        out.copy_from_slice(&o);
        Ok(())
    }

    /// `A·xᵐ⁻¹` for every lane at once, into `ys` (overwritten; same
    /// component-major `n · LANE_WIDTH` layout as `xs`).
    ///
    /// # Errors
    /// Returns [`Error::VectorLengthMismatch`] on wrongly sized `xs`/`ys`,
    /// and [`Error::ValueLengthMismatch`] as for [`Self::axm`].
    pub fn axm1(&self, kernels: &BatchedKernels, xs: &[S], ys: &mut [S]) -> Result<()> {
        let x = self.lane_rows(kernels, xs)?;
        check_vec(ys, kernels.dim() * LANE_WIDTH)?;
        let (y, _) = ys.as_chunks_mut::<LANE_WIDTH>();
        match kernels.bodies::<S>() {
            Some(bodies) => bodies.axm1(&self.rows, x, y),
            None => LaneKernel::axm1(kernels.tables(), &self.rows, x, y),
        }
        Ok(())
    }

    /// Validate the panel against `kernels` and view component-major `xs`
    /// as lane rows.
    fn lane_rows<'x>(&self, kernels: &BatchedKernels, xs: &'x [S]) -> Result<&'x [LaneRow<S>]> {
        if self.rows.len() != kernels.tables.num_unique() {
            return Err(Error::ValueLengthMismatch {
                expected: kernels.tables.num_unique(),
                actual: self.rows.len(),
            });
        }
        check_vec(xs, kernels.dim() * LANE_WIDTH)?;
        Ok(xs.as_chunks::<LANE_WIDTH>().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TensorBatch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_batch(m: usize, n: usize, len: usize, seed: u64) -> TensorBatch<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        TensorBatch::random(m, n, len, &mut rng).unwrap()
    }

    fn random_lane_vectors(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * LANE_WIDTH)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect()
    }

    #[test]
    fn panel_axm_is_bitwise_identical_to_scalar_tables() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 5, 1);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, 5).unwrap();
        let xs = random_lane_vectors(3, 2);
        let mut out = [0.0; LANE_WIDTH];
        panel.axm(&kernels, &xs, &mut out).unwrap();
        for w in 0..5 {
            let x: Vec<f64> = (0..3).map(|i| xs[i * LANE_WIDTH + w]).collect();
            let want = kernels.tables().axm(batch.view().try_get(w).unwrap(), &x);
            assert_eq!(out[w].to_bits(), want.unwrap().to_bits(), "lane {w}");
        }
    }

    #[test]
    fn panel_axm1_is_bitwise_identical_to_scalar_tables() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, LANE_WIDTH, 3);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, LANE_WIDTH).unwrap();
        let xs = random_lane_vectors(3, 4);
        let mut ys = vec![0.0; 3 * LANE_WIDTH];
        panel.axm1(&kernels, &xs, &mut ys).unwrap();
        for w in 0..LANE_WIDTH {
            let x: Vec<f64> = (0..3).map(|i| xs[i * LANE_WIDTH + w]).collect();
            let mut want = vec![0.0; 3];
            kernels
                .tables()
                .axm1(batch.view().try_get(w).unwrap(), &x, &mut want)
                .unwrap();
            for i in 0..3 {
                assert_eq!(
                    ys[i * LANE_WIDTH + w].to_bits(),
                    want[i].to_bits(),
                    "lane {w} component {i}"
                );
            }
        }
    }

    #[test]
    fn panel_handles_other_shapes_and_partial_width() {
        for (m, n) in [(3, 2), (3, 4), (6, 3)] {
            let kernels = BatchedKernels::new(m, n);
            let batch = random_batch(m, n, 3, 100 + m as u64);
            let panel = LanePanel::gather(&kernels, batch.view(), 1, 2).unwrap();
            assert_eq!(panel.width(), 2);
            let xs = random_lane_vectors(n, 200 + n as u64);
            let mut ys = vec![0.0; n * LANE_WIDTH];
            panel.axm1(&kernels, &xs, &mut ys).unwrap();
            for w in 0..2 {
                let x: Vec<f64> = (0..n).map(|i| xs[i * LANE_WIDTH + w]).collect();
                let mut want = vec![0.0; n];
                kernels
                    .tables()
                    .axm1(batch.view().try_get(1 + w).unwrap(), &x, &mut want)
                    .unwrap();
                for i in 0..n {
                    assert_eq!(ys[i * LANE_WIDTH + w].to_bits(), want[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn gather_rejects_bad_widths_and_shapes() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 4, 7);
        assert!(LanePanel::gather(&kernels, batch.view(), 0, 0).is_err());
        assert!(LanePanel::gather(&kernels, batch.view(), 0, LANE_WIDTH + 1).is_err());
        assert!(LanePanel::gather(&kernels, batch.view(), 2, 3).is_err());
        let wrong = random_batch(3, 3, 2, 8);
        assert!(matches!(
            LanePanel::gather(&kernels, wrong.view(), 0, 2),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gather_views_matches_arena_gather() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 3, 9);
        let views: Vec<_> = (0..3).map(|i| batch.view().try_get(i).unwrap()).collect();
        let a = LanePanel::gather(&kernels, batch.view(), 0, 3).unwrap();
        let b = LanePanel::gather_views(&kernels, &views).unwrap();
        assert_eq!(a.rows().len(), b.rows().len());
        for (x, y) in a.rows().iter().flatten().zip(b.rows().iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn wrong_lane_vector_lengths_error() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 2, 13);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, 2).unwrap();
        let xs = vec![0.0; 3 * LANE_WIDTH - 1];
        let mut out = [0.0; LANE_WIDTH];
        assert!(panel.axm(&kernels, &xs, &mut out).is_err());
        let good = vec![0.5; 3 * LANE_WIDTH];
        let mut short = vec![0.0; 3];
        assert!(panel.axm1(&kernels, &good, &mut short).is_err());
    }
}
