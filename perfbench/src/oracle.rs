//! The benchmark's own f64 reference for `A·xᵐ` and `A·xᵐ⁻¹`.
//!
//! It uses none of the library's kernels, index tables or coefficients: a
//! packed tensor is expanded over all `nᵐ` full index tuples, each looked
//! up by sorting it into its index class, whose rank is its position in
//! the lexicographic order of nondecreasing tuples (the storage order of
//! the packed format). Slow, but independent of the code it checks.

/// Dense evaluator for one shape `(m, n)`.
pub struct DenseOracle {
    m: usize,
    n: usize,
    /// For each full tuple (row-major, first index most significant):
    /// its first index followed by the rank of its index class.
    first: Vec<usize>,
    rank: Vec<usize>,
    /// The other `m - 1` indices of each tuple, flattened.
    rest: Vec<usize>,
    /// Number of unique entries of a packed tensor of this shape.
    unique: usize,
}

impl DenseOracle {
    /// Build the expansion tables for shape `(m, n)`.
    pub fn new(m: usize, n: usize) -> DenseOracle {
        assert!(m >= 1 && n >= 1, "shape must be positive");
        let classes = nondecreasing_tuples(m, n);
        let total = n.pow(m as u32);
        let mut first = Vec::with_capacity(total);
        let mut rank = Vec::with_capacity(total);
        let mut rest = Vec::with_capacity(total * (m - 1));
        let mut digits = vec![0usize; m];
        for lin in 0..total {
            let mut r = lin;
            for d in digits.iter_mut().rev() {
                *d = r % n;
                r /= n;
            }
            let mut sorted = digits.clone();
            sorted.sort_unstable();
            let class = classes
                .binary_search(&sorted)
                .expect("every sorted tuple is an index class");
            first.push(digits[0]);
            rank.push(class);
            rest.extend_from_slice(&digits[1..]);
        }
        DenseOracle {
            m,
            n,
            first,
            rank,
            rest,
            unique: classes.len(),
        }
    }

    /// Evaluate `(A·xᵐ, A·xᵐ⁻¹)` in f64 for packed values `a`.
    pub fn eval(&self, a: &[f64], x: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(a.len(), self.unique, "packed tensor length");
        assert_eq!(x.len(), self.n, "vector length");
        let k = self.m - 1;
        let mut y = vec![0.0f64; self.n];
        for (t, (&i0, &r)) in self.first.iter().zip(&self.rank).enumerate() {
            let mut term = a[r];
            for &i in &self.rest[t * k..(t + 1) * k] {
                term *= x[i];
            }
            y[i0] += term;
        }
        let lambda = y.iter().zip(x).map(|(yi, xi)| yi * xi).sum();
        (lambda, y)
    }
}

/// All nondecreasing `m`-tuples over `0..n`, in lexicographic order.
fn nondecreasing_tuples(m: usize, n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; m];
    loop {
        out.push(cur.clone());
        // Successor: bump the rightmost index that can grow, reset the tail.
        let Some(pos) = (0..m).rev().find(|&p| cur[p] + 1 < n) else {
            return out;
        };
        let v = cur[pos] + 1;
        for c in &mut cur[pos..] {
            *c = v;
        }
    }
}

/// Angle in degrees between the lines spanned by `x` and `y` (0 when
/// either is zero).
pub fn line_angle_deg(x: &[f64], y: &[f64]) -> f64 {
    let dot: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let nx = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    let ny = y.iter().map(|v| v * v).sum::<f64>().sqrt();
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot.abs() / (nx * ny)).min(1.0).acos().to_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kolda–Mayo Example 3.6 (the Kofidis–Regalia tensor, A ∈ ℝ^[4,3]),
    /// unique entries in lexicographic index-class order.
    const KOFIDIS_REGALIA: [f64; 15] = [
        0.2883, -0.0031, 0.1973, -0.2485, -0.2939, 0.3847, 0.2972, 0.1862, 0.0919, -0.3619, 0.1241,
        -0.3420, 0.2127, 0.2727, -0.3054,
    ];

    fn unit(x: [f64; 3]) -> Vec<f64> {
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        x.iter().map(|v| v / norm).collect()
    }

    #[test]
    fn class_order_is_lexicographic() {
        let t = nondecreasing_tuples(2, 3);
        assert_eq!(
            t,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 1],
                vec![1, 2],
                vec![2, 2]
            ]
        );
        assert_eq!(nondecreasing_tuples(4, 3).len(), 15);
        assert_eq!(nondecreasing_tuples(5, 4).len(), 56);
    }

    #[test]
    fn kolda_mayo_example_3_6_largest_maximum() {
        let oracle = DenseOracle::new(4, 3);
        let x = unit([0.6672, 0.2471, -0.7027]);
        let (lambda, y) = oracle.eval(&KOFIDIS_REGALIA, &x);
        assert!((lambda - 0.8893).abs() < 1e-4, "lambda = {lambda}");
        // An eigenpair: A·x³ is parallel to x with factor λ.
        for (yi, xi) in y.iter().zip(&x) {
            assert!((yi - lambda * xi).abs() < 1e-3, "residual {yi} vs {xi}");
        }
        assert!(line_angle_deg(&x, &y) < 0.1);
    }

    #[test]
    fn kolda_mayo_example_3_6_other_maxima() {
        let oracle = DenseOracle::new(4, 3);
        for (x, lambda) in [
            ([0.8412, -0.2635, 0.4722], 0.8169),
            ([0.2676, 0.6448, 0.7160], 0.3633),
        ] {
            let (got, _) = oracle.eval(&KOFIDIS_REGALIA, &unit(x));
            assert!((got - lambda).abs() < 1e-4, "{got} vs {lambda}");
        }
    }

    #[test]
    fn rank_one_tensor_matches_closed_form() {
        // A = v⊗v⊗v (m = 3, n = 2): A·x³ = (v·x)³ and A·x² = (v·x)² v.
        let v = [0.6, -0.8];
        let oracle = DenseOracle::new(3, 2);
        let a: Vec<f64> = nondecreasing_tuples(3, 2)
            .iter()
            .map(|t| t.iter().map(|&i| v[i]).product())
            .collect();
        let x = [0.3, 0.5];
        let vx: f64 = v.iter().zip(&x).map(|(p, q)| p * q).sum();
        let (lambda, y) = oracle.eval(&a, &x);
        assert!((lambda - vx.powi(3)).abs() < 1e-15);
        for (yi, vi) in y.iter().zip(&v) {
            assert!((yi - vx * vx * vi).abs() < 1e-15);
        }
    }
}
