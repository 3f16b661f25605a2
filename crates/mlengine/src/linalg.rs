//! Minimal dense-vector operations shared by the gradient-based learners.

/// Dot product. Panics on length mismatch in debug builds only (hot path).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// A computation over row-major rows of `dim` numbers that can run with
/// its width as a compile-time constant. See [`by_width`].
pub(crate) trait ByWidth {
    type Output;
    /// The computation at width `D`, known to the compiler.
    fn fixed<const D: usize>(self) -> Self::Output;
    /// The same computation at any width, `0` included.
    fn any(self, dim: usize) -> Self::Output;
}

/// Run `kernel` at width `dim`. Widths 1–8 run as const-generic code, so
/// the loop over a row unrolls, vectorises and keeps its accumulators in
/// registers; every other width — 0 (label-only rows, where
/// `chunks_exact` panics) and anything wider than 8 — runs the slice
/// loop. Both must perform the same operations in the same order, so the
/// bits never depend on the path.
#[inline]
pub(crate) fn by_width<K: ByWidth>(dim: usize, kernel: K) -> K::Output {
    match dim {
        1 => kernel.fixed::<1>(),
        2 => kernel.fixed::<2>(),
        3 => kernel.fixed::<3>(),
        4 => kernel.fixed::<4>(),
        5 => kernel.fixed::<5>(),
        6 => kernel.fixed::<6>(),
        7 => kernel.fixed::<7>(),
        8 => kernel.fixed::<8>(),
        _ => kernel.any(dim),
    }
}

/// The loss gradient of a linear model `w·x + b` over a block of rows
/// (`features` row-major, `w.len()` values per row, one label each): for
/// every row, `coef(dot(w, x) + b, label)` returns `(active, c)`, and an
/// active row adds `c·x` to the weight gradient and `c` to the
/// intercept's — `axpy(c, x, gw); gb += c`. Returns both sums.
///
/// At widths 1–8 an inactive row adds `+0.0` instead of branching (a
/// hinge row's activity is a coin flip to the branch predictor). That
/// changes no bit: the sums start at `+0.0`, so they never become `−0.0`,
/// and adding `+0.0` leaves every other value, ±inf and NaN included, as
/// it was. The `+0.0` is selected in place of `c·x` by a bit mask — never
/// `0.0 * x`, which is NaN for `x = ±inf`.
#[inline]
pub(crate) fn linear_gradient(
    w: &[f64],
    b: f64,
    features: &[f64],
    labels: &[f64],
    coef: impl Fn(f64, f64) -> (bool, f64),
) -> (Vec<f64>, f64) {
    let kernel = LinearGradient {
        w,
        b,
        features,
        labels,
        coef,
    };
    by_width(w.len(), kernel)
}

struct LinearGradient<'a, C> {
    w: &'a [f64],
    b: f64,
    features: &'a [f64],
    labels: &'a [f64],
    coef: C,
}

impl<C: Fn(f64, f64) -> (bool, f64)> ByWidth for LinearGradient<'_, C> {
    type Output = (Vec<f64>, f64);

    #[inline(always)]
    fn fixed<const D: usize>(self) -> Self::Output {
        let mut w = [0.0; D];
        w.copy_from_slice(self.w);
        let mut gw = [0.0; D];
        let mut gb = 0.0;
        for (x, &label) in self.features.as_chunks::<D>().0.iter().zip(self.labels) {
            let (active, c) = (self.coef)(dot(&w, x) + self.b, label);
            // All ones or all zeros. Opaque, or the compiler turns the
            // masks back into one branch around the whole update.
            let keep = std::hint::black_box(u64::from(active).wrapping_neg());
            for (g, xi) in gw.iter_mut().zip(x) {
                *g += f64::from_bits((c * xi).to_bits() & keep);
            }
            gb += f64::from_bits(c.to_bits() & keep);
        }
        (gw.to_vec(), gb)
    }

    fn any(self, dim: usize) -> Self::Output {
        let mut gw = vec![0.0; dim];
        let mut gb = 0.0;
        for (r, &label) in self.labels.iter().enumerate() {
            let x = &self.features[r * dim..][..dim];
            let (active, c) = (self.coef)(dot(self.w, x) + self.b, label);
            if active {
                axpy(c, x, &mut gw);
                gb += c;
            }
        }
        (gw, gb)
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_axpy_scale() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.0, 4.5, 6.0]);
    }

    #[test]
    fn norms_and_distances() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn every_width_path_sums_the_same_bits_as_the_slice_loop() {
        // A hinge-shaped coefficient: half the rows inactive, and the
        // features hold ±inf and NaN, which an inactive row must not
        // leak into the sums.
        let coef = |margin: f64, y: f64| (y * margin < 1.0, -y);
        let mut rng = sqlml_common::SplitMix64::new(7);
        for dim in 0..=10 {
            let rows = 37;
            let mut features: Vec<f64> = (0..rows * dim).map(|_| rng.next_gaussian()).collect();
            if dim > 0 {
                features[dim] = f64::INFINITY;
                features[3 * dim] = f64::NEG_INFINITY;
                features[5 * dim] = f64::NAN;
            }
            let labels: Vec<f64> = (0..rows)
                .map(|_| if rng.chance(0.5) { 1.0 } else { -1.0 })
                .collect();
            let w: Vec<f64> = (0..dim).map(|_| rng.next_gaussian() * 0.1).collect();
            let bits = |(g, b): (Vec<f64>, f64)| -> Vec<u64> {
                g.iter().chain([&b]).map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(linear_gradient(&w, 0.3, &features, &labels, coef)),
                bits(
                    LinearGradient {
                        w: &w,
                        b: 0.3,
                        features: &features,
                        labels: &labels,
                        coef
                    }
                    .any(dim)
                ),
                "width {dim}"
            );
        }
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }
}
