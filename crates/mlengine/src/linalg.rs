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

/// The hinge loss's coefficient for a row with `margin` and a {0, 1}
/// `label` (`y = ±1`): active when `y·margin < 1`, adding `−y·x`.
#[inline(always)]
pub(crate) fn hinge(margin: f64, label: f64) -> (bool, f64) {
    let y = if label > 0.5 { 1.0 } else { -1.0 };
    (y * margin < 1.0, -y)
}

/// [`linear_gradient`] with the [`hinge`] coefficient: the SVM's
/// subgradient sums. On x86-64 with AVX2 (detected at run time) widths
/// 1–8 run the explicit-SIMD kernel of [`avx2::Hinge`], four rows at a
/// time, whose bits are those of the scalar kernel that every other host
/// and width runs.
#[inline]
pub(crate) fn hinge_gradient(
    w: &[f64],
    b: f64,
    features: &[f64],
    labels: &[f64],
) -> (Vec<f64>, f64) {
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = avx2::Hinge::new(w, b, features, labels) {
        return by_width(w.len(), kernel);
    }
    linear_gradient(w, b, features, labels, hinge)
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
        add_rows(
            self.w,
            self.b,
            self.features,
            self.labels,
            self.coef,
            &mut gw,
            &mut gb,
        );
        (gw, gb)
    }
}

/// The slice loop of [`linear_gradient`], adding to sums already begun:
/// row after row, an active row's `c·x` onto `gw` and `c` onto `gb`.
fn add_rows(
    w: &[f64],
    b: f64,
    features: &[f64],
    labels: &[f64],
    coef: impl Fn(f64, f64) -> (bool, f64),
    gw: &mut [f64],
    gb: &mut f64,
) {
    let dim = w.len();
    for (r, &label) in labels.iter().enumerate() {
        let x = &features[r * dim..][..dim];
        let (active, c) = coef(dot(w, x) + b, label);
        if active {
            axpy(c, x, gw);
            *gb += c;
        }
    }
}

/// The hinge gradient in explicit AVX2, four rows per step.
///
/// A step loads its four rows at stride `D` — one 256-bit register per
/// row for `D ≤ 4`, two for 5–8; lanes at or beyond `D` hold the next
/// rows' values and are never used — multiplies them by the weights and
/// transposes the products, so that each lane is a row. Each row's margin
/// is `dot`'s left fold `w0·x0 + w1·x1 + …` and then `+ b`, with no fused
/// multiply-add; its label gives `c = −y` and its mask `y·m < 1`. Then,
/// row by row in row order, `c·x` ANDed with the row's mask is added to
/// the gradient register(s), whose lanes are the features. Those are the
/// scalar kernel's operations in its order, so every bit — ±inf, NaN and
/// signed zeros included — is the same. The masked `c` are summed per
/// lane: they are ±1 and `+0.0`, so every sum is a whole number far below
/// 2^53 and every order of the additions gives the same `gb`. The rows
/// whose loads would run past `features` go through the scalar
/// [`add_rows`], continuing the same sums.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::ByWidth;

    /// The hinge gradient's input on a host with AVX2: only
    /// [`Hinge::new`] makes one, once it has detected AVX2.
    pub(super) struct Hinge<'a> {
        w: &'a [f64],
        b: f64,
        features: &'a [f64],
        labels: &'a [f64],
    }

    impl<'a> Hinge<'a> {
        pub(super) fn new(
            w: &'a [f64],
            b: f64,
            features: &'a [f64],
            labels: &'a [f64],
        ) -> Option<Self> {
            let hinge = Hinge {
                w,
                b,
                features,
                labels,
            };
            is_x86_feature_detected!("avx2").then_some(hinge)
        }
    }

    impl ByWidth for Hinge<'_> {
        type Output = (Vec<f64>, f64);

        fn fixed<const D: usize>(self) -> Self::Output {
            // SAFETY: a `Hinge` exists only on a host with AVX2.
            unsafe { hinge::<D>(self.w, self.b, self.features, self.labels) }
        }

        fn any(self, _: usize) -> Self::Output {
            super::linear_gradient(self.w, self.b, self.features, self.labels, super::hinge)
        }
    }

    /// How far ahead of the rows being summed [`hinge`] prefetches: 3 KiB.
    const AHEAD: usize = 384;

    #[target_feature(enable = "avx2")]
    fn hinge<const D: usize>(
        w: &[f64],
        b: f64,
        features: &[f64],
        labels: &[f64],
    ) -> (Vec<f64>, f64) {
        // The values one row's loads read.
        let span = if D <= 4 { 4 } else { 8 };
        let rows = labels.len().min(features.len() / D);
        let mut padded = [0.0; 8];
        padded[..D].copy_from_slice(w);
        // SAFETY: `padded` holds eight values.
        let (w_lo, w_hi) = unsafe {
            let at = padded.as_ptr();
            (_mm256_loadu_pd(at), _mm256_loadu_pd(at.add(4)))
        };
        let bias = _mm256_set1_pd(b);
        let (one, half, sign) = (
            _mm256_set1_pd(1.0),
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(-0.0),
        );
        let zero = _mm256_setzero_pd();
        let (mut g_lo, mut g_hi, mut g_b) = (zero, zero, zero);
        let mut r = 0;
        while r + 4 <= rows && (r + 3) * D + span <= features.len() {
            let at = |k: usize, lane: usize| {
                // SAFETY: the loop condition keeps the last value read,
                // `(r + 3) * D + span − 1`, inside `features`.
                unsafe { _mm256_loadu_pd(features.as_ptr().add((r + k) * D + lane)) }
            };
            // The block `AHEAD` values on, one 64-byte line at a time: the
            // sums' dependency chain leaves the loads little room to run
            // ahead by themselves. A prefetch past the end is ignored.
            for line in (0..4 * D).step_by(8) {
                _mm_prefetch::<_MM_HINT_T0>(
                    features.as_ptr().wrapping_add(r * D + AHEAD + line).cast(),
                );
            }
            let lo = [at(0, 0), at(1, 0), at(2, 0), at(3, 0)];
            let hi = if D > 4 {
                [at(0, 4), at(1, 4), at(2, 4), at(3, 4)]
            } else {
                lo
            };
            // `w_j·x_j` in the rows' lanes, then as columns.
            let products =
                |rows: [__m256d; 4], w| transpose([0, 1, 2, 3].map(|k| _mm256_mul_pd(w, rows[k])));
            let (p_lo, p_hi) = (products(lo, w_lo), products(hi, w_hi));
            let mut m = p_lo[0];
            for j in 1..D {
                m = _mm256_add_pd(m, if j < 4 { p_lo[j] } else { p_hi[j - 4] });
            }
            m = _mm256_add_pd(m, bias);
            // SAFETY: `r + 4 <= rows <= labels.len()`.
            let label = unsafe { _mm256_loadu_pd(labels.as_ptr().add(r)) };
            // `c = −y`: −1 where the label is above 0.5, +1 elsewhere.
            let c = _mm256_or_pd(
                one,
                _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(label, half), sign),
            );
            let y = _mm256_xor_pd(c, sign);
            let keep = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_mul_pd(y, m), one);
            // `c` where the row is active, `+0.0` elsewhere.
            let kept = _mm256_and_pd(c, keep);
            for k in 0..4 {
                // `c` is never zero, so a zero marks an inactive row.
                let ck = lane(kept, k);
                let keep_k = _mm256_cmp_pd::<_CMP_NEQ_UQ>(ck, zero);
                g_lo = _mm256_add_pd(g_lo, _mm256_and_pd(_mm256_mul_pd(ck, lo[k]), keep_k));
                if D > 4 {
                    g_hi = _mm256_add_pd(g_hi, _mm256_and_pd(_mm256_mul_pd(ck, hi[k]), keep_k));
                }
            }
            g_b = _mm256_add_pd(g_b, kept);
            r += 4;
        }
        let mut sums = [0.0; 12];
        // SAFETY: `sums` holds twelve values.
        unsafe {
            _mm256_storeu_pd(sums.as_mut_ptr(), g_lo);
            _mm256_storeu_pd(sums.as_mut_ptr().add(4), g_hi);
            _mm256_storeu_pd(sums.as_mut_ptr().add(8), g_b);
        }
        // Each lane of `g_b` sums ±1 and +0.0: whole numbers far below
        // 2^53, so every order of the additions gives the same bits.
        let mut gb = ((sums[8] + sums[9]) + sums[10]) + sums[11];
        let mut gw = sums[..D].to_vec();
        let (features, labels) = (&features[r * D..], &labels[r..rows]);
        super::add_rows(w, b, features, labels, super::hinge, &mut gw, &mut gb);
        (gw, gb)
    }

    /// Four rows (lanes = features) as four columns (lanes = rows).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose([r0, r1, r2, r3]: [__m256d; 4]) -> [__m256d; 4] {
        let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
        [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }

    /// Lane `k` of `v` in every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane(v: __m256d, k: usize) -> __m256d {
        match k {
            0 => _mm256_permute4x64_pd::<0x00>(v),
            1 => _mm256_permute4x64_pd::<0x55>(v),
            2 => _mm256_permute4x64_pd::<0xAA>(v),
            _ => _mm256_permute4x64_pd::<0xFF>(v),
        }
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

    /// Whether [`hinge_gradient`] runs the AVX2 kernel on this host.
    fn avx2_runs() -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return true;
        }
        false
    }

    #[test]
    fn the_hinge_kernel_sums_the_same_bits_as_the_slice_loop() {
        // Say which kernel ran, so a host without AVX2 shows up in the
        // test output instead of passing on the scalar kernel alone.
        let path = if avx2_runs() { "AVX2" } else { "scalar" };
        println!("hinge_gradient runs the {path} kernel");
        let special = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -0.0,
            1e308,
            -1e308,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
        ];
        let mut rng = sqlml_common::SplitMix64::new(48);
        let bits = |(g, b): (Vec<f64>, f64)| -> Vec<u64> {
            g.iter().chain([&b]).map(|v| v.to_bits()).collect()
        };
        for dim in 1..=8 {
            for rows in (0..=9).chain([63, 64, 65, 1001]) {
                for case in 0..7 {
                    // Case 0 is plain data; cases 1–5 salt the rows with
                    // edge values; in case 6 large values cancel, so each
                    // margin's bits, and with them its row's activity,
                    // depend on the order of its additions.
                    let salt = if case == 0 || case == 6 { 0.0 } else { 0.05 };
                    let mut features: Vec<f64> = (0..rows * dim)
                        .map(|_| match rng.chance(salt) {
                            true => special[rng.next_below(special.len() as u64) as usize],
                            false if case == 6 => {
                                [1e16, -1e16, 0.5, -0.25, 0.75][rng.next_below(5) as usize]
                            }
                            false => rng.next_gaussian(),
                        })
                        .collect();
                    if case == 1 {
                        // A subnormal block: every product underflows.
                        features.iter_mut().for_each(|x| *x *= 1e-310);
                    }
                    let labels: Vec<f64> = (0..rows)
                        .map(|_| match rng.next_below(20) {
                            0 if case > 0 => f64::NAN,
                            1 if case > 0 => -0.0,
                            n => f64::from(u8::from(n % 2 == 0)),
                        })
                        .collect();
                    let mut w: Vec<f64> = (0..dim)
                        .map(|_| match case {
                            6 => [1.0, 1.0 + f64::EPSILON, -1.0][rng.next_below(3) as usize],
                            _ => rng.next_gaussian() * 0.5,
                        })
                        .collect();
                    if case == 2 {
                        w[rng.next_below(dim as u64) as usize] = f64::NAN;
                    }
                    let b = [0.3, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.1, 0.5][case];
                    let want = LinearGradient {
                        w: &w,
                        b,
                        features: &features,
                        labels: &labels,
                        coef: hinge,
                    }
                    .any(dim);
                    assert_eq!(
                        bits(hinge_gradient(&w, b, &features, &labels)),
                        bits(want),
                        "{path} kernel, width {dim}, {rows} rows, case {case}"
                    );
                }
            }
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
