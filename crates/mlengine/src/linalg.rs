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

/// A linear model's loss, as the coefficient `c` it gives a row with
/// margin `m = w·x + b` and label `y`: an active row adds `c·x` to the
/// weight gradient and `c` to the intercept's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// The SVM's hinge, a {0, 1} label taken as `y = ±1`: `c = −y`,
    /// active when `y·m < 1`.
    Hinge,
    /// Least squares: `c = m − y`, always active.
    Squared,
    /// Log-loss on {0, 1} labels: `c = sigmoid(m) − y`, always active.
    Logistic,
}

impl Loss {
    /// Whether a row with margin `m` and label `y` is active, and its `c`.
    #[inline(always)]
    pub(crate) fn coef(self, m: f64, y: f64) -> (bool, f64) {
        match self {
            Loss::Hinge => {
                let y = if y > 0.5 { 1.0 } else { -1.0 };
                (y * m < 1.0, -y)
            }
            Loss::Squared => (true, m - y),
            Loss::Logistic => (true, sigmoid(m) - y),
        }
    }
}

/// One gradient round of a linear model `w·x + b` under `loss` over a
/// block of rows (`features` row-major, `w.len()` values per row, one
/// label each): every active row, in row order, adds `c·x` to the weight
/// gradient and `c` to the intercept's — `axpy(c, x, gw); gb += c`.
/// Returns both sums. On x86-64 with AVX2 (detected at run time) widths
/// 1–8 run the explicit-SIMD kernel of `avx2`, whose bits are those of
/// the slice loop that every other width and host runs.
pub fn gradient(
    loss: Loss,
    w: &[f64],
    b: f64,
    features: &[f64],
    labels: &[f64],
) -> (Vec<f64>, f64) {
    let round = Round {
        loss,
        w,
        b,
        features,
        labels,
    };
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = avx2::Kernel::new(round) {
        return by_width(w.len(), kernel);
    }
    round.add_rows(0, (vec![0.0; w.len()], 0.0))
}

/// The input of one [`gradient`] round.
#[derive(Clone, Copy)]
struct Round<'a> {
    loss: Loss,
    w: &'a [f64],
    b: f64,
    features: &'a [f64],
    labels: &'a [f64],
}

impl Round<'_> {
    /// The slice loop — the oracle of the SIMD kernel — adding rows
    /// `from..` to sums already begun: row after row, an active row's
    /// `c·x` onto `gw` and `c` onto `gb`.
    fn add_rows(self, from: usize, (mut gw, mut gb): (Vec<f64>, f64)) -> (Vec<f64>, f64) {
        let dim = self.w.len();
        for (r, &label) in self.labels.iter().enumerate().skip(from) {
            let x = &self.features[r * dim..][..dim];
            let (active, c) = self.loss.coef(dot(self.w, x) + self.b, label);
            if active {
                axpy(c, x, &mut gw);
                gb += c;
            }
        }
        (gw, gb)
    }
}

/// The gradient round in explicit AVX2, one kernel for every [`Loss`].
///
/// It works through blocks of up to [`BLOCK`](avx2::BLOCK) rows in two
/// passes. The first pass takes four rows a step: it loads them at
/// stride `D` — one 256-bit register per row for `D ≤ 4`, two for 5–8;
/// lanes at or beyond `D` hold the next rows' values and are never used
/// — multiplies them by the weights and transposes the products, so that
/// each lane is a row. Each row's margin is `dot`'s left fold `w0·x0 +
/// w1·x1 + …` and then `+ b`, with no fused multiply-add, and the loss
/// turns margin and label into `c` and the row's mask, stored for the
/// block. The second pass adds, row by row in row order, `c·x` to the
/// gradient register(s), whose lanes are the features, and `c` to `gb`.
/// Those are the slice loop's operations in its order, so every bit is
/// the same, ±inf and signed zeros included, and a sum is NaN where the
/// slice loop's is. Which of two NaNs meeting in one operation comes out
/// is left open by Rust (the compiler swaps the operands of `+` and `×`),
/// so where a feature's NaN meets `inf − inf`'s the NaN's sign may
/// differ; a hinge sum never meets two, as a row with a NaN margin is
/// inactive.
///
/// The mask comes from the loss, never from `c ≠ 0`: a logistic `c` is
/// exactly `0.0` where `sigmoid` saturates to the label, and that row
/// still adds `0·x`, NaN for `x = ±inf`, as the slice loop does. Only the
/// hinge has inactive rows: there `c·x` is ANDed with the mask and `c` is
/// stored as `+0.0`, and adding `+0.0` changes no sum (they start at
/// `+0.0`, so they never become `−0.0`). `exp` stays the scalar libm
/// call, one per lane, in the first pass; the sums live only in the
/// second, so they stay in registers. The rows whose loads would run
/// past `features` go through the slice loop, continuing the same sums.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::mem::transmute;

    use super::{ByWidth, Loss, Round};

    const HINGE: u8 = Loss::Hinge as u8;
    const SQUARED: u8 = Loss::Squared as u8;
    const LOGISTIC: u8 = Loss::Logistic as u8;

    /// A [`Round`] on a host with AVX2: only [`Kernel::new`] makes one,
    /// once it has detected AVX2.
    pub(super) struct Kernel<'a>(Round<'a>);

    impl<'a> Kernel<'a> {
        pub(super) fn new(round: Round<'a>) -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Kernel(round))
        }
    }

    impl ByWidth for Kernel<'_> {
        type Output = (Vec<f64>, f64);

        fn fixed<const D: usize>(self) -> Self::Output {
            let round = self.0;
            // SAFETY: a `Kernel` exists only on a host with AVX2.
            unsafe {
                match round.loss {
                    Loss::Hinge => kernel::<HINGE, D>(round),
                    Loss::Squared => kernel::<SQUARED, D>(round),
                    Loss::Logistic => kernel::<LOGISTIC, D>(round),
                }
            }
        }

        fn any(self, _: usize) -> Self::Output {
            self.0.add_rows(0, (vec![0.0; self.0.w.len()], 0.0))
        }
    }

    /// Rows per block, at most: a multiple of the four rows of a step.
    pub(super) const BLOCK: usize = 64;

    /// How far ahead of the rows being read the kernel prefetches: 3 KiB.
    const AHEAD: usize = 384;

    #[target_feature(enable = "avx2")]
    fn kernel<const L: u8, const D: usize>(round: Round<'_>) -> (Vec<f64>, f64) {
        let (w, features, labels) = (round.w, round.features, round.labels);
        // The values one row's loads read.
        let span = if D <= 4 { 4 } else { 8 };
        // The rows the steps cover: whole steps of rows whose loads stay
        // inside `features` — row `r` reads up to `r * D + span − 1`.
        let loadable = features
            .len()
            .checked_sub(span)
            .map_or(0, |room| room / D + 1);
        let steps = labels.len().min(loadable) / 4 * 4;
        let mut padded = [0.0; 8];
        padded[..D].copy_from_slice(w);
        // SAFETY: two registers are eight values.
        let [w_lo, w_hi] = unsafe { transmute::<[f64; 8], [__m256d; 2]>(padded) };
        let bias = _mm256_set1_pd(round.b);
        let x = features.as_ptr();
        // SAFETY (every load from `x`): rows below `steps` only, whose
        // last value read, `(steps − 1) * D + span − 1`, is in `features`.
        let at = |row: usize, lane: usize| unsafe { _mm256_loadu_pd(x.add(row * D + lane)) };
        let (mut g_lo, mut g_hi, mut gb) = (_mm256_setzero_pd(), _mm256_setzero_pd(), 0.0);
        let (mut cs, mut masks) = ([0.0; BLOCK], [0.0; BLOCK]);
        // Short blocks keep the loads streaming (pinned on a 2-core x86-64
        // host, the width-4 hinge round read 2–15% faster in 16-row blocks
        // than in 64-row ones, in 8 of 8 rounds); the logistic kernel
        // writes its sums to the stack around each block's `exp` calls,
        // so it takes long blocks.
        let block = if L == LOGISTIC { BLOCK } else { BLOCK / 4 };
        let mut r = 0;
        while r < steps {
            let n = block.min(steps - r);
            for q in (0..n).step_by(4) {
                let s = r + q;
                // The step `AHEAD` values on, one 64-byte line at a time. A
                // prefetch past the end is ignored.
                for line in (0..4 * D).step_by(8) {
                    _mm_prefetch::<_MM_HINT_T0>(x.wrapping_add(s * D + AHEAD + line).cast());
                }
                let lo = [0, 1, 2, 3].map(|k| at(s + k, 0));
                let hi = if D > 4 {
                    [0, 1, 2, 3].map(|k| at(s + k, 4))
                } else {
                    lo
                };
                // `w_j·x_j` in the rows' lanes, then as columns.
                let products = |rows: [__m256d; 4], w| {
                    transpose([0, 1, 2, 3].map(|k| _mm256_mul_pd(w, rows[k])))
                };
                let (p_lo, p_hi) = (products(lo, w_lo), products(hi, w_hi));
                let mut m = p_lo[0];
                for j in 1..D {
                    m = _mm256_add_pd(m, if j < 4 { p_lo[j] } else { p_hi[j - 4] });
                }
                m = _mm256_add_pd(m, bias);
                // SAFETY: `s + 4 <= steps <= labels.len()`, and `q + 4 <= n
                // <= BLOCK`.
                unsafe {
                    let (c, mask) = coef::<L>(m, _mm256_loadu_pd(labels.as_ptr().add(s)));
                    _mm256_storeu_pd(cs.as_mut_ptr().add(q), c);
                    _mm256_storeu_pd(masks.as_mut_ptr().add(q), mask);
                }
            }
            for (q, (&c, &mask)) in cs[..n].iter().zip(&masks[..n]).enumerate() {
                let (c_row, mask) = (_mm256_set1_pd(c), _mm256_set1_pd(mask));
                let term = |lane| {
                    let cx = _mm256_mul_pd(c_row, at(r + q, lane));
                    if L == HINGE {
                        _mm256_and_pd(cx, mask)
                    } else {
                        cx
                    }
                };
                g_lo = _mm256_add_pd(g_lo, term(0));
                if D > 4 {
                    g_hi = _mm256_add_pd(g_hi, term(4));
                }
                gb += c;
            }
            r += n;
        }
        // SAFETY: two registers are eight values.
        let sums = unsafe { transmute::<[__m256d; 2], [f64; 8]>([g_lo, g_hi]) };
        round.add_rows(steps, (sums[..D].to_vec(), gb))
    }

    /// The loss's `c` for four rows' margins and labels — `+0.0` in an
    /// inactive lane — and their mask, all ones in an active lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn coef<const L: u8>(m: __m256d, label: __m256d) -> (__m256d, __m256d) {
        let (one, sign) = (_mm256_set1_pd(1.0), _mm256_set1_pd(-0.0));
        let all = _mm256_cmp_pd::<_CMP_TRUE_UQ>(m, m);
        match L {
            HINGE => {
                // `c = −y`: −1 where the label is above 0.5, +1 elsewhere.
                let above = _mm256_cmp_pd::<_CMP_GT_OQ>(label, _mm256_set1_pd(0.5));
                let c = _mm256_or_pd(one, _mm256_and_pd(above, sign));
                let y = _mm256_xor_pd(c, sign);
                let mask = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_mul_pd(y, m), one);
                (_mm256_and_pd(c, mask), mask)
            }
            SQUARED => (_mm256_sub_pd(m, label), all),
            _ => {
                // `sigmoid`'s operations lane by lane, `exp` from libm.
                let nonneg = _mm256_cmp_pd::<_CMP_GE_OQ>(m, _mm256_setzero_pd());
                let neg_abs = _mm256_xor_pd(m, _mm256_and_pd(nonneg, sign));
                // SAFETY: a register is four values.
                let t = unsafe {
                    let lanes = transmute::<__m256d, [f64; 4]>(neg_abs).map(f64::exp);
                    transmute::<[f64; 4], __m256d>(lanes)
                };
                let num = _mm256_blendv_pd(t, one, nonneg);
                (
                    _mm256_sub_pd(_mm256_div_pd(num, _mm256_add_pd(one, t)), label),
                    all,
                )
            }
        }
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
}

/// Numerically-stable logistic sigmoid: `1 / (1 + e^−z)` for `z ≥ 0`,
/// `e^z / (1 + e^z)` otherwise, without a branch on the sign of `z` (a
/// coin flip on real data): `t = e^−|z|` and the numerator is `1` or
/// `t`, picked by a `max` (`t ≤ 1`). A NaN `z` takes the second form, as
/// `−|z|` would flip its sign.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z.is_nan() {
        let e = z.exp();
        return e / (1.0 + e);
    }
    let t = (-z.abs()).exp();
    let num = t.max(f64::from(u8::from(z >= 0.0)));
    num / (1.0 + t)
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

    /// Every bit of a round's sums, the intercept's last — but a NaN
    /// only as NaN, unless the loss is the hinge. A hinge row with a NaN
    /// margin is inactive, so the hinge's only NaN is `inf − inf`'s and
    /// its bits are pinned whole. Logistic and squared rows with a NaN
    /// margin are active and mix the features' NaN with `inf − inf`'s in
    /// one sum, and which of two NaNs an operation returns is left open
    /// by Rust: the compiler swaps the operands of `+` and `×` at will,
    /// and does so differently in the kernel and in the slice loop.
    fn bits(loss: Loss, (g, b): (Vec<f64>, f64)) -> Vec<u64> {
        let nan = |v: &f64| v.is_nan() && loss != Loss::Hinge;
        let bits = |v: &f64| {
            if nan(v) {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        g.iter().chain([&b]).map(bits).collect()
    }

    /// The slice loop's round: the oracle.
    fn slice_loop(
        loss: Loss,
        w: &[f64],
        b: f64,
        features: &[f64],
        labels: &[f64],
    ) -> (Vec<f64>, f64) {
        let round = Round {
            loss,
            w,
            b,
            features,
            labels,
        };
        round.add_rows(0, (vec![0.0; w.len()], 0.0))
    }

    #[test]
    fn every_width_path_sums_the_same_bits_as_the_slice_loop() {
        // Half the hinge rows inactive, and the features hold ±inf and
        // NaN, which an inactive row must not leak into the sums.
        let mut rng = sqlml_common::SplitMix64::new(7);
        for loss in [Loss::Hinge, Loss::Squared, Loss::Logistic] {
            for dim in 0..=10 {
                let rows = 37;
                let mut features: Vec<f64> = (0..rows * dim).map(|_| rng.next_gaussian()).collect();
                if dim > 0 {
                    features[dim] = f64::INFINITY;
                    features[3 * dim] = f64::NEG_INFINITY;
                    features[5 * dim] = f64::NAN;
                }
                let labels: Vec<f64> = (0..rows)
                    .map(|_| if rng.chance(0.5) { 1.0 } else { 0.0 })
                    .collect();
                let w: Vec<f64> = (0..dim).map(|_| rng.next_gaussian() * 0.1).collect();
                assert_eq!(
                    bits(loss, gradient(loss, &w, 0.3, &features, &labels)),
                    bits(loss, slice_loop(loss, &w, 0.3, &features, &labels)),
                    "{loss:?}, width {dim}"
                );
            }
        }
    }

    /// Which kernel [`gradient`] runs at widths 1–8 on this host.
    fn kernel_path() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return "AVX2";
        }
        "scalar"
    }

    /// Checks `loss`'s round against the slice loop, bit for bit, at
    /// widths 1–8 over 0–9, 63–65 and 1001 rows, in eight cases each;
    /// returns how many rows had `c` exactly `0.0`. Says which kernel ran,
    /// so a host without AVX2 shows up in the test output instead of
    /// passing on the slice loop alone.
    fn check_kernel(loss: Loss, seed: u64) -> usize {
        let path = kernel_path();
        println!("the {loss:?} gradient runs the {path} kernel");
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
        let mut rng = sqlml_common::SplitMix64::new(seed);
        let mut zeros = 0;
        for dim in 1..=8 {
            for rows in (0..=9).chain([63, 64, 65, 1001]) {
                for case in 0..8 {
                    // Case 0 is plain data; cases 1–5 salt the rows with
                    // edge values; in case 6 large values cancel, so each
                    // margin's bits, and with them a hinge row's activity,
                    // depend on the order of its additions; in case 7 the
                    // margins reach ±40 and beyond, where `sigmoid`
                    // saturates and a logistic `c` is exactly `0.0`.
                    let salt = [0.0, 0.05, 0.05, 0.05, 0.05, 0.05, 0.0, 0.01][case];
                    let mut features: Vec<f64> = (0..rows * dim)
                        .map(|_| match rng.chance(salt) {
                            true => special[rng.next_below(special.len() as u64) as usize],
                            false if case == 6 => {
                                [1e16, -1e16, 0.5, -0.25, 0.75][rng.next_below(5) as usize]
                            }
                            false if case == 7 => rng.next_gaussian() * 60.0,
                            false => rng.next_gaussian(),
                        })
                        .collect();
                    if case == 1 {
                        // A subnormal block: every product underflows.
                        features.iter_mut().for_each(|x| *x *= 1e-310);
                    }
                    let labels: Vec<f64> = (0..rows)
                        .map(|_| match rng.next_below(20) {
                            0 if (1..7).contains(&case) => f64::NAN,
                            1 if (1..7).contains(&case) => -0.0,
                            n => f64::from(u8::from(n % 2 == 0)),
                        })
                        .collect();
                    let mut w: Vec<f64> = (0..dim)
                        .map(|_| match case {
                            6 => [1.0, 1.0 + f64::EPSILON, -1.0][rng.next_below(3) as usize],
                            7 => rng.next_gaussian() * 2.0,
                            _ => rng.next_gaussian() * 0.5,
                        })
                        .collect();
                    if case == 2 {
                        w[rng.next_below(dim as u64) as usize] = f64::NAN;
                    }
                    let b = [
                        0.3,
                        0.0,
                        -0.0,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        0.1,
                        0.5,
                        -0.2,
                    ][case];
                    let want = slice_loop(loss, &w, b, &features, &labels);
                    assert_eq!(
                        bits(loss, gradient(loss, &w, b, &features, &labels)),
                        bits(loss, want),
                        "{loss:?}, {path} kernel, width {dim}, {rows} rows, case {case}"
                    );
                    zeros += (0..rows)
                        .filter(|&r| {
                            let m = dot(&w, &features[r * dim..][..dim]) + b;
                            loss.coef(m, labels[r]).1 == 0.0
                        })
                        .count();
                }
            }
        }
        zeros
    }

    #[test]
    fn the_hinge_kernel_sums_the_same_bits_as_the_slice_loop() {
        check_kernel(Loss::Hinge, 48);
    }

    #[test]
    fn the_logistic_and_squared_kernels_sum_the_same_bits_as_the_slice_loop() {
        assert!(
            check_kernel(Loss::Logistic, 51) > 1000,
            "too few saturated rows"
        );
        check_kernel(Loss::Squared, 52);
    }

    /// `sigmoid` as it was written, with a branch on the sign of `z`.
    fn branchy_sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    #[test]
    fn sigmoid_keeps_the_bits_of_the_branchy_form() {
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 8.0,
            5e-324,
            -5e-324,
            36.8,
            -36.8,
            709.8,
            -709.8,
            745.0,
            -745.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = sqlml_common::SplitMix64::new(51);
        let scales = [0.1, 1.0, 10.0, 100.0, 1000.0];
        let seeded = (0..200_000).map(|_| rng.next_gaussian() * scales[rng.next_below(5) as usize]);
        for z in edges.into_iter().chain(seeded) {
            assert_eq!(
                sigmoid(z).to_bits(),
                branchy_sigmoid(z).to_bits(),
                "z = {z:e} ({:#x})",
                z.to_bits()
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
