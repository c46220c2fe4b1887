//! Exact, order-independent sums of non-negative doubles.
//!
//! Merge refinement folds a merged cluster's mean dissimilarity from
//! its parts' sums, so a sum must not depend on the order its terms
//! were added in, nor on how they were split into partial sums. An
//! [`ExactSum`] keeps the exact real sum of its terms and rounds it
//! once, correctly, when read.
//!
//! The fast path is a 128-bit fixed-point window on the 2⁻⁶³ grid: a
//! term in [2⁻¹¹, 2) is a 53-bit significand shifted left by at most
//! 11 bits, so it adds as one 64-bit integer with a carry. That covers
//! nearly every Canberra dissimilarity. A smaller term on the grid, or
//! a term in [2, 2⁵⁰), adds to the same window off the fast path.
//! Anything else (subnormals, terms off the grid, larger terms) goes to
//! a boxed fixed-point accumulator over the whole double range, which
//! is allocated on first use.

/// Fractional bits of the fixed-point window.
const GRID_BITS: i32 = 63;

/// Biased exponent of the window's fast-path binades, [2⁻¹¹, 2).
const FAST_LOW: u32 = 1023 - 11;

/// The largest left shift of a significand into the window, for
/// terms below 2^(53 + 60 − 63) = 2⁵⁰.
const MAX_SHIFT: i32 = 60;

/// Mask of a double's stored fraction bits.
const FRACTION: u64 = (1 << 52) - 1;

/// Mask of everything but the sign: −0 adds as +0.
const MAGNITUDE: u64 = u64::MAX >> 1;

/// An exact sum of finite non-negative doubles.
///
/// The window cannot overflow: the slow path keeps it below 2¹²⁷ after
/// each of its additions, and the fast path's terms are below 2⁶⁴, so
/// 2⁶³ fast additions would be needed to carry out of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    /// The window terms' sum, in units of 2⁻⁶³: its low and high 64
    /// bits (two words rather than a `u128` keep the struct 8-aligned,
    /// 24 bytes).
    low: u64,
    high: u64,
    /// Every other term, exactly; `None` until the first one.
    wide: Option<Box<Wide>>,
}

impl ExactSum {
    /// Adds `x`, which must be finite and non-negative, through the
    /// window in memory: the term-by-term reference that
    /// [`add_all`](Self::add_all) is pinned against.
    #[cfg(test)]
    fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite() && x >= 0.0, "exact sum of {x}");
        let bits = x.to_bits() & MAGNITUDE;
        let shift = ((bits >> 52) as u32).wrapping_sub(FAST_LOW);
        if shift <= 11 {
            let (low, carry) = self
                .low
                .overflowing_add(((bits & FRACTION) | (1 << 52)) << shift);
            self.low = low;
            self.high += u64::from(carry);
        } else {
            let window = add_slow(self.window(), bits, &mut self.wide);
            self.set_window(window);
        }
    }

    /// Adds every term of `xs`, each finite and non-negative. The
    /// window stays in locals across the slice, so a row of terms adds
    /// without a store per term.
    #[inline]
    pub(crate) fn add_all(&mut self, xs: &[f64]) {
        let (mut low, mut high) = (self.low, self.high);
        for &x in xs {
            debug_assert!(x.is_finite() && x >= 0.0, "exact sum of {x}");
            let bits = x.to_bits() & MAGNITUDE;
            // x = significand · 2^(biased − 1075) = significand · 2^shift
            // units of 2⁻⁶³.
            let shift = ((bits >> 52) as u32).wrapping_sub(FAST_LOW);
            if shift <= 11 {
                let (sum, carry) = low.overflowing_add(((bits & FRACTION) | (1 << 52)) << shift);
                low = sum;
                high += u64::from(carry);
            } else {
                // The window goes by value, so that only `wide` escapes
                // to the call.
                let window = add_slow(
                    u128::from(high) << 64 | u128::from(low),
                    bits,
                    &mut self.wide,
                );
                (low, high) = (window as u64, (window >> 64) as u64);
            }
        }
        (self.low, self.high) = (low, high);
    }

    /// Adds every term of `other`.
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        let window = add_window(self.window(), other.window(), &mut self.wide);
        self.set_window(window);
        if let Some(w) = &other.wide {
            self.wide.get_or_insert_with(Box::default).merge(w);
        }
    }

    /// The sum, correctly rounded to the nearest double (ties to even).
    pub(crate) fn value(&self) -> f64 {
        match &self.wide {
            // Integer-to-float casts round to nearest, ties to even, and
            // the scaling by a power of two is exact.
            None => self.window() as f64 * pow2(-GRID_BITS),
            Some(w) => {
                let mut all = (**w).clone();
                all.add_window(self.window());
                all.round()
            }
        }
    }

    fn window(&self) -> u128 {
        u128::from(self.high) << 64 | u128::from(self.low)
    }

    fn set_window(&mut self, window: u128) {
        (self.low, self.high) = (window as u64, (window >> 64) as u64);
    }
}

/// Adds the double with magnitude bits `bits`, outside the fast
/// binades, to `window` or `wide`; returns the new window.
#[inline(never)]
fn add_slow(window: u128, bits: u64, wide: &mut Option<Box<Wide>>) -> u128 {
    let biased = (bits >> 52) as i32;
    if bits == 0 {
        return window;
    }
    if biased != 0 {
        let significand = (bits & FRACTION) | (1 << 52);
        let shift = biased - (1075 - GRID_BITS);
        if shift > 0 && shift <= MAX_SHIFT {
            return add_window(window, u128::from(significand) << shift, wide);
        }
        if shift < 0 && significand.trailing_zeros() as i32 >= -shift {
            return add_window(window, u128::from(significand >> -shift), wide);
        }
    }
    wide.get_or_insert_with(Box::default).add_double(bits);
    window
}

/// `window + units`, or 0 after moving both to `wide` if the sum would
/// reach 2¹²⁷.
fn add_window(window: u128, units: u128, wide: &mut Option<Box<Wide>>) -> u128 {
    match window.checked_add(units) {
        Some(sum) if sum >> 127 == 0 => sum,
        _ => {
            let wide = wide.get_or_insert_with(Box::default);
            wide.add_window(window);
            wide.add_window(units);
            0
        }
    }
}

/// 32-bit digits, least significant first, each held in a `u64` so
/// additions can defer their carries.
const LIMBS: usize = 68;

/// Additions between carry passes: each adds below 2³² to a digit, so
/// no digit can overflow before the pass.
const CARRY_EVERY: u32 = 1 << 31;

/// A fixed-point accumulator over the whole finite double range: the
/// value is Σ `limbs[i]` · 2^(32i − 1074). 68 digits hold every double
/// (bits 2⁻¹⁰⁷⁴ to 2¹⁰²³) with 64 bits of headroom for the sum.
#[derive(Debug, Clone)]
struct Wide {
    limbs: [u64; LIMBS],
    pending: u32,
}

impl Default for Wide {
    fn default() -> Self {
        Self {
            limbs: [0; LIMBS],
            pending: 0,
        }
    }
}

impl Wide {
    /// Adds the finite non-negative double with these bits.
    fn add_double(&mut self, bits: u64) {
        let biased = (bits >> 52) as usize;
        let fraction = bits & FRACTION;
        // A subnormal's significand has no hidden bit and the exponent
        // of the smallest normal.
        let (significand, exponent) = if biased == 0 {
            (fraction, 1)
        } else {
            (fraction | (1 << 52), biased)
        };
        self.add_at(exponent - 1, significand);
    }

    /// Adds a window sum (units of 2⁻⁶³) in four 32-bit pieces.
    fn add_window(&mut self, units: u128) {
        let base = (1074 - GRID_BITS) as usize;
        for piece in 0..4 {
            let digit = (units >> (32 * piece)) as u64 & 0xFFFF_FFFF;
            self.add_at(base + 32 * piece, digit);
        }
    }

    /// Adds `value` · 2^(`pos` − 1074), where `value` < 2⁵³.
    fn add_at(&mut self, pos: usize, value: u64) {
        let (i, s) = (pos / 32, pos % 32);
        let x = u128::from(value) << s;
        self.limbs[i] += x as u64 & 0xFFFF_FFFF;
        self.limbs[i + 1] += (x >> 32) as u64 & 0xFFFF_FFFF;
        self.limbs[i + 2] += (x >> 64) as u64;
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            self.carry();
        }
    }

    /// Propagates carries so that every digit but the top is below 2³².
    fn carry(&mut self) {
        for i in 0..LIMBS - 1 {
            self.limbs[i + 1] += self.limbs[i] >> 32;
            self.limbs[i] &= 0xFFFF_FFFF;
        }
        self.pending = 0;
    }

    fn merge(&mut self, other: &Wide) {
        let mut other = other.clone();
        other.carry();
        self.carry();
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
        self.carry();
    }

    /// The value, correctly rounded to the nearest double (ties to
    /// even).
    fn round(mut self) -> f64 {
        self.carry();
        let Some(top_limb) = self.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let top = 32 * top_limb + 63 - self.limbs[top_limb].leading_zeros() as usize;
        if top < 53 {
            // At most 53 bits at 2⁻¹⁰⁷⁴: exactly representable.
            return self.bits(0, top + 1) as f64 * pow2(-1074);
        }
        let low = top - 52;
        let mut significand = self.bits(low, 53);
        let half = self.bits(low - 1, 1) == 1;
        if half && (significand & 1 == 1 || self.any_below(low - 1)) {
            significand += 1;
        }
        // At most 2⁵³, so exact as a double; the product is exact or
        // overflows to infinity, the correct rounding of a sum that
        // large.
        significand as f64 * pow2(low as i32 - 1074)
    }

    /// The `n` ≤ 53 bits from bit `lo` up, of a carried accumulator.
    fn bits(&self, lo: usize, n: usize) -> u64 {
        let (i, s) = (lo / 32, lo % 32);
        let mut acc = 0u128;
        for (k, &limb) in self.limbs[i..].iter().take(3).enumerate() {
            acc |= u128::from(limb) << (32 * k);
        }
        (acc >> s) as u64 & ((1 << n) - 1)
    }

    /// Whether any bit below bit `pos` is set, of a carried accumulator.
    fn any_below(&self, pos: usize) -> bool {
        let (i, s) = (pos / 32, pos % 32);
        self.limbs[..i].iter().any(|&l| l != 0) || self.limbs[i] & ((1 << s) - 1) != 0
    }
}

/// 2^k as a double, for −1074 ≤ k; infinity above the range.
fn pow2(k: i32) -> f64 {
    if k > 1023 {
        f64::INFINITY
    } else if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An independent oracle: Shewchuk's exact expansion sum with the
    /// half-way correction of its final rounding (the algorithm behind
    /// Python's `math.fsum`). Exact for sums well below the overflow
    /// threshold.
    fn expansion_sum(xs: &[f64]) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for &x in xs {
            let mut x = x;
            let mut i = 0;
            for j in 0..partials.len() {
                let mut y = partials[j];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[i] = lo;
                    i += 1;
                }
                x = hi;
            }
            partials.truncate(i);
            partials.push(x);
        }
        let Some(mut n) = partials.len().checked_sub(1) else {
            return 0.0;
        };
        let mut hi = partials[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = partials[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    fn sum_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    /// Terms from every region the accumulator treats differently:
    /// zero, subnormals, the smallest normals, values off the 2⁻⁶³ grid,
    /// dissimilarity-like values in (2⁻²⁸, 1) (below and in the fast
    /// binades), 1.0, values above 1, small whole numbers and values
    /// above the window.
    fn term() -> impl Strategy<Value = f64> {
        (0u8..9, any::<u64>()).prop_map(|(kind, r)| {
            let fraction = r & FRACTION;
            // 12 spare random bits pick the exponent.
            let exponent = |lo: u64, hi: u64| (lo + (r >> 52) % (hi - lo)) << 52;
            match kind {
                0 => 0.0,
                1 => f64::from_bits(fraction.max(1)),
                2 => f64::from_bits((1 << 52) | fraction),
                3 => f64::from_bits(exponent(900, 995) | fraction),
                4 => f64::from_bits(exponent(995, 1023) | fraction),
                5 => 1.0,
                6 => f64::from_bits(exponent(1023, 1032) | fraction),
                7 => (r % 64) as f64,
                _ => f64::from_bits(exponent(1050, 1200) | fraction),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn sum_is_exact_and_independent_of_order_and_splits(
            xs in prop::collection::vec(term(), 0..48),
            order in prop::collection::vec(any::<u64>(), 48),
            cuts in prop::collection::vec(0usize..48, 0..6),
        ) {
            let want = expansion_sum(&xs);
            let got = sum_of(&xs);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}: {} vs {}", xs, got, want);

            // A permutation: repeatedly move a chosen term to the front.
            let mut perm = xs.clone();
            for (i, pick) in order.iter().enumerate().take(perm.len()) {
                let j = i + (*pick as usize) % (perm.len() - i);
                perm.swap(i, j);
            }
            prop_assert_eq!(sum_of(&perm).to_bits(), want.to_bits());

            // Partial sums over arbitrary cuts, merged back to front.
            let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c <= perm.len()).collect();
            bounds.extend([0, perm.len()]);
            bounds.sort_unstable();
            let mut merged = ExactSum::default();
            for w in bounds.windows(2).rev() {
                let mut part = ExactSum::default();
                for &x in &perm[w[0]..w[1]] {
                    part.add(x);
                }
                merged.merge(&part);
            }
            prop_assert_eq!(merged.value().to_bits(), want.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Adding slices equals adding their terms one by one — the
        /// window, the wide part and the rounded sum — whatever the
        /// slices: zeros, subnormals, terms below 2⁻¹¹ and above 2
        /// among the terms, and empty slices among the cuts.
        #[test]
        fn slice_adds_equal_repeated_adds(
            xs in prop::collection::vec(term(), 0..48),
            cuts in prop::collection::vec(0usize..48, 0..6),
        ) {
            let mut one = ExactSum::default();
            for &x in &xs {
                one.add(x);
            }
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(xs.len())).collect();
            bounds.extend([0, xs.len()]);
            bounds.sort_unstable();
            let mut sliced = ExactSum::default();
            for w in bounds.windows(2) {
                sliced.add_all(&xs[w[0]..w[1]]);
            }
            prop_assert_eq!(sliced.window(), one.window());
            let limbs = |s: &ExactSum| s.wide.as_ref().map(|w| {
                let mut w = (**w).clone();
                w.carry();
                w.limbs
            });
            prop_assert_eq!(limbs(&sliced), limbs(&one));
            prop_assert_eq!(sliced.value().to_bits(), one.value().to_bits());
        }
    }

    #[test]
    fn rounds_half_way_sums_to_even() {
        // 1 + 2⁻⁵³ lies half way between 1 and its successor: ties go
        // to the even neighbour, 1. One more 2⁻¹⁰⁷⁴ breaks the tie.
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[1.0, 2f64.powi(-53)]), 1.0);
        assert_eq!(sum_of(&[1.0, 2f64.powi(-53), tiny]), 1.0 + f64::EPSILON);
        let odd = 1.0 + f64::EPSILON;
        assert_eq!(sum_of(&[odd, 2f64.powi(-53)]), 1.0 + 2.0 * f64::EPSILON);
    }

    #[test]
    fn window_overflow_spills_exactly() {
        // 2⁴⁹ · (1 + 2⁻⁵²) sits at the top of the window; enough of them
        // pass its 2¹²⁷ bound several times over.
        let big = 2f64.powi(49) * (1.0 + f64::EPSILON);
        let xs = vec![big; 1 << 16];
        assert_eq!(sum_of(&xs), big * f64::from(1u32 << 16));
        let mut with_tiny = xs.clone();
        with_tiny.push(f64::from_bits(1));
        assert_eq!(sum_of(&with_tiny), expansion_sum(&with_tiny));
    }

    #[test]
    fn sums_of_subnormals_stay_exact() {
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[tiny; 3]), f64::from_bits(3));
        let largest_sub = f64::from_bits(FRACTION);
        assert_eq!(
            sum_of(&[largest_sub, tiny]),
            f64::MIN_POSITIVE,
            "carries into the smallest normal"
        );
        assert_eq!(sum_of(&[]), 0.0);
        assert_eq!(sum_of(&[0.0, 0.0]), 0.0);
    }
}
