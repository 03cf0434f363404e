//! The cycle/flop/byte ledger accumulated by every simulated operation.
//!
//! All simulated "time" in this workspace is derived from [`Cost::cycles`]
//! multiplied by the machine clock period — no wall clocks are consulted
//! anywhere, so every experiment is bit-reproducible.

/// Resource consumption of a simulated operation or of a whole run.
///
/// `cycles` is a float because analytic timing models legitimately produce
/// fractional average costs per element (e.g. a gather sustaining 3.2
/// words/cycle); totals over a kernel are large enough that the fraction is
/// irrelevant but summing floats avoids systematic rounding bias.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Processor cycles consumed.
    pub cycles: f64,
    /// Floating point operations actually performed (adds, multiplies,
    /// divides, each intrinsic call counted as one "call", not its guts).
    pub flops: u64,
    /// Cray-hardware-counter-equivalent flops: intrinsic calls weighted by
    /// the number of operations the vectorized Cray library routine would
    /// have executed. This is the convention behind the paper's
    /// "Cray Y-MP equivalent Mflops".
    pub cray_flops: f64,
    /// Bytes moved between processor and memory (reads + writes).
    pub bytes: u64,
}

impl Cost {
    /// A zeroed ledger.
    pub const ZERO: Cost = Cost { cycles: 0.0, flops: 0, cray_flops: 0.0, bytes: 0 };

    /// Ledger entry consisting of cycles only.
    pub fn cycles(cycles: f64) -> Cost {
        Cost { cycles, ..Cost::ZERO }
    }

    /// Accumulate another ledger into this one.
    pub fn add(&mut self, other: Cost) {
        self.cycles += other.cycles;
        self.flops += other.flops;
        self.cray_flops += other.cray_flops;
        self.bytes += other.bytes;
    }

    /// Seconds of simulated machine time at a given clock period.
    pub fn seconds(&self, clock_ns: f64) -> f64 {
        self.cycles * clock_ns * 1e-9
    }

    /// Megaflops (actual operations) at a given clock period.
    pub fn mflops(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.flops as f64 / s / 1e6
        }
    }

    /// Cray-equivalent megaflops at a given clock period.
    pub fn cray_mflops(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.cray_flops / s / 1e6
        }
    }

    /// Memory bandwidth in MB/s (10^6 bytes per second, as the paper plots).
    pub fn mb_per_s(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 / s / 1e6
        }
    }

    /// Average bytes per cycle demanded from the memory system — used by the
    /// node model to detect bandwidth oversubscription between co-scheduled
    /// jobs.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.cycles
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            cycles: self.cycles + rhs.cycles,
            flops: self.flops + rhs.flops,
            cray_flops: self.cray_flops + rhs.cray_flops,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.add(rhs);
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

/// Runs of at most this many additions are cheaper as the plain loop than
/// through [`add_repeated`]'s binade jumps.
pub(crate) const SHORT_RUN: usize = 48;

/// `n` sequential `x += c`, bit for bit, in O(binades) steps instead of
/// O(n) — how a ledger charges `n` identical costs exactly.
///
/// Within one binade of the running sum (one exponent, one `ulp`), every
/// step rounds to a multiple of `ulp` and adds the same increment `d`: the
/// round-half-even tie, if `c` sits on one, resolves the same way each
/// step once one rounding inside the binade has made the sum even. So
/// after two real steps that stay inside a binade, the remaining steps
/// there are `k` additions of `d`, which in the IEEE bit pattern of a
/// positive float is integer addition of `d`'s ulp count to the
/// significand — exact as long as it stays strictly below the binade's
/// top. The walk then steps over the edge and repeats. Anything but a
/// finite, non-negative `x` and `c` takes the plain loop.
pub(crate) fn add_repeated(mut x: f64, c: f64, mut n: usize) -> f64 {
    if n == 0 {
        return x;
    }
    if c == 0.0 {
        // Adding either zero is the identity after the first step, which
        // may still turn `-0.0` into `+0.0`.
        return x + c;
    }
    if !(x.is_finite() && c.is_finite() && x >= 0.0 && c > 0.0) {
        for _ in 0..n {
            x += c;
        }
        return x;
    }
    const SIGNIFICAND: u64 = (1 << 52) - 1;
    while n > SHORT_RUN {
        let x1 = x + c;
        let x2 = x1 + c;
        n -= 2;
        let (b0, b1, b2) = (x.to_bits(), x1.to_bits(), x2.to_bits());
        x = x2;
        let step = b2 - b1;
        if step == 0 {
            // `x2 + c == x2`: the increment has vanished for good.
            return x;
        }
        // Sign and exponent of `x`, `x1` and `x2` agree: all three lie in
        // one binade, so `x1` was rounded in it and `step` is its `d`.
        if b0 >> 52 == b2 >> 52 {
            let k = ((SIGNIFICAND - (b2 & SIGNIFICAND)) / step).min(n as u64);
            x = f64::from_bits(b2 + k * step);
            n -= k as usize;
        }
    }
    for _ in 0..n {
        x += c;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(Cost::ZERO.cycles, 0.0);
        assert_eq!(Cost::ZERO.seconds(8.0), 0.0);
        assert_eq!(Cost::ZERO.mflops(8.0), 0.0);
        assert_eq!(Cost::ZERO.mb_per_s(8.0), 0.0);
        assert_eq!(Cost::ZERO.cray_mflops(8.0), 0.0);
    }

    #[test]
    fn seconds_scale_with_clock() {
        let c = Cost::cycles(1e9);
        assert!((c.seconds(8.0) - 8.0).abs() < 1e-12);
        assert!((c.seconds(9.2) - 9.2).abs() < 1e-12);
    }

    #[test]
    fn mflops_counts_actual_ops() {
        // 1e6 flops in 1e6 cycles at 10ns => 10ms => 100 Mflops.
        let c = Cost { cycles: 1e6, flops: 1_000_000, cray_flops: 2e6, bytes: 0 };
        assert!((c.mflops(10.0) - 100.0).abs() < 1e-9);
        assert!((c.cray_mflops(10.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let a = Cost { cycles: 1.0, flops: 2, cray_flops: 3.0, bytes: 4 };
        let b = Cost { cycles: 10.0, flops: 20, cray_flops: 30.0, bytes: 40 };
        let c = a + b;
        assert_eq!(c.cycles, 11.0);
        assert_eq!(c.flops, 22);
        assert_eq!(c.cray_flops, 33.0);
        assert_eq!(c.bytes, 44);
    }

    #[test]
    fn sum_over_iterator() {
        let costs = vec![Cost::cycles(1.0), Cost::cycles(2.0), Cost::cycles(3.0)];
        let total: Cost = costs.into_iter().sum();
        assert_eq!(total.cycles, 6.0);
    }

    /// The reference `add_repeated` must reproduce.
    fn add_loop(mut x: f64, c: f64, n: usize) -> f64 {
        for _ in 0..n {
            x += c;
        }
        x
    }

    fn assert_add_repeated(x: f64, c: f64, n: usize) {
        let (fast, slow) = (add_repeated(x, c, n), add_loop(x, c, n));
        assert!(
            fast.to_bits() == slow.to_bits(),
            "add_repeated({x:e} [{:#x}], {c:e} [{:#x}], {n}) = {fast:e}, loop = {slow:e}",
            x.to_bits(),
            c.to_bits()
        );
    }

    /// SplitMix64, as in the crate's property tests.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in [lo, hi).
        fn below(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo)
        }

        /// Log-uniform run length in [0, 10^6].
        fn reps(&mut self) -> usize {
            let n = 2f64.powf(self.below(0, 2000) as f64 / 100.0) as usize;
            n.min(1_000_000) - self.below(0, 2) as usize
        }

        /// A positive float of random magnitude in [2^lo, 2^hi) whose
        /// significand keeps only `bits` leading bits (few bits make ties
        /// and exact sums common, as integer and half-integer charges do).
        fn float(&mut self, lo: i32, hi: i32, bits: u32) -> f64 {
            let e = self.below(0, (hi - lo) as u64) as i32 + lo;
            let keep = !((1u64 << (52 - bits)) - 1);
            let m = f64::from_bits((1023 << 52) | (self.next() & ((1 << 52) - 1) & keep));
            m * 2f64.powi(e)
        }
    }

    #[test]
    fn add_repeated_matches_the_loop_on_random_runs() {
        let mut g = Gen(21);
        for _ in 0..600 {
            let bits = [1, 3, 8, 20, 52][g.below(0, 5) as usize];
            let c = g.float(-30, 30, bits);
            // Start at zero, near `c`, or far above it.
            let x = match g.below(0, 3) {
                0 => 0.0,
                1 => c * g.below(1, 100) as f64,
                _ => {
                    let bits = [2, 10, 52][g.below(0, 3) as usize];
                    g.float(-10, 80, bits)
                }
            };
            assert_add_repeated(x, c, g.reps());
        }
    }

    #[test]
    fn add_repeated_matches_the_loop_on_edge_classes() {
        let p = |e: i32| 2f64.powi(e);
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let tiny = f64::from_bits(1);
        for n in [0, 1, 2, 47, 48, 49, 50, 51, 97, 1000, 65_537, 1_000_000] {
            // Adding zero, of either sign, to either zero.
            for (x, c) in [(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (3.5, 0.0)] {
                assert_add_repeated(x, c, n);
            }
            // Round-half-even ties: the half-ulp part of `c` rounds up or
            // down depending on the sum's last bit.
            for x in [p(52), p(52) + 1.0, p(53) + 2.0, below(p(53)), below(p(54))] {
                for c in [0.5, 1.5, 2.5, 3.0, 7.5, 1e6 + 0.5] {
                    assert_add_repeated(x, c, n);
                }
            }
            // Increments below half an ulp vanish; exactly half an ulp
            // vanishes or not with the parity of `x`.
            for x in [p(60), p(60) + 256.0, p(60) + 128.0, 1e300] {
                for c in [1.0, 64.0, 128.0, 128.5, 255.0] {
                    assert_add_repeated(x, c, n);
                }
            }
            // `x` just below a power of two: the first step crosses.
            for e in [-1020, -3, 0, 1, 20, 52, 53, 1000] {
                for c in [p(e - 60), p(e - 20) * 1.3, p(e) * 0.75, p(e) * 3.0] {
                    assert_add_repeated(below(p(e)), c, n);
                }
            }
            // Runs crossing many binades, from zero and from below `c`.
            for c in [1.1, 0.1, 3.0 * p(-40), 1e-300, 12_345.678] {
                assert_add_repeated(0.0, c, n);
                assert_add_repeated(c / 3.0, c, n);
            }
            // Subnormal increments, inside the subnormal range and across
            // into the normal one.
            for c in [tiny, tiny * 3.0, p(-1030) + tiny] {
                for x in [0.0, tiny, below(f64::MIN_POSITIVE), f64::MIN_POSITIVE, 1e-300] {
                    assert_add_repeated(x, c, n);
                }
            }
            // Overflow to infinity.
            assert_add_repeated(f64::MAX * 0.999, 1e300, n);
            // Negative, NaN and infinite inputs take the fallback loop.
            for (x, c) in [
                (-1e6, 3.5),
                (-p(60), 1.0),
                (1e6, -3.5),
                (-0.0, -2.0),
                (f64::NAN, 1.0),
                (1.0, f64::NAN),
                (f64::INFINITY, 1.0),
                (1.0, f64::INFINITY),
                (f64::INFINITY, f64::NEG_INFINITY),
                (f64::NEG_INFINITY, 1e308),
            ] {
                assert_add_repeated(x, c, n);
            }
        }
    }

    #[test]
    fn bandwidth_mb_per_s() {
        // 128 bytes/cycle at 8ns => 16 GB/s => 16000 MB/s.
        let c = Cost { cycles: 1e6, flops: 0, cray_flops: 0.0, bytes: 128_000_000 };
        assert!((c.mb_per_s(8.0) - 16_000.0).abs() < 1e-6);
        assert!((c.bytes_per_cycle() - 128.0).abs() < 1e-12);
    }
}
