//! Seeded request schedules for the open-loop users.
//!
//! Independent users arrive as a Poisson process: exponential gaps at the
//! offered rate. The schedule is a pure function of the seed, so a run can
//! be repeated exactly, and every request is timed from its slot in the
//! schedule — not from when the generator got round to sending it — so a
//! stall is charged to every request it delays.

use std::time::Duration;

use ncar_suite::SmallRng;

/// Send offsets, in nanoseconds from the start of the phase, of a Poisson
/// arrival process at `rate_per_s` over `span`. Strictly non-decreasing.
pub fn poisson(seed: u64, rate_per_s: f64, span: Duration) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "a schedule needs a positive rate");
    let mut rng = SmallRng::seed_from_u64(seed);
    let end = span.as_nanos() as f64;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * span.as_secs_f64() * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Derive an independent stream seed for one purpose from the run seed.
pub fn stream_seed(seed: u64, purpose: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}
