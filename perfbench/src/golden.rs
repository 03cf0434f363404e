//! Golden ledgers for `sim_charge`.
//!
//! The simulator's outputs are the reproduction's results, so a faster
//! simulator must charge exactly the same simulated seconds and vector
//! ops. These values were taken from the code the benchmark was written
//! against. The three `BENCH7_*` values are the `sim_seconds` and
//! `ops_charged` that `BENCH_7.json` records for its `fig5_ladder`,
//! `fig6_rfft` and `climate_t42` workloads at the same sizes, bit for bit.
//! Every comparison is on the f64 bit pattern: a one-ulp drift fails.

/// One expected ledger: simulated seconds (compared bitwise) and the
/// vector ops charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Golden {
    pub what: &'static str,
    pub sim_seconds: f64,
    pub ops: u64,
}

/// The Figure 5 COPY/IA/XPOSE ladders at volume 1e6 (XPOSE up to n=1000).
pub const BENCH7_FIG5: Golden =
    Golden { what: "fig5 ladder", sim_seconds: 1.1417271250692953, ops: 6_998_510 };

/// The Figure 6 RFFT families at volume 1e6, charged 20 times over.
pub const BENCH7_FIG6: Golden =
    Golden { what: "fig6 rfft x20", sim_seconds: 0.10255763250064777, ops: 753_680 };

/// Two replays of the CCM2 T42 benchmark step on 4 processors.
pub const BENCH7_CLIMATE: Golden =
    Golden { what: "ccm2 t42 x2 replay", sim_seconds: 0.16603804154008642, ops: 1_176_542 };

/// [`crate::sim::REPLAY_STEPS`] replays of the same step, summed in
/// order: one pass's application half.
pub const CLIMATE_PASS: Golden =
    Golden { what: "ccm2 t42 pass replay", sim_seconds: 0.9132092284704753, ops: 6_470_981 };

/// Compare a measured ledger with its golden value, bit for bit.
pub fn check(golden: &Golden, sim_seconds: f64, ops: u64) -> Result<(), String> {
    if sim_seconds.to_bits() != golden.sim_seconds.to_bits() {
        return Err(format!(
            "{}: sim_seconds {sim_seconds:?} (bits {:#018x}) != golden {:?} (bits {:#018x})",
            golden.what,
            sim_seconds.to_bits(),
            golden.sim_seconds,
            golden.sim_seconds.to_bits()
        ));
    }
    if ops != golden.ops {
        return Err(format!("{}: ops_charged {ops} != golden {}", golden.what, golden.ops));
    }
    Ok(())
}
