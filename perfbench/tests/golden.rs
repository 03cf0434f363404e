//! The golden checks accept the exact ledger and reject a one-bit change.

use perfbench::golden::{check, BENCH7_CLIMATE, BENCH7_FIG5, BENCH7_FIG6, CLIMATE_PASS};

#[test]
fn exact_ledgers_pass() {
    for g in [BENCH7_FIG5, BENCH7_FIG6, BENCH7_CLIMATE, CLIMATE_PASS] {
        assert_eq!(check(&g, g.sim_seconds, g.ops), Ok(()));
    }
}

#[test]
fn one_bit_or_one_op_fails() {
    for g in [BENCH7_FIG5, BENCH7_FIG6, BENCH7_CLIMATE, CLIMATE_PASS] {
        let flipped = f64::from_bits(g.sim_seconds.to_bits() ^ 1);
        assert!(check(&g, flipped, g.ops).is_err(), "{}: one-ulp drift accepted", g.what);
        assert!(check(&g, g.sim_seconds, g.ops + 1).is_err(), "{}: extra op accepted", g.what);
    }
}

#[test]
fn bench7_values_match_the_committed_file() {
    // The constants are BENCH_7.json's figures, read back as f64.
    assert_eq!(BENCH7_FIG5.sim_seconds, "1.1417271250692953".parse::<f64>().unwrap());
    assert_eq!(BENCH7_FIG6.sim_seconds, "0.10255763250064777".parse::<f64>().unwrap());
    assert_eq!(BENCH7_CLIMATE.sim_seconds, "0.16603804154008642".parse::<f64>().unwrap());
}

#[test]
fn simulator_reproduces_the_golden_ledgers() {
    use perfbench::sim;
    // Set-up replays the recorded step twice and checks BENCH_7's climate
    // ledger itself.
    let mut setup = sim::setup().expect("set-up reproduces BENCH_7's two-step replay");
    let fig5 = setup.fig5(None, &mut Vec::new());
    assert_eq!(check(&BENCH7_FIG5, fig5.sim_seconds, fig5.ops), Ok(()));
    let fig6 = setup.fig6(None, &mut Vec::new());
    assert_eq!(check(&BENCH7_FIG6, fig6.sim_seconds, fig6.ops), Ok(()));
    let mut lat = Vec::new();
    let pass = setup.replay(sim::REPLAY_STEPS, None, &mut lat);
    assert_eq!(check(&CLIMATE_PASS, pass.sim_seconds, pass.ops), Ok(()));
    assert_eq!(lat.len(), sim::REPLAY_STEPS);
}
