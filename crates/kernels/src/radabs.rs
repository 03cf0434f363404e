//! RADABS: the raw-performance kernel (§4.4).
//!
//! "RADABS is intended to measure the proposed system's floating point
//! performance on the single most time consuming subroutine in NCAR's
//! CCM2. It is a computationally expensive radiation physics routine ...
//! Much of the time in RADABS is spent in intrinsic function calls (EXP,
//! LOG, PWR, SIN, and SQRT)."
//!
//! This port computes longwave absorptivities between every pair of the
//! `nlev` model levels with a Malkmus narrow-band model, Planck-weighted
//! and zenith-modulated, vectorized across a batch of columns — the
//! calculation is "embarrassingly parallel in the latitude and longitude
//! directions" and, as in the benchmark, every column holds identical
//! initial data. Performance is reported in Cray Y-MP equivalent Mflops.

use sxsim::{Access, Cost, Intrinsic, MachineModel, VecOp, Vm, VopClass};

/// Number of vertical levels in CCM2's production configuration.
pub const NLEV: usize = 18;

/// Deterministic standard-atmosphere-like column used to initialize every
/// column of the batch (level 0 = top of model).
pub fn standard_column(nlev: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut pressure = Vec::with_capacity(nlev); // hPa
    let mut temperature = Vec::with_capacity(nlev); // K
    let mut h2o_path = Vec::with_capacity(nlev); // kg/m^2 cumulative from top
    let mut cum = 0.0f64;
    for k in 0..nlev {
        let sigma = (k as f64 + 0.5) / nlev as f64;
        let p = 1000.0 * sigma.powf(1.2) + 2.0;
        let t = 216.0 + 72.0 * sigma.powf(1.5);
        // Water vapor concentrated near the surface.
        let q = 3.0e-3 * (-(1.0 - sigma) * 5.0).exp() + 3.0e-6;
        cum += q * p;
        pressure.push(p);
        temperature.push(t);
        h2o_path.push(cum);
    }
    (pressure, temperature, h2o_path)
}

/// Result of a RADABS run.
#[derive(Debug, Clone)]
pub struct RadabsResult {
    /// Simulation cost ledger.
    pub cost: Cost,
    /// Cray-equivalent Mflops achieved on the run's machine.
    pub cray_mflops: f64,
    /// Absorptivity matrix of the first column, `nlev * nlev`, for
    /// correctness checks (abs[k1*nlev + k2]).
    pub absorptivity: Vec<f64>,
}

/// Band-model constants (representative mid-infrared H2O values).
const BAND_S: f64 = 8.5; // line strength
const BAND_BETA: f64 = 0.12; // line-width parameter
const STEFAN: f64 = 5.67e-8;

/// Run RADABS over a batch of `ncol` identical columns with `nlev` levels.
///
/// The machine is charged for every operation of the Fortran original's
/// column-vectorized loops: each one a length-`ncol` vector instruction or
/// intrinsic sweep, in program order. Since every column holds the same
/// data, every element of such a vector holds the same value, so each is
/// computed once, as the scalar the whole batch broadcasts.
pub fn radabs(vm: &mut Vm, ncol: usize, nlev: usize) -> RadabsResult {
    assert!(ncol > 0 && nlev >= 2);
    let (pressure, temperature, h2o_path) = standard_column(nlev);

    // The elementwise vector instructions, by input-stream count: one
    // input for a scalar operand held in a register, two for a pair of
    // vectors; one unit-stride result stream.
    let vop = |vm: &mut Vm, class: VopClass, inputs: usize| {
        let ins = [Access::Stride(1); 2];
        vm.charge_vector_op(&VecOp::new(ncol, class, &ins[..inputs], &[Access::Stride(1)]));
    };

    // Per-level precomputation: Planck emission B = sigma*T^4 via PWR,
    // log-pressure scaling, and a zenith modulation via SIN.
    let mut planck = vec![0.0f64; nlev];
    let mut logp = vec![0.0f64; nlev];
    let mut zen = vec![0.0f64; nlev];
    for k in 0..nlev {
        let t4 = temperature[k].powf(4.0);
        vm.charge_intrinsic(Intrinsic::Pow, ncol); // PWR
        planck[k] = STEFAN * t4;
        vop(vm, VopClass::Mul, 1);
        logp[k] = pressure[k].ln();
        vm.charge_intrinsic(Intrinsic::Log, ncol); // LOG
        zen[k] = (0.3 + 0.05 * k as f64).sin();
        vm.charge_intrinsic(Intrinsic::Sin, ncol); // SIN
    }

    // Pairwise absorptivity: Malkmus band model on the path between levels.
    let c1 = 4.0 * BAND_S / (std::f64::consts::PI * BAND_BETA);
    let c2 = 0.5 * std::f64::consts::PI * BAND_BETA;
    let mut absorptivity = vec![0.0f64; nlev * nlev];
    for k1 in 0..nlev {
        for k2 in (k1 + 1)..nlev {
            // Absorber path between the levels, pressure-scaled.
            let u = h2o_path[k2] - h2o_path[k1];
            vop(vm, VopClass::Add, 2);
            let scale = 1.0 + 0.08 * (logp[k2] - logp[k1]).abs();
            let x = c1 * scale * u;
            vop(vm, VopClass::Mul, 1);
            let x = x + 1.0;
            vop(vm, VopClass::Add, 1);
            let root = x.sqrt();
            vm.charge_intrinsic(Intrinsic::Sqrt, ncol); // SQRT
            let a = root - 1.0;
            vop(vm, VopClass::Add, 2);
            let a = a * c2;
            vop(vm, VopClass::Mul, 1);
            let negs = -a;
            vop(vm, VopClass::Mul, 1);
            let tau = negs.exp();
            vm.charge_intrinsic(Intrinsic::Exp, ncol); // EXP

            // Absorptivity = (1 - transmission), Planck- and zenith-weighted.
            let contrib = 1.0 - tau;
            vop(vm, VopClass::Add, 2);
            let contrib = contrib * zen[k2];
            vop(vm, VopClass::Mul, 2);
            let w = planck[k2] / (planck[nlev - 1] + 1e-30);
            let val = contrib * w;
            vop(vm, VopClass::Mul, 1);
            absorptivity[k1 * nlev + k2] = val;
            absorptivity[k2 * nlev + k1] = val;
        }
    }

    let cost = vm.cost();
    let cray_mflops = cost.cray_mflops(vm.model().clock_ns);
    RadabsResult { cost, cray_mflops, absorptivity }
}

/// Column count of the benchmark configuration: the full T42 horizontal
/// grid (64 latitudes x 128 longitudes), every column identical — "for the
/// purposes of the benchmark, the initial data is identical in each
/// vertical column."
pub const BENCH_NCOL: usize = 64 * 128;

/// Run RADABS on a fresh processor of `model` over a batch of `ncol`
/// columns and return the achieved Cray-equivalent Mflops.
pub fn radabs_mflops(model: &MachineModel, ncol: usize, reps: usize) -> f64 {
    let mut vm = Vm::new(model.clone());
    let mut last = None;
    for _ in 0..reps.max(1) {
        last = Some(radabs(&mut vm, ncol, NLEV));
    }
    last.expect("at least one rep").cray_mflops
}

/// The paper's configuration: full grid batch on one processor.
pub fn radabs_benchmark(model: &MachineModel) -> f64 {
    radabs_mflops(model, BENCH_NCOL, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn run(ncol: usize) -> RadabsResult {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        radabs(&mut vm, ncol, NLEV)
    }

    /// RADABS with every column computed: each operation a full-length
    /// call of the `Vm`'s elementwise helpers. The broadcast-scalar port
    /// must charge and compute exactly what it does.
    fn vectorized_radabs(vm: &mut Vm, ncol: usize, nlev: usize) -> RadabsResult {
        assert!(ncol > 0 && nlev >= 2);
        let (pressure, temperature, h2o_path) = standard_column(nlev);

        // Broadcast the column state across the batch.
        let bcast = |v: f64| vec![v; ncol];

        // Per-level precomputation: Planck emission B = sigma*T^4 via PWR,
        // log-pressure scaling, and a zenith modulation via SIN.
        let mut planck = vec![vec![0.0f64; ncol]; nlev];
        let mut logp = vec![vec![0.0f64; ncol]; nlev];
        let mut zen = vec![vec![0.0f64; ncol]; nlev];
        let four = bcast(4.0);
        for k in 0..nlev {
            let t = bcast(temperature[k]);
            let mut t4 = vec![0.0; ncol];
            vm.pow(&mut t4, &t, &four); // PWR
            vm.scale(&mut planck[k], STEFAN, &t4);
            let p = bcast(pressure[k]);
            vm.log(&mut logp[k], &p); // LOG
            let ang = bcast(0.3 + 0.05 * k as f64);
            vm.sin(&mut zen[k], &ang); // SIN
        }

        // Pairwise absorptivity: Malkmus band model on the path between levels.
        let c1 = 4.0 * BAND_S / (std::f64::consts::PI * BAND_BETA);
        let c2 = 0.5 * std::f64::consts::PI * BAND_BETA;
        let mut absorptivity = vec![0.0f64; nlev * nlev];
        let mut u = vec![0.0f64; ncol];
        let mut x = vec![0.0f64; ncol];
        let mut root = vec![0.0f64; ncol];
        let mut a = vec![0.0f64; ncol];
        let mut negs = vec![0.0f64; ncol];
        let mut tau = vec![0.0f64; ncol];
        let mut contrib = vec![0.0f64; ncol];
        let ones = bcast(1.0);
        for k1 in 0..nlev {
            let pu1 = bcast(h2o_path[k1]);
            for k2 in (k1 + 1)..nlev {
                let pu2 = bcast(h2o_path[k2]);
                // Absorber path between the levels, pressure-scaled.
                vm.sub(&mut u, &pu2, &pu1);
                let scale = 1.0 + 0.08 * (logp[k2][0] - logp[k1][0]).abs();
                vm.scale(&mut x, c1 * scale, &u);
                vm.add_scalar_in_place(&mut x, 1.0);
                vm.sqrt(&mut root, &x); // SQRT
                vm.sub(&mut a, &root, &ones);
                vm.scale_in_place(&mut a, c2);
                vm.scale(&mut negs, -1.0, &a);
                vm.exp(&mut tau, &negs); // EXP
                                         // Absorptivity = (1 - transmission), Planck- and zenith-weighted.
                vm.sub(&mut contrib, &ones, &tau);
                vm.mul_in_place(&mut contrib, &zen[k2]);
                let w = planck[k2][0] / (planck[nlev - 1][0] + 1e-30);
                vm.scale_in_place(&mut contrib, w);
                let val = contrib[0];
                absorptivity[k1 * nlev + k2] = val;
                absorptivity[k2 * nlev + k1] = val;
            }
        }

        let cost = vm.cost();
        let cray_mflops = cost.cray_mflops(vm.model().clock_ns);
        RadabsResult { cost, cray_mflops, absorptivity }
    }

    #[test]
    fn broadcast_scalars_match_the_vectorized_batch_bit_for_bit() {
        for model in [presets::sx4_benchmarked(), presets::cray_ymp(), presets::sparc20()] {
            for (ncol, nlev) in [(1usize, 2usize), (37, NLEV), (512, NLEV), (300, 7)] {
                let mut a = Vm::new(model.clone());
                let mut b = Vm::new(model.clone());
                // Twice on one Vm, as the CCM2 physics calls it.
                for _ in 0..2 {
                    let got = radabs(&mut a, ncol, nlev);
                    let want = vectorized_radabs(&mut b, ncol, nlev);
                    assert_eq!(got.cost, want.cost, "{} ncol={ncol}", model.name);
                    assert_eq!(got.cray_mflops.to_bits(), want.cray_mflops.to_bits());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.absorptivity), bits(&want.absorptivity));
                }
                assert_eq!(a.stats(), b.stats(), "{} ncol={ncol}", model.name);
            }
        }
    }

    #[test]
    fn absorptivity_in_physical_range() {
        let r = run(32);
        for (i, &a) in r.absorptivity.iter().enumerate() {
            assert!((0.0..1.0).contains(&a), "abs[{i}] = {a} out of [0,1)");
        }
    }

    #[test]
    fn diagonal_is_zero_and_matrix_symmetric() {
        let r = run(16);
        for k in 0..NLEV {
            assert_eq!(r.absorptivity[k * NLEV + k], 0.0);
            for j in 0..NLEV {
                assert_eq!(r.absorptivity[k * NLEV + j], r.absorptivity[j * NLEV + k]);
            }
        }
    }

    #[test]
    fn absorptivity_grows_with_path_from_top() {
        // Fixing the upper level at the model top, deeper lower levels see
        // more absorber (within the same zenith/planck weights the trend
        // holds for the top row).
        let r = run(16);
        let top_row: Vec<f64> = (1..NLEV).map(|k2| r.absorptivity[k2]).collect();
        assert!(top_row.windows(2).filter(|w| w[1] >= w[0]).count() >= top_row.len() / 2);
        assert!(top_row.last().unwrap() > top_row.first().unwrap());
    }

    #[test]
    fn intrinsics_dominate_cray_flops() {
        // The paper: "Much of the time in RADABS is spent in intrinsic
        // function calls." Cray-equivalent flops should far exceed raw ops.
        let r = run(64);
        assert!(r.cost.cray_flops > 1.5 * r.cost.flops as f64);
    }

    #[test]
    fn vector_machines_crush_cache_machines() {
        // Table 1 ordering: Y-MP >> J90 >> RS6K ~ SPARC20.
        let ymp = radabs_benchmark(&presets::cray_ymp());
        let j90 = radabs_benchmark(&presets::cri_j90());
        let rs6k = radabs_benchmark(&presets::rs6000_590());
        let sparc = radabs_benchmark(&presets::sparc20());
        assert!(ymp > 2.0 * j90, "ymp {ymp} vs j90 {j90}");
        assert!(j90 > 1.5 * rs6k, "j90 {j90} vs rs6k {rs6k}");
        assert!(ymp > 8.0 * sparc, "ymp {ymp} vs sparc {sparc}");
    }

    #[test]
    fn sx4_is_fastest_machine() {
        let sx4 = radabs_benchmark(&presets::sx4_benchmarked());
        let ymp = radabs_benchmark(&presets::cray_ymp());
        assert!(sx4 > 3.0 * ymp, "sx4 {sx4} vs ymp {ymp}");
    }

    #[test]
    fn sx4_lands_near_paper_headline() {
        // §4.4: 865.9 Cray Y-MP equivalent Mflops on the 9.2 ns SX-4/1.
        let sx4 = radabs_benchmark(&presets::sx4_benchmarked());
        assert!(
            (600.0..1200.0).contains(&sx4),
            "SX-4 RADABS {sx4} Mflops outside the calibration band around 865.9"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(32);
        let b = run(32);
        assert_eq!(a.absorptivity, b.absorptivity);
        assert_eq!(a.cost.cycles, b.cost.cycles);
    }

    #[test]
    fn standard_column_monotone() {
        let (p, t, u) = standard_column(NLEV);
        assert!(p.windows(2).all(|w| w[1] > w[0]), "pressure increases downward");
        assert!(t.windows(2).all(|w| w[1] >= w[0]), "temperature increases downward");
        assert!(u.windows(2).all(|w| w[1] > w[0]), "path accumulates");
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use sxsim::presets;

    /// Not a test: prints the calibration table. Run with
    /// `cargo test -p ncar-kernels --release -- --ignored --nocapture calibration`.
    #[test]
    #[ignore = "calibration printout, not an assertion"]
    fn print_radabs_calibration() {
        for m in [
            presets::sx4_benchmarked(),
            presets::cray_ymp(),
            presets::cri_j90(),
            presets::sparc20(),
            presets::rs6000_590(),
        ] {
            println!("{:<22} {:>8.1} Cray-equivalent Mflops", m.name.clone(), radabs_benchmark(&m));
        }
    }
}
