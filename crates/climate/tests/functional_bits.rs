//! Pins the functional CCM2 step bit for bit.
//!
//! A T42 model on 4 processors takes three steps and records a fourth.
//! The test compares the simulated step times, a digest of every
//! prognostic field, the lifetime op statistics and the recorded
//! program's size against constants. Any change to the transforms, the
//! physics or the charge stream that moves a single bit fails here, in
//! debug and in release builds alike.

use ccm_proxy::model::LevSpec;
use ccm_proxy::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_suite::Fnv64;
use sxsim::presets;

fn spec_digest(field: &LevSpec) -> u64 {
    let mut h = Fnv64::new();
    for lev in field {
        for c in lev {
            h.write(&c.re.to_bits().to_le_bytes());
            h.write(&c.im.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

fn grid_digest(field: &[Vec<f64>]) -> u64 {
    let mut h = Fnv64::new();
    for lev in field {
        for v in lev {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn t42_four_processor_steps_are_bit_identical_to_the_pins() {
    let mut model =
        Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
    let mut seconds = Vec::new();
    for _ in 0..3 {
        seconds.push(model.step(4).seconds.to_bits());
    }
    let (recorded, program) = model.record_step_program(4);
    seconds.push(recorded.seconds.to_bits());

    let state = model.state();
    let digests = [
        ("phi", spec_digest(state.phi)),
        ("phi_prev", spec_digest(state.phi_prev)),
        ("delta", spec_digest(state.delta)),
        ("delta_prev", spec_digest(state.delta_prev)),
        ("zeta", spec_digest(state.zeta)),
        ("zeta_prev", spec_digest(state.zeta_prev)),
        ("q", grid_digest(state.q)),
    ];
    let s = model.op_stats();
    let stats = [
        ("vector_ops", s.vector_ops),
        ("vector_elements", s.vector_elements),
        ("vector_cycles", s.vector_cycles.to_bits()),
        ("scalar_cycles", s.scalar_cycles.to_bits()),
        ("scalar_iters", s.scalar_iters),
        ("intrinsic_calls", s.intrinsic_calls),
        ("indexed_elements", s.indexed_elements),
        ("other_cycles", s.other_cycles.to_bits()),
        ("memo_hits", s.memo_hits),
        ("memo_misses", s.memo_misses),
        ("program_records", s.program_records),
        ("program_replays", s.program_replays),
    ];
    let sizes =
        [("total_charges", program.total_charges()), ("instructions", program.instructions())];

    let printout =
        format!("seconds {seconds:#x?}\ndigests {digests:#x?}\nstats {stats:#x?}\nsizes {sizes:?}");
    assert_eq!(seconds, SECONDS, "{printout}");
    assert_eq!(digests, DIGESTS, "{printout}");
    assert_eq!(stats, STATS, "{printout}");
    assert_eq!(sizes, SIZES, "{printout}");
}

const SECONDS: [u64; 4] = [0x3fb5_40bc_0b27_3d61; 4];

const DIGESTS: [(&str, u64); 7] = [
    ("phi", 0xda44_c8c2_0c44_02a1),
    ("phi_prev", 0x6b30_7682_72a6_80f1),
    ("delta", 0x1775_0445_e5ed_7354),
    ("delta_prev", 0x7fd9_cd5e_eb45_0eab),
    ("zeta", 0x468b_5d09_04da_39cd),
    ("zeta_prev", 0x7357_d375_4ec5_d6e5),
    ("q", 0x8b94_aa09_7485_ec04),
];

const STATS: [(&str, u64); 12] = [
    ("vector_ops", 0x23_e7bc),
    ("vector_elements", 0x1668_c0b0),
    ("vector_cycles", 0x41a1_2991_1a66_6663),
    ("scalar_cycles", 0x0),
    ("scalar_iters", 0x0),
    ("intrinsic_calls", 0x169_0000),
    ("indexed_elements", 0x48_0000),
    ("other_cycles", 0x0),
    ("memo_hits", 0x23_b9d0),
    ("memo_misses", 0xcc),
    ("program_records", 0x8),
    ("program_replays", 0x0),
];

const SIZES: [(&str, usize); 2] = [("total_charges", 588_268), ("instructions", 23_784)];
