//! Machine model presets for every system the paper measures.
//!
//! The SX-4 numbers come straight from the architecture section of the
//! paper (section 2): 8-pipe add/multiply sets, 256-element vector
//! registers (eight VPP chips times 32 elements), a 16 GB/s per-processor
//! memory port, up to 1024 SSRAM banks with a two-clock bank busy time,
//! 512 GB/s sustainable node bandwidth on a 32-processor node, and
//! communications registers for synchronization. The benchmarked system had
//! a 9.2 ns clock; production systems shipped at 8.0 ns.
//!
//! The comparator machines (CRI Y-MP, CRI J90, Sun SPARC20, IBM
//! RS6000/590) are the four systems of the paper's Table 1. Their
//! parameters are public-record architecture figures; intrinsic-library
//! rates are set so each machine's RADABS and HINT behaviour falls in the
//! band Table 1 reports (see EXPERIMENTS.md for the calibration audit).

use std::sync::OnceLock;

use crate::model::{IntrinsicCosts, MachineModel, MemorySystem, ScalarUnit, VectorUnit};

/// NEC SX-4 single-node model with the given clock period in nanoseconds.
///
/// Use `sx4(9.2)` for the February-1996 benchmarked system and `sx4(8.0)`
/// for the production clock the paper's architecture section describes.
pub fn sx4(clock_ns: f64) -> MachineModel {
    MachineModel {
        name: format!("NEC SX-4/32 ({clock_ns:.1}ns)"),
        clock_ns,
        vector: Some(VectorUnit {
            reg_len: 256,
            pipes_add: 8,
            pipes_mul: 8,
            // Eight divide pipes, iterative algorithm: ~4 cycles/result/pipe.
            div_results_per_cycle: 2.0,
            // Effective per-instruction startup: the raw pipe fill is
            // several tens of cycles, but the SX issue unit overlaps the
            // fill of each vector instruction with the drain of the
            // previous *independent* one, leaving ~14 cycles exposed.
            startup_cycles: 14.0,
            chaining: true,
            // List-vector (gather/scatter) hardware sustains a fraction of
            // the unit-stride port; benefits from the 2-clock bank busy time
            // but cannot use the conflict-free stride paths.
            gather_elems_per_cycle: 2.5,
            scatter_elems_per_cycle: 2.5,
        }),
        scalar: ScalarUnit {
            issue_per_cycle: 2.0,
            flops_per_cycle: 1.0,
            dcache_bytes: 64 * 1024,
            line_bytes: 64,
            miss_penalty_cycles: 24.0,
            branch_penalty_cycles: 1.5,
        },
        memory: MemorySystem {
            // 16 GB/s per processor at the 8.0 ns design point = 128 B/clock.
            port_bytes_per_cycle: 128.0,
            banks: 1024,
            bank_busy_cycles: 2.0,
            word_bytes: 8,
            nonunit_stride_factor: 0.55,
        },
        intrinsics: IntrinsicCosts {
            // Vectorized libm built on the 16-result/cycle pipe ensemble;
            // order: EXP, LOG, PWR, SIN, SQRT. Calibrated so RADABS lands
            // near the paper's 865.9 Cray-equivalent Mflops at 9.2 ns.
            vector_cycles_per_elem: [2.4, 2.6, 5.0, 2.8, 1.6],
            scalar_cycles_per_call: [60.0, 68.0, 128.0, 72.0, 32.0],
        },
        procs: 32,
        // 512 GB/s sustainable node bandwidth at 8.0 ns = 4096 B/clock.
        node_bytes_per_cycle: 4096.0,
        barrier_cycles: 200.0,
    }
}

/// The exact system benchmarked in February 1996 (Table 2): 9.2 ns clock,
/// 32 processors, 8 GB main memory, 4 GB XMU.
pub fn sx4_benchmarked() -> MachineModel {
    sx4(9.2)
}

/// Production SX-4 with the 8.0 ns clock.
pub fn sx4_production() -> MachineModel {
    sx4(8.0)
}

/// CRI Y-MP single processor: 6 ns clock, 64-element vector registers, one
/// add and one multiply pipe, strong SRAM memory. This machine *defines*
/// the Cray-equivalent Mflops metric.
pub fn cray_ymp() -> MachineModel {
    MachineModel {
        name: "CRI Y-MP".to_string(),
        clock_ns: 6.0,
        vector: Some(VectorUnit {
            reg_len: 64,
            pipes_add: 1,
            pipes_mul: 1,
            div_results_per_cycle: 0.25,
            startup_cycles: 15.0,
            chaining: true,
            gather_elems_per_cycle: 0.5,
            scatter_elems_per_cycle: 0.5,
        }),
        scalar: ScalarUnit {
            // CRI scalar units issue well below one instruction per clock
            // on integer/pointer code and have *no* data cache — every
            // scalar load goes to (fast SRAM) memory. This is what HINT
            // punishes (Table 1).
            issue_per_cycle: 0.5,
            flops_per_cycle: 0.5,
            dcache_bytes: 0,
            line_bytes: 8,
            miss_penalty_cycles: 15.0,
            branch_penalty_cycles: 4.0,
        },
        memory: MemorySystem {
            // Two load ports + one store port, one word/clock each.
            port_bytes_per_cycle: 24.0,
            banks: 256,
            bank_busy_cycles: 5.0,
            word_bytes: 8,
            nonunit_stride_factor: 0.6,
        },
        intrinsics: IntrinsicCosts {
            // Vector libm at ~60% pipe utilization of the Cray-equivalent
            // operation counts (2 flops/cycle peak) — calibrated so RADABS
            // lands near the 178.1 Mflops Table 1 reports for the Y-MP.
            vector_cycles_per_elem: [19.0, 20.0, 38.0, 21.0, 11.0],
            scalar_cycles_per_call: [90.0, 100.0, 190.0, 105.0, 55.0],
        },
        procs: 8,
        node_bytes_per_cycle: 8.0 * 24.0,
        barrier_cycles: 400.0,
    }
}

/// CRI J90 single processor: 10 ns CMOS Y-MP derivative with DRAM memory.
pub fn cri_j90() -> MachineModel {
    MachineModel {
        name: "CRI J90".to_string(),
        clock_ns: 10.0,
        vector: Some(VectorUnit {
            reg_len: 64,
            pipes_add: 1,
            pipes_mul: 1,
            div_results_per_cycle: 0.2,
            startup_cycles: 12.0,
            chaining: true,
            gather_elems_per_cycle: 0.35,
            scatter_elems_per_cycle: 0.35,
        }),
        scalar: ScalarUnit {
            // Like the Y-MP's scalar unit but behind DRAM memory.
            issue_per_cycle: 0.5,
            flops_per_cycle: 0.3,
            dcache_bytes: 0,
            line_bytes: 8,
            miss_penalty_cycles: 25.0,
            branch_penalty_cycles: 5.0,
        },
        memory: MemorySystem {
            // One load + one store port into DRAM banks with a long busy time.
            port_bytes_per_cycle: 16.0,
            banks: 256,
            bank_busy_cycles: 12.0,
            word_bytes: 8,
            nonunit_stride_factor: 0.5,
        },
        intrinsics: IntrinsicCosts {
            // Calibrated against Table 1's 60.8 Mflops RADABS figure.
            vector_cycles_per_elem: [37.0, 40.0, 77.0, 43.0, 22.0],
            scalar_cycles_per_call: [130.0, 145.0, 270.0, 150.0, 80.0],
        },
        procs: 32,
        node_bytes_per_cycle: 16.0 * 16.0,
        barrier_cycles: 500.0,
    }
}

/// Sun SPARCstation 20 (SuperSPARC, 60 MHz): a cache workstation with a
/// respectable superscalar front end and a thin memory system.
pub fn sparc20() -> MachineModel {
    MachineModel {
        name: "SUN SPARC20".to_string(),
        clock_ns: 16.67,
        vector: None,
        scalar: ScalarUnit {
            issue_per_cycle: 3.0,
            flops_per_cycle: 1.0,
            dcache_bytes: 16 * 1024,
            line_bytes: 32,
            miss_penalty_cycles: 20.0,
            branch_penalty_cycles: 1.2,
        },
        memory: MemorySystem {
            // MBus-class memory: ~80 MB/s at 60 MHz.
            port_bytes_per_cycle: 1.4,
            banks: 1,
            bank_busy_cycles: 1.0,
            word_bytes: 8,
            nonunit_stride_factor: 1.0,
        },
        intrinsics: IntrinsicCosts {
            vector_cycles_per_elem: [0.0; 5], // no vector unit
            // Calibrated against Table 1's 12.8 Mflops RADABS figure.
            scalar_cycles_per_call: [75.0, 80.0, 155.0, 85.0, 40.0],
        },
        procs: 1,
        node_bytes_per_cycle: 1.4,
        barrier_cycles: 1000.0,
    }
}

/// IBM RS6000/590 (POWER2, 66.5 MHz): two FMA units (4 flops/clock peak),
/// a large data cache and a wide memory bus — the strongest scalar machine
/// of Table 1.
pub fn rs6000_590() -> MachineModel {
    MachineModel {
        name: "IBM RS6K 590".to_string(),
        clock_ns: 15.04,
        vector: None,
        scalar: ScalarUnit {
            issue_per_cycle: 4.0,
            flops_per_cycle: 4.0,
            dcache_bytes: 256 * 1024,
            line_bytes: 256,
            miss_penalty_cycles: 16.0,
            branch_penalty_cycles: 1.0,
        },
        memory: MemorySystem {
            // 256-bit memory bus.
            port_bytes_per_cycle: 16.0,
            banks: 4,
            bank_busy_cycles: 1.0,
            word_bytes: 8,
            nonunit_stride_factor: 1.0,
        },
        intrinsics: IntrinsicCosts {
            vector_cycles_per_elem: [0.0; 5],
            // Calibrated against Table 1's 16.5 Mflops RADABS figure.
            scalar_cycles_per_call: [95.0, 105.0, 205.0, 110.0, 58.0],
        },
        procs: 1,
        node_bytes_per_cycle: 16.0,
        barrier_cycles: 1000.0,
    }
}

/// The four comparison machines of the paper's Table 1, in table order.
pub fn table1_machines() -> Vec<MachineModel> {
    vec![sparc20(), rs6000_590(), cri_j90(), cray_ymp()]
}

/// Canonical preset names accepted by [`by_name`], for listings and
/// error messages. [`all`] and [`index_of`] use the same order.
pub const PRESET_NAMES: [&str; 6] =
    ["sx4-9.2", "sx4-8.0", "cray-ymp", "cri-j90", "sparc20", "rs6000-590"];

/// Every accepted spelling (compared case-insensitively) and the index of
/// the preset it names in [`PRESET_NAMES`].
const ALIASES: [(&str, usize); 15] = [
    ("sx4", 0),
    ("sx4-9.2", 0),
    ("sx4-benchmarked", 0),
    ("sx4-8.0", 1),
    ("sx4-production", 1),
    ("ymp", 2),
    ("cray-ymp", 2),
    ("cri-ymp", 2),
    ("j90", 3),
    ("cri-j90", 3),
    ("sparc20", 4),
    ("sun-sparc20", 4),
    ("rs6000", 5),
    ("rs6000-590", 5),
    ("ibm-rs6k-590", 5),
];

/// Every preset, built once, in [`PRESET_NAMES`] order.
pub fn all() -> &'static [MachineModel; 6] {
    static ALL: OnceLock<[MachineModel; 6]> = OnceLock::new();
    ALL.get_or_init(|| {
        [sx4_benchmarked(), sx4_production(), cray_ymp(), cri_j90(), sparc20(), rs6000_590()]
    })
}

/// The position in [`PRESET_NAMES`] (and [`all`]) of the preset `name`
/// spells. Case-insensitive, common aliases accepted, no allocation.
pub fn index_of(name: &str) -> Option<usize> {
    ALIASES.iter().find(|(alias, _)| alias.eq_ignore_ascii_case(name)).map(|&(_, i)| i)
}

/// Resolve a machine preset from a textual name (CLI flags, wire
/// requests) to the shared model, without building or copying it.
/// Returns `None` for unknown names — serving layers must reject, not
/// panic.
pub fn lookup(name: &str) -> Option<&'static MachineModel> {
    index_of(name).map(|i| &all()[i])
}

/// [`lookup`], as an owned model the caller may modify.
pub fn by_name(name: &str) -> Option<MachineModel> {
    lookup(name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sx4_peak_matches_paper() {
        let m = sx4(8.0);
        // "a peak performance of 2 Gflops per processor ... 64 Gflops per node"
        assert!((m.peak_gflops_per_proc() - 2.0).abs() < 1e-9);
        assert!((m.peak_gflops_node() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn sx4_port_is_16_gb_per_s_at_design_clock() {
        let m = sx4(8.0);
        let gb_per_s = m.memory.port_bytes_per_cycle * m.clock_mhz() * 1e6 / 1e9;
        assert!((gb_per_s - 16.0).abs() < 1e-9);
    }

    #[test]
    fn benchmarked_clock_is_9_2ns() {
        assert_eq!(sx4_benchmarked().clock_ns, 9.2);
        assert_eq!(sx4_production().clock_ns, 8.0);
    }

    #[test]
    fn ymp_peak_near_333_mflops() {
        let m = cray_ymp();
        assert!((m.peak_gflops_per_proc() - 0.333).abs() < 0.01);
    }

    #[test]
    fn cache_machines_have_no_vector_unit() {
        assert!(!sparc20().is_vector());
        assert!(!rs6000_590().is_vector());
        assert!(sx4(8.0).is_vector());
        assert!(cray_ymp().is_vector());
        assert!(cri_j90().is_vector());
    }

    #[test]
    fn table1_order_matches_paper_columns() {
        let names: Vec<String> = table1_machines().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["SUN SPARC20", "IBM RS6K 590", "CRI J90", "CRI Y-MP"]);
    }

    #[test]
    fn sx4_faster_clock_is_faster_machine() {
        let a = sx4(8.0);
        let b = sx4(9.2);
        assert!(a.peak_gflops_per_proc() > b.peak_gflops_per_proc());
    }

    #[test]
    fn by_name_resolves_every_canonical_preset() {
        for name in PRESET_NAMES {
            assert!(by_name(name).is_some(), "unresolvable preset {name}");
        }
        assert_eq!(by_name("SX4").unwrap().clock_ns, 9.2);
        assert_eq!(by_name("sx4-8.0").unwrap().clock_ns, 8.0);
        assert!(by_name("cray-2").is_none());
    }

    #[test]
    fn lookup_shares_one_model_per_preset_in_name_order() {
        for (i, name) in PRESET_NAMES.into_iter().enumerate() {
            assert_eq!(index_of(name), Some(i));
            assert!(std::ptr::eq(lookup(name).unwrap(), &all()[i]));
        }
        assert!(std::ptr::eq(lookup("SX4-Benchmarked").unwrap(), lookup("sx4-9.2").unwrap()));
        assert_eq!(lookup("IBM-RS6K-590").unwrap().name, rs6000_590().name);
        assert_eq!(all()[1].canonical_bytes(), sx4_production().canonical_bytes());
        assert!(lookup("sx4 ").is_none() && lookup("").is_none());
    }

    #[test]
    fn canonical_bytes_identify_models() {
        // Same preset → same bytes; different clock or machine → different.
        assert_eq!(sx4(9.2).canonical_bytes(), sx4_benchmarked().canonical_bytes());
        assert_ne!(sx4(9.2).canonical_bytes(), sx4(8.0).canonical_bytes());
        assert_ne!(cray_ymp().canonical_bytes(), cri_j90().canonical_bytes());
        // Scalar machines (no vector unit) encode distinctly too.
        assert_ne!(sparc20().canonical_bytes(), rs6000_590().canonical_bytes());
        // A single parameter tweak must change the encoding.
        let mut m = sx4_benchmarked();
        m.memory.banks = 512;
        assert_ne!(m.canonical_bytes(), sx4_benchmarked().canonical_bytes());
    }
}
