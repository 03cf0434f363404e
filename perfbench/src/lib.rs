//! The repository's benchmark: three workloads that stress different
//! layers of the reproduction, timed and checked from outside.
//!
//! - `sim_charge` — the simulator alone: the Figure 5/6 kernel ladders
//!   charged op by op, and a recorded CCM2 T42 step replayed;
//! - `serve_hot` — closed-loop cache hits through one `sxd` daemon's
//!   reactor fast path (Table 6's ensemble regime);
//! - `serve_mixed` — open-loop reads and writes through a 2-member
//!   `sxd::cluster` router with journaling members (PRODLOAD-like).
//!
//! The default mode measures one workload's end-to-end metrics with
//! tracing off. The traced mode (`--trace 1`) runs every workload with
//! spans recorded around the calls into each layer, probes each layer's
//! public functions on the workloads' own inputs, and reports the
//! per-layer metrics plus the tracing overhead. See `README.md` for the
//! metric definitions and which end-to-end metric each layer metric moves.

pub mod golden;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod serving;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;
