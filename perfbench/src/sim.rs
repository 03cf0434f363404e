//! `sim_charge`: the simulator alone, at the two levels the paper judges.
//!
//! One pass has a kernel half and an application half of about equal host
//! time:
//!
//! - the kernel half charges the Figure 5 COPY/IA/XPOSE ladders through
//!   `Vm::charge_vector_op_repeated` and the Figure 6 RFFT families
//!   through `kernels::fft::charge_transform`, op by op — heavy on timing
//!   resolution and memo misses;
//! - the application half replays a CCM2 T42 step, recorded once in
//!   set-up, through `Ccm2Proxy::replay_step` — heavy on the ledger and
//!   memo hits.
//!
//! A change that trades one path against the other shows in the pass's
//! throughput. Every half's ledger is checked bit for bit against
//! [`crate::golden`].

use std::ops::Range;
use std::time::{Duration, Instant};

use ccm_proxy::model::StepProgram;
use ccm_proxy::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_kernels::fft::{charge_transform, LoopOrder};
use ncar_suite::{
    constant_volume_ladder, rfft_instances, xpose_ladder, FftFamily, Instance, SmallRng,
};
use sxsim::{presets, timing, Access, Intrinsic, MachineModel, ProgramOp, VecOp, Vm, VopClass};

use crate::golden::{self, Golden};
use crate::trace::{span, Tracer};

/// The benchmarked SX-4, as in `BENCH_7.json`; every workload runs on it.
pub const MACHINE: &str = "sx4-9.2";

pub fn machine() -> MachineModel {
    presets::by_name(MACHINE).expect("the benchmarked SX-4 preset exists")
}
/// Figure 5/6 problem volume (the paper's).
pub const VOLUME: usize = 1_000_000;
/// Largest XPOSE matrix order.
pub const XPOSE_MAX_N: usize = 1000;
/// Times the RFFT families are charged per pass.
pub const FFT_REPS: usize = 20;
/// CCM2 steps replayed per pass: sized so the application half takes about
/// as long as the kernel half.
pub const REPLAY_STEPS: usize = 11;
/// Simulated processors the recorded CCM2 step runs on.
pub const PROCS: usize = 4;

/// Everything a pass needs, built once.
pub struct SimSetup {
    machine: MachineModel,
    /// Per ladder instance, the `(op, reps)` charges of its kernels: COPY,
    /// IA gather and IA scatter (`m` ops of length `n`), or XPOSE (`m*n`
    /// stride-`n` column ops), as `BENCH_7.json`'s `fig5_ladder` charged.
    fig5: Vec<Vec<(VecOp, usize)>>,
    rfft: Vec<Vec<Instance>>,
    model: Ccm2Proxy,
    program: StepProgram,
    /// Host seconds `Ccm2Proxy::record_step_program` took.
    pub record_s: f64,
}

/// Ledger of one half: simulated seconds, vector ops, memo hits/misses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub sim_seconds: f64,
    pub ops: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

fn vm_ledger(vm: &Vm) -> Ledger {
    let s = vm.stats();
    Ledger {
        sim_seconds: vm.lifetime_cost().seconds(vm.model().clock_ns),
        ops: s.vector_ops,
        memo_hits: s.memo_hits,
        memo_misses: s.memo_misses,
    }
}

fn fig5_units() -> Vec<Vec<(VecOp, usize)>> {
    let logical = |n, load, store| VecOp::new(n, VopClass::Logical, &[load], &[store]);
    let mut units: Vec<Vec<(VecOp, usize)>> = constant_volume_ladder(VOLUME)
        .into_iter()
        .map(|inst| {
            vec![
                (logical(inst.n, Access::Stride(1), Access::Stride(1)), inst.m),
                (logical(inst.n, Access::Indexed, Access::Stride(1)), inst.m),
                (logical(inst.n, Access::Stride(1), Access::Indexed), inst.m),
            ]
        })
        .collect();
    units.extend(xpose_ladder(VOLUME, XPOSE_MAX_N).into_iter().map(|inst| {
        vec![(logical(inst.n, Access::Stride(1), Access::Stride(inst.n)), inst.m * inst.n)]
    }));
    units
}

/// Build the ladders and the CCM2 model, record the step program, and
/// check that two replays reproduce `BENCH_7.json`'s climate ledger.
pub fn setup() -> Result<SimSetup, String> {
    let machine = machine();
    let mut model = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), machine.clone());
    let t = Instant::now();
    let (_, program) = model.record_step_program(PROCS);
    let record_s = t.elapsed().as_secs_f64();
    let mut s = SimSetup {
        fig5: fig5_units(),
        rfft: FftFamily::ALL.iter().map(|&f| rfft_instances(f, VOLUME)).collect(),
        machine,
        model,
        program,
        record_s,
    };
    let two = s.replay(2, None, &mut Vec::new());
    golden::check(&golden::BENCH7_CLIMATE, two.sim_seconds, two.ops)?;
    Ok(s)
}

impl SimSetup {
    /// Charge calls one replay stands for.
    pub fn charges_per_replay(&self) -> u64 {
        self.program.total_charges() as u64
    }

    /// The Figure 5 ladders, charged op by op on a fresh `Vm`. Each ladder
    /// instance is one latency sample.
    pub fn fig5(&self, mut tr: Option<&mut Tracer>, lat: &mut Vec<u64>) -> Ledger {
        let mut vm = Vm::new(self.machine.clone());
        for unit in &self.fig5 {
            let t = Instant::now();
            for (op, reps) in unit {
                span(tr.as_deref_mut(), "sxsim.vm.charge_vector_op_repeated", 0, || {
                    vm.charge_vector_op_repeated(op, *reps)
                });
            }
            lat.push(t.elapsed().as_nanos() as u64);
        }
        vm_ledger(&vm)
    }

    /// The Figure 6 RFFT families, [`FFT_REPS`] times over, on a fresh
    /// `Vm`. Each family's sweep is one latency sample.
    pub fn fig6(&self, mut tr: Option<&mut Tracer>, lat: &mut Vec<u64>) -> Ledger {
        let mut vm = Vm::new(self.machine.clone());
        for _ in 0..FFT_REPS {
            for family in &self.rfft {
                let t = Instant::now();
                for inst in family {
                    span(tr.as_deref_mut(), "kernels.fft.charge_transform", 0, || {
                        charge_transform(&mut vm, inst.n, inst.m, LoopOrder::AxisFastest)
                    });
                }
                lat.push(t.elapsed().as_nanos() as u64);
            }
        }
        vm_ledger(&vm)
    }

    /// Replay the recorded step `steps` times, summing the simulated
    /// seconds in order. Each replay is one latency sample.
    pub fn replay(
        &mut self,
        steps: usize,
        mut tr: Option<&mut Tracer>,
        lat: &mut Vec<u64>,
    ) -> Ledger {
        let before = self.model.op_stats();
        let mut sim_seconds = 0.0;
        for _ in 0..steps {
            let t = Instant::now();
            let step = span(tr.as_deref_mut(), "climate.replay_step", 0, || {
                self.model.replay_step(&self.program)
            });
            lat.push(t.elapsed().as_nanos() as u64);
            sim_seconds += step.seconds;
        }
        let after = self.model.op_stats();
        Ledger {
            sim_seconds,
            ops: after.vector_ops - before.vector_ops,
            memo_hits: after.memo_hits - before.memo_hits,
            memo_misses: after.memo_misses - before.memo_misses,
        }
    }

    /// The distinct vector ops the kernel half charges, as a recorded
    /// charge program lists them.
    pub fn distinct_kernel_ops(&self) -> Vec<VecOp> {
        let mut vm = Vm::new(self.machine.clone());
        vm.start_program_record();
        for (op, _) in self.fig5.iter().flatten() {
            vm.charge_vector_op(op);
        }
        for family in &self.rfft {
            for inst in family {
                charge_transform(&mut vm, inst.n, inst.m, LoopOrder::AxisFastest);
            }
        }
        let program = vm.take_program().unwrap_or_default();
        let mut ops: Vec<VecOp> = Vec::new();
        for op in program.ops() {
            if let ProgramOp::Vector { op, .. } = op {
                if !ops.contains(op) {
                    ops.push(*op);
                }
            }
        }
        ops
    }

    /// Mean host nanoseconds of one `timing::vector_op` / `intrinsic_op`
    /// resolution over `ops` and every intrinsic, repeated `rounds` times.
    pub fn resolve_ns(&self, ops: &[VecOp], rounds: usize) -> f64 {
        let t = Instant::now();
        let mut calls = 0u64;
        let mut acc = 0.0;
        for _ in 0..rounds {
            for op in ops {
                acc += std::hint::black_box(timing::vector_op(
                    &self.machine,
                    std::hint::black_box(op),
                ))
                .cycles;
                calls += 1;
            }
            for f in Intrinsic::ALL {
                for n in [64, 256, 1024] {
                    acc += std::hint::black_box(timing::intrinsic_op(&self.machine, f, n)).cycles;
                    calls += 1;
                }
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64 / calls.max(1) as f64
    }
}

/// One pass: each half's host time and vector ops, and where its latency
/// samples sit in [`SimRun::kernel_lat`] / [`SimRun::replay_lat`].
#[derive(Debug, Clone)]
pub struct Pass {
    pub kernel_ns: u64,
    pub kernel_ops: u64,
    pub replay_ns: u64,
    pub replay_ops: u64,
    pub kernel_lat: Range<usize>,
    pub replay_lat: Range<usize>,
}

/// Vector ops per host second over `passes`, or over one half of them.
pub fn rate(passes: &[&Pass], ops: impl Fn(&Pass) -> (u64, u64)) -> f64 {
    let (n, ns) = passes.iter().map(|p| ops(p)).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    n as f64 / (ns as f64 / 1e9)
}

pub fn whole(p: &Pass) -> (u64, u64) {
    (p.kernel_ops + p.replay_ops, p.kernel_ns + p.replay_ns)
}

pub fn kernel_half(p: &Pass) -> (u64, u64) {
    (p.kernel_ops, p.kernel_ns)
}

pub fn replay_half(p: &Pass) -> (u64, u64) {
    (p.replay_ops, p.replay_ns)
}

/// What a `sim_charge` run measured.
#[derive(Debug, Default)]
pub struct SimRun {
    pub passes: Vec<Pass>,
    /// Golden ledgers checked (three per pass) and how many mismatched.
    pub checks: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Kernel-half samples (ladder instances, RFFT family sweeps) and
    /// application-half samples (step replays), in nanoseconds.
    pub kernel_lat: Vec<u64>,
    pub replay_lat: Vec<u64>,
    /// Summed over both halves of every pass.
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl SimRun {
    /// Latency samples of `passes`: kernel units, or step replays.
    pub fn samples(&self, passes: &[&Pass], replays: bool) -> Vec<u64> {
        passes
            .iter()
            .flat_map(|p| {
                if replays {
                    &self.replay_lat[p.replay_lat.clone()]
                } else {
                    &self.kernel_lat[p.kernel_lat.clone()]
                }
            })
            .copied()
            .collect()
    }

    fn check(&mut self, golden: &Golden, got: &Ledger) {
        self.checks += 1;
        if let Err(e) = golden::check(golden, got.sim_seconds, got.ops) {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Run passes for `span_for`. The seed only decides which half of each
/// pass goes first: the ladders and the step are the paper's, fixed, and
/// their ledgers must match the golden values bit for bit.
pub fn run(
    setup: &mut SimSetup,
    seed: u64,
    span_for: Duration,
    mut tr: Option<&mut Tracer>,
) -> SimRun {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = SimRun::default();
    // Room for the whole run up front (well above the fastest host's
    // rates): only the pages written become resident, so peak RSS grows
    // smoothly with the samples instead of jumping at each doubling.
    let secs = span_for.as_secs_f64().ceil() as usize;
    out.kernel_lat.reserve(secs * 10_000);
    out.replay_lat.reserve(secs * 1_500);
    let start = Instant::now();
    while start.elapsed() < span_for {
        let kernel_first = rng.next_u64() & 1 == 0;
        let (k0, r0) = (out.kernel_lat.len(), out.replay_lat.len());
        let (mut kernel_ns, mut replay_ns) = (0, 0);
        let mut ledgers = [Ledger::default(); 3];
        for half in 0..2 {
            let t = Instant::now();
            if (half == 0) == kernel_first {
                if let Some(t) = tr.as_deref_mut() {
                    t.enter("bench.sim.kernel_half", 0);
                }
                ledgers[0] = setup.fig5(tr.as_deref_mut(), &mut out.kernel_lat);
                ledgers[1] = setup.fig6(tr.as_deref_mut(), &mut out.kernel_lat);
                if let Some(t) = tr.as_deref_mut() {
                    t.exit();
                }
                kernel_ns = t.elapsed().as_nanos() as u64;
            } else {
                if let Some(t) = tr.as_deref_mut() {
                    t.enter("bench.sim.replay_half", 0);
                }
                ledgers[2] = setup.replay(REPLAY_STEPS, tr.as_deref_mut(), &mut out.replay_lat);
                if let Some(t) = tr.as_deref_mut() {
                    t.exit();
                }
                replay_ns = t.elapsed().as_nanos() as u64;
            }
        }
        out.check(&golden::BENCH7_FIG5, &ledgers[0]);
        out.check(&golden::BENCH7_FIG6, &ledgers[1]);
        out.check(&golden::CLIMATE_PASS, &ledgers[2]);
        out.memo_hits += ledgers.iter().map(|l| l.memo_hits).sum::<u64>();
        out.memo_misses += ledgers.iter().map(|l| l.memo_misses).sum::<u64>();
        out.passes.push(Pass {
            kernel_ns,
            kernel_ops: ledgers[0].ops + ledgers[1].ops,
            replay_ns,
            replay_ops: ledgers[2].ops,
            kernel_lat: k0..out.kernel_lat.len(),
            replay_lat: r0..out.replay_lat.len(),
        });
    }
    out
}
