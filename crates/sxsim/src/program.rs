//! Charge programs — record a [`Vm`](crate::Vm)'s charge sequence once,
//! replay it many times.
//!
//! The applications in this workspace (the CCM2 proxy, MOM, POP) issue the
//! *same* charge sequence every timestep: which vector ops a step charges
//! depends only on the configuration and grid shapes, never on the field
//! values. The op-by-op loop therefore re-executes the whole functional
//! model just to re-derive a charge stream it has already seen — the
//! interpreter-vs-compiled-dispatch gap. A [`ChargeProgram`] is the
//! compiled form: the recorded sequence of charge descriptors with
//! run-length-coalesced repetition structure, replayable against any `Vm`
//! of the same machine in one batched pass.
//!
//! ## The bit-identity contract
//!
//! After [`Vm::replay_program`] every f64 in the window and lifetime
//! ledgers, every [`OpStats`](crate::OpStats) counter (including
//! timing-memo hit/miss accounting) and every trace event is
//! **bit-identical** to a `Vm` that executed the original charge calls one
//! by one. Each instruction resolves its cost once and charges all `reps`
//! through the same ledger accumulator the batched entry points
//! ([`Vm::charge_vector_op_repeated`], [`Vm::charge_intrinsic_repeated`])
//! use — scalar-loop and raw runs included. That accumulator keeps the
//! floats exact without iterating `reps` times: a run of up to a few dozen
//! charges takes the plain loop of additions, and a longer one takes an
//! exact fast-forward of that loop, which advances the sum a whole binade
//! at a time by integer arithmetic on its bit pattern, bit for bit what
//! the loop would produce. Integer fields scale, and trace events are still
//! pushed one per charge. Run-length coalescing preserves the contract:
//! `repeated(op, a)` directly followed by `repeated(op, b)` charges and
//! accounts exactly like `repeated(op, a+b)` (the second call's single
//! memo lookup hits the slot the first call filled, matching the `a+b-1`
//! forced hits of the fused call).
//!
//! [`Vm::replay_program_scaled`] additionally multiplies every
//! instruction's repetition count by a scale factor: `replay_scaled(p, k)`
//! is bit-identical to the original call sequence with every call's `reps`
//! multiplied by `k` (NOT to `k` sequential replays — iterative f64
//! accumulation orders differently across program boundaries).

use crate::cost::Cost;
use crate::model::Intrinsic;
use crate::timing::{LocalityPattern, VecOp};

/// One instruction of a recorded charge program: a charge descriptor plus
/// how many times in a row it was issued.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramOp {
    /// `reps` identical vector operations
    /// ([`Vm::charge_vector_op_repeated`](crate::Vm::charge_vector_op_repeated)).
    Vector { op: VecOp, reps: usize },
    /// `reps` identical sweeps of `n` intrinsic calls
    /// ([`Vm::charge_intrinsic_repeated`](crate::Vm::charge_intrinsic_repeated)).
    Intrinsic { f: Intrinsic, n: usize, reps: usize },
    /// `reps` identical scalar loops; `branches` is `Some` for the branchy
    /// variant ([`Vm::charge_scalar_loop_branchy`](crate::Vm::charge_scalar_loop_branchy)).
    ScalarLoop {
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        branches: Option<f64>,
        pattern: LocalityPattern,
        reps: usize,
    },
    /// `reps` identical raw charges ([`Vm::charge`](crate::Vm::charge)).
    Raw { cost: Cost, reps: usize },
}

impl ProgramOp {
    /// Charges this instruction stands for (its repetition count).
    pub fn reps(&self) -> usize {
        match self {
            ProgramOp::Vector { reps, .. }
            | ProgramOp::Intrinsic { reps, .. }
            | ProgramOp::ScalarLoop { reps, .. }
            | ProgramOp::Raw { reps, .. } => *reps,
        }
    }
}

/// A recorded charge sequence in compact IR form: consecutive identical
/// charges are run-length coalesced into one instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChargeProgram {
    ops: Vec<ProgramOp>,
}

impl ChargeProgram {
    pub fn new() -> ChargeProgram {
        ChargeProgram::default()
    }

    /// The program's instructions, in charge order.
    pub fn ops(&self) -> &[ProgramOp] {
        &self.ops
    }

    /// Instructions after coalescing.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total charge calls the program stands for (sum of repetitions) —
    /// `total_charges() / len()` is the compression the coalescing bought.
    pub fn total_charges(&self) -> usize {
        self.ops.iter().map(ProgramOp::reps).sum()
    }

    pub(crate) fn push_vector(&mut self, op: &VecOp, reps: usize) {
        if let Some(ProgramOp::Vector { op: last, reps: r }) = self.ops.last_mut() {
            if last == op {
                *r += reps;
                return;
            }
        }
        self.ops.push(ProgramOp::Vector { op: *op, reps });
    }

    pub(crate) fn push_intrinsic(&mut self, f: Intrinsic, n: usize, reps: usize) {
        if let Some(ProgramOp::Intrinsic { f: lf, n: ln, reps: r }) = self.ops.last_mut() {
            if *lf == f && *ln == n {
                *r += reps;
                return;
            }
        }
        self.ops.push(ProgramOp::Intrinsic { f, n, reps });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_scalar_loop(
        &mut self,
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        branches: Option<f64>,
        pattern: LocalityPattern,
        reps: usize,
    ) {
        // f64 parameters compare by value; call sites pass literals, never
        // NaN, so equality is exactly "the same descriptor".
        if let Some(ProgramOp::ScalarLoop {
            iters: li,
            flops: lf,
            loads: ll,
            stores: ls,
            branches: lb,
            pattern: lp,
            reps: r,
        }) = self.ops.last_mut()
        {
            if *li == iters
                && *lf == flops
                && *ll == loads
                && *ls == stores
                && *lb == branches
                && *lp == pattern
            {
                *r += reps;
                return;
            }
        }
        self.ops.push(ProgramOp::ScalarLoop {
            iters,
            flops,
            loads,
            stores,
            branches,
            pattern,
            reps,
        });
    }

    pub(crate) fn push_raw(&mut self, cost: Cost, reps: usize) {
        if let Some(ProgramOp::Raw { cost: lc, reps: r }) = self.ops.last_mut() {
            if *lc == cost {
                *r += reps;
                return;
            }
        }
        self.ops.push(ProgramOp::Raw { cost, reps });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::{Access, Vm, VopClass};

    fn op(n: usize) -> VecOp {
        VecOp::new(n, VopClass::Fma, &[Access::Stride(1), Access::Stride(1)], &[Access::Stride(1)])
    }

    #[test]
    fn recording_coalesces_consecutive_identical_charges() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(128), 3);
        vm.charge_vector_op_repeated(&op(128), 5);
        vm.charge_vector_op_repeated(&op(64), 2);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        let p = vm.take_program().expect("recording was on");
        assert_eq!(p.len(), 3, "{:?}", p.ops());
        assert_eq!(p.total_charges(), 3 + 5 + 2 + 2);
        assert!(matches!(p.ops()[0], ProgramOp::Vector { reps: 8, .. }));
        assert!(matches!(p.ops()[2], ProgramOp::Intrinsic { reps: 2, .. }));
    }

    #[test]
    fn replay_is_bit_identical_to_the_original_sequence() {
        let run = |vm: &mut Vm| {
            vm.charge_vector_op_repeated(&op(200), 4);
            vm.charge_intrinsic_repeated(Intrinsic::Exp, 64, 3);
            vm.charge_scalar_loop(1000, 2.0, 2.0, 1.0, LocalityPattern::Streaming);
            vm.charge(Cost::cycles(17.5));
            vm.charge_vector_op_repeated(&op(200), 2);
        };
        let mut rec = Vm::new(presets::sx4_benchmarked());
        rec.start_program_record();
        run(&mut rec);
        let p = rec.take_program().unwrap();

        let mut direct = Vm::new(presets::sx4_benchmarked());
        run(&mut direct);
        let mut replayed = Vm::new(presets::sx4_benchmarked());
        replayed.replay_program(&p);

        assert_eq!(direct.cost().cycles.to_bits(), replayed.cost().cycles.to_bits());
        assert_eq!(direct.cost(), replayed.cost());
        assert_eq!(direct.lifetime_cost(), replayed.lifetime_cost());
        let (mut a, mut b) = (*direct.stats(), *replayed.stats());
        a.program_replays = 0;
        b.program_replays = 0;
        assert_eq!(a, b);
        assert_eq!(replayed.stats().program_replays, 1);
    }

    #[test]
    fn scaled_replay_matches_scaled_call_sites() {
        let mut rec = Vm::new(presets::sx4_benchmarked());
        rec.start_program_record();
        rec.charge_vector_op_repeated(&op(96), 5);
        rec.charge_intrinsic_repeated(Intrinsic::Log, 32, 2);
        let p = rec.take_program().unwrap();

        let mut scaled = Vm::new(presets::sx4_benchmarked());
        scaled.replay_program_scaled(&p, 3);
        let mut direct = Vm::new(presets::sx4_benchmarked());
        direct.charge_vector_op_repeated(&op(96), 15);
        direct.charge_intrinsic_repeated(Intrinsic::Log, 32, 6);

        assert_eq!(direct.cost(), scaled.cost());
        assert_eq!(direct.cost().cycles.to_bits(), scaled.cost().cycles.to_bits());
        let (mut a, mut b) = (*direct.stats(), *scaled.stats());
        a.program_replays = 0;
        b.program_replays = 0;
        assert_eq!(a, b);
    }

    #[test]
    fn zero_scale_replay_charges_nothing() {
        let mut rec = Vm::new(presets::sx4_benchmarked());
        rec.start_program_record();
        rec.charge_vector_op_repeated(&op(64), 2);
        let p = rec.take_program().unwrap();
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.replay_program_scaled(&p, 0);
        assert_eq!(vm.cost(), Cost::ZERO);
        assert_eq!(vm.stats().vector_ops, 0);
    }

    #[test]
    fn untaken_program_is_replaced_by_a_new_recording() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(10), 1);
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(20), 1);
        let p = vm.take_program().unwrap();
        assert_eq!(p.len(), 1);
        assert!(matches!(p.ops()[0], ProgramOp::Vector { op: VecOp { n: 20, .. }, reps: 1 }));
        assert!(vm.take_program().is_none());
        assert_eq!(vm.stats().program_records, 2);
    }
}
