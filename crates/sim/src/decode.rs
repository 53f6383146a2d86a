//! Static instruction decode for the timed model.
//!
//! Timing is a property of the static instruction: which functional-unit
//! pool it occupies, for how long, and when its result is ready (an ST²
//! mispredict adds one cycle to both, the paper's Fig. 4). [`DecodeTable`]
//! works it out once per run, one [`Decoded`] record per PC, for the SM's
//! scheduling scan and issue stage. [`Pool::of`] is the one pool
//! classifier; the functional engine labels its telemetry with it too.

use crate::config::GpuConfig;
use st2_isa::{FloatOp, FloatWidth, Inst, InstClass, IntOp, Operand, Program, Reg, Space};

/// Number of functional-unit pools (dense [`Pool`] indices).
pub const NUM_POOLS: usize = 6;

/// A functional-unit pool. The discriminant is both the dense index
/// into an SM's pipe table and the pool code carried by telemetry issue
/// events (`st2_telemetry::event::pool_name`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Integer and control ALU.
    Alu = 0,
    /// FP32 unit.
    Fpu = 1,
    /// FP64 unit.
    Dpu = 2,
    /// Integer and floating-point multiply/divide.
    MulDiv = 3,
    /// Special-function unit.
    Sfu = 4,
    /// Load/store unit (shared and global).
    Ldst = 5,
}

impl Pool {
    /// Dense index into the per-SM pipe table.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The pool `inst` issues to: its ISA class, with floating-point
    /// work split by width between the FPU and the DPU.
    #[must_use]
    pub fn of(inst: &Inst) -> Pool {
        match (inst.class(), *inst) {
            (InstClass::IntMulDiv | InstClass::FpMulDiv, _) => Pool::MulDiv,
            (_, Inst::Float { w, .. } | Inst::Fma { w, .. }) if w == FloatWidth::F32 => Pool::Fpu,
            (_, Inst::Float { .. } | Inst::Fma { .. }) => Pool::Dpu,
            (InstClass::Sfu, _) => Pool::Sfu,
            (InstClass::Mem, _) => Pool::Ldst,
            _ => Pool::Alu,
        }
    }
}

/// The timing-relevant facts of one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Registers read, then the register written: the scoreboard's scan
    /// order.
    regs: [Reg; 4],
    reads: u8,
    /// Register written, if any.
    pub(crate) write: Option<Reg>,
    /// Functional-unit pool.
    pub(crate) pool: Pool,
    /// Result latency in cycles. Zero for loads and stores, whose
    /// latency comes from the memory model.
    pub(crate) latency: u32,
    /// Cycles the instruction occupies its pipe. Memory ops replace it
    /// with their transaction or bank-conflict count.
    pub(crate) interval: u32,
    /// Global load or store: issue is gated by MSHR credit.
    pub(crate) global_mem: bool,
    /// Fused multiply-add.
    pub(crate) fma: bool,
}

impl Decoded {
    /// Decodes `inst`, resolving latencies and intervals from `cfg`.
    #[must_use]
    pub fn new(inst: &Inst, cfg: &GpuConfig) -> Self {
        let reg = |o: Operand| match o {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        };
        let (reads, write) = match *inst {
            Inst::Int { d, a, b, .. } | Inst::Float { d, a, b, .. } => {
                ([reg(a), reg(b), None], Some(d))
            }
            Inst::Fma { d, a, b, c, .. } => ([reg(a), reg(b), reg(c)], Some(d)),
            Inst::Sfu { d, a, .. } | Inst::Cvt { d, a, .. } | Inst::Mov { d, a } => {
                ([reg(a), None, None], Some(d))
            }
            Inst::Ld { d, addr, .. } => ([Some(addr), None, None], Some(d)),
            Inst::St { v, addr, .. } => ([reg(v), Some(addr), None], None),
            Inst::Bra { cond, .. } => ([cond.map(|c| c.reg), None, None], None),
            Inst::Bar | Inst::Exit => ([None; 3], None),
            Inst::Special { d, .. } => ([None; 3], Some(d)),
        };
        let mut regs = [Reg(0); 4];
        let mut n = 0;
        for r in reads.into_iter().flatten().chain(write) {
            regs[n] = r;
            n += 1;
        }
        let pool = Pool::of(inst);
        let div = match *inst {
            Inst::Int { op, .. } => matches!(op, IntOp::Div | IntOp::Rem),
            Inst::Float { op, .. } => op == FloatOp::Div,
            _ => false,
        };
        let latency = match pool {
            Pool::Alu => cfg.alu_latency,
            Pool::Fpu => cfg.fpu_latency,
            Pool::Dpu => cfg.dpu_latency,
            Pool::MulDiv if div => cfg.div_latency,
            Pool::MulDiv => cfg.mul_latency,
            Pool::Sfu => cfg.sfu_latency,
            Pool::Ldst => 0,
        };
        let interval = match pool {
            _ if div => 4,
            Pool::Sfu => cfg.sfu_interval,
            _ => 1,
        };
        Decoded {
            regs,
            reads: (n - usize::from(write.is_some())) as u8,
            write,
            pool,
            latency,
            interval,
            global_mem: matches!(*inst, Inst::Ld { space, .. } | Inst::St { space, .. }
                if space == Space::Global),
            fma: matches!(inst, Inst::Fma { .. }),
        }
    }

    /// Registers read, in operand order.
    #[must_use]
    pub fn reads(&self) -> &[Reg] {
        &self.regs[..usize::from(self.reads)]
    }

    /// Registers read, then the register written: every register whose
    /// pending write blocks issue, in the order the scoreboard scans
    /// them (the first one at the latest ready time is the binding
    /// dependency).
    #[must_use]
    pub fn deps(&self) -> &[Reg] {
        &self.regs[..usize::from(self.reads) + usize::from(self.write.is_some())]
    }
}

/// One [`Decoded`] record per PC of a program, built once per run.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    /// The program's records, then the `Exit` every out-of-range PC
    /// decodes as.
    entries: Vec<Decoded>,
}

impl DecodeTable {
    /// Decodes every instruction of `program` under `cfg`.
    #[must_use]
    pub fn new(program: &Program, cfg: &GpuConfig) -> Self {
        DecodeTable {
            entries: program
                .insts()
                .iter()
                .chain([&Inst::Exit])
                .map(|inst| Decoded::new(inst, cfg))
                .collect(),
        }
    }

    /// Whether `pc` lies inside the program.
    #[must_use]
    pub fn contains(&self, pc: u32) -> bool {
        (pc as usize) < self.entries.len() - 1
    }

    /// The record at `pc`; past the end of the program, `Exit`.
    #[must_use]
    pub fn get(&self, pc: u32) -> &Decoded {
        &self.entries[(pc as usize).min(self.entries.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st2_isa::{BranchCond, MemWidth, SfuOp};

    /// Every latency and the SFU interval distinct, so a swapped field
    /// shows.
    fn cfg() -> GpuConfig {
        GpuConfig {
            alu_latency: 2,
            fpu_latency: 3,
            dpu_latency: 7,
            mul_latency: 11,
            div_latency: 13,
            sfu_latency: 17,
            sfu_interval: 5,
            ..GpuConfig::scaled(1)
        }
    }

    fn r(i: u16) -> Reg {
        Reg(i)
    }

    fn op(i: u16) -> Operand {
        Operand::Reg(Reg(i))
    }

    /// (pool, latency, interval, reads, write, global_mem, fma)
    type Row = (Pool, u32, u32, Vec<Reg>, Option<Reg>, bool, bool);

    fn row(inst: Inst) -> Row {
        let d = Decoded::new(&inst, &cfg());
        let mut deps = d.reads().to_vec();
        deps.extend(d.write);
        assert_eq!(d.deps(), deps.as_slice(), "{inst:?}: reads then write");
        (
            d.pool,
            d.latency,
            d.interval,
            d.reads().to_vec(),
            d.write,
            d.global_mem,
            d.fma,
        )
    }

    fn int(op_: IntOp) -> Inst {
        Inst::Int {
            op: op_,
            d: r(1),
            a: op(2),
            b: op(3),
        }
    }

    fn float(op_: FloatOp, w: FloatWidth) -> Inst {
        Inst::Float {
            op: op_,
            w,
            d: r(1),
            a: op(2),
            b: Operand::Imm(0),
        }
    }

    #[test]
    fn table_pins_every_variant() {
        use FloatWidth::{F32, F64};
        use Pool::*;
        let ab = vec![r(2), r(3)];
        let a = vec![r(2)];
        let w = Some(r(1));
        let cases: Vec<(Inst, Row)> = vec![
            (int(IntOp::Add), (Alu, 2, 1, ab.clone(), w, false, false)),
            (int(IntOp::Xor), (Alu, 2, 1, ab.clone(), w, false, false)),
            (
                int(IntOp::Mul),
                (MulDiv, 11, 1, ab.clone(), w, false, false),
            ),
            (
                int(IntOp::Div),
                (MulDiv, 13, 4, ab.clone(), w, false, false),
            ),
            (
                int(IntOp::Rem),
                (MulDiv, 13, 4, ab.clone(), w, false, false),
            ),
            (
                float(FloatOp::Add, F32),
                (Fpu, 3, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::SetLt, F32),
                (Fpu, 3, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Add, F64),
                (Dpu, 7, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Max, F64),
                (Dpu, 7, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Mul, F32),
                (MulDiv, 11, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Mul, F64),
                (MulDiv, 11, 1, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Div, F32),
                (MulDiv, 13, 4, a.clone(), w, false, false),
            ),
            (
                float(FloatOp::Div, F64),
                (MulDiv, 13, 4, a.clone(), w, false, false),
            ),
            (
                Inst::Fma {
                    w: F32,
                    d: r(1),
                    a: op(2),
                    b: Operand::Imm(1),
                    c: op(4),
                },
                (Fpu, 3, 1, vec![r(2), r(4)], w, false, true),
            ),
            (
                Inst::Fma {
                    w: F64,
                    d: r(1),
                    a: op(4),
                    b: op(3),
                    c: op(2),
                },
                (Dpu, 7, 1, vec![r(4), r(3), r(2)], w, false, true),
            ),
            (
                Inst::Sfu {
                    op: SfuOp::Rsqrt,
                    d: r(1),
                    a: op(2),
                },
                (Sfu, 17, 5, a.clone(), w, false, false),
            ),
            (
                Inst::Mov {
                    d: r(1),
                    a: Operand::Imm(7),
                },
                (Alu, 2, 1, vec![], w, false, false),
            ),
        ];
        for (inst, want) in cases {
            assert_eq!(row(inst), want, "{inst:?}");
        }
    }

    #[test]
    fn memory_branch_and_exit_decode() {
        use Pool::*;
        let ld = |space| Inst::Ld {
            d: r(1),
            addr: r(2),
            offset: 8,
            space,
            width: MemWidth::W4,
        };
        let st = |space| Inst::St {
            v: op(3),
            addr: r(2),
            offset: 0,
            space,
            width: MemWidth::W8,
        };
        let rw = (vec![r(2)], Some(r(1)));
        let sv = (vec![r(3), r(2)], None);
        for (inst, (reads, write), global) in [
            (ld(Space::Shared), rw.clone(), false),
            (ld(Space::Global), rw, true),
            (st(Space::Shared), sv.clone(), false),
            (st(Space::Global), sv, true),
        ] {
            assert_eq!(
                row(inst),
                (Ldst, 0, 1, reads, write, global, false),
                "{inst:?}"
            );
        }
        let bra = |cond| Inst::Bra {
            cond,
            target: 9,
            reconv: 12,
        };
        let cond = Some(BranchCond {
            reg: r(5),
            if_nonzero: true,
        });
        assert_eq!(row(bra(cond)), (Alu, 2, 1, vec![r(5)], None, false, false));
        assert_eq!(row(bra(None)), (Alu, 2, 1, vec![], None, false, false));
        assert_eq!(row(Inst::Bar), (Alu, 2, 1, vec![], None, false, false));
        assert_eq!(row(Inst::Exit), (Alu, 2, 1, vec![], None, false, false));
    }

    #[test]
    fn out_of_range_pcs_decode_as_exit() {
        let mut k = st2_isa::KernelBuilder::new("two");
        let d = k.reg();
        k.fadd(d, Operand::Imm(1), Operand::Imm(2));
        let p = k.finish();
        let t = DecodeTable::new(&p, &cfg());
        let exit = Decoded::new(&Inst::Exit, &cfg());
        assert!(t.contains(0));
        assert_eq!(t.get(0).pool, Pool::Fpu);
        let end = p.len();
        assert!(!t.contains(end) && !t.contains(u32::MAX));
        assert_eq!(*t.get(end), exit);
        assert_eq!(*t.get(u32::MAX), exit);
    }
}
