//! Differential check of the row-at-a-time interpreter against a scalar,
//! lane-by-lane reference model built from `fpx_sim::fpu`.
//!
//! Every case is one seeded data instruction run on one warp with random
//! register contents (biased toward IEEE special values), random
//! predicates, a random active mask and random exited lanes. The
//! reference executes the instruction one guarded lane at a time, reading
//! each source operand per lane; the interpreter under test resolves each
//! operand once per warp instruction into a 32-lane row. Both must leave
//! identical registers and predicates on every lane, or fail with the
//! same `SimError::BadInstr` message at the same `pc`.
//!
//! Which input NaN an IEEE operation propagates when both inputs are NaN
//! is fixed neither by IEEE 754 nor by the compiler's operand order, so a
//! NaN destination matches any NaN of the same format.

use fpx_sass::instr::{Instruction, PredGuard};
use fpx_sass::kernel::KernelCode;
use fpx_sass::op::{BaseOp, CmpOp, ICmpOp, MemWidth, MufuFunc, OpMods, Opcode, SpecialReg};
use fpx_sass::operand::{CBankRef, MemRef, Operand, PredOperand, Reg, PT, RZ};
use fpx_sass::types::{f16_to_f32, f32_to_f16, FpFormat};
use fpx_sim::exec::{lanes_of, ExecStats, SharedMem, SimError, WarpExec, WarpIds};
use fpx_sim::fpu;
use fpx_sim::hooks::{ChannelPort, InstrumentedCode, NullChannel};
use fpx_sim::mem::{ConstBanks, DeviceMemory};
use fpx_sim::timing::{Clock, CostModel};
use fpx_sim::warp::{Row, WarpControl, WarpLanes};
use fpx_sim::WARP_SIZE;
use std::sync::Arc;

/// Registers named by generated operands (`R0`–`R9`); the warp holds a
/// few more so FP64 pairs starting at `R9` stay in range.
const NAMED_REGS: u8 = 10;
const IDS: WarpIds = WarpIds {
    block: 3,
    warp: 1,
    ntid: 64,
};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Register contents biased toward the classes the tools care about:
/// zeros, subnormals, normals, infinities and NaNs in binary32, the high
/// word of binary64, and binary16.
fn value(rng: &mut Rng) -> u32 {
    const SPECIAL: [u32; 18] = [
        0,
        0x8000_0000,
        1,
        0x807f_ffff,
        0x0080_0000,
        0x3f80_0000,
        0xbfc0_0000,
        0x4049_0fdb,
        0x7f7f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0001,
        0x3ff0_0000,
        0x7ff0_0000,
        0x000f_ffff,
        0x0000_3c00,
        0x0000_7c01,
    ];
    if rng.chance(60) {
        rng.pick(&SPECIAL)
    } else {
        rng.next() as u32
    }
}

fn random_warp(rng: &mut Rng) -> (WarpLanes, WarpControl) {
    let mut lanes = WarpLanes::new(NAMED_REGS as u16 + 1);
    for r in 0..lanes.num_regs() as Reg {
        for lane in 0..32 {
            lanes.set_reg(lane, r, value(rng));
        }
    }
    for p in 0..7 {
        lanes.set_pred_mask(p, u32::MAX, rng.next() as u32);
    }
    let mut ctrl = WarpControl::new(32);
    if rng.chance(50) {
        ctrl.mask = rng.next() as u32;
    }
    if rng.chance(40) {
        ctrl.exited = rng.next() as u32 & rng.next() as u32;
    }
    if ctrl.exec_mask() == 0 {
        ctrl.mask |= 1 << 7;
        ctrl.exited &= !(1 << 7);
    }
    (lanes, ctrl)
}

fn reg(num: Reg, neg: bool) -> Operand {
    Operand::Reg {
        num,
        reuse: false,
        neg,
    }
}

fn pred(reg: u8, neg: bool) -> Operand {
    Operand::Pred(PredOperand { neg, reg })
}

/// A malformed operand for any data-op slot.
fn bad(rng: &mut Rng) -> Operand {
    match rng.below(3) {
        0 => Operand::Label(1),
        1 => Operand::Mem(MemRef { base: 2, offset: 4 }),
        _ => pred(1, false),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    F32,
    F64,
    Int,
}

/// A source operand of `kind`: usually a (possibly negated, possibly
/// `RZ`) register, sometimes an immediate, cbank or `GENERIC` literal,
/// rarely a malformed operand.
fn src(rng: &mut Rng, kind: Kind) -> Operand {
    let r = rng.below(100);
    if r < 4 {
        return bad(rng);
    }
    if r < 64 {
        let num = if rng.chance(8) {
            RZ
        } else {
            rng.below(NAMED_REGS as u64) as Reg
        };
        return reg(num, rng.chance(25));
    }
    match rng.below(4) {
        0 => Operand::ImmDouble(rng.pick(&[
            1.5,
            -0.0,
            2.5e-39,
            1e-310,
            3.0e38,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ])),
        1 => Operand::ImmInt(rng.pick(&[1, -3, 0x7fff_ffff, 0x1_0000_0005, 0x3f80_0000, -0x40])),
        2 => Operand::CBank(CBankRef {
            bank: if rng.chance(10) { 2 } else { 0 },
            offset: 0x160 + 4 * rng.below(8) as u32,
        }),
        _ => match kind {
            // Integer sources take no GENERIC literal: exercise the error.
            Kind::Int if rng.chance(50) => reg(rng.below(NAMED_REGS as u64) as Reg, false),
            _ => Operand::Generic(
                rng.pick(&["+QNAN", "-QNAN", "QNAN", "+INF", "-INF", "X"])
                    .into(),
            ),
        },
    }
}

fn dst(rng: &mut Rng) -> Operand {
    if rng.chance(4) {
        return bad(rng);
    }
    reg(
        if rng.chance(8) {
            RZ
        } else {
            rng.below(NAMED_REGS as u64) as Reg
        },
        false,
    )
}

fn dst_pred(rng: &mut Rng) -> Operand {
    if rng.chance(4) {
        return reg(1, false);
    }
    pred(
        if rng.chance(10) {
            PT
        } else {
            rng.below(7) as u8
        },
        false,
    )
}

fn src_pred(rng: &mut Rng) -> Operand {
    if rng.chance(4) {
        return reg(2, false);
    }
    pred(
        if rng.chance(10) {
            PT
        } else {
            rng.below(7) as u8
        },
        rng.chance(30),
    )
}

/// One random data instruction, with its sources' kinds.
fn instruction(rng: &mut Rng) -> Instruction {
    use BaseOp::*;
    let cmp = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ltu,
        CmpOp::Gtu,
        CmpOp::Equ,
        CmpOp::Neu,
    ];
    let icmp = [
        ICmpOp::Lt,
        ICmpOp::Le,
        ICmpOp::Gt,
        ICmpOp::Ge,
        ICmpOp::Eq,
        ICmpOp::Ne,
    ];
    let mufu = [
        MufuFunc::Rcp,
        MufuFunc::Rcp64h,
        MufuFunc::Rsq,
        MufuFunc::Rsq64h,
        MufuFunc::Sin,
        MufuFunc::Cos,
        MufuFunc::Ex2,
        MufuFunc::Lg2,
        MufuFunc::Sqrt,
    ];
    let (base, operands) = match rng.below(27) {
        0 => (
            FAdd,
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        1 => (
            FAdd32I,
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        2 => (
            FMul,
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        3 => (
            FFma,
            vec![
                dst(rng),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
            ],
        ),
        4 => (
            HAdd,
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        5 => (
            HMul,
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        6 => (
            HFma,
            vec![
                dst(rng),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
            ],
        ),
        7 => (
            DAdd,
            vec![dst(rng), src(rng, Kind::F64), src(rng, Kind::F64)],
        ),
        8 => (
            DMul,
            vec![dst(rng), src(rng, Kind::F64), src(rng, Kind::F64)],
        ),
        9 => (
            DFma,
            vec![
                dst(rng),
                src(rng, Kind::F64),
                src(rng, Kind::F64),
                src(rng, Kind::F64),
            ],
        ),
        10 => (Mufu(rng.pick(&mufu)), vec![dst(rng), src(rng, Kind::F32)]),
        11 => (
            FChk,
            vec![dst_pred(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        12 => (
            FSel,
            vec![
                dst(rng),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
                src_pred(rng),
            ],
        ),
        13 => (
            FSet(rng.pick(&cmp)),
            vec![dst(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        14 => (
            FSetP(rng.pick(&cmp)),
            vec![dst_pred(rng), src(rng, Kind::F32), src(rng, Kind::F32)],
        ),
        15 => (
            DSetP(rng.pick(&cmp)),
            vec![dst_pred(rng), src(rng, Kind::F64), src(rng, Kind::F64)],
        ),
        16 => (
            FMnMx,
            vec![
                dst(rng),
                src(rng, Kind::F32),
                src(rng, Kind::F32),
                src_pred(rng),
            ],
        ),
        17 => (
            DMnMx,
            vec![
                dst(rng),
                src(rng, Kind::F64),
                src(rng, Kind::F64),
                src_pred(rng),
            ],
        ),
        18 => {
            let (d, s) = rng.pick(&[
                (FpFormat::Fp32, FpFormat::Fp64),
                (FpFormat::Fp64, FpFormat::Fp32),
                (FpFormat::Fp16, FpFormat::Fp32),
            ]);
            let kind = if s == FpFormat::Fp64 {
                Kind::F64
            } else {
                Kind::F32
            };
            (F2F { dst: d, src: s }, vec![dst(rng), src(rng, kind)])
        }
        19 => (I2F, vec![dst(rng), src(rng, Kind::Int)]),
        20 => (F2I, vec![dst(rng), src(rng, Kind::F32)]),
        21 => (
            rng.pick(&[Mov, Mov32I]),
            vec![dst(rng), src(rng, Kind::F32)],
        ),
        22 => {
            let n = rng.below(4) as usize;
            let mut ops = vec![dst(rng)];
            ops.extend((0..n).map(|_| src(rng, Kind::Int)));
            (IAdd3, ops)
        }
        23 => (
            IMad,
            vec![
                dst(rng),
                src(rng, Kind::Int),
                src(rng, Kind::Int),
                src(rng, Kind::Int),
            ],
        ),
        24 => (
            ISetP(rng.pick(&icmp)),
            vec![dst_pred(rng), src(rng, Kind::Int), src(rng, Kind::Int)],
        ),
        25 => (
            Shl,
            vec![dst(rng), src(rng, Kind::Int), src(rng, Kind::Int)],
        ),
        _ => match rng.below(3) {
            0 => (
                S2R(rng.pick(&[
                    SpecialReg::TidX,
                    SpecialReg::CtaidX,
                    SpecialReg::NtidX,
                    SpecialReg::LaneId,
                ])),
                vec![dst(rng)],
            ),
            1 => {
                let c = if rng.chance(5) {
                    reg(3, false)
                } else {
                    Operand::CBank(CBankRef {
                        bank: 0,
                        offset: 0x160 + 4 * rng.below(6) as u32,
                    })
                };
                (
                    Ldc(rng.pick(&[MemWidth::W32, MemWidth::W64])),
                    vec![dst(rng), c],
                )
            }
            _ => (Nop, vec![]),
        },
    };
    let mut operands = operands;
    if rng.chance(3) && operands.len() > 1 {
        operands.pop(); // a missing operand
    }
    Instruction {
        opcode: Opcode {
            base,
            mods: OpMods {
                ftz: rng.chance(30),
                rn: false,
            },
        },
        guard: rng.chance(50).then(|| PredGuard {
            neg: rng.chance(30),
            reg: if rng.chance(10) {
                PT
            } else {
                rng.below(7) as u8
            },
        }),
        operands,
        loc: None,
    }
}

/// Run one instruction through the row interpreter (a `BAR.SYNC` after
/// it stops the warp).
fn run_rows(
    instr: &Instruction,
    lanes: &mut WarpLanes,
    ctrl: &mut WarpControl,
    cbanks: &ConstBanks,
) -> Result<(), SimError> {
    let code = InstrumentedCode::plain(Arc::new(KernelCode::new(
        "diff",
        vec![instr.clone(), Instruction::new(BaseOp::Bar, vec![])],
    )));
    let global = DeviceMemory::new(4096);
    let mut shared = SharedMem::new(256);
    let mut clock = Clock::default();
    let cost = CostModel::default();
    let mut port = ChannelPort::new(&NullChannel, 0, IDS.block);
    let mut stats = ExecStats::default();
    let mut exec = WarpExec {
        code: &code,
        lanes,
        ctrl,
        global: &global,
        shared: &mut shared,
        cbanks,
        clock: &mut clock,
        cost: &cost,
        channel: &mut port,
        ids: IDS,
        launch_id: 0,
        stats: &mut stats,
        watchdog: u64::MAX,
    };
    exec.run().map(|_| ())
}

// ---------------------------------------------------------------------
// The scalar reference: one guarded lane at a time, each operand read
// per lane, exactly as a lane-at-a-time SIMT interpreter does.
// ---------------------------------------------------------------------

struct Scalar<'a> {
    lanes: &'a mut WarpLanes,
    cbanks: &'a ConstBanks,
    instr: &'a Instruction,
}

fn generic32(s: &str) -> u32 {
    let neg = s.starts_with('-');
    if s.contains("NAN") {
        f32::NAN.to_bits() | if neg { 0x8000_0000 } else { 0 }
    } else if s.contains("INF") {
        if neg {
            f32::NEG_INFINITY
        } else {
            f32::INFINITY
        }
        .to_bits()
    } else {
        0
    }
}

fn generic64(s: &str) -> u64 {
    let neg = s.starts_with('-');
    if s.contains("NAN") {
        f64::NAN.to_bits() | if neg { 1 << 63 } else { 0 }
    } else if s.contains("INF") {
        if neg {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
        .to_bits()
    } else {
        0
    }
}

impl<'a> Scalar<'a> {
    fn op(&self, i: usize) -> Result<&'a Operand, String> {
        let instr: &'a Instruction = self.instr;
        instr
            .operands
            .get(i)
            .ok_or_else(|| format!("missing operand {i} for {}", self.instr.sass()))
    }

    fn s32(&self, lane: u32, op: &Operand) -> Result<u32, String> {
        Ok(match op {
            Operand::Reg { num, neg, .. } => {
                self.lanes.reg(lane, *num) ^ if *neg { 1 << 31 } else { 0 }
            }
            Operand::ImmDouble(v) => (*v as f32).to_bits(),
            Operand::ImmInt(v) => *v as u32,
            Operand::CBank(c) => self.cbanks.read_u32(c.bank, c.offset),
            Operand::Generic(s) => generic32(s),
            _ => return Err(format!("bad FP32 source operand {op}")),
        })
    }

    fn s64(&self, lane: u32, op: &Operand) -> Result<u64, String> {
        Ok(match op {
            Operand::Reg { num, neg, .. } => {
                self.lanes.reg_pair(lane, *num) ^ if *neg { 1 << 63 } else { 0 }
            }
            Operand::ImmDouble(v) => v.to_bits(),
            Operand::CBank(c) => self.cbanks.read_u64(c.bank, c.offset),
            Operand::Generic(s) => generic64(s),
            _ => return Err(format!("bad FP64 source operand {op}")),
        })
    }

    fn sint(&self, lane: u32, op: &Operand) -> Result<i32, String> {
        match op {
            Operand::Reg { num, neg, .. } => {
                let v = self.lanes.reg(lane, *num) as i32;
                Ok(if *neg { v.wrapping_neg() } else { v })
            }
            Operand::ImmInt(v) => Ok(*v as i32),
            Operand::CBank(c) => Ok(self.cbanks.read_u32(c.bank, c.offset) as i32),
            _ => Err(format!("bad integer source operand {op}")),
        }
    }

    fn spred(&self, lane: u32, op: &Operand) -> Result<bool, String> {
        match op {
            Operand::Pred(p) => Ok(self.lanes.pred(lane, p.reg) != p.neg),
            _ => Err(format!("expected predicate operand, got {op}")),
        }
    }

    fn dreg(&self) -> Result<Reg, String> {
        match self.instr.operands.first() {
            Some(Operand::Reg { num, .. }) => Ok(*num),
            other => Err(format!("expected destination register, got {other:?}")),
        }
    }

    fn dpred(&self) -> Result<u8, String> {
        match self.instr.operands.first() {
            Some(Operand::Pred(p)) => Ok(p.reg),
            other => Err(format!("expected destination predicate, got {other:?}")),
        }
    }

    fn f32s<const N: usize>(&self, lane: u32, ops: &[&Operand; N]) -> Result<[f32; N], String> {
        let mut out = [0f32; N];
        for (o, op) in out.iter_mut().zip(ops) {
            *o = f32::from_bits(self.s32(lane, op)?);
        }
        Ok(out)
    }

    fn f64s<const N: usize>(&self, lane: u32, ops: &[&Operand; N]) -> Result<[f64; N], String> {
        let mut out = [0f64; N];
        for (o, op) in out.iter_mut().zip(ops) {
            *o = f64::from_bits(self.s64(lane, op)?);
        }
        Ok(out)
    }

    fn ops<const N: usize>(&self) -> Result<[&'a Operand; N], String> {
        let mut out = [None; N];
        for (i, o) in out.iter_mut().enumerate() {
            *o = Some(self.op(i + 1)?);
        }
        Ok(out.map(|o| o.expect("filled above")))
    }

    /// Execute on the guarded lanes, in lane order.
    fn exec(&mut self, guarded: u32) -> Result<(), String> {
        use BaseOp::*;
        let ftz = self.instr.opcode.mods.ftz;
        match self.instr.opcode.base {
            FAdd | FAdd32I | FMul | FMul32I => {
                let d = self.dreg()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f32s(lane, &ops)?;
                    let r = if matches!(self.instr.opcode.base, FAdd | FAdd32I) {
                        fpu::fadd(a, b, ftz)
                    } else {
                        fpu::fmul(a, b, ftz)
                    };
                    self.lanes.set_reg(lane, d, r.to_bits());
                }
            }
            FFma | FFma32I => {
                let d = self.dreg()?;
                let ops = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let [a, b, c] = self.f32s(lane, &ops)?;
                    self.lanes
                        .set_reg(lane, d, fpu::ffma(a, b, c, ftz).to_bits());
                }
            }
            HAdd | HMul => {
                let d = self.dreg()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let a = f16_to_f32(self.s32(lane, ops[0])? as u16);
                    let b = f16_to_f32(self.s32(lane, ops[1])? as u16);
                    let r = if self.instr.opcode.base == HAdd {
                        a + b
                    } else {
                        a * b
                    };
                    self.lanes.set_reg(lane, d, f32_to_f16(r) as u32);
                }
            }
            HFma => {
                let d = self.dreg()?;
                let ops = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let a = f16_to_f32(self.s32(lane, ops[0])? as u16);
                    let b = f16_to_f32(self.s32(lane, ops[1])? as u16);
                    let c = f16_to_f32(self.s32(lane, ops[2])? as u16);
                    self.lanes
                        .set_reg(lane, d, f32_to_f16(a.mul_add(b, c)) as u32);
                }
            }
            DAdd | DMul => {
                let d = self.dreg()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f64s(lane, &ops)?;
                    let r = if self.instr.opcode.base == DAdd {
                        a + b
                    } else {
                        a * b
                    };
                    self.lanes.set_reg_pair(lane, d, r.to_bits());
                }
            }
            DFma => {
                let d = self.dreg()?;
                let ops = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let [a, b, c] = self.f64s(lane, &ops)?;
                    self.lanes.set_reg_pair(lane, d, a.mul_add(b, c).to_bits());
                }
            }
            Mufu(func) => {
                let d = self.dreg()?;
                let [x] = self.ops::<1>()?;
                for lane in lanes_of(guarded) {
                    let v = self.s32(lane, x)?;
                    let r = if func.is_64h() {
                        fpu::mufu64h(func, v)
                    } else {
                        fpu::mufu32(func, f32::from_bits(v)).to_bits()
                    };
                    self.lanes.set_reg(lane, d, r);
                }
            }
            FChk => {
                let p = self.dpred()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f32s(lane, &ops)?;
                    let slow = b == 0.0
                        || !b.is_finite()
                        || !a.is_finite()
                        || b.is_subnormal()
                        || (a != 0.0 && (a.abs().log2() - b.abs().log2()).abs() > 125.0);
                    self.lanes.set_pred(lane, p, slow);
                }
            }
            FSel => {
                let d = self.dreg()?;
                let [a, b, p] = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let v = if self.spred(lane, p)? {
                        self.s32(lane, a)?
                    } else {
                        self.s32(lane, b)?
                    };
                    self.lanes.set_reg(lane, d, v);
                }
            }
            FSet(cmp) => {
                let d = self.dreg()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f32s(lane, &ops)?;
                    let hit = cmp.eval(a as f64, b as f64);
                    self.lanes
                        .set_reg(lane, d, if hit { 1.0f32 } else { 0.0 }.to_bits());
                }
            }
            FSetP(cmp) => {
                let p = self.dpred()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f32s(lane, &ops)?;
                    self.lanes.set_pred(lane, p, cmp.eval(a as f64, b as f64));
                }
            }
            DSetP(cmp) => {
                let p = self.dpred()?;
                let ops = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let [a, b] = self.f64s(lane, &ops)?;
                    self.lanes.set_pred(lane, p, cmp.eval(a, b));
                }
            }
            FMnMx => {
                let d = self.dreg()?;
                let [a, b, p] = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let [x, y] = self.f32s(lane, &[a, b])?;
                    let (x, y) = (x as f64, y as f64);
                    let v = if self.spred(lane, p)? {
                        fpu::min_2008(x, y)
                    } else {
                        fpu::max_2008(x, y)
                    } as f32;
                    self.lanes
                        .set_reg(lane, d, fpu::maybe_ftz32(v, ftz).to_bits());
                }
            }
            DMnMx => {
                let d = self.dreg()?;
                let [a, b, p] = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let [x, y] = self.f64s(lane, &[a, b])?;
                    let v = if self.spred(lane, p)? {
                        fpu::min_2008(x, y)
                    } else {
                        fpu::max_2008(x, y)
                    };
                    self.lanes.set_reg_pair(lane, d, v.to_bits());
                }
            }
            F2F { dst, src } => {
                let d = self.dreg()?;
                let [x] = self.ops::<1>()?;
                for lane in lanes_of(guarded) {
                    match (dst, src) {
                        (FpFormat::Fp32, FpFormat::Fp64) => {
                            let v = f64::from_bits(self.s64(lane, x)?) as f32;
                            self.lanes.set_reg(lane, d, v.to_bits());
                        }
                        (FpFormat::Fp64, FpFormat::Fp32) => {
                            let v = f32::from_bits(self.s32(lane, x)?) as f64;
                            self.lanes.set_reg_pair(lane, d, v.to_bits());
                        }
                        _ => return Err(format!("unsupported F2F {dst}->{src}")),
                    }
                }
            }
            I2F => {
                let d = self.dreg()?;
                let [x] = self.ops::<1>()?;
                for lane in lanes_of(guarded) {
                    let v = self.sint(lane, x)? as f32;
                    self.lanes.set_reg(lane, d, v.to_bits());
                }
            }
            F2I => {
                let d = self.dreg()?;
                let [x] = self.ops::<1>()?;
                for lane in lanes_of(guarded) {
                    let v = f32::from_bits(self.s32(lane, x)?);
                    self.lanes
                        .set_reg(lane, d, if v.is_nan() { 0 } else { v as i32 } as u32);
                }
            }
            Mov | Mov32I => {
                let d = self.dreg()?;
                let [x] = self.ops::<1>()?;
                for lane in lanes_of(guarded) {
                    let v = self.s32(lane, x)?;
                    self.lanes.set_reg(lane, d, v);
                }
            }
            IAdd3 => {
                let d = self.dreg()?;
                let srcs: Vec<Operand> = self.instr.src_operands().to_vec();
                for lane in lanes_of(guarded) {
                    let mut acc = 0i32;
                    for s in &srcs {
                        acc = acc.wrapping_add(self.sint(lane, s)?);
                    }
                    self.lanes.set_reg(lane, d, acc as u32);
                }
            }
            IMad => {
                let d = self.dreg()?;
                let [a, b, c] = self.ops::<3>()?;
                for lane in lanes_of(guarded) {
                    let v = self
                        .sint(lane, a)?
                        .wrapping_mul(self.sint(lane, b)?)
                        .wrapping_add(self.sint(lane, c)?);
                    self.lanes.set_reg(lane, d, v as u32);
                }
            }
            ISetP(cmp) => {
                let p = self.dpred()?;
                let [a, b] = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let hit = cmp.eval(self.sint(lane, a)?, self.sint(lane, b)?);
                    self.lanes.set_pred(lane, p, hit);
                }
            }
            Shl => {
                let d = self.dreg()?;
                let [a, b] = self.ops::<2>()?;
                for lane in lanes_of(guarded) {
                    let v = (self.sint(lane, a)? as u32) << (self.sint(lane, b)? as u32 & 31);
                    self.lanes.set_reg(lane, d, v);
                }
            }
            S2R(sr) => {
                let d = self.dreg()?;
                for lane in lanes_of(guarded) {
                    let v = match sr {
                        SpecialReg::TidX => IDS.warp * 32 + lane,
                        SpecialReg::CtaidX => IDS.block,
                        SpecialReg::NtidX => IDS.ntid,
                        SpecialReg::LaneId => lane,
                    };
                    self.lanes.set_reg(lane, d, v);
                }
            }
            Ldc(w) => {
                let d = self.dreg()?;
                let Operand::CBank(c) = self.op(1)? else {
                    return Err("LDC source must be a cbank reference".into());
                };
                let c = *c;
                for lane in lanes_of(guarded) {
                    match w {
                        MemWidth::W32 => {
                            self.lanes
                                .set_reg(lane, d, self.cbanks.read_u32(c.bank, c.offset))
                        }
                        MemWidth::W64 => {
                            self.lanes
                                .set_reg_pair(lane, d, self.cbanks.read_u64(c.bank, c.offset))
                        }
                    }
                }
            }
            Nop => {}
            other => unreachable!("no generated case uses {other:?}"),
        }
        Ok(())
    }
}

/// Run the scalar reference on the lanes the guard selects.
fn run_scalar(
    instr: &Instruction,
    lanes: &mut WarpLanes,
    ctrl: &WarpControl,
    cbanks: &ConstBanks,
) -> Result<(), String> {
    let exec = ctrl.exec_mask();
    let guarded = match instr.guard {
        None => exec,
        Some(g) => lanes_of(exec)
            .filter(|&l| lanes.pred(l, g.reg) != g.neg)
            .fold(0, |m, l| m | 1 << l),
    };
    if guarded == 0 {
        return Ok(());
    }
    Scalar {
        lanes,
        cbanks,
        instr,
    }
    .exec(guarded)
}

/// The destination format whose NaNs compare equal (see the module doc).
fn nan_format(instr: &Instruction) -> Option<FpFormat> {
    use BaseOp::*;
    match instr.opcode.base {
        FAdd | FAdd32I | FMul | FMul32I | FFma | FFma32I => Some(FpFormat::Fp32),
        HAdd | HMul | HFma => Some(FpFormat::Fp16),
        DAdd | DMul | DFma => Some(FpFormat::Fp64),
        _ => None,
    }
}

fn same_lane_state(instr: &Instruction, a: &WarpLanes, b: &WarpLanes, lane: u32) -> bool {
    let nan_ok = nan_format(instr);
    let dst = instr.dest_reg();
    let is_nan = |l: &WarpLanes, r: Reg, f: FpFormat| match f {
        FpFormat::Fp32 => f32::from_bits(l.reg(lane, r)).is_nan(),
        FpFormat::Fp16 => (l.reg(lane, r) & 0x7fff) > 0x7c00 && l.reg(lane, r) >> 16 == 0,
        FpFormat::Fp64 => f64::from_bits(l.reg_pair(lane, r)).is_nan(),
    };
    let both_nan = |r: Reg| match (nan_ok, dst) {
        (Some(f), Some(d)) if d != RZ => {
            let base = if f == FpFormat::Fp64 && r == d + 1 {
                d
            } else {
                r
            };
            (base == d) && is_nan(a, d, f) && is_nan(b, d, f)
        }
        _ => false,
    };
    (0..a.num_regs() as Reg).all(|r| a.reg(lane, r) == b.reg(lane, r) || both_nan(r))
        && (0..8).all(|p| a.pred(lane, p) == b.pred(lane, p))
}

fn check_case(seed: u64, rng: &mut Rng, cbanks: &ConstBanks) {
    let instr = instruction(rng);
    let (lanes0, ctrl0) = random_warp(rng);
    let (mut rows, mut ctrl) = (clone_lanes(&lanes0), ctrl0.clone());
    let mut scalar = clone_lanes(&lanes0);
    let got = run_rows(&instr, &mut rows, &mut ctrl, cbanks);
    let want = run_scalar(&instr, &mut scalar, &ctrl0, cbanks);
    let ctx = || {
        format!(
            "seed {seed}: {} (guard {:?}, exec {:#010x})",
            instr.sass(),
            instr.guard,
            ctrl0.exec_mask()
        )
    };
    match (&got, &want) {
        (Ok(()), Ok(())) => {}
        (Err(SimError::BadInstr { kernel, pc, msg }), Err(w)) => {
            assert_eq!(
                (kernel.as_str(), *pc, msg.as_str()),
                ("diff", 0, w.as_str()),
                "{}",
                ctx()
            );
            // A failed instruction has no defined partial state to compare.
            return;
        }
        _ => panic!("{}: rows gave {got:?}, scalar gave {want:?}", ctx()),
    }
    for lane in 0..32 {
        assert!(
            same_lane_state(&instr, &rows, &scalar, lane),
            "{}: lane {lane} differs",
            ctx()
        );
    }
}

fn clone_lanes(l: &WarpLanes) -> WarpLanes {
    let mut c = WarpLanes::new(l.num_regs() as u16 - 2);
    for r in 0..l.num_regs() as Reg {
        c.write_row(r, u32::MAX, l.reg_row(r));
    }
    for p in 0..7 {
        c.set_pred_mask(p, u32::MAX, l.pred_mask(p));
    }
    c
}

fn cbanks(rng: &mut Rng) -> ConstBanks {
    let mut c = ConstBanks::new();
    for off in (0x160..0x1a0).step_by(4) {
        c.write_u32(0, off, value(rng));
    }
    c
}

#[test]
fn row_interpreter_matches_the_scalar_reference() {
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let cb = cbanks(&mut rng);
        for _ in 0..500 {
            check_case(seed, &mut rng, &cb);
        }
    }
}

#[test]
fn exited_and_predicated_off_lanes_keep_their_registers() {
    let mut rng = Rng(7);
    let (lanes0, mut ctrl) = random_warp(&mut rng);
    ctrl.mask = u32::MAX;
    ctrl.exited = 0x0000_00f0;
    let mut lanes = clone_lanes(&lanes0);
    lanes.set_pred_mask(2, u32::MAX, 0x0000_ffff);
    let instr = Instruction {
        opcode: Opcode::new(BaseOp::FAdd),
        guard: Some(PredGuard { neg: false, reg: 2 }),
        operands: vec![reg(4, false), reg(4, true), Operand::ImmDouble(1.0)],
        loc: None,
    };
    run_rows(&instr, &mut lanes, &mut ctrl, &ConstBanks::new()).unwrap();
    for lane in 0..32 {
        let ran = lane < 16 && !(4..8).contains(&lane);
        let before = f32::from_bits(lanes0.reg(lane, 4));
        let want = if ran {
            fpu::fadd(-before, 1.0, false).to_bits()
        } else {
            lanes0.reg(lane, 4)
        };
        assert_eq!(lanes.reg(lane, 4), want, "lane {lane}");
    }
}

#[test]
fn overlapping_fp64_destination_reads_every_source_first() {
    // DADD R2, R1, R3: the destination pair (R2, R3) overlaps both source
    // pairs (R1, R2) and (R3, R4); every lane must read its sources before
    // any lane's pair is written.
    let mut lanes = WarpLanes::new(8);
    for lane in 0..32 {
        lanes.set_reg_pair(lane, 1, (lane as f64 + 0.5).to_bits());
        lanes.set_reg_pair(lane, 3, 2.0f64.to_bits());
    }
    let want: Vec<u64> = (0..32)
        .map(|l| {
            (f64::from_bits(lanes.reg_pair(l, 1)) + f64::from_bits(lanes.reg_pair(l, 3))).to_bits()
        })
        .collect();
    let instr = Instruction::new(
        BaseOp::DAdd,
        vec![reg(2, false), reg(1, false), reg(3, false)],
    );
    let mut ctrl = WarpControl::new(32);
    run_rows(&instr, &mut lanes, &mut ctrl, &ConstBanks::new()).unwrap();
    for lane in 0..32 {
        assert_eq!(lanes.reg_pair(lane, 2), want[lane as usize], "lane {lane}");
    }
}

#[test]
fn bad_operand_errors_name_the_operand_and_pc() {
    let instr = Instruction::new(
        BaseOp::FFma,
        vec![
            reg(1, false),
            reg(2, false),
            Operand::Label(4),
            Operand::Mem(MemRef { base: 1, offset: 0 }),
        ],
    );
    let (mut lanes, mut ctrl) = (WarpLanes::new(8), WarpControl::new(32));
    match run_rows(&instr, &mut lanes, &mut ctrl, &ConstBanks::new()) {
        Err(SimError::BadInstr { pc: 0, msg, .. }) => {
            assert_eq!(msg, "bad FP32 source operand `(.L_4)");
        }
        other => panic!("{other:?}"),
    }
    // FSEL reads only the source each lane selects: with both sources
    // malformed, the error names the one the first guarded lane picks.
    let (label, mem) = (
        Operand::Label(4),
        Operand::Mem(MemRef { base: 1, offset: 0 }),
    );
    for (p0, first_pick) in [(0b01u32, &label), (0b10, &mem)] {
        let instr = Instruction::new(
            BaseOp::FSel,
            vec![reg(1, false), label.clone(), mem.clone(), pred(0, false)],
        );
        let (mut lanes, mut ctrl) = (WarpLanes::new(8), WarpControl::new(32));
        lanes.set_pred_mask(0, u32::MAX, p0);
        match run_rows(&instr, &mut lanes, &mut ctrl, &ConstBanks::new()) {
            Err(SimError::BadInstr { msg, .. }) => {
                assert_eq!(msg, format!("bad FP32 source operand {first_pick}"));
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn write_row_touches_only_masked_lanes() {
    let mut l = WarpLanes::new(8);
    for lane in 0..WARP_SIZE {
        l.set_reg(lane, 2, 7);
    }
    let row: Row = std::array::from_fn(|i| 100 + i as u32);
    l.write_row(2, 0b1010, &row);
    assert_eq!(l.reg(1, 2), 101);
    assert_eq!(l.reg(3, 2), 103);
    assert_eq!(l.reg(0, 2), 7);
    assert_eq!(l.reg(31, 2), 7);
    l.write_row(RZ, u32::MAX, &row);
    assert_eq!(l.reg(5, RZ), 0);
    l.write_row_pair(4, 1 << 9, &[(-2.5f64).to_bits(); 32]);
    assert_eq!(l.reg_pair(9, 4), (-2.5f64).to_bits());
    assert_eq!(l.reg_pair(8, 4), 0);
}

#[test]
fn pred_masks_match_per_lane_predicates() {
    let mut l = WarpLanes::new(8);
    l.set_pred_mask(2, 0x00ff, 0x0f0f);
    assert_eq!(l.pred_mask(2), 0x000f);
    assert!(l.pred(3, 2) && !l.pred(4, 2) && !l.pred(8, 2));
    l.set_pred_mask(PT, u32::MAX, 0);
    assert_eq!(l.pred_mask(PT), u32::MAX);
}

#[test]
fn mul_add_row_matches_scalar_mul_add_bit_for_bit() {
    // Double-rounding traps, signed zeros, specials and subnormals:
    // the row path must agree with per-lane `mul_add` exactly.
    let e = f32::EPSILON;
    let v = [
        1.0 + e,
        1.0 - e,
        -1.0,
        0.0,
        -0.0,
        1e-40f32,
        -1e-40f32,
        f32::MAX,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        3.0,
        1.0 / 3.0,
        1e-30,
    ];
    let mut a = [0f32; 32];
    let mut b = [0f32; 32];
    let mut c = [0f32; 32];
    for i in 0..v.len() {
        for j in 0..v.len() {
            for k in 0..v.len() {
                let l = (i * 7 + j * 3 + k) % 32;
                (a[l], b[l], c[l]) = (v[i], v[j], v[k]);
                if l == 31 {
                    let row = fpu::mul_add_row(&a, &b, &c);
                    for l in 0..32 {
                        assert_eq!(row[l].to_bits(), a[l].mul_add(b[l], c[l]).to_bits());
                    }
                }
            }
        }
    }
    let (x, y, z) = (
        [1.0 + f64::EPSILON; 32],
        [1.0 - f64::EPSILON; 32],
        [-1.0f64; 32],
    );
    assert_eq!(fpu::mul_add_row(&x, &y, &z)[5], x[5].mul_add(y[5], z[5]));
}
