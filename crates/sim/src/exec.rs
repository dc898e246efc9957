//! The warp interpreter: lockstep SIMT execution of SASS with divergence,
//! predication, and instrumentation callbacks.

use crate::fpu;
use crate::hooks::{ChannelPort, InjectionCtx, InstrumentedCode, When};
use crate::mem::{ConstBanks, DeviceMemory, MemFault};
use crate::timing::{Clock, CostModel};
use crate::warp::{Row, SyncFrame, WarpControl, WarpLanes};
use crate::WARP_SIZE;
use fpx_sass::instr::Instruction;
use fpx_sass::op::{BaseOp, MemWidth, SpecialReg};
use fpx_sass::operand::{Operand, RZ};
use fpx_sass::types::{f16_to_f32, f32_to_f16, pair_to_f64_bits};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Out-of-bounds device memory access.
    MemFault {
        kernel: String,
        pc: u32,
        fault: MemFault,
    },
    /// The launch exceeded the watchdog cycle budget (models the hangs the
    /// paper observed with BinFPE's undeduplicated channel traffic).
    Watchdog { cycles: u64 },
    /// A divergent branch executed with no enclosing `SSY` frame.
    NoSyncFrame { kernel: String, pc: u32 },
    /// Malformed instruction or operand for its opcode.
    BadInstr {
        kernel: String,
        pc: u32,
        msg: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MemFault { kernel, pc, fault } => {
                write!(f, "[{kernel}:{pc}] {fault}")
            }
            SimError::Watchdog { cycles } => {
                write!(
                    f,
                    "watchdog: launch exceeded {cycles} simulated cycles (hang)"
                )
            }
            SimError::NoSyncFrame { kernel, pc } => {
                write!(f, "[{kernel}:{pc}] divergent branch without SSY frame")
            }
            SimError::BadInstr { kernel, pc, msg } => write!(f, "[{kernel}:{pc}] {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a warp stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All lanes exited.
    Done,
    /// The warp reached a block-wide barrier (`BAR.SYNC`).
    Barrier,
}

enum PathEnd {
    Continue,
    WarpDone,
}

/// Identity of a warp within a launch, used for `S2R` and reports.
#[derive(Debug, Clone, Copy)]
pub struct WarpIds {
    pub block: u32,
    pub warp: u32,
    /// Threads per block.
    pub ntid: u32,
}

/// Per-launch statistics (the raw material of the slowdown metric).
///
/// Every field is a schedule-free total: per-warp-instruction increments
/// summed over blocks, so parallel workers' stats merge (via [`add`])
/// into exactly the serial run's numbers.
///
/// [`add`]: ExecStats::add
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Warp-instructions executed.
    pub warp_instrs: u64,
    /// Warp-instructions that GPU-FPX would instrument.
    pub fp_warp_instrs: u64,
    /// FP32-class warp-instructions (Algorithm 1's "FP32 prefix" bucket).
    pub fp32_warp_instrs: u64,
    /// FP64-class warp-instructions.
    pub fp64_warp_instrs: u64,
    /// FP16-class warp-instructions.
    pub fp16_warp_instrs: u64,
    /// Injected device-function calls performed.
    pub injected_calls: u64,
    /// Cycles charged for injected calls (call overhead + argument
    /// staging, not the work the injected function itself charges).
    pub injected_cycles: u64,
    /// Subset of `injected_calls` that were shadow-sanitizer hooks
    /// (`DeviceFn::is_shadow`), split out for `shadow`-phase attribution.
    pub shadow_calls: u64,
    /// Subset of `injected_cycles` charged for shadow-sanitizer hooks.
    pub shadow_cycles: u64,
    /// Subset of `injected_calls` that were coach lineage hooks
    /// (`DeviceFn::is_coach`), split out for `coach`-phase attribution.
    pub coach_calls: u64,
    /// Subset of `injected_cycles` charged for coach lineage hooks.
    pub coach_cycles: u64,
}

impl ExecStats {
    pub fn add(&mut self, other: &ExecStats) {
        self.warp_instrs += other.warp_instrs;
        self.fp_warp_instrs += other.fp_warp_instrs;
        self.fp32_warp_instrs += other.fp32_warp_instrs;
        self.fp64_warp_instrs += other.fp64_warp_instrs;
        self.fp16_warp_instrs += other.fp16_warp_instrs;
        self.injected_calls += other.injected_calls;
        self.injected_cycles += other.injected_cycles;
        self.shadow_calls += other.shadow_calls;
        self.shadow_cycles += other.shadow_cycles;
        self.coach_calls += other.coach_calls;
        self.coach_cycles += other.coach_cycles;
    }
}

/// Shared memory of one block.
pub struct SharedMem {
    bytes: Vec<u8>,
}

impl SharedMem {
    pub fn new(size: u32) -> Self {
        SharedMem {
            bytes: vec![0u8; size as usize],
        }
    }

    /// Re-initialize to `size` zeroed bytes, reusing the allocation when
    /// it is large enough — the per-block arena's recycling hook.
    pub fn reset(&mut self, size: u32) {
        self.bytes.clear();
        self.bytes.resize(size as usize, 0);
    }

    fn load(&self, addr: u32, w: MemWidth) -> Result<u64, MemFault> {
        let end = addr as usize + w.bytes() as usize;
        if end > self.bytes.len() {
            return Err(MemFault {
                addr,
                len: w.bytes(),
            });
        }
        let mut buf = [0u8; 8];
        buf[..w.bytes() as usize].copy_from_slice(&self.bytes[addr as usize..end]);
        Ok(u64::from_le_bytes(buf))
    }

    fn store(&mut self, addr: u32, v: u64, w: MemWidth) -> Result<(), MemFault> {
        let end = addr as usize + w.bytes() as usize;
        if end > self.bytes.len() {
            return Err(MemFault {
                addr,
                len: w.bytes(),
            });
        }
        self.bytes[addr as usize..end].copy_from_slice(&v.to_le_bytes()[..w.bytes() as usize]);
        Ok(())
    }
}

/// Execution context for one warp; `run` drives it to the next stop point.
///
/// `global` is a shared reference: blocks on different SM workers access
/// device memory concurrently through its atomic word operations. The
/// channel is reached through the owning block's [`ChannelPort`], which
/// stamps pushes for the deterministic host-side merge.
pub struct WarpExec<'a, 'c> {
    pub code: &'a InstrumentedCode,
    pub lanes: &'a mut WarpLanes,
    pub ctrl: &'a mut WarpControl,
    pub global: &'a DeviceMemory,
    pub shared: &'a mut SharedMem,
    pub cbanks: &'a ConstBanks,
    pub clock: &'a mut Clock,
    pub cost: &'a CostModel,
    pub channel: &'a mut ChannelPort<'c>,
    pub ids: WarpIds,
    pub launch_id: u64,
    pub stats: &'a mut ExecStats,
    /// Absolute cycle ceiling for the launch (in this worker's clock
    /// domain — see `Gpu::launch_with_channel` for the parallel mapping).
    pub watchdog: u64,
}

impl WarpExec<'_, '_> {
    fn err(&self, msg: impl Into<String>) -> SimError {
        SimError::BadInstr {
            kernel: self.code.code.name.clone(),
            pc: self.ctrl.pc,
            msg: msg.into(),
        }
    }

    fn mem_err(&self, fault: MemFault) -> SimError {
        SimError::MemFault {
            kernel: self.code.code.name.clone(),
            pc: self.ctrl.pc,
            fault,
        }
    }

    /// Resolve an FP32 source operand into a row of raw bits: a register
    /// is its SoA row (sign-flipped when negated); an immediate, cbank or
    /// `GENERIC` literal is broadcast.
    fn row32(&self, op: &Operand) -> Result<Row, SimError> {
        Ok(match op {
            Operand::Reg { num, neg, .. } => {
                let flip = if *neg { 0x8000_0000 } else { 0 };
                self.lanes.reg_row(*num).map(|b| b ^ flip)
            }
            Operand::ImmDouble(v) => [(*v as f32).to_bits(); LANES],
            Operand::ImmInt(v) => [*v as u32; LANES],
            Operand::CBank(c) => [self.cbanks.read_u32(c.bank, c.offset); LANES],
            Operand::Generic(s) => [generic_bits(s).0; LANES],
            _ => return Err(self.err(format!("bad FP32 source operand {op}"))),
        })
    }

    /// Resolve an FP64 source operand into a row of raw bits (register
    /// pair concatenation per §2.2).
    fn row64(&self, op: &Operand) -> Result<Row64, SimError> {
        Ok(match op {
            Operand::Reg { num, neg, .. } => {
                let flip = if *neg { 1 << 63 } else { 0 };
                if *num == RZ {
                    [flip; LANES]
                } else {
                    let (lo, hi) = (self.lanes.reg_row(*num), self.lanes.reg_row(*num + 1));
                    std::array::from_fn(|l| pair_to_f64_bits(lo[l], hi[l]) ^ flip)
                }
            }
            Operand::ImmDouble(v) => [v.to_bits(); LANES],
            Operand::CBank(c) => [self.cbanks.read_u64(c.bank, c.offset); LANES],
            Operand::Generic(s) => [generic_bits(s).1; LANES],
            _ => return Err(self.err(format!("bad FP64 source operand {op}"))),
        })
    }

    /// Resolve an integer source operand into a row (two's-complement
    /// bits; a negated register is negated, not sign-flipped).
    fn row_int(&self, op: &Operand) -> Result<Row, SimError> {
        Ok(match op {
            Operand::Reg { num, neg, .. } => {
                let row = self.lanes.reg_row(*num);
                if *neg {
                    row.map(u32::wrapping_neg)
                } else {
                    *row
                }
            }
            Operand::ImmInt(v) => [*v as i32 as u32; LANES],
            Operand::CBank(c) => [self.cbanks.read_u32(c.bank, c.offset); LANES],
            _ => return Err(self.err(format!("bad integer source operand {op}"))),
        })
    }

    /// Lanes on which a predicate source operand reads true.
    fn pred_operand_mask(&self, op: &Operand) -> Result<u32, SimError> {
        match op {
            Operand::Pred(p) => Ok(self.lanes.pred_mask(p.reg) ^ if p.neg { u32::MAX } else { 0 }),
            _ => Err(self.err(format!("expected predicate operand, got {op}"))),
        }
    }

    /// Source operands `1..=N`, checked for presence in order before any
    /// of them is resolved.
    fn srcs<'i, const N: usize>(
        &self,
        instr: &'i Instruction,
    ) -> Result<[&'i Operand; N], SimError> {
        let mut out = [None; N];
        for (i, o) in out.iter_mut().enumerate() {
            *o = Some(self.operand(instr, i + 1)?);
        }
        Ok(out.map(|o| o.expect("filled above")))
    }

    fn operand<'i>(&self, instr: &'i Instruction, i: usize) -> Result<&'i Operand, SimError> {
        instr
            .operands
            .get(i)
            .ok_or_else(|| self.err(format!("missing operand {i} for {}", instr.sass())))
    }

    /// Lanes (within `mask`) whose guard predicate passes.
    fn guarded_mask(&self, instr: &Instruction, mask: u32) -> u32 {
        match instr.guard {
            None => mask,
            Some(g) => mask & (self.lanes.pred_mask(g.reg) ^ if g.neg { u32::MAX } else { 0 }),
        }
    }

    fn run_injections(&mut self, pc: u32, when: When, exec_mask: u32, guarded_mask: u32) {
        // `code` is a shared `&'a` borrow, independent of `&mut self`, so
        // the hook list is walked in place while each call gets the warp's
        // mutable state.
        let code = self.code;
        for inj in &code.injections[pc as usize] {
            if inj.when != when {
                continue;
            }
            let call_cycles =
                self.cost.injected_call + self.cost.injected_arg * inj.num_runtime_args as u64;
            self.clock.charge(call_cycles);
            self.stats.injected_calls += 1;
            self.stats.injected_cycles += call_cycles;
            if inj.is_shadow {
                self.stats.shadow_calls += 1;
                self.stats.shadow_cycles += call_cycles;
            } else if inj.is_coach {
                self.stats.coach_calls += 1;
                self.stats.coach_cycles += call_cycles;
            }
            let mut ctx = InjectionCtx {
                kernel_name: &code.code.name,
                launch_id: self.launch_id,
                pc,
                block: self.ids.block,
                warp: self.ids.warp,
                exec_mask,
                guarded_mask,
                lanes: self.lanes,
                global: self.global,
                cbanks: self.cbanks,
                clock: self.clock,
                channel: self.channel,
            };
            inj.func.call(&mut ctx);
        }
    }

    /// Execute until the warp exits or reaches a barrier.
    pub fn run(&mut self) -> Result<StopReason, SimError> {
        loop {
            if self.clock.cycles() > self.watchdog {
                return Err(SimError::Watchdog {
                    cycles: self.watchdog,
                });
            }
            let pc = self.ctrl.pc;
            let Some(instr) = self.code.code.instrs.get(pc as usize) else {
                return Err(self.err("fell off the end of the kernel"));
            };
            let exec_mask = self.ctrl.exec_mask();
            debug_assert_ne!(exec_mask, 0, "scheduled a warp path with no lanes");

            self.clock.charge(self.cost.instr_cost(instr.opcode.base));
            self.stats.warp_instrs += 1;
            if instr.opcode.base.is_fp_instrumented() {
                self.stats.fp_warp_instrs += 1;
                match instr.opcode.base.fp_format() {
                    Some(fpx_sass::types::FpFormat::Fp32) => self.stats.fp32_warp_instrs += 1,
                    Some(fpx_sass::types::FpFormat::Fp64) => self.stats.fp64_warp_instrs += 1,
                    Some(fpx_sass::types::FpFormat::Fp16) => self.stats.fp16_warp_instrs += 1,
                    None => {}
                }
            }

            let guarded = self.guarded_mask(instr, exec_mask);
            self.run_injections(pc, When::Before, exec_mask, guarded);

            // Control-flow opcodes manage the PC themselves.
            match instr.opcode.base {
                BaseOp::Bra => {
                    let target = self.branch_target(instr)?;
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    if guarded == exec_mask {
                        self.ctrl.pc = target;
                    } else if guarded == 0 {
                        self.ctrl.pc = pc + 1;
                    } else {
                        // Divergence: current path takes the branch, the
                        // fall-through lanes are deferred on the innermost
                        // SSY frame.
                        let not_taken = exec_mask & !guarded;
                        let Some(frame) = self.ctrl.stack.last_mut() else {
                            return Err(SimError::NoSyncFrame {
                                kernel: self.code.code.name.clone(),
                                pc,
                            });
                        };
                        frame.pending.push((pc + 1, not_taken));
                        self.ctrl.mask = guarded;
                        self.ctrl.pc = target;
                    }
                    continue;
                }
                BaseOp::Ssy => {
                    let target = self.branch_target(instr)?;
                    self.ctrl.stack.push(SyncFrame {
                        reconv: target,
                        mask: exec_mask,
                        pending: Vec::new(),
                    });
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    self.ctrl.pc = pc + 1;
                    continue;
                }
                BaseOp::Sync => {
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    match self.end_path()? {
                        PathEnd::Continue => continue,
                        PathEnd::WarpDone => return Ok(StopReason::Done),
                    }
                }
                BaseOp::Exit => {
                    self.ctrl.exited |= guarded;
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    if self.ctrl.exec_mask() != 0 {
                        self.ctrl.pc = pc + 1;
                        continue;
                    }
                    match self.end_path()? {
                        PathEnd::Continue => continue,
                        PathEnd::WarpDone => return Ok(StopReason::Done),
                    }
                }
                BaseOp::Bar => {
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    self.ctrl.pc = pc + 1;
                    return Ok(StopReason::Barrier);
                }
                _ => {}
            }

            // Data instructions execute on the guarded lanes.
            if guarded != 0 {
                self.exec_data(instr, guarded)?;
            }
            self.run_injections(pc, When::After, exec_mask, guarded);
            self.ctrl.pc = pc + 1;
        }
    }

    fn branch_target(&self, instr: &Instruction) -> Result<u32, SimError> {
        match instr.operands.first() {
            Some(Operand::Label(t)) => Ok(*t),
            other => Err(self.err(format!("branch without label target: {other:?}"))),
        }
    }

    /// A path died (SYNC reached, or all its lanes exited): switch to the
    /// next pending divergent path, or merge and continue past the
    /// reconvergence point.
    fn end_path(&mut self) -> Result<PathEnd, SimError> {
        loop {
            let Some(frame) = self.ctrl.stack.last_mut() else {
                return if self.ctrl.exec_mask() == 0 {
                    Ok(PathEnd::WarpDone)
                } else {
                    Err(self.err("SYNC with empty divergence stack"))
                };
            };
            if let Some((ppc, pmask)) = frame.pending.pop() {
                if pmask & !self.ctrl.exited != 0 {
                    self.ctrl.mask = pmask;
                    self.ctrl.pc = ppc;
                    return Ok(PathEnd::Continue);
                }
                continue; // that path's lanes all exited; try the next
            }
            let f = self.ctrl.stack.pop().expect("frame checked above");
            self.ctrl.mask = f.mask;
            // The merge skips the SYNC at the reconvergence point: its job
            // (this merge) is already done for all paths of this frame.
            self.ctrl.pc = f.reconv + 1;
            if self.ctrl.exec_mask() != 0 {
                return Ok(PathEnd::Continue);
            }
            // Every lane in the frame exited; unwind further.
        }
    }

    /// Execute a non-control instruction on the guarded lanes.
    ///
    /// Every source operand is resolved once into a 32-lane row. Pure ops
    /// compute all 32 lanes branch-free and write back only the guarded
    /// lanes (exited and predicated-off lanes keep their state); memory
    /// ops keep a lane-ordered loop so a fault leaves exactly the stores
    /// of the lanes before it and reports the first faulting lane.
    fn exec_data(&mut self, instr: &Instruction, guarded: u32) -> Result<(), SimError> {
        use BaseOp::*;
        let ftz = instr.opcode.mods.ftz;
        let base = instr.opcode.base;
        if matches!(base, Ldg(_) | Stg(_) | Lds(_) | Sts(_) | Nop) {
            return self.exec_memory(instr, guarded);
        }
        // The destination is checked before any source, as hardware
        // decodes it first.
        let dst = if base.writes_predicate() {
            Dst::Pred(self.dest_pred(instr)?)
        } else {
            Dst::Reg(self.dest_reg(instr)?)
        };
        let out = match base {
            FAdd | FAdd32I => Out::Reg(self.fp32(instr, ftz, |[a, b]| zip2(a, b, |x, y| x + y))?),
            FMul | FMul32I => Out::Reg(self.fp32(instr, ftz, |[a, b]| zip2(a, b, |x, y| x * y))?),
            FFma | FFma32I => {
                Out::Reg(self.fp32(instr, ftz, |[a, b, c]| fpu::mul_add_row(a, b, c))?)
            }
            // FP16 ops compute through f32 (as the tensor-core-era hardware
            // does for scalar halves) and narrow the result back to binary16.
            HAdd => Out::Reg(self.fp16(instr, |[a, b]| a + b)?),
            HMul => Out::Reg(self.fp16(instr, |[a, b]| a * b)?),
            HFma => Out::Reg(self.fp16(instr, |[a, b, c]| a.mul_add(b, c))?),
            DAdd => Out::Pair(self.fp64(instr, |[a, b]| zip2(a, b, |x, y| x + y))?),
            DMul => Out::Pair(self.fp64(instr, |[a, b]| zip2(a, b, |x, y| x * y))?),
            DFma => Out::Pair(self.fp64(instr, |[a, b, c]| fpu::mul_add_row(a, b, c))?),
            Mufu(func) => {
                let [x] = self.rows(instr, Self::row32)?;
                Out::Reg(if func.is_64h() {
                    x.map(|hi| fpu::mufu64h(func, hi))
                } else {
                    x.map(|b| fpu::mufu32(func, f32::from_bits(b)).to_bits())
                })
            }
            // FCHK Pd, Ra, Rb — true when a/b needs the slow fix-up path
            // (zero/INF/NaN divisor, non-finite dividend, or extreme
            // exponent split).
            FChk => {
                let [a, b] = self.rows(instr, Self::row32)?;
                Out::Pred(lane_mask(|l| {
                    let (a, b) = (f32::from_bits(a[l]), f32::from_bits(b[l]));
                    b == 0.0
                        || !b.is_finite()
                        || !a.is_finite()
                        || b.is_subnormal()
                        || (a != 0.0 && (a.abs().log2() - b.abs().log2()).abs() > 125.0)
                }))
            }
            FSel => return self.fsel(instr, dst, guarded),
            FSet(cmp) => {
                let [a, b] = self.rows(instr, Self::row32)?;
                Out::Reg(std::array::from_fn(|l| {
                    let hit = cmp.eval(widen32(a[l]), widen32(b[l]));
                    if hit { 1.0f32 } else { 0.0 }.to_bits()
                }))
            }
            FSetP(cmp) => {
                let [a, b] = self.rows(instr, Self::row32)?;
                Out::Pred(lane_mask(|l| cmp.eval(widen32(a[l]), widen32(b[l]))))
            }
            DSetP(cmp) => {
                let [a, b] = self.rows(instr, Self::row64)?;
                Out::Pred(lane_mask(|l| {
                    cmp.eval(f64::from_bits(a[l]), f64::from_bits(b[l]))
                }))
            }
            // FMNMX Rd, Ra, Rb, Pp — min if Pp else max, IEEE-2008
            // NaN-swallowing semantics.
            FMnMx => {
                let ([a, b], is_min) = self.min_max_operands(instr, Self::row32)?;
                Out::Reg(std::array::from_fn(|l| {
                    let v = min_max(is_min, l, widen32(a[l]), widen32(b[l])) as f32;
                    fpu::maybe_ftz32(v, ftz).to_bits()
                }))
            }
            DMnMx => {
                let ([a, b], is_min) = self.min_max_operands(instr, Self::row64)?;
                Out::Pair(std::array::from_fn(|l| {
                    min_max(is_min, l, f64::from_bits(a[l]), f64::from_bits(b[l])).to_bits()
                }))
            }
            F2F { dst, src } => {
                use fpx_sass::types::FpFormat::*;
                let [op] = self.srcs(instr)?;
                match (dst, src) {
                    (Fp32, Fp64) => Out::Reg(
                        self.row64(op)?
                            .map(|b| (f64::from_bits(b) as f32).to_bits()),
                    ),
                    (Fp64, Fp32) => Out::Pair(
                        self.row32(op)?
                            .map(|b| (f32::from_bits(b) as f64).to_bits()),
                    ),
                    _ => return Err(self.err(format!("unsupported F2F {dst}->{src}"))),
                }
            }
            I2F => {
                let [x] = self.rows(instr, Self::row_int)?;
                Out::Reg(x.map(|v| (v as i32 as f32).to_bits()))
            }
            F2I => {
                let [x] = self.rows(instr, Self::row32)?;
                Out::Reg(x.map(|b| {
                    let x = f32::from_bits(b);
                    (if x.is_nan() { 0 } else { x as i32 }) as u32
                }))
            }
            // MOV copies raw bits; float immediates encode as f32.
            Mov | Mov32I => {
                let [x] = self.rows(instr, Self::row32)?;
                Out::Reg(x)
            }
            IAdd3 => {
                let mut acc = [0u32; LANES];
                for s in instr.src_operands() {
                    for (a, v) in acc.iter_mut().zip(self.row_int(s)?) {
                        *a = a.wrapping_add(v);
                    }
                }
                Out::Reg(acc)
            }
            IMad => {
                let [a, b, c] = self.rows(instr, Self::row_int)?;
                Out::Reg(std::array::from_fn(|l| {
                    a[l].wrapping_mul(b[l]).wrapping_add(c[l])
                }))
            }
            ISetP(cmp) => {
                let [a, b] = self.rows(instr, Self::row_int)?;
                Out::Pred(lane_mask(|l| cmp.eval(a[l] as i32, b[l] as i32)))
            }
            Shl => {
                let [a, b] = self.rows(instr, Self::row_int)?;
                Out::Reg(std::array::from_fn(|l| a[l] << (b[l] & 31)))
            }
            S2R(sr) => Out::Reg(std::array::from_fn(|l| match sr {
                SpecialReg::TidX => self.ids.warp * WARP_SIZE + l as u32,
                SpecialReg::CtaidX => self.ids.block,
                SpecialReg::NtidX => self.ids.ntid,
                SpecialReg::LaneId => l as u32,
            })),
            Ldc(w) => {
                let Operand::CBank(c) = self.operand(instr, 1)? else {
                    return Err(self.err("LDC source must be a cbank reference"));
                };
                match w {
                    MemWidth::W32 => Out::Reg([self.cbanks.read_u32(c.bank, c.offset); LANES]),
                    MemWidth::W64 => Out::Pair([self.cbanks.read_u64(c.bank, c.offset); LANES]),
                }
            }
            Ldg(_) | Stg(_) | Lds(_) | Sts(_) | Nop | Bra | Ssy | Sync | Bar | Exit => {
                unreachable!("handled before")
            }
        };
        match (dst, out) {
            (Dst::Reg(r), Out::Reg(row)) => self.lanes.write_row(r, guarded, &row),
            (Dst::Reg(r), Out::Pair(bits)) => self.lanes.write_row_pair(r, guarded, &bits),
            (Dst::Pred(p), Out::Pred(hit)) => self.lanes.set_pred_mask(p, guarded, hit),
            _ => unreachable!("{base:?} writes its destination's kind"),
        }
        Ok(())
    }

    /// FSEL Rd, Ra, Rb, Pp — Rd = Pp ? Ra : Rb. A lane reads only the
    /// source it selects, so a malformed source is an error only when
    /// some lane selects it (the first guarded lane's choice first).
    fn fsel(&mut self, instr: &Instruction, dst: Dst, guarded: u32) -> Result<(), SimError> {
        let Dst::Reg(dst) = dst else {
            unreachable!("FSEL writes a register")
        };
        let [a, b, p] = self.srcs(instr)?;
        let take_a = self.pred_operand_mask(p)? & guarded;
        let mut picks = [(a, take_a), (b, guarded & !take_a)];
        if take_a & (1 << guarded.trailing_zeros()) == 0 {
            picks.reverse();
        }
        for (op, lanes) in picks {
            if lanes != 0 {
                let row = self.row32(op)?;
                self.lanes.write_row(dst, lanes, &row);
            }
        }
        Ok(())
    }

    /// Sources and selector of FMNMX/DMNMX: both values, then the
    /// min-lanes mask.
    fn min_max_operands<T: Copy + Default>(
        &self,
        instr: &Instruction,
        resolve: fn(&Self, &Operand) -> Result<[T; LANES], SimError>,
    ) -> Result<([[T; LANES]; 2], u32), SimError> {
        let [a, b, p] = self.srcs(instr)?;
        let rows = [resolve(self, a)?, resolve(self, b)?];
        Ok((rows, self.pred_operand_mask(p)?))
    }

    /// LDG/STG/LDS/STS: one lane at a time in lane order, so a fault
    /// leaves the accesses of the lanes before it done.
    fn exec_memory(&mut self, instr: &Instruction, guarded: u32) -> Result<(), SimError> {
        let (w, store, global) = match instr.opcode.base {
            BaseOp::Ldg(w) => (w, false, true),
            BaseOp::Stg(w) => (w, true, true),
            BaseOp::Lds(w) => (w, false, false),
            BaseOp::Sts(w) => (w, true, false),
            _ => return Ok(()), // NOP
        };
        // `[addr], Rs` for stores, `Rd, [addr]` for loads.
        let (mem, reg) = if store {
            let mem = self.mem_ref(instr, 0)?;
            let name = if global { "STG" } else { "STS" };
            let src = self.operand(instr, 1)?.as_reg();
            (
                mem,
                src.ok_or_else(|| self.err(format!("{name} source must be a register")))?,
            )
        } else {
            let dst = self.dest_reg(instr)?;
            (self.mem_ref(instr, 1)?, dst)
        };
        let base = *self.lanes.reg_row(mem.base);
        for lane in lanes_of(guarded) {
            let addr = base[lane as usize].wrapping_add(mem.offset as u32);
            let r = if store {
                let v = match w {
                    MemWidth::W32 => self.lanes.reg(lane, reg) as u64,
                    MemWidth::W64 => self.lanes.reg_pair(lane, reg),
                };
                match (global, w) {
                    (true, MemWidth::W32) => self.global.store_u32(addr, v as u32),
                    (true, MemWidth::W64) => self.global.store_u64(addr, v),
                    (false, _) => self.shared.store(addr, v, w),
                }
            } else {
                let v = match (global, w) {
                    (true, MemWidth::W32) => self.global.load_u32(addr).map(u64::from),
                    (true, MemWidth::W64) => self.global.load_u64(addr),
                    (false, _) => self.shared.load(addr, w),
                };
                v.map(|v| match w {
                    MemWidth::W32 => self.lanes.set_reg(lane, reg, v as u32),
                    MemWidth::W64 => self.lanes.set_reg_pair(lane, reg, v),
                })
            };
            r.map_err(|f| self.mem_err(f))?;
        }
        Ok(())
    }

    fn dest_reg(&self, instr: &Instruction) -> Result<fpx_sass::operand::Reg, SimError> {
        match instr.operands.first() {
            Some(Operand::Reg { num, .. }) => Ok(*num),
            other => Err(self.err(format!("expected destination register, got {other:?}"))),
        }
    }

    fn dest_pred(&self, instr: &Instruction) -> Result<fpx_sass::operand::PredReg, SimError> {
        match instr.operands.first() {
            Some(Operand::Pred(p)) => Ok(p.reg),
            other => Err(self.err(format!("expected destination predicate, got {other:?}"))),
        }
    }

    fn mem_ref(
        &self,
        instr: &Instruction,
        i: usize,
    ) -> Result<fpx_sass::operand::MemRef, SimError> {
        match instr.operands.get(i) {
            Some(Operand::Mem(m)) => Ok(*m),
            other => Err(self.err(format!("expected memory operand, got {other:?}"))),
        }
    }

    /// `op(Ra, Rb, …)` over `N` FP32 source rows. With `.FTZ`, every
    /// input and the result are flushed (the `fpu::fadd` family's
    /// semantics, applied row-wide).
    fn fp32<const N: usize>(
        &self,
        instr: &Instruction,
        ftz: bool,
        op: impl Fn(&[[f32; LANES]; N]) -> [f32; LANES],
    ) -> Result<Row, SimError> {
        let mut x = self
            .rows(instr, Self::row32)?
            .map(|r| r.map(f32::from_bits));
        Ok(if ftz {
            for v in x.iter_mut().flatten() {
                *v = fpu::ftz32(*v);
            }
            op(&x).map(|v| fpu::ftz32(v).to_bits())
        } else {
            op(&x).map(f32::to_bits)
        })
    }

    /// `f(a, b, …)` lane-wise over `N` FP16 sources, computed in f32.
    fn fp16<const N: usize>(
        &self,
        instr: &Instruction,
        f: impl Fn([f32; N]) -> f32,
    ) -> Result<Row, SimError> {
        let rows: [Row; N] = self.rows(instr, Self::row32)?;
        Ok(std::array::from_fn(|l| {
            f32_to_f16(f(std::array::from_fn(|i| f16_to_f32(rows[i][l] as u16)))) as u32
        }))
    }

    /// `op(Ra, Rb, …)` over `N` FP64 source rows.
    fn fp64<const N: usize>(
        &self,
        instr: &Instruction,
        op: impl Fn(&[[f64; LANES]; N]) -> [f64; LANES],
    ) -> Result<Row64, SimError> {
        let rows = self.rows(instr, Self::row64)?;
        Ok(op(&rows.map(|r| r.map(f64::from_bits))).map(f64::to_bits))
    }

    /// Resolve sources `1..=N` with `resolve`, in operand order.
    fn rows<T: Copy + Default, const N: usize>(
        &self,
        instr: &Instruction,
        resolve: fn(&Self, &Operand) -> Result<[T; LANES], SimError>,
    ) -> Result<[[T; LANES]; N], SimError> {
        let ops = self.srcs::<N>(instr)?;
        let mut rows = [[T::default(); LANES]; N];
        for (row, op) in rows.iter_mut().zip(ops) {
            *row = resolve(self, op)?;
        }
        Ok(rows)
    }
}

/// Where a pure data op writes: a register (or FP64 pair) or a predicate.
#[derive(Clone, Copy)]
enum Dst {
    Reg(fpx_sass::operand::Reg),
    Pred(fpx_sass::operand::PredReg),
}

/// A pure data op's 32-lane result.
enum Out {
    Reg(Row),
    Pair(Row64),
    Pred(u32),
}

/// Lanes per warp, as an array length.
const LANES: usize = WARP_SIZE as usize;

/// One FP64 bit pattern per lane.
type Row64 = [u64; LANES];

/// `f(a[l], b[l])` for every lane.
#[inline]
fn zip2<T: Copy>(a: &[T; LANES], b: &[T; LANES], f: impl Fn(T, T) -> T) -> [T; LANES] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// Lane mask of the lanes where `f(lane)` holds.
#[inline]
fn lane_mask(f: impl Fn(usize) -> bool) -> u32 {
    (0..LANES).fold(0, |m, l| m | ((f(l) as u32) << l))
}

/// FP32 bits widened to f64 (compares and min/max run in f64).
#[inline]
fn widen32(bits: u32) -> f64 {
    f32::from_bits(bits) as f64
}

/// IEEE-2008 min on the lanes of `is_min`, max on the others.
#[inline]
fn min_max(is_min: u32, lane: usize, a: f64, b: f64) -> f64 {
    if (is_min >> lane) & 1 != 0 {
        fpu::min_2008(a, b)
    } else {
        fpu::max_2008(a, b)
    }
}

/// Iterate the set lane indices of a mask.
#[inline]
pub fn lanes_of(mask: u32) -> impl Iterator<Item = u32> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let lane = rest.trailing_zeros();
        rest &= rest.wrapping_sub(1);
        (lane < WARP_SIZE).then_some(lane)
    })
}

/// Bits of a `GENERIC` textual operand (`+INF`, `-QNAN`) as FP32 and
/// as FP64; anything else reads as zero.
fn generic_bits(s: &str) -> (u32, u64) {
    let (b32, b64) = if s.contains("NAN") {
        (f32::NAN.to_bits(), f64::NAN.to_bits())
    } else if s.contains("INF") {
        (f32::INFINITY.to_bits(), f64::INFINITY.to_bits())
    } else {
        return (0, 0);
    };
    let neg = s.starts_with('-');
    (b32 | (neg as u32) << 31, b64 | (neg as u64) << 63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_of_iterates_set_bits() {
        assert_eq!(lanes_of(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(lanes_of(0).count(), 0);
        assert_eq!(lanes_of(u32::MAX).count(), 32);
    }

    #[test]
    fn generic_literals() {
        let (n32, n64) = generic_bits("-QNAN");
        assert_eq!((n32, n64), (0xffc0_0000, (-f64::NAN).to_bits()));
        assert!(f32::from_bits(generic_bits("+QNAN").0).is_nan());
        assert_eq!(f32::from_bits(generic_bits("+INF").0), f32::INFINITY);
        assert_eq!(f32::from_bits(generic_bits("-INF").0), f32::NEG_INFINITY);
        assert_eq!(f64::from_bits(generic_bits("-INF").1), f64::NEG_INFINITY);
        assert_eq!(generic_bits("-X"), (0, 0));
    }
}
