//! Memory instructions keep lane order: a store whose lane 5 faults has
//! already stored lanes 0–4, and a fault reports the first faulting lane.

use fpx_sass::assemble_kernel;
use fpx_sass::kernel::KernelCode;
use fpx_sim::exec::{ExecStats, SharedMem, SimError, WarpExec, WarpIds};
use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};
use fpx_sim::hooks::{ChannelPort, InstrumentedCode, NullChannel};
use fpx_sim::mem::{ConstBanks, DeviceMemory, MemFault};
use fpx_sim::timing::{Clock, CostModel};
use fpx_sim::warp::{WarpControl, WarpLanes};
use std::sync::Arc;

const OOB: u32 = 0x7fff_fff0;

fn fault(err: SimError) -> (u32, MemFault) {
    match err {
        SimError::MemFault { pc, fault, .. } => (pc, fault),
        other => panic!("expected a memory fault, got {other:?}"),
    }
}

#[test]
fn stg_fault_on_lane_5_keeps_the_stores_of_lanes_0_to_4() {
    let src = format!(
        r#"
.kernel stg_fault
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    ISETP.GE.AND P0, R0, 0x5 ;
    @P0 MOV32I R3, {OOB:#x} ;
    MOV32I R4, 0x40e00000 ;
    STG.E [R3], R4 ;
    EXIT ;
"#
    );
    let code = Arc::new(assemble_kernel(&src).unwrap());
    let mut gpu = Gpu::new(Arch::Ampere);
    let out = gpu.mem.alloc(32 * 4).unwrap();
    let err = gpu
        .launch(
            &InstrumentedCode::plain(code),
            &LaunchConfig::new(1, 32, vec![ParamValue::Ptr(out)]),
        )
        .unwrap_err();
    assert_eq!(fault(err), (7, MemFault { addr: OOB, len: 4 }));
    let vals = gpu.mem.read_f32(out, 32).unwrap();
    assert_eq!(&vals[..5], &[7.0; 5], "lanes before the fault stored");
    assert!(
        vals[5..].iter().all(|&v| v == 0.0),
        "no lane at or past it did"
    );
}

/// Run `src` (one instruction, then `BAR.SYNC`) on one warp over the given
/// shared memory and lane state.
fn run_warp(src: &str, lanes: &mut WarpLanes, shared: &mut SharedMem) -> Result<(), SimError> {
    let code = InstrumentedCode::plain(Arc::new(KernelCode::new(
        "sts",
        assemble_kernel(&format!(".kernel sts\n    {src} ;\n    BAR.SYNC ;\n"))
            .unwrap()
            .instrs,
    )));
    let (global, cbanks, cost) = (
        DeviceMemory::new(4096),
        ConstBanks::new(),
        CostModel::default(),
    );
    let (mut clock, mut stats) = (Clock::default(), ExecStats::default());
    let mut ctrl = WarpControl::new(32);
    let mut port = ChannelPort::new(&NullChannel, 0, 0);
    WarpExec {
        code: &code,
        lanes,
        ctrl: &mut ctrl,
        global: &global,
        shared,
        cbanks: &cbanks,
        clock: &mut clock,
        cost: &cost,
        channel: &mut port,
        ids: WarpIds {
            block: 0,
            warp: 0,
            ntid: 32,
        },
        launch_id: 0,
        stats: &mut stats,
        watchdog: u64::MAX,
    }
    .run()
    .map(|_| ())
}

#[test]
fn sts_fault_on_lane_5_keeps_the_stores_of_lanes_0_to_4() {
    let mut shared = SharedMem::new(4096);
    let mut lanes = WarpLanes::new(8);
    for lane in 0..32 {
        lanes.set_reg(lane, 1, if lane < 5 { lane * 4 } else { 0x1_0000 + lane });
        lanes.set_reg(lane, 2, 100 + lane);
    }
    let err = run_warp("STS [R1], R2", &mut lanes, &mut shared).unwrap_err();
    assert_eq!(
        fault(err),
        (
            0,
            MemFault {
                addr: 0x1_0005,
                len: 4
            }
        )
    );
    // Read the first 32 words back through the interpreter.
    for lane in 0..32 {
        lanes.set_reg(lane, 1, lane * 4);
    }
    run_warp("LDS R3, [R1]", &mut lanes, &mut shared).unwrap();
    for lane in 0..32 {
        let want = if lane < 5 { 100 + lane } else { 0 };
        assert_eq!(lanes.reg(lane, 3), want, "shared word {lane}");
    }
}

#[test]
fn ldg_fault_reports_the_first_faulting_lane() {
    let src = format!(
        r#"
.kernel ldg_fault
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    ISETP.EQ.AND P0, R0, 0x9 ;
    @P0 MOV32I R3, {OOB:#x} ;
    ISETP.EQ.AND P1, R0, 0x3 ;
    @P1 MOV32I R3, {:#x} ;
    LDG.E R4, [R3] ;
    EXIT ;
"#,
        OOB + 8
    );
    let code = Arc::new(assemble_kernel(&src).unwrap());
    let mut gpu = Gpu::new(Arch::Ampere);
    let buf = gpu.mem.alloc(32 * 4).unwrap();
    let err = gpu
        .launch(
            &InstrumentedCode::plain(code),
            &LaunchConfig::new(1, 32, vec![ParamValue::Ptr(buf)]),
        )
        .unwrap_err();
    assert_eq!(
        fault(err),
        (
            8,
            MemFault {
                addr: OOB + 8,
                len: 4
            }
        )
    );
}
