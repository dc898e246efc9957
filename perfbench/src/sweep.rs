//! `sweep`: the paper's batch evaluation (Table 4 / Fig. 4). Each program
//! of a seeded, stratified draw runs uninstrumented, then under the
//! detector and the analyzer, with both reports rendered — one program
//! after another, one SM thread each.

use crate::spans::Tracer;
use crate::stats::{pick, stream, Digest};
use fpx_inject::SplitMix64;
use fpx_nvbit::tool::NvbitTool;
use fpx_nvbit::Nvbit;
use fpx_serve::job::{self, JobSpec, JobTool};
use fpx_sim::exec::SimError;
use fpx_sim::gpu::Gpu;
use fpx_sim::hooks::InstrumentedCode;
use fpx_suite::runner::{self, RunResult, RunnerConfig, Tool};
use fpx_suite::Program;
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig};
use gpu_fpx::detector::{Detector, DetectorConfig};
use gpu_fpx::report::DetectorReport;
use std::hint::black_box;
use std::sync::Arc;

/// One program is drawn from each stratum. Strata group programs of
/// similar host cost (baseline + detector + analyzer, measured on a
/// 2-core x86-64 host), modeled detector slowdown and peak memory, so
/// the batch's work barely depends on the seed; the first six hold
/// Table 4's exception-bearing programs, the rest clean ones that differ
/// in FP32/FP64 mix and launch counts.
pub const STRATA: &[&[&str]] = &[
    &["SRU-Example", "interval"],
    &[
        "cuSolverSp_LinearSolver",
        "cuSolverSp_LowlevelCholesky",
        "cuSolverRf",
        "cuSolverSp_LowlevelQR",
    ],
    &["cuSolverDn_LinearSolver", "LU"],
    &["GRAMSCHM", "conjugateGradientPrecond"],
    &["binomialOptions"],
    &["stencil", "FDTD3d"],
    &[
        "simpleAWBarrier",
        "conjugateGradientMultiBlockCG",
        "reductionMultiBlockCG",
    ],
    &["Stencil2D", "dwtHaar1D", "FFT", "concurrentKernels"],
    &["hotspot", "simpleCUFFT", "dct8x8", "matrixMul"],
    &["bandwidthTest", "simpleStreams", "tpacf", "srad_v1"],
    &[
        "backprop",
        "deviceQuery",
        "simpleVoteIntrinsics",
        "Reduction",
    ],
];

/// Tail percentile reported for sweep operations (one per program), over
/// the faster half of each operation's repetitions: the highest that a
/// 50-s run, about ten passes of the draw, keeps ten operations beyond.
pub const TAIL: f64 = 80.0;

/// Draw one program name per stratum.
pub fn draw(rng: &mut SplitMix64, strata: &[&[&'static str]]) -> Vec<&'static str> {
    strata.iter().map(|s| *pick(rng, s)).collect()
}

/// Resolve `names` against the suite registry, in order.
pub fn resolve(names: &[&str]) -> Result<Vec<Program>, String> {
    let registry = fpx_suite::registry();
    names
        .iter()
        .map(|n| {
            registry
                .iter()
                .find(|p| p.name == *n)
                .cloned()
                .ok_or_else(|| format!("program {n:?} is not in the suite registry"))
        })
        .collect()
}

pub fn setup(seed: u64) -> Result<Vec<Program>, String> {
    resolve(&draw(&mut stream(seed, 1), STRATA))
}

/// Outcome of one sweep operation.
pub struct ProgramRun {
    pub ms: f64,
    /// The detector found exactly the program's Table 4 row.
    pub ok: bool,
    /// The §4.2 detector slowdown in modeled cycles.
    pub slowdown: f64,
}

fn spec(program: &str, tool: JobTool) -> JobSpec {
    JobSpec {
        program: program.to_string(),
        tool,
        ..JobSpec::default()
    }
}

/// The detector reported exactly the expected Table 4 row; programs
/// outside Table 4 must report nothing.
pub fn table4_ok(program: &str, report: &DetectorReport, hung: bool) -> bool {
    let row = report.counts.row();
    !hung
        && match fpx_suite::expected::expected_row(program) {
            Some(expected) => row == expected,
            None => report.counts.total() == 0,
        }
}

fn record(
    digest: &mut Digest,
    p: &str,
    base: u64,
    det: &RunResult,
    det_text: &str,
    ana: &RunResult,
    ana_text: &str,
) {
    digest.entry(p, "baseline", base, 0, "");
    digest.entry(p, "detector", det.cycles, det.records, det_text);
    digest.entry(p, "analyzer", ana.cycles, ana.records, ana_text);
}

fn finish(p: &str, ms: f64, base: u64, det: &RunResult) -> ProgramRun {
    let report = det
        .detector_report
        .as_ref()
        .expect("detector run has a report");
    ProgramRun {
        ms,
        ok: table4_ok(p, report, det.hung),
        slowdown: det.cycles as f64 / base.max(1) as f64,
    }
}

/// One operation through the suite runner, as users run it.
pub fn run_program(p: &Program, digest: &mut Digest) -> Result<ProgramRun, SimError> {
    let cfg = RunnerConfig::default();
    let t0 = std::time::Instant::now();
    let base = runner::try_run_baseline(p, &cfg)?;
    let det = runner::try_run_with_tool(p, &cfg, &Tool::Detector(DetectorConfig::default()), base)?;
    let det_text = job::render(&spec(&p.name, JobTool::Detector), base, &det);
    let ana = runner::try_run_with_tool(p, &cfg, &Tool::Analyzer(AnalyzerConfig::default()), base)?;
    let ana_text = job::render(&spec(&p.name, JobTool::Analyzer), base, &ana);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box((&det_text, &ana_text));
    record(digest, &p.name, base, &det, &det_text, &ana, &ana_text);
    Ok(finish(&p.name, ms, base, &det))
}

/// The same operation with every layer call wrapped in a span: the steps
/// of `runner::try_run_baseline` and `runner::try_run_with_tool`, made
/// through the layers' own public functions.
pub fn run_program_traced(
    p: &Program,
    digest: &mut Digest,
    t: &Tracer,
) -> Result<ProgramRun, SimError> {
    let cfg = RunnerConfig::default();
    let t0 = std::time::Instant::now();
    let mut gpu = Gpu::new(cfg.arch);
    gpu.threads = cfg.threads.max(1);
    let plan = t.span("compiler.prepare", || p.prepare(&cfg.opts, &mut gpu.mem));
    for l in &plan.launches {
        let code = InstrumentedCode::plain(Arc::clone(&l.kernel));
        let stats = t.span("sim.launch", || gpu.launch(&code, &l.cfg))?;
        t.count("sim.launches", 1.0);
        t.count("sim.warp_instrs", stats.exec.warp_instrs as f64);
    }
    let base = gpu.clock.cycles();

    let (nv, mut det) = tool_run(
        p,
        &cfg,
        Detector::new(DetectorConfig::default()),
        base,
        t,
        "nvbit.launch.detector",
    )?;
    det.detector_report = Some(nv.tool.report().clone());
    let det_text = t.span("core.render", || {
        job::render(&spec(&p.name, JobTool::Detector), base, &det)
    });
    let (nv, mut ana) = tool_run(
        p,
        &cfg,
        Analyzer::new(AnalyzerConfig::default()),
        base,
        t,
        "nvbit.launch.analyzer",
    )?;
    ana.analyzer_report = Some(nv.tool.report().clone());
    let ana_text = t.span("core.render", || {
        job::render(&spec(&p.name, JobTool::Analyzer), base, &ana)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    t.count(
        "core.report_bytes",
        (det_text.len() + ana_text.len()) as f64,
    );
    record(digest, &p.name, base, &det, &det_text, &ana, &ana_text);
    Ok(finish(&p.name, ms, base, &det))
}

/// `run_plan_with_tool` of the suite runner, span by span. Returns the
/// context (for the tool's report) and a result without reports.
fn tool_run<T: NvbitTool>(
    p: &Program,
    cfg: &RunnerConfig,
    tool: T,
    base: u64,
    t: &Tracer,
    launch_span: &'static str,
) -> Result<(Nvbit<T>, RunResult), SimError> {
    let watchdog = ((base.max(10_000) as f64) * cfg.hang_slowdown_limit) as u64;
    let mut gpu = Gpu::new(cfg.arch);
    gpu.watchdog_cycles = watchdog;
    gpu.threads = cfg.threads.max(1);
    gpu.coalesce = cfg.coalesce;
    let mut nv = t.span("nvbit.attach", || Nvbit::new(gpu, tool));
    let plan = t.span("compiler.prepare", || p.prepare(&cfg.opts, &mut nv.gpu.mem));
    let (mut records, mut instrumented, mut hung) = (0, 0, false);
    for l in &plan.launches {
        match t.span(launch_span, || nv.launch(&l.kernel, &l.cfg)) {
            Ok(rep) => {
                records += rep.records;
                instrumented += rep.instrumented as u64;
                t.count("nvbit.injected_calls", rep.stats.exec.injected_calls as f64);
            }
            Err(SimError::Watchdog { .. }) => {
                hung = true;
                break;
            }
            Err(e) => return Err(e),
        }
        if nv.gpu.clock.cycles() > watchdog {
            hung = true;
            break;
        }
    }
    t.span("nvbit.terminate", || nv.terminate());
    t.count("nvbit.records", records as f64);
    t.count("nvbit.instrumented_launches", instrumented as f64);
    let result = RunResult {
        program: p.name.clone(),
        cycles: nv.gpu.clock.cycles(),
        records,
        instrumented_launches: instrumented,
        detector_report: None,
        analyzer_report: None,
        shadow_report: None,
        hung,
        metrics: None,
    };
    Ok((nv, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_draw_is_a_function_of_the_seed() {
        let a = draw(&mut stream(11, 1), STRATA);
        let b = draw(&mut stream(11, 1), STRATA);
        assert_eq!(a, b);
        assert_eq!(a.len(), STRATA.len());
        for (name, stratum) in a.iter().zip(STRATA) {
            assert!(stratum.contains(name));
        }
        let differs = (0..20).any(|s| draw(&mut stream(s, 1), STRATA) != a);
        assert!(differs, "different seeds must reach different draws");
    }

    #[test]
    fn every_stratum_name_is_a_suite_program_and_the_mix_holds() {
        let all: Vec<&str> = STRATA.iter().flat_map(|s| s.iter().copied()).collect();
        assert!(resolve(&all).is_ok());
        let exc = |n: &&str| fpx_suite::expected::expected_row(n).is_some();
        for (i, s) in STRATA.iter().enumerate() {
            assert_eq!(s.iter().all(exc), i < 6, "stratum {i} mixes kinds");
        }
    }
}
