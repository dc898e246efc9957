//! `replay`: "trace once, replay many" (Fig. 6 / Table 5). Setup records
//! one trace per drawn program and keeps its bytes in memory; one
//! operation decodes a trace and replays it through one tool variant.

use crate::spans::Tracer;
use crate::stats::{stream, Digest};
use crate::sweep::{draw, resolve, table4_ok};
use fpx_sass::kernel::KernelCode;
use fpx_sim::gpu::Gpu;
use fpx_suite::runner::RunnerConfig;
use fpx_trace::{Replayed, Trace, TraceReplayer};
use gpu_fpx::analyzer::{Analyzer, AnalyzerConfig};
use gpu_fpx::detector::{Detector, DetectorConfig};
use std::sync::Arc;

/// One program is drawn per stratum. Strata group programs of similar
/// decode-and-replay cost over all variants and similar modeled detector
/// slowdown (measured on a 2-core x86-64 host), so a pass's work barely
/// depends on the seed. The last stratum's traces always exceed
/// [`TRACE_CAP_BYTES`], so every draw exercises the cap.
pub const STRATA: &[&[&str]] = &[
    &["SRU-Example", "interval"],
    &[
        "cuSolverSp_LinearSolver",
        "cuSolverSp_LowlevelCholesky",
        "cuSolverRf",
        "cuSolverSp_LowlevelQR",
    ],
    &["clock", "dct8x8"],
    &["rayTracing", "LU"],
    &["Stencil2D", "FFT"],
    &["wp", "GRAMSCHM"],
    &["gaussian", "deviceQuery"],
];

/// Traces larger than this are recorded but not replayed.
pub const TRACE_CAP_BYTES: usize = 48 << 20;

/// Tail percentile reported for replay operations.
pub const TAIL: f64 = 95.0;

/// The tool variants every kept trace is replayed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Detector(u32),
    Analyzer,
    BinFpe,
}

pub const VARIANTS: [Variant; 6] = [
    Variant::Detector(0),
    Variant::Detector(4),
    Variant::Detector(16),
    Variant::Detector(64),
    Variant::Analyzer,
    Variant::BinFpe,
];

impl Variant {
    pub fn label(self) -> String {
        match self {
            Variant::Detector(k) => format!("detector/k={k}"),
            Variant::Analyzer => "analyzer".into(),
            Variant::BinFpe => "binfpe".into(),
        }
    }
}

/// A recorded program kept for replay.
pub struct Recorded {
    pub program: String,
    pub bytes: Vec<u8>,
    pub kernels: Vec<Arc<KernelCode>>,
    /// Uninstrumented modeled cycles, from the trace.
    pub base_cycles: u64,
}

pub struct Setup {
    pub kept: Vec<Recorded>,
    pub skipped: Vec<(String, usize)>,
}

/// Record every drawn program; keep those within the size cap.
pub fn setup(seed: u64, t: &Tracer) -> Result<Setup, String> {
    let programs = resolve(&draw(&mut stream(seed, 2), STRATA))?;
    let cfg = RunnerConfig::default();
    let mut out = Setup {
        kept: Vec::new(),
        skipped: Vec::new(),
    };
    for p in &programs {
        let trace = t
            .span("trace.record", || {
                fpx_trace::record(&p.name, cfg.arch, cfg.opts.fast_math, |gpu| {
                    p.prepare(&cfg.opts, &mut gpu.mem)
                        .launches
                        .into_iter()
                        .map(|l| (l.kernel, l.cfg))
                        .collect()
                })
            })
            .map_err(|e| format!("{}: recording failed: {e:?}", p.name))?;
        let bytes = t.span("trace.encode", || trace.to_bytes());
        t.count("trace.bytes", bytes.len() as f64);
        if bytes.len() > TRACE_CAP_BYTES {
            out.skipped.push((p.name.clone(), bytes.len()));
            continue;
        }
        let mut gpu = Gpu::new(cfg.arch);
        let kernels = t
            .span("compiler.prepare", || p.prepare(&cfg.opts, &mut gpu.mem))
            .launches
            .into_iter()
            .map(|l| l.kernel)
            .collect();
        out.kept.push(Recorded {
            program: p.name.clone(),
            base_cycles: trace.launches.iter().map(|l| l.plain_cycles).sum(),
            bytes,
            kernels,
        });
    }
    Ok(out)
}

/// Outcome of one replay invocation.
pub struct ReplayRun {
    pub ms: f64,
    /// Detector at k = 0 reproduced the program's Table 4 row (other
    /// variants have no oracle and always pass).
    pub ok: bool,
    /// Modeled tool cycles over the recorded baseline.
    pub slowdown: f64,
}

/// One operation: decode `rec` and replay it through `variant`.
pub fn replay_once(
    rec: &Recorded,
    variant: Variant,
    digest: &mut Digest,
    t: &Tracer,
) -> Result<ReplayRun, String> {
    let t0 = std::time::Instant::now();
    let trace = t
        .span("trace.decode", || Trace::from_bytes(&rec.bytes))
        .map_err(|e| format!("{}: {e}", rec.program))?;
    t.count("trace.decoded_bytes", rec.bytes.len() as f64);
    let rep = t
        .span("trace.bind", || TraceReplayer::new(trace, &rec.kernels))
        .map_err(|e| format!("{}: {e}", rec.program))?;
    let wd = fpx_trace::hang_budget(rec.base_cycles, RunnerConfig::default().hang_slowdown_limit);
    let o = match variant {
        Variant::Detector(k) => {
            let cfg = DetectorConfig {
                freq_redn_factor: k,
                ..DetectorConfig::default()
            };
            let out = t.span("trace.replay", || rep.replay(Detector::new(cfg), Some(wd)));
            let report = out.tool.report();
            let ok = k != 0 || table4_ok(&rec.program, report, out.hung);
            outcome(&out, format!("{:?}", report.counts.row()), ok)
        }
        Variant::Analyzer => {
            let out = t.span("trace.replay", || {
                rep.replay(Analyzer::new(AnalyzerConfig::default()), Some(wd))
            });
            outcome(
                &out,
                format!("{:?}", out.tool.report().state_counts()),
                true,
            )
        }
        Variant::BinFpe => {
            let out = t.span("trace.replay", || {
                rep.replay(fpx_binfpe::BinFpe::new(), Some(wd))
            });
            outcome(&out, format!("{:?}", out.tool.report().counts.row()), true)
        }
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    t.count("trace.visits_replayed", o.visits as f64);
    t.count("trace.channel_pushes", o.pushes as f64);
    let row = format!("{} hung={}", o.row, o.hung);
    digest.entry(&rec.program, &variant.label(), o.cycles, o.records, &row);
    Ok(ReplayRun {
        ms,
        ok: o.ok,
        slowdown: o.cycles as f64 / rec.base_cycles.max(1) as f64,
    })
}

/// What one replay left behind, whatever the tool.
struct Outcome {
    cycles: u64,
    records: u64,
    hung: bool,
    row: String,
    visits: u64,
    pushes: u64,
    ok: bool,
}

fn outcome<T>(out: &Replayed<T>, row: String, ok: bool) -> Outcome {
    Outcome {
        cycles: out.cycles,
        records: out.records,
        hung: out.hung,
        row,
        visits: out.visits_replayed,
        pushes: out.channel_pushes,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_candidate_set_is_a_function_of_the_seed() {
        let a = draw(&mut stream(5, 2), STRATA);
        assert_eq!(a, draw(&mut stream(5, 2), STRATA));
        assert!(resolve(&STRATA.concat()).is_ok());
    }
}
