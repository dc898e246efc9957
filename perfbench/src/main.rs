//! The repository's end-to-end and per-layer host benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|replay|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs with tracing off, its outputs are
//! checked, and every end-to-end metric is printed. With `--trace 1` one
//! pass of every workload runs untraced and then traced, with spans
//! around the benchmark's calls into each layer; the per-layer metrics,
//! the layer accounting and the tracing overhead are printed, and the two
//! passes must agree on the digest of their modeled statistics. The last
//! line of standard output is one JSON object with the result.
//!
//! Each pass of `sweep` and each schedule of `serve` runs in a fresh
//! process (see `child`): this executable again, with `--pass 1` added,
//! printing its pass for the parent to parse.

mod calib;
mod child;
mod replay;
mod serve;
mod spans;
mod stats;
mod sweep;

use fpx_obs::Counter;
use fpx_serve::engine::{Engine, Outcome};
use fpx_serve::job;
use fpx_suite::runner::geomean;
use fpx_suite::runner::RunnerConfig;
use spans::{calls, self_times, total_ms, Tracer};
use stats::{median, ops_for_tail, percentile, tail_percentile, Digest};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <sweep|replay|serve> --seed <n> --seconds <s> --trace <0|1>";

/// Each time set-up is timed it runs back to back at least this many
/// times, and for at least `SETUP_MIN_S` in total, and the fastest run
/// is its time; the median of a run's set-up times is reported. Cheap
/// set-ups are timed again between passes (and before each serve
/// schedule), so the median spans the run's host phases like the other
/// metrics do.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep,
    Replay,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Replay => "replay",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one pass in this process and print it for the parent.
    pass: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pass = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "sweep" => Workload::Sweep,
                    "replay" => Workload::Replay,
                    "serve" => Workload::Serve,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" | "--pass" => {
                let on = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value:?}")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    pass = on;
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pass,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Set when a check beyond single operations failed (digest drift,
    /// layer accounting).
    broken: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// A size in MB from this process's status (`VmHWM:`, `VmRSS:`).
fn status_mb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("peak RSS: no {key} line"))
}

/// Run set-up `f` repeatedly; return the last value and the fastest
/// run's time in seconds.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t0 = Instant::now();
        let v = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((last.expect("at least one set-up"), fastest))
}

/// The `tail` percentile of `ops_ms`; too few operations for ten to lie
/// beyond it break the run.
fn tail_ms(r: &mut Report, ops_ms: &[f64], tail: f64) -> f64 {
    check_tail(r, ops_ms.len(), tail);
    percentile(ops_ms, tail)
}

fn check_tail(r: &mut Report, n: usize, tail: f64) {
    if tail_percentile(n) < tail {
        r.broken
            .push(format!("{n} operations are too few for a p{tail} tail"));
    }
    println!(
        "operations: {n} timed, tail = p{tail} ({} beyond it)",
        n - (n as f64 * tail / 100.0).ceil() as usize
    );
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

// -------------------------------------------------------- sweep, replay

/// One pass over a workload's fixed batch.
#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    /// Each operation's time in ms, in batch order; `None` where it failed
    /// to run.
    ops_ms: Vec<Option<f64>>,
    /// Modeled detector slowdowns, one per program or trace.
    slowdowns: Vec<f64>,
    digest: Digest,
}

impl Pass {
    /// Record one operation's outcome; `slowdown` only for the detector
    /// runs the geomean covers.
    fn op<E: std::fmt::Display>(&mut self, what: &str, run: Result<(f64, bool, Option<f64>), E>) {
        self.attempted += 1;
        match run {
            Ok((ms, ok, slowdown)) => {
                self.ops_ms.push(Some(ms));
                self.slowdowns.extend(slowdown);
                if !ok {
                    eprintln!("{what}: detector row deviates from Table 4");
                    self.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("{what}: {e}");
                self.ops_ms.push(None);
                self.failed += 1;
            }
        }
    }

    /// The pass as a child prints it, with the child's set-up time, peak
    /// RSS and fastest calibration.
    fn line(&self, setup_s: f64, peak_rss_mb: f64, cal_ms: f64) -> String {
        let slowdowns: Vec<Option<f64>> = self.slowdowns.iter().copied().map(Some).collect();
        format!(
            "pass attempted={} failed={} digest={} setup_s={setup_s} peak_rss_mb={peak_rss_mb} \
             cal_ms={cal_ms} ops={} slowdowns={}",
            self.attempted,
            self.failed,
            self.digest.hex(),
            child::join(&self.ops_ms),
            child::join(&slowdowns),
        )
    }

    /// A child's pass, set-up time, peak RSS and fastest calibration,
    /// from its output.
    fn parse(text: &str) -> Result<(Pass, [f64; 3]), String> {
        let f = child::fields(text, "pass")?;
        let digest = child::get(&f, "digest")?;
        let slowdowns = child::split(child::get(&f, "slowdowns")?)?;
        let pass = Pass {
            attempted: child::number(&f, "attempted")?,
            failed: child::number(&f, "failed")?,
            ops_ms: child::split(child::get(&f, "ops")?)?,
            slowdowns: slowdowns.into_iter().flatten().collect(),
            digest: Digest::from_hex(digest).ok_or("child pass: bad digest")?,
        };
        let figures = ["setup_s", "peak_rss_mb", "cal_ms"].map(|k| child::number(&f, k));
        let [setup_s, rss, cal_ms] = figures;
        Ok((pass, [setup_s?, rss?, cal_ms?]))
    }
}

/// One pass of the draw; `before` runs ahead of every operation,
/// outside its time.
fn sweep_pass(programs: &[fpx_suite::Program], t: &Tracer, mut before: impl FnMut()) -> Pass {
    let mut pass = Pass::default();
    for p in programs {
        before();
        let run = if t.is_enabled() {
            sweep::run_program_traced(p, &mut pass.digest, t)
        } else {
            sweep::run_program(p, &mut pass.digest)
        };
        pass.op(&p.name, run.map(|r| (r.ms, r.ok, Some(r.slowdown))));
    }
    pass
}

fn replay_pass(setup: &replay::Setup, t: &Tracer) -> Pass {
    let mut pass = Pass::default();
    for rec in &setup.kept {
        for v in replay::VARIANTS {
            let run = replay::replay_once(rec, v, &mut pass.digest, t);
            let k0 = v == replay::Variant::Detector(0);
            let what = format!("{} {}", rec.program, v.label());
            pass.op(&what, run.map(|r| (r.ms, r.ok, k0.then_some(r.slowdown))));
        }
    }
    pass
}

/// Repeat `pass` for `run`, and until the faster halves of the
/// operations' repetitions can put ten operations beyond the `tail`
/// percentile, then report the metrics every batch workload shares.
/// Attempted operations count toward that minimum, so failing ones cannot
/// keep the run going; a pass in which no operation ran ends it. Every
/// pass must reproduce the first pass's digest.
fn repeated(
    run: Duration,
    tail: f64,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut passes, mut walls, mut first) = (Vec::new(), Vec::new(), None::<Pass>);
    let deadline = Instant::now() + run;
    while Instant::now() < deadline || (r.attempted as usize) < 2 * ops_for_tail(tail) {
        let t0 = Instant::now();
        let mut p = pass()?;
        walls.push(t0.elapsed().as_secs_f64());
        r.attempted += p.attempted;
        r.failed += p.failed;
        let ran = p.ops_ms.iter().any(Option::is_some);
        passes.push(std::mem::take(&mut p.ops_ms));
        match &first {
            Some(f) if f.digest != p.digest => r
                .broken
                .push("modeled statistics changed between passes".into()),
            Some(_) => {}
            None => first = Some(p),
        }
        if !ran {
            r.broken.push("a pass ran no operation".into());
            break;
        }
    }
    let first = first.expect("at least one pass");
    println!("digest: {}", first.digest.hex());
    println!("pass walls (s): {}", fmt_list(&walls));
    // The batch's wall time and median operation at each operation's best
    // speed in this run, and the tail over the faster half of each
    // operation's repetitions. The reference host's speed drifts between
    // fast and slow phases of seconds to minutes (one operation's time
    // varies 2x), and an operation's fastest repetitions are the estimate
    // least moved by them.
    let n = passes.iter().map(Vec::len).max().unwrap_or(0);
    let mut best = Vec::with_capacity(n);
    let mut fast_half = Vec::new();
    for i in 0..n {
        let mut reps: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.get(i).copied().flatten())
            .collect();
        reps.sort_by(f64::total_cmp);
        best.extend(reps.first().copied());
        fast_half.extend_from_slice(&reps[..reps.len().div_ceil(2)]);
    }
    let wall_s = best.iter().sum::<f64>() / 1e3;
    r.metric("wall_s", "s", wall_s);
    r.metric("op_p50_ms", "ms", median(&best));
    let tail_ms = tail_ms(&mut r, &fast_half, tail);
    r.metric("op_tail_ms", "ms", tail_ms);
    let per_s = if wall_s > 0.0 {
        first.attempted as f64 / wall_s
    } else {
        0.0
    };
    r.metric("backlog_ops_per_s", "1/s", per_s);
    r.metric(
        "modeled_slowdown_geomean",
        "x",
        geomean(first.slowdowns.iter().copied()),
    );
    Ok(r)
}

/// The sweep workload: every pass of the draw is a child process, which
/// also times the set-up. Its times are scaled to the reference host's
/// speed (see `calib`).
fn sweep_untraced(seed: u64, seconds: u64) -> Result<Report, String> {
    let names: Vec<String> = sweep::setup(seed)?.into_iter().map(|p| p.name).collect();
    println!("sweep draw (seed {seed}): {}", names.join(", "));
    let (mut setup_times, mut cal_ms, mut rss) = (Vec::new(), Vec::new(), peak_rss_mb()?);
    let mut r = repeated(Duration::from_secs(seconds), sweep::TAIL, || {
        let (pass, [setup_s, child_rss, cal]) = Pass::parse(&child::run("sweep", seed, seconds)?)?;
        setup_times.push(setup_s);
        cal_ms.push(cal);
        rss = rss.max(child_rss);
        Ok(pass)
    })?;
    println!(
        "calibration (ms, reference {}): {}",
        calib::REFERENCE_MS,
        fmt_list(&cal_ms)
    );
    r.metric("peak_rss_mb", "MB", rss);
    r.metric("setup_s", "s", median(&setup_times));
    Ok(r)
}

/// One sweep pass, in a child process, with the calibration kernel timed
/// before every operation; its times are scaled by the fastest. The
/// kernel's memory, resident from before the pass to its end, is left out
/// of the peak RSS.
fn sweep_child(seed: u64) -> Result<String, String> {
    let rss_before = status_mb("VmRSS:")?;
    let mut cal = calib::Calibration::new(1 + sweep::STRATA.len());
    let cal_mb = status_mb("VmRSS:")? - rss_before;
    cal.sample();
    let (programs, setup_s) = timed_setup(|| sweep::setup(seed))?;
    let mut pass = sweep_pass(&programs, &Tracer::disabled(), || cal.sample());
    let scale = cal.scale();
    for ms in pass.ops_ms.iter_mut().flatten() {
        *ms *= scale;
    }
    Ok(pass.line(setup_s * scale, peak_rss_mb()? - cal_mb, cal.fastest_ms()))
}

fn replay_untraced(seed: u64, seconds: u64) -> Result<Report, String> {
    let (setup, setup_s) = timed_setup(|| replay::setup(seed, &Tracer::disabled()))?;
    let kept: Vec<String> = setup
        .kept
        .iter()
        .map(|k| format!("{} ({:.1} MB)", k.program, k.bytes.len() as f64 / 1e6))
        .collect();
    let skipped: Vec<String> = setup
        .skipped
        .iter()
        .map(|(p, b)| format!("{p} ({:.1} MB)", *b as f64 / 1e6))
        .collect();
    println!(
        "replay traces (seed {seed}, cap {} MiB): kept {}; skipped {}",
        replay::TRACE_CAP_BYTES >> 20,
        kept.join(", "),
        skipped.join(", ")
    );
    if setup.kept.is_empty() {
        return Err("replay: every drawn trace exceeds the size cap".into());
    }
    // Recording takes seconds, so replay's set-up is timed only up front.
    let mut r = repeated(Duration::from_secs(seconds), replay::TAIL, || {
        Ok(replay_pass(&setup, &Tracer::disabled()))
    })?;
    r.metric("peak_rss_mb", "MB", peak_rss_mb()?);
    r.metric("setup_s", "s", setup_s);
    Ok(r)
}

// ---------------------------------------------------------------- serve

/// One run of the serve schedule.
struct ServePass {
    plan: serve::Plan,
    served: Vec<serve::Served>,
    /// Engine cache counters (traced pass only).
    hits_misses: Option<(u64, u64)>,
}

/// Start an engine with `workers` workers and plan the schedule: the
/// serve workload's set-up.
fn serve_setup(
    seed: u64,
    seconds: u64,
    workers: usize,
    t: &Tracer,
) -> Result<(Engine, serve::Plan), String> {
    let engine = t.span("serve.engine_start", || {
        serve::start_engine(workers, t.is_enabled())
    });
    let plan = serve::plan(seed, seconds);
    let programs: Vec<&str> = plan.specs.iter().map(|s| s.program.as_str()).collect();
    sweep::resolve(&programs)?;
    Ok((engine, plan))
}

/// Run the schedule, then read the engine's cache counters (when on)
/// and shut it down. `cal` as for [`serve::run`].
fn serve_pass(
    (engine, plan): (Engine, serve::Plan),
    t: &Tracer,
    cal: Option<&mut calib::Calibration>,
) -> ServePass {
    let served = serve::run(&plan, &engine, t, cal);
    let hits_misses = engine.obs().registry().map(|reg| {
        (
            reg.get(Counter::ServeCacheHits),
            reg.get(Counter::ServeCacheMisses),
        )
    });
    t.span("serve.shutdown", || engine.shutdown());
    ServePass {
        plan,
        served,
        hits_misses,
    }
}

/// One-shot runs of every spec the plan requests, outside any timed
/// region: the reference each served output must equal byte for byte.
fn one_shots(plan: &serve::Plan) -> Result<Vec<Option<job::RenderedRun>>, String> {
    plan.specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if !plan.arrivals.iter().any(|a| a.spec == i) {
                return Ok(None);
            }
            job::run_rendered(spec, &RunnerConfig::default())
                .map(Some)
                .map_err(|e| format!("serve: one-shot {}: {e}", spec.program))
        })
        .collect()
}

/// Check every served output against its one-shot reference and fold
/// the outputs into a digest. `first` holds each spec's first output,
/// and `bad` counts the jobs not served or disagreeing with it (as
/// [`serve::outputs`] gives them). Returns the failed job count, the
/// digest, and the detector specs' modeled slowdowns.
fn serve_check(
    plan: &serve::Plan,
    (first, bad): (&[Option<String>], usize),
    refs: &[Option<job::RenderedRun>],
) -> (u64, Digest, Vec<f64>) {
    let mut failed = bad;
    let mut digest = Digest::default();
    let mut slowdowns = Vec::new();
    for (i, (out, one_shot)) in first.iter().zip(refs).enumerate() {
        let (Some(out), Some(one_shot)) = (out, one_shot) else {
            continue;
        };
        let spec = &plan.specs[i];
        if &one_shot.text != out {
            eprintln!(
                "serve: {} {} differs from one-shot",
                spec.program,
                serve::label(spec)
            );
            failed += plan.arrivals.iter().filter(|a| a.spec == i).count();
        }
        if spec.tool == fpx_serve::JobTool::Detector {
            slowdowns.push(one_shot.result.cycles as f64 / one_shot.base_cycles.max(1) as f64);
        }
        digest.entry(&spec.program, &serve::label(spec), 0, 0, out);
    }
    (failed as u64, digest, slowdowns)
}

fn check_pass(pass: &ServePass, refs: &[Option<job::RenderedRun>]) -> (u64, Digest, Vec<f64>) {
    let (first, bad) = serve::outputs(&pass.plan, &pass.served);
    serve_check(&pass.plan, (&first, bad), refs)
}

/// p50 latency of done jobs that were (or were not) cache hits.
fn serve_p50(served: &[serve::Served], hit: bool) -> f64 {
    let v: Vec<f64> = served
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Done { cache_hit, .. } if cache_hit == hit))
        .map(|s| s.latency_ms)
        .collect();
    median(&v)
}

/// The serve workload: [`serve::SCHEDULES`] runs of the same schedule,
/// each in a child process against a fresh engine with an empty cache.
/// Each latency and rate metric is the best schedule's, for the reason
/// `repeated` keeps each operation's fastest repetition, and scaled to
/// the reference host's speed (see `calib`).
fn serve_untraced(seed: u64, seconds: u64) -> Result<Report, String> {
    let texts = (0..serve::SCHEDULES)
        .map(|_| child::run("serve", seed, seconds))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = serve::plan(seed, seconds);
    let refs = one_shots(&plan)?;
    let mut r = Report::default();
    let (mut setup_times, mut rss) = (Vec::new(), 0.0_f64);
    let (mut digests, mut slowdowns) = (Vec::new(), Vec::new());
    let (mut busy, mut p50s, mut tails, mut backlog) = (vec![], vec![], vec![], vec![]);
    for text in &texts {
        let f = child::fields(text, "schedule")?;
        let mut first = vec![None; plan.specs.len()];
        for line in text.lines().filter(|l| l.starts_with("output ")) {
            let o = child::fields(line, "output")?;
            let spec: usize = child::number(&o, "spec")?;
            let out = String::from_utf8(child::unhex(child::get(&o, "text")?)?)
                .map_err(|e| format!("child pass: {e}"))?;
            *first.get_mut(spec).ok_or("child pass: no such spec")? = Some(out);
        }
        let jobs: usize = child::number(&f, "jobs")?;
        if jobs != plan.arrivals.len() {
            r.broken.push(format!(
                "a schedule served {jobs} jobs, not {}",
                plan.arrivals.len()
            ));
        }
        let (failed, digest, s) = serve_check(&plan, (&first, child::number(&f, "bad")?), &refs);
        r.attempted += jobs as u64;
        r.failed += failed;
        digests.push(digest);
        slowdowns = s;
        check_tail(&mut r, jobs, serve::TAIL);
        setup_times.push(child::number::<f64>(&f, "setup_s")?);
        rss = rss.max(child::number(&f, "peak_rss_mb")?);
        busy.push(child::number::<f64>(&f, "busy_s")?);
        p50s.push(child::number::<f64>(&f, "p50_ms")?);
        tails.push(child::number::<f64>(&f, "tail_ms")?);
        backlog.push(child::number::<f64>(&f, "backlog_ops_per_s")?);
        println!(
            "schedule: busy {} s, hit p50 {} ms, miss p50 {} ms, generator at most {} ms late, calibration {} ms",
            child::get(&f, "busy_s")?,
            child::get(&f, "hit_p50_ms")?,
            child::get(&f, "miss_p50_ms")?,
            child::get(&f, "late_max_ms")?,
            child::get(&f, "cal_ms")?,
        );
    }
    if digests.iter().any(|d| *d != digests[0]) {
        r.broken
            .push("modeled statistics changed between schedules".into());
    }
    let programs: std::collections::BTreeSet<&str> =
        plan.specs.iter().map(|s| s.program.as_str()).collect();
    println!(
        "serve catalog (seed {seed}): {} specs over {:?}; {} schedules of {} jobs, each with {} bursts of {} over {:?}",
        plan.specs.len(),
        programs,
        serve::SCHEDULES,
        plan.arrivals.len(),
        serve::BURSTS,
        serve::BURST_JOBS,
        serve::BURST_PROGRAMS,
    );
    println!("digest: {}", digests[0].hex());
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    r.metric("setup_s", "s", median(&setup_times));
    r.metric("wall_s", "s", min(&busy));
    r.metric("op_p50_ms", "ms", min(&p50s));
    r.metric("op_tail_ms", "ms", min(&tails));
    r.metric(
        "backlog_ops_per_s",
        "1/s",
        backlog.iter().copied().fold(0.0, f64::max),
    );
    r.metric("modeled_slowdown_geomean", "x", geomean(slowdowns));
    r.metric("peak_rss_mb", "MB", rss.max(peak_rss_mb()?));
    Ok(r)
}

/// One serve schedule, in a child process: its set-up time, its
/// figures, and the first output of every spec it served. The
/// calibration kernel runs in the schedule's idle gaps (see
/// [`serve::run`]), and its fastest time scales every time and rate; its
/// memory is left out of the peak RSS.
fn serve_child(seed: u64, seconds: u64) -> Result<String, String> {
    let rss_before = status_mb("VmRSS:")?;
    let mut cal = calib::Calibration::new(serve::plan(seed, seconds).arrivals.len());
    let cal_mb = status_mb("VmRSS:")? - rss_before;
    let setup = || serve_setup(seed, seconds, serve::WORKERS, &Tracer::disabled());
    let (ready, setup_s) = timed_setup(setup)?;
    let pass = serve_pass(ready, &Tracer::disabled(), Some(&mut cal));
    if cal.samples() == 0 {
        return Err("the schedule left no idle gap to calibrate in".into());
    }
    let scale = cal.scale();
    let served = &pass.served;
    let ops: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let (first, bad) = serve::outputs(&pass.plan, served);
    let mut text = format!(
        "schedule setup_s={} peak_rss_mb={} cal_ms={} jobs={} bad={bad} busy_s={} p50_ms={} \
         tail_ms={} backlog_ops_per_s={} hit_p50_ms={} miss_p50_ms={} late_max_ms={}",
        setup_s * scale,
        peak_rss_mb()? - cal_mb,
        cal.fastest_ms(),
        ops.len(),
        serve::busy_s(served) * scale,
        median(&ops) * scale,
        percentile(&ops, serve::TAIL) * scale,
        serve::backlog_ops_per_s(&pass.plan, served) / scale,
        serve_p50(served, true) * scale,
        serve_p50(served, false) * scale,
        served.iter().map(|s| s.late_ms).fold(0.0, f64::max),
    );
    for (i, out) in first.iter().enumerate() {
        if let Some(out) = out {
            text += &format!("\noutput spec={i} text={}", child::hex(out.as_bytes()));
        }
    }
    Ok(text)
}

// --------------------------------------------------------------- traced

/// One pass of every workload, with spans when `t` is enabled.
struct AllPasses {
    sweep: Pass,
    replay: Pass,
    serve: ServePass,
}

fn all_passes(seed: u64, seconds: u64, t: &Tracer) -> Result<AllPasses, String> {
    let programs = sweep::setup(seed)?;
    let sweep = sweep_pass(&programs, t, || {});
    let setup = replay::setup(seed, t)?;
    let replay = replay_pass(&setup, t);
    drop(setup);
    let serve = serve_pass(
        serve_setup(seed, seconds, serve::traced_workers(), t)?,
        t,
        None,
    );
    Ok(AllPasses {
        sweep,
        replay,
        serve,
    })
}

fn traced(seed: u64, seconds: u64) -> Result<Report, String> {
    let t0 = Instant::now();
    let plain = all_passes(seed, seconds, &Tracer::disabled())?;
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t = Tracer::enabled();
    let traced = t.span("bench", || all_passes(seed, seconds, &t))?;
    let spans = t.spans();
    let counts = t.counts();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);

    let mut r = Report::default();
    let refs = one_shots(&plain.serve.plan)?;
    let (plain_serve, traced_serve) = (
        check_pass(&plain.serve, &refs),
        check_pass(&traced.serve, &refs),
    );
    for (name, a, b) in [
        ("sweep", plain.sweep.digest, traced.sweep.digest),
        ("replay", plain.replay.digest, traced.replay.digest),
        ("serve", plain_serve.1, traced_serve.1),
    ] {
        println!("{name} digest: untraced {} traced {}", a.hex(), b.hex());
        if a != b {
            r.broken.push(format!(
                "{name}: traced and untraced modeled statistics differ"
            ));
        }
    }
    for p in [&plain, &traced] {
        r.attempted += p.sweep.attempted + p.replay.attempted + p.serve.served.len() as u64;
        r.failed += p.sweep.failed + p.replay.failed;
    }
    r.failed += plain_serve.0 + traced_serve.0;

    // Layer accounting over the traced pass.
    let (layers, wall_ms) = self_times(&spans)?;
    let other_ms = layers.get("other").copied().unwrap_or(0.0);
    if other_ms < 0.0 {
        r.broken.push(format!(
            "layer self times exceed the traced wall by {:.3} ms",
            -other_ms
        ));
    }
    let tracing_overhead = wall_ms / untraced_ms;
    println!("traced wall {wall_ms:.1} ms, untraced {untraced_ms:.1} ms, tracing overhead {tracing_overhead:.4}x");
    println!("serve engine workers: {}", serve::traced_workers());
    println!("{:<10} {:>12} {:>8}", "layer", "self ms", "share");
    for (layer, ms) in &layers {
        println!("{layer:<10} {ms:>12.3} {:>7.2}%", 100.0 * ms / wall_ms);
    }

    // Probes of the cache and the HTTP front end, outside the accounted
    // pass: the work they time is not part of any workload.
    let probe = Tracer::enabled();
    let (outputs, _) = serve::outputs(&traced.serve.plan, &traced.serve.served);
    let served: Vec<(&fpx_serve::JobSpec, &String)> = traced
        .serve
        .plan
        .specs
        .iter()
        .zip(&outputs)
        .filter_map(|(spec, out)| Some((spec, out.as_ref()?)))
        .collect();
    let cache = fpx_trace::ResultCache::in_memory();
    for &(spec, out) in &served {
        let key = job::cache_key(spec).map_err(|e| e.to_string())?;
        let payload = out.clone().into_bytes();
        probe
            .span("trace.cache_insert", || cache.insert(key.clone(), payload))
            .map_err(|e| e.to_string())?;
        let hit = probe
            .span("trace.cache_lookup", || cache.lookup(&key))
            .map_err(|e| e.to_string())?;
        if hit.as_deref() != Some(out.as_bytes()) {
            r.broken
                .push(format!("cache probe: {} did not round-trip", spec.program));
        }
    }
    let (http_spec, _) = served
        .iter()
        .find(|(s, _)| s.tool == fpx_serve::JobTool::Detector)
        .ok_or("serve: no detector spec was served")?;
    let http_rtt_us = serve::http_rtt_us(http_spec, 25, &probe)?;
    let probe_spans = probe.spans();
    let per_call_us =
        |name: &str| total_ms(&probe_spans, name) * 1e3 / calls(&probe_spans, name).max(1) as f64;

    let ms = |name: &str| total_ms(&spans, name);
    let sim_ms = ms("sim.launch");
    let det_ms = ms("nvbit.launch.detector");
    let ana_ms = ms("nvbit.launch.analyzer");
    let (hits, misses) = traced
        .serve
        .hits_misses
        .ok_or("serve: engine counters were off")?;
    let distinct_specs = served.len() as f64;
    let arrivals = count("serve.arrivals").max(1.0);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);

    r.metric("compiler.prepare_ms", "ms", ms("compiler.prepare"));
    r.metric(
        "compiler.prepare_calls",
        "count",
        calls(&spans, "compiler.prepare") as f64,
    );
    r.metric("sim.launch_ms", "ms", sim_ms);
    r.metric("sim.launches", "count", count("sim.launches"));
    r.metric("sim.warp_instrs", "count", count("sim.warp_instrs"));
    r.metric(
        "sim.ns_per_warp_instr",
        "ns",
        sim_ms * 1e6 / count("sim.warp_instrs").max(1.0),
    );
    r.metric("nvbit.launch_ms", "ms", det_ms + ana_ms);
    r.metric(
        "nvbit.instrumented_launches",
        "count",
        count("nvbit.instrumented_launches"),
    );
    r.metric(
        "nvbit.injected_calls",
        "count",
        count("nvbit.injected_calls"),
    );
    r.metric("nvbit.host_slowdown.detector", "x", det_ms / sim_ms);
    r.metric("nvbit.host_slowdown.analyzer", "x", ana_ms / sim_ms);
    r.metric("nvbit.records", "count", count("nvbit.records"));
    r.metric("nvbit.terminate_ms", "ms", ms("nvbit.terminate"));
    r.metric("core.render_ms", "ms", ms("core.render"));
    r.metric("core.report_bytes", "bytes", count("core.report_bytes"));
    r.metric("trace.bytes", "bytes", count("trace.bytes"));
    r.metric(
        "trace.record_ms",
        "ms",
        ms("trace.record") + ms("trace.encode"),
    );
    let decode_ms = ms("trace.decode");
    r.metric("trace.decode_ms", "ms", decode_ms);
    r.metric(
        "trace.decode_mb_per_s",
        "MB/s",
        count("trace.decoded_bytes") / 1e6 / (decode_ms / 1e3),
    );
    let replay_ms = ms("trace.replay");
    r.metric("trace.replay_ms", "ms", replay_ms);
    r.metric(
        "trace.visits_replayed",
        "count",
        count("trace.visits_replayed"),
    );
    r.metric(
        "trace.ns_per_visit",
        "ns",
        replay_ms * 1e6 / count("trace.visits_replayed").max(1.0),
    );
    r.metric(
        "trace.channel_pushes",
        "count",
        count("trace.channel_pushes"),
    );
    r.metric(
        "trace.cache_lookup_us",
        "us",
        per_call_us("trace.cache_lookup"),
    );
    r.metric(
        "trace.cache_insert_us",
        "us",
        per_call_us("trace.cache_insert"),
    );
    r.metric(
        "serve.submit_us",
        "us",
        ms("serve.submit") * 1e3 / calls(&spans, "serve.submit").max(1) as f64,
    );
    r.metric(
        "serve.queue_depth_mean",
        "jobs",
        count("serve.queue_depth_sum") / arrivals,
    );
    r.metric(
        "serve.cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.metric(
        "serve.miss_runs_per_distinct_spec",
        "ratio",
        misses as f64 / distinct_specs,
    );
    r.metric("serve.rejected", "count", count("serve.rejected"));
    r.metric("serve.late_ms", "ms", count("serve.late_ms_sum") / arrivals);
    r.metric("serve.http_rtt_us", "us", http_rtt_us);
    r.metric(
        "serve.hit_p50_ms",
        "ms",
        serve_p50(&plain.serve.served, true),
    );
    r.metric(
        "serve.miss_p50_ms",
        "ms",
        serve_p50(&plain.serve.served, false),
    );
    for (name, key) in [
        ("compiler.self_ms", "compiler"),
        ("sim.self_ms", "sim"),
        ("nvbit.self_ms", "nvbit"),
        ("core.self_ms", "core"),
        ("trace.self_ms", "trace"),
        ("serve.self_ms", "serve"),
        ("schedule.self_ms", "schedule"),
    ] {
        r.metric(name, "ms", layer(key));
    }
    r.metric("other_ms", "ms", other_ms);
    r.metric("traced_wall_ms", "ms", wall_ms);
    r.metric("tracing_overhead", "x", tracing_overhead);
    let accounted: f64 = layers.values().sum();
    if (accounted - wall_ms).abs() > 1e-6 * wall_ms.max(1.0) {
        r.broken.push(format!(
            "layer self times and other sum to {accounted:.3} ms, not the traced wall {wall_ms:.3} ms"
        ));
    }
    Ok(r)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pass {
        let pass = match args.workload {
            Workload::Sweep => sweep_child(args.seed),
            Workload::Serve => serve_child(args.seed, args.seconds),
            Workload::Replay => Err("replay passes run in one process".into()),
        };
        return match pass {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench {} pass: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let report = if args.trace {
        traced(args.seed, args.seconds)
    } else {
        match args.workload {
            Workload::Sweep => sweep_untraced(args.seed, args.seconds),
            Workload::Replay => replay_untraced(args.seed, args.seconds),
            Workload::Serve => serve_untraced(args.seed, args.seconds),
        }
    };
    let line = report.and_then(|r| {
        for m in &r.metrics {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for b in &r.broken {
            eprintln!("check failed: {b}");
        }
        r.json()
    });
    match line {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload replay --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Replay);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(!a.pass);
        let child = parse_args(&argv(
            "--workload serve --seed 2 --seconds 5 --trace 0 --pass 1",
        ));
        assert!(child.unwrap().pass);
        assert!(parse_args(&argv(
            "--workload sweep --seed 1 --seconds 1 --trace 0 --pass 7"
        ))
        .is_err());
    }

    #[test]
    fn a_child_pass_reaches_the_parent_intact() {
        let mut p = pass_failing(1);
        p.digest.entry("LU", "detector", 7, 1, "row");
        let (q, [setup_s, rss, cal_ms]) = Pass::parse(&p.line(2.5e-5, 4.25, 26.125)).unwrap();
        assert_eq!(
            (q.attempted, q.failed, q.digest),
            (p.attempted, p.failed, p.digest)
        );
        assert_eq!((q.ops_ms, q.slowdowns), (p.ops_ms, p.slowdowns));
        assert_eq!([setup_s, rss, cal_ms], [2.5e-5, 4.25, 26.125]);
        assert!(Pass::parse("schedule jobs=1").is_err());
    }

    /// A pass over three operations of which the first `fail` fail.
    fn pass_failing(fail: usize) -> Pass {
        let mut p = Pass::default();
        for i in 0..3 {
            let run = if i < fail {
                Err("no result")
            } else {
                Ok((1.0 + i as f64, true, Some(2.0)))
            };
            p.op("op", run);
        }
        p
    }

    #[test]
    fn a_pass_that_always_fails_ends_the_run_as_incorrect() {
        let t0 = Instant::now();
        let r = repeated(Duration::from_secs(3600), 90.0, || Ok(pass_failing(3))).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(60));
        assert_eq!((r.attempted, r.failed), (3, 3));
        assert!(!r.correct());
        assert!(r
            .json()
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 3"));
    }

    #[test]
    fn failed_operations_count_toward_the_tail_minimum() {
        // With no time to fill, the run stops once 200 operations were
        // attempted (p90 needs ten of the faster halves' 100 beyond it),
        // though a third of them failed; the successes left are too few
        // for the tail.
        let r = repeated(Duration::ZERO, 90.0, || Ok(pass_failing(1))).unwrap();
        assert_eq!(
            r.attempted as usize,
            (2 * ops_for_tail(90.0)).div_ceil(3) * 3
        );
        assert_eq!(r.failed * 3, r.attempted);
        assert!(!r.correct());
        let wall = r.metrics.iter().find(|m| m.name == "wall_s").unwrap();
        assert!((wall.value - 5.0 / 1e3).abs() < 1e-12, "{}", wall.value);
        // A run in which every operation succeeds is correct.
        let ok = repeated(Duration::ZERO, 90.0, || Ok(pass_failing(0))).unwrap();
        assert!(ok.correct());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", "s", 0.25);
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.metric("bad", "s", f64::NAN);
        assert!(r.json().is_err());
    }
}
