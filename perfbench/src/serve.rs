//! `serve`: the detection service under an open-loop seeded schedule.
//! One generator submits jobs to an engine with an empty in-memory
//! result cache: a steady stream at a fixed rate below capacity, then
//! bursts that leave a backlog. Every job is timed from the moment it was
//! due, so a stall also delays the jobs behind it.

use crate::calib::{self, Calibration};
use crate::spans::Tracer;
use crate::stats::{median, shuffle, stream, unit};
use fpx_inject::SplitMix64;
use fpx_obs::Obs;
use fpx_serve::engine::{Engine, EngineConfig, JobResult, Outcome};
use fpx_serve::job::{JobSpec, JobTool};
use fpx_serve::{client, proto, ServeConfig, Server};
use fpx_trace::ResultCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The programs behind the steady catalog: four Table 4 programs of
/// similar cost (about 45 ms per detector miss on a 2-core x86-64 host),
/// so misses form one latency cluster. They are fixed, so the work behind
/// the misses does not depend on the seed; the seed orders the catalog,
/// ranks its popularity, and shapes the schedule.
pub const PROGRAMS: [&str; 4] = [
    "cuSolverSp_LinearSolver",
    "cuSolverSp_LowlevelCholesky",
    "cuSolverRf",
    "cuSolverSp_LowlevelQR",
];

// The steady phase. No recorded serve traffic exists to take these from,
// so each is an assumption, not a measurement:
// - `RATE_PER_S`: jobs arrive at 15 per second, about 40% of one worker's
//   capacity at 60% misses of ~45 ms each;
// - `MISS_SHARE`: 60% of the steady jobs are a spec's first request; the
//   catalog holds, per program, the detector at sampling factors `0..k`
//   plus one analyzer, BinFPE and shadow job, with `k` sized to give it;
// - `ZIPF_S`: every other request picks an already requested spec with
//   Zipf(1.1) popularity over the catalog.
pub const RATE_PER_S: f64 = 15.0;
const MISS_SHARE: f64 = 0.6;
const OTHER_TOOLS: [JobTool; 3] = [JobTool::Analyzer, JobTool::BinFpe, JobTool::Shadow];
const ZIPF_S: f64 = 1.1;
/// A run plays the schedule this many times, one after another, each in
/// a fresh process against a fresh engine.
pub const SCHEDULES: usize = 3;
/// Share of `--seconds` the steady phases of all schedules last, and one
/// schedule's least steady job count (enough that its jobs reach the
/// `TAIL` percentile with ten beyond it).
const STEADY_SHARE: f64 = 0.8;
const STEADY_MIN_JOBS: usize = 200;

/// The burst phase follows the steady phase. Every burst is the 16-job
/// serve miss burst the repository's CI smoke test fires (`serve submit
/// --programs LU,GRAMSCHM --repeat 8`): eight requests each of two
/// detector specs, due at once and shuffled. Burst `b` asks for sampling
/// factor `b`, so each burst's two specs are new to the cache, and its
/// other 14 jobs repeat a spec that is queued or running. Bursts are due
/// `BURST_GAP_S` apart, the first that long after the last steady
/// arrival, so each drains on its own.
pub const BURST_PROGRAMS: [&str; 2] = ["LU", "GRAMSCHM"];
const BURST_REPEAT: usize = 8;
pub const BURST_JOBS: usize = BURST_PROGRAMS.len() * BURST_REPEAT;
pub const BURSTS: usize = 4;
const BURST_GAP_S: f64 = 0.5;
/// Tail percentile reported for one schedule's jobs.
pub const TAIL: f64 = 96.0;

pub struct Arrival {
    /// Seconds after the schedule starts.
    pub due_s: f64,
    /// Index into [`Plan::specs`].
    pub spec: usize,
    /// The burst it belongs to, if any.
    pub burst: Option<usize>,
}

pub struct Plan {
    pub specs: Vec<JobSpec>,
    /// In due order.
    pub arrivals: Vec<Arrival>,
    pub burst_due_s: Vec<f64>,
}

fn spec(program: &str, tool: JobTool, k: u32) -> JobSpec {
    JobSpec {
        program: program.to_string(),
        tool,
        freq_redn_factor: k,
        ..JobSpec::default()
    }
}

pub fn label(s: &JobSpec) -> String {
    format!("{}/k={}", s.tool.label(), s.freq_redn_factor)
}

/// The catalog and arrival schedule for `seed`.
///
/// Steady-phase jobs arrive at a fixed rate. The catalog's specs enter
/// in a seeded order at evenly spaced arrivals, so first requests
/// (misses) are spread over the phase; every other request draws an
/// already-entered spec by seeded Zipf popularity, which makes it a hit,
/// or a second miss when the spec is still running. Each burst's jobs
/// come in seeded order, all due at once.
pub fn plan(seed: u64, seconds: u64) -> Plan {
    let steady_s = STEADY_SHARE * seconds as f64 / SCHEDULES as f64;
    let steady_jobs = STEADY_MIN_JOBS.max((RATE_PER_S * steady_s) as usize);
    let k = catalog_factors(steady_jobs);
    let mut specs: Vec<JobSpec> = Vec::new();
    for p in PROGRAMS {
        specs.extend((0..k).map(|k| spec(p, JobTool::Detector, k)));
        specs.extend(OTHER_TOOLS.iter().map(|&t| spec(p, t, 0)));
    }
    let n_catalog = specs.len();
    for b in 0..BURSTS {
        specs.extend(
            BURST_PROGRAMS
                .iter()
                .map(|p| spec(p, JobTool::Detector, b as u32)),
        );
    }

    let mut rng = stream(seed, 4);
    let mut entry_order: Vec<usize> = (0..n_catalog).collect();
    shuffle(&mut rng, &mut entry_order);
    let mut by_rank: Vec<usize> = (0..n_catalog).collect();
    shuffle(&mut rng, &mut by_rank);
    let cumulative: Vec<f64> = (1..=n_catalog)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = cumulative[n_catalog - 1];
    let mut entered = vec![false; n_catalog];
    // Zipf draw over the catalog, redrawn until it names an entered spec.
    let popular = |rng: &mut SplitMix64, entered: &[bool]| loop {
        let u = unit(rng) * total;
        let s = by_rank[cumulative.partition_point(|&c| c <= u).min(n_catalog - 1)];
        if entered[s] {
            break s;
        }
    };

    let mut next_entry = 0;
    let mut arrivals = Vec::with_capacity(steady_jobs + BURSTS * BURST_JOBS);
    for i in 0..steady_jobs {
        let spec = if next_entry < n_catalog && entry_at(next_entry, n_catalog, steady_jobs) == i {
            let s = entry_order[next_entry];
            next_entry += 1;
            entered[s] = true;
            s
        } else {
            popular(&mut rng, &entered)
        };
        arrivals.push(Arrival {
            due_s: i as f64 / RATE_PER_S,
            spec,
            burst: None,
        });
    }
    let last_steady_s = (steady_jobs - 1) as f64 / RATE_PER_S;
    let burst_due_s: Vec<f64> = (1..=BURSTS)
        .map(|b| last_steady_s + b as f64 * BURST_GAP_S)
        .collect();
    for (b, &due_s) in burst_due_s.iter().enumerate() {
        let first = n_catalog + b * BURST_PROGRAMS.len();
        let mut jobs: Vec<usize> = (first..first + BURST_PROGRAMS.len())
            .flat_map(|s| [s; BURST_REPEAT])
            .collect();
        shuffle(&mut rng, &mut jobs);
        arrivals.extend(jobs.into_iter().map(|spec| Arrival {
            due_s,
            spec,
            burst: Some(b),
        }));
    }
    Plan {
        specs,
        arrivals,
        burst_due_s,
    }
}

/// Burst jobs completed per second of backlog: every burst's jobs over
/// the summed time from each burst's due time to its last completion.
pub fn backlog_ops_per_s(plan: &Plan, served: &[Served]) -> f64 {
    let drain_s: f64 = plan
        .burst_due_s
        .iter()
        .enumerate()
        .map(|(b, due)| {
            let last = served
                .iter()
                .filter(|s| s.burst == Some(b))
                .map(|s| s.done_s)
                .fold(*due, f64::max);
            last - due
        })
        .sum();
    let jobs = served.iter().filter(|s| s.burst.is_some()).count();
    if drain_s > 0.0 {
        jobs as f64 / drain_s
    } else {
        0.0
    }
}

/// Seconds in which at least one job was outstanding: the union of every
/// job's span from its due time to its result. The schedule fixes when
/// jobs arrive, so this is the part of its length the service's speed
/// decides.
pub fn busy_s(served: &[Served]) -> f64 {
    let mut spans: Vec<(f64, f64)> = served.iter().map(|s| (s.due_s, s.done_s)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut busy, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in spans {
        if end > reach {
            busy += end - start.max(reach);
            reach = end;
        }
    }
    busy
}

/// Detector sampling factors per program in a catalog for `steady_jobs`
/// arrivals.
fn catalog_factors(steady_jobs: usize) -> u32 {
    let per_program = (steady_jobs as f64 * MISS_SHARE) as usize / PROGRAMS.len();
    (per_program - OTHER_TOOLS.len()) as u32
}

/// The steady-phase arrival at which the `j`-th of `n` catalog specs
/// is first requested: evenly spaced over `jobs` arrivals.
fn entry_at(j: usize, n: usize, jobs: usize) -> usize {
    j * jobs / n
}

/// Engine workers of the untraced serve workload. One, not one per core:
/// on the 2-vCPU reference host two CPU-bound threads run no faster than
/// one, and whether the host granted a second core decided whether a
/// burst drained in 0.6 s or 1.2 s, so a second worker made the burst
/// figures bimodal.
pub const WORKERS: usize = 1;

/// Engine workers of the traced run: one per core and at least two, so a
/// repeat of a spec that another worker is still running can start a
/// second simulation, which `serve.miss_runs_per_distinct_spec` counts.
pub fn traced_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// An engine as the benchmark drives it: `workers` workers, one
/// simulator thread per job, an empty in-memory cache, and a queue deep
/// enough that no burst is ever rejected. Counters are on only when
/// tracing, which reads the engine's cache hit/miss counters.
pub fn start_engine(workers: usize, traced: bool) -> Engine {
    Engine::start(EngineConfig {
        workers,
        queue_cap: BURSTS * BURST_JOBS + 256,
        threads_per_job: 1,
        obs: if traced {
            Obs::with_sms(1)
        } else {
            Obs::disabled()
        },
        cache: ResultCache::in_memory(),
        ..EngineConfig::default()
    })
}

/// One job as the generator saw it.
pub struct Served {
    pub spec: usize,
    pub burst: Option<usize>,
    /// Due time, in seconds after the schedule started.
    pub due_s: f64,
    /// From the due time to the result's arrival.
    pub latency_ms: f64,
    /// How late the generator submitted it.
    pub late_ms: f64,
    /// Result arrival, in seconds after the schedule started.
    pub done_s: f64,
    pub outcome: Outcome,
}

/// Sleep until `due`, spinning through the last millisecond so the
/// generator's own lateness stays well below a cache hit's latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_millis(1) {
        std::thread::sleep(due - now - Duration::from_millis(1));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Milliseconds from `due` to `at`, zero when `at` is not later. Both a
/// job's latency and the generator's lateness count from the due time,
/// so a late submission shows in the job's latency too.
fn ms_after(due: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Run the schedule against `engine`, one arrival after another. With
/// `cal`, the generator times the calibration kernel, until the next
/// arrival is due within twice the kernel's reference time, whenever
/// every job it submitted has its result: the kernel then runs alone,
/// amid the schedule's own slow and fast phases.
pub fn run(
    plan: &Plan,
    engine: &Engine,
    t: &Tracer,
    mut cal: Option<&mut Calibration>,
) -> Vec<Served> {
    let (tx, rx) = mpsc::channel::<JobResult>();
    let mut sent: Vec<(Instant, Instant, Option<Outcome>)> =
        Vec::with_capacity(plan.arrivals.len());
    let finished = AtomicUsize::new(0);
    let gap = Duration::from_secs_f64(2.0 * calib::REFERENCE_MS / 1e3);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let done = &finished;
        let collector = s.spawn(move || {
            let mut got = Vec::new();
            while let Ok(r) = rx.recv() {
                got.push((Instant::now(), r));
                done.fetch_add(1, Ordering::Release);
            }
            got
        });
        t.span("serve.open_loop", || {
            for (id, a) in plan.arrivals.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due_s);
                if let Some(cal) = cal.as_deref_mut() {
                    while due.saturating_duration_since(Instant::now()) > gap {
                        if finished.load(Ordering::Acquire) == id {
                            cal.sample();
                        } else {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                t.span("schedule.wait", || wait_until(due));
                let submitted_at = Instant::now();
                if t.is_enabled() {
                    let depth = t.span("serve.queue_depth", || engine.queue_depth());
                    t.count("serve.queue_depth_sum", depth as f64);
                    t.count("serve.arrivals", 1.0);
                    t.count("serve.late_ms_sum", ms_after(due, submitted_at));
                }
                let job = plan.specs[a.spec].clone();
                let submitted =
                    t.span("serve.submit", || engine.submit(id as u64, job, tx.clone()));
                let rejected = submitted.err().map(|e| {
                    t.count("serve.rejected", 1.0);
                    finished.fetch_add(1, Ordering::Release);
                    Outcome::Rejected(e.to_string())
                });
                sent.push((due, submitted_at, rejected));
            }
            drop(tx);
            t.span("serve.drain", || {
                collector.join().expect("result collector")
            })
        })
    });
    let mut done: Vec<Option<(Instant, Outcome)>> = vec![None; plan.arrivals.len()];
    for (at, r) in results {
        done[r.id as usize] = Some((at, r.outcome));
    }
    plan.arrivals
        .iter()
        .zip(sent)
        .zip(done)
        .map(|((a, (due, submitted_at, rejected)), done)| {
            let (at, outcome) = match (rejected, done) {
                (Some(o), _) => (submitted_at, o),
                (None, Some(d)) => d,
                (None, None) => (submitted_at, Outcome::Error("no result delivered".into())),
            };
            Served {
                spec: a.spec,
                burst: a.burst,
                due_s: a.due_s,
                latency_ms: ms_after(due, at),
                late_ms: ms_after(due, submitted_at),
                done_s: ms_after(start, at) / 1e3,
                outcome,
            }
        })
        .collect()
}

/// Served outputs by spec: the first output of each spec, and how many
/// jobs were not served or disagree with that first output.
pub fn outputs(plan: &Plan, served: &[Served]) -> (Vec<Option<String>>, usize) {
    let mut first: Vec<Option<String>> = vec![None; plan.specs.len()];
    let mut bad = 0;
    for s in served {
        match &s.outcome {
            Outcome::Done { output, .. } => match &first[s.spec] {
                Some(f) if f != output => bad += 1,
                Some(_) => {}
                None => first[s.spec] = Some(output.clone()),
            },
            _ => bad += 1,
        }
    }
    (first, bad)
}

/// Median round trip of a cache hit through an in-process HTTP server
/// on one connection per request, after one request that fills the
/// cache.
pub fn http_rtt_us(spec: &JobSpec, rounds: usize, t: &Tracer) -> Result<f64, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        threads_per_job: 1,
        cache_dir: None,
        sms: 1,
        log_level: None,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    std::thread::scope(|s| {
        let running = s.spawn(move || server.run(&mut std::io::sink()));
        let one = |expect_hit: bool| -> Result<(), String> {
            let mut lines = Vec::new();
            client::submit_stream(&addr, std::slice::from_ref(spec), |l| {
                lines.push(l.to_string())
            })
            .map_err(|e| e.to_string())?;
            let line = match lines.as_slice() {
                [l] => proto::parse_result(l).map_err(|e| e.to_string())?,
                _ => return Err(format!("expected one result line, got {}", lines.len())),
            };
            if line.status != "ok" || (expect_hit && line.cache_hit != Some(true)) {
                return Err(format!("unexpected HTTP result {line:?}"));
            }
            Ok(())
        };
        let measured = one(false).and_then(|()| {
            let mut rtts = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t0 = Instant::now();
                t.span("serve.http", || one(true))?;
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            Ok(median(&rtts))
        });
        let stopped = client::shutdown(&addr).map_err(|e| format!("shutdown: {e}"));
        let joined = running
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"));
        let rtt = measured?;
        stopped?;
        joined?;
        Ok(rtt)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let a = plan(3, 25);
        let b = plan(3, 25);
        let key = |p: &Plan| -> Vec<(u64, usize, Option<usize>)> {
            p.arrivals
                .iter()
                .map(|a| (a.due_s.to_bits(), a.spec, a.burst))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.specs, b.specs);
        assert_ne!(key(&a), key(&plan(4, 25)));
        assert!(crate::sweep::resolve(&PROGRAMS).is_ok());
        assert!(crate::sweep::resolve(&BURST_PROGRAMS).is_ok());
    }

    #[test]
    fn the_schedule_is_open_loop_with_bursts() {
        let p = plan(1, 25);
        assert!(p.arrivals.len() >= crate::stats::ops_for_tail(TAIL));
        let k = catalog_factors(STEADY_MIN_JOBS) as usize;
        let n_catalog = PROGRAMS.len() * (k + OTHER_TOOLS.len());
        assert!((n_catalog as f64 / STEADY_MIN_JOBS as f64 - MISS_SHARE).abs() < 0.02);
        assert!(p.arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let steady: Vec<&Arrival> = p.arrivals.iter().filter(|a| a.burst.is_none()).collect();
        assert_eq!(steady.len(), STEADY_MIN_JOBS);
        for (i, a) in steady.iter().enumerate() {
            assert!((a.due_s - i as f64 / RATE_PER_S).abs() < 1e-12);
        }
        assert_eq!(p.burst_due_s.len(), BURSTS);
        // The burst phase starts after the last steady arrival.
        assert!(p.burst_due_s[0] > steady.last().unwrap().due_s);
        for (b, due) in p.burst_due_s.iter().enumerate() {
            let burst: Vec<&Arrival> = p.arrivals.iter().filter(|a| a.burst == Some(b)).collect();
            assert_eq!(burst.len(), BURST_JOBS);
            assert!(burst.iter().all(|a| a.due_s == *due));
        }
        // Each catalog spec is first requested at its evenly spaced entry
        // arrival, and never before.
        let mut firsts: Vec<usize> = (0..n_catalog)
            .map(|s| steady.iter().position(|a| a.spec == s).expect("requested"))
            .collect();
        firsts.sort();
        let expected: Vec<usize> = (0..n_catalog)
            .map(|j| entry_at(j, n_catalog, STEADY_MIN_JOBS))
            .collect();
        assert_eq!(firsts, expected);
        assert!(steady.iter().all(|a| a.spec < n_catalog));
        // Each burst asks for its own two specs, eight times each.
        for i in n_catalog..p.specs.len() {
            let b = (i - n_catalog) / BURST_PROGRAMS.len();
            let asks: Vec<&Arrival> = p.arrivals.iter().filter(|a| a.spec == i).collect();
            assert_eq!(asks.len(), BURST_REPEAT);
            assert!(asks.iter().all(|a| a.burst == Some(b)));
            assert_eq!(p.specs[i].freq_redn_factor, b as u32);
        }
        assert_eq!(p.specs.len() - n_catalog, BURSTS * BURST_PROGRAMS.len());
    }

    #[test]
    fn backlog_rate_counts_burst_jobs_over_summed_drains() {
        let p = plan(2, 25);
        let served: Vec<Served> = p
            .arrivals
            .iter()
            .map(|a| Served {
                spec: a.spec,
                burst: a.burst,
                due_s: a.due_s,
                latency_ms: 0.0,
                late_ms: 0.0,
                // Every burst drains in half a second.
                done_s: a.due_s + if a.burst.is_some() { 0.5 } else { 0.0 },
                outcome: Outcome::Rejected(String::new()),
            })
            .collect();
        let rate = backlog_ops_per_s(&p, &served);
        assert!((rate - (BURSTS * BURST_JOBS) as f64 / (0.5 * BURSTS as f64)).abs() < 1e-9);
    }

    #[test]
    fn busy_time_is_the_union_of_outstanding_spans() {
        let job = |due_s: f64, done_s: f64| Served {
            spec: 0,
            burst: None,
            due_s,
            latency_ms: 0.0,
            late_ms: 0.0,
            done_s,
            outcome: Outcome::Rejected(String::new()),
        };
        // [0, 1] and [0.5, 2] overlap into [0, 2]; [3, 3.5] stands alone;
        // [1.5, 1.8] lies inside [0, 2].
        let served = [job(3.0, 3.5), job(0.5, 2.0), job(0.0, 1.0), job(1.5, 1.8)];
        assert!((busy_s(&served) - 2.5).abs() < 1e-12);
        assert_eq!(busy_s(&[]), 0.0);
    }

    #[test]
    fn lateness_and_latency_are_timed_from_the_due_time() {
        let due = Instant::now() + Duration::from_millis(20);
        wait_until(due);
        let submitted = Instant::now();
        assert!(submitted >= due);
        let late = ms_after(due, submitted);
        assert!(late < 5.0, "generator {late} ms late");
        // A job submitted 2 ms late that finishes 5 ms later waited 7 ms.
        let (sub, done) = (
            due + Duration::from_millis(2),
            due + Duration::from_millis(7),
        );
        assert!((ms_after(due, sub) - 2.0).abs() < 1e-9);
        assert!((ms_after(due, done) - 7.0).abs() < 1e-9);
        // Nothing counts before the due time.
        assert_eq!(ms_after(due, due - Duration::from_millis(1)), 0.0);
    }
}
