//! Fix coaching: heuristics over reconstructed timelines (and, when a
//! shadow run is supplied, `fpx-shadow` findings) that turn raw
//! birth→kill histories into ranked, actionable suggestions with a
//! rewind repro line each.
//!
//! Heuristics are intentionally shallow pattern matches — the value is
//! in pointing at the *birth site with its lineage attached*, which the
//! plain detector cannot do. Each suggestion carries a `repro` command
//! that drops the user into the rewind REPL at the exact event.

use crate::timeline::{CoachReport, EventKind, Timeline, TimelineOutcome};
use fpx_shadow::report::ShadowReport;
use fpx_shadow::DivergenceKind;
use gpu_fpx::analyzer::{KillReason, RegClass};
use std::collections::BTreeSet;

/// One ranked fix suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Stable machine-readable kind (`div-guard`, `inf-to-nan`,
    /// `ftz-kill`, `cancellation`, `still-live`).
    pub kind: &'static str,
    /// One-line headline.
    pub title: String,
    /// The coaching text: what happened and what to try.
    pub detail: String,
    /// GPU-FPX-style `@ file in [kernel]:line` site of the anchor event.
    pub where_str: String,
    /// Command that rewinds to the anchor event.
    pub repro: String,
}

impl Suggestion {
    pub fn render(&self) -> String {
        format!(
            "[{}] {}\n    {}\n    site:  {}\n    repro: {}\n",
            self.kind, self.title, self.detail, self.where_str, self.repro
        )
    }
}

/// Priority rank of a suggestion kind: lower sorts first. NaN-producing
/// patterns outrank precision/flush notes, escape notes come last.
fn rank(kind: &str) -> u32 {
    match kind {
        "div-guard" => 0,
        "inf-to-nan" => 1,
        "cancellation" => 2,
        "ftz-kill" => 3,
        "still-live" => 4,
        _ => 5,
    }
}

fn repro_line(program: &str, t: &Timeline, step: usize) -> String {
    format!(
        "gpu-fpx coach rewind {program} --timeline {} --script \"goto {step};state\"",
        t.id
    )
}

/// Does this SASS line look like a division / reciprocal?
fn is_divlike(sass: &str) -> bool {
    sass.contains("MUFU.RCP") || sass.contains("FDIV") || sass.contains("DDIV")
}

/// Run every heuristic over `report`, cross-referencing `shadow` when
/// supplied, and return suggestions ranked most-actionable first.
/// Suggestions are deduplicated per ⟨kind, site⟩ — a loop that births
/// the same NaN ten thousand times coaches once.
pub fn coach_suggestions(
    report: &CoachReport,
    program: &str,
    shadow: Option<&ShadowReport>,
) -> Vec<Suggestion> {
    let mut out: Vec<Suggestion> = Vec::new();
    let mut seen: BTreeSet<(&'static str, String)> = BTreeSet::new();
    let mut push = |s: Suggestion| {
        if seen.insert((s.kind, s.where_str.clone())) {
            out.push(s);
        }
    };

    for t in &report.timelines {
        let birth = t.birth();

        // 1. Exceptional value born at a division/reciprocal: the
        // denominator was (near) zero. The classic GPU-FPX fix: guard it.
        if birth.class.is_exceptional() && is_divlike(&birth.sass) {
            push(Suggestion {
                kind: "div-guard",
                title: format!(
                    "{} born at a division/reciprocal in {}",
                    birth.class, birth.kernel
                ),
                detail: format!(
                    "`{}` produced {} — the denominator is zero or subnormal here. \
                     Guard the divide (`if (fabsf(d) > FLT_MIN)`) or clamp the \
                     denominator before this line; the lineage below shows where \
                     the value flows afterwards.",
                    birth.sass.trim(),
                    birth.class
                ),
                where_str: birth.where_str.to_string(),
                repro: repro_line(program, t, 0),
            });
        }

        // 2. INF turning into NaN inside one lineage (INF−INF, 0·INF,
        // INF/INF): the overflow is the root cause, the NaN the symptom.
        if birth.class == RegClass::Inf {
            if let Some((step, ev)) = t
                .events
                .iter()
                .enumerate()
                .find(|(_, e)| e.class == RegClass::NaN)
            {
                push(Suggestion {
                    kind: "inf-to-nan",
                    title: format!("INF from {} decays to NaN at step {step}", birth.kernel),
                    detail: format!(
                        "The overflow born at {} reaches `{}` and turns into NaN \
                         (INF−INF / 0·INF style). Fix the *overflow*, not the NaN: \
                         rescale the operands, reorder the reduction, or use a \
                         compensated (Kahan) sum so intermediate magnitudes stay \
                         finite.",
                        birth.where_str,
                        ev.sass.trim()
                    ),
                    where_str: ev.where_str.to_string(),
                    repro: repro_line(program, t, step),
                });
            }
        }

        // 3. Subnormal lineage flushed by an `.FTZ` instruction: silent
        // precision loss the user may not know the compiler opted into.
        for (step, ev) in t.events.iter().enumerate() {
            if ev.kind == EventKind::Kill(KillReason::Ftz) {
                push(Suggestion {
                    kind: "ftz-kill",
                    title: format!("subnormal chain flushed to zero in {}", ev.kernel),
                    detail: format!(
                        "A subnormal born at {} is flushed by `{}`. If the gradual \
                         underflow matters, build without fast-math / `--ftz=true`; \
                         if it doesn't, this kill is benign — the flush is the \
                         documented FTZ speed/precision tradeoff.",
                        birth.where_str,
                        ev.sass.trim()
                    ),
                    where_str: ev.where_str.to_string(),
                    repro: repro_line(program, t, step),
                });
            }
        }

        // 5. Still-live NaN/INF at program end: the exceptional value
        // escaped into results nobody sanitized.
        if t.outcome == TimelineOutcome::StillLive && birth.class.is_exceptional() {
            let last = t.events.len() - 1;
            push(Suggestion {
                kind: "still-live",
                title: format!(
                    "{} born in {} is still live at exit",
                    birth.class, birth.kernel
                ),
                detail: format!(
                    "The value born at {} was never killed — it most likely \
                     reached an output buffer. Add a final-result check (or run \
                     the detector on the consuming kernel) before trusting the \
                     numbers downstream.",
                    birth.where_str
                ),
                where_str: birth.where_str.to_string(),
                repro: repro_line(program, t, last),
            });
        }
    }

    // 4. Shadow cancellation findings that share a site with a timeline
    // event: the precision loss and the exception flow point at the same
    // line — strong signal the subtraction needs restructuring.
    if let Some(sh) = shadow {
        for f in &sh.findings {
            if f.kind != Some(DivergenceKind::Cancellation) {
                continue;
            }
            let hit = report.timelines.iter().find_map(|t| {
                t.events
                    .iter()
                    .enumerate()
                    .find(|(_, e)| *e.where_str == *f.where_str)
                    .map(|(step, _)| (t, step))
            });
            let (title, repro) = match hit {
                Some((t, step)) => (
                    format!(
                        "cancellation at an exception-flow site in {} (timeline {})",
                        f.kernel, t.id
                    ),
                    repro_line(program, t, step),
                ),
                None => (
                    format!("cancellation divergence in {}", f.kernel),
                    format!("gpu-fpx shadow {program}"),
                ),
            };
            push(Suggestion {
                kind: "cancellation",
                title,
                detail: format!(
                    "`{}` cancels catastrophically ({:.0} ulps off its shadow). \
                     Restructure the subtraction: factor the difference, use \
                     fused multiply-add, or carry the computation in double for \
                     this step.",
                    f.sass.trim(),
                    f.err_ulps
                ),
                where_str: f.where_str.clone(),
                repro,
            });
        }
    }

    out.sort_by(|a, b| {
        rank(a.kind)
            .cmp(&rank(b.kind))
            .then(a.where_str.cmp(&b.where_str))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineEvent;
    use gpu_fpx::FlowState;

    fn ev(
        kind: EventKind,
        class: RegClass,
        step: u32,
        sass: &str,
        where_str: &str,
    ) -> TimelineEvent {
        TimelineEvent {
            kind,
            class,
            occ: step as u64,
            step,
            launch: 0,
            loc: step as u16,
            kernel: "k".into(),
            sass: sass.into(),
            where_str: where_str.into(),
            block: 0,
            warp: 0,
            lane: 0,
            reg: 2,
            src_reg: None,
            hit: 0,
        }
    }

    fn tl(id: usize, events: Vec<TimelineEvent>, outcome: TimelineOutcome) -> Timeline {
        Timeline {
            id,
            events,
            outcome,
        }
    }

    #[test]
    fn div_birth_suggests_a_guard_with_a_repro_line() {
        let rep = CoachReport {
            timelines: vec![tl(
                0,
                vec![ev(
                    EventKind::Birth,
                    RegClass::Inf,
                    0,
                    "MUFU.RCP R2, R1",
                    "@ a.cu in [k]:113",
                )],
                TimelineOutcome::Killed(KillReason::Overwrite),
            )],
            events: 1,
            dropped: 0,
        };
        let s = coach_suggestions(&rep, "GRAMSCHM", None);
        let d = s.iter().find(|s| s.kind == "div-guard").expect("div-guard");
        assert!(d.detail.contains("denominator"), "{d:?}");
        assert_eq!(
            d.repro,
            "gpu-fpx coach rewind GRAMSCHM --timeline 0 --script \"goto 0;state\""
        );
    }

    #[test]
    fn inf_decaying_to_nan_blames_the_overflow() {
        let rep = CoachReport {
            timelines: vec![tl(
                1,
                vec![
                    ev(
                        EventKind::Birth,
                        RegClass::Inf,
                        0,
                        "FMUL R1, R0, R0",
                        "@ a.cu in [k]:114",
                    ),
                    ev(
                        EventKind::Propagate,
                        RegClass::NaN,
                        1,
                        "FADD R2, R1, R3",
                        "@ a.cu in [k]:115",
                    ),
                ],
                TimelineOutcome::StillLive,
            )],
            events: 2,
            dropped: 0,
        };
        let s = coach_suggestions(&rep, "p", None);
        let i = s
            .iter()
            .find(|s| s.kind == "inf-to-nan")
            .expect("inf-to-nan");
        assert!(i.detail.contains("Fix the *overflow*"), "{i:?}");
        assert!(i.repro.contains("--timeline 1"), "{i:?}");
        assert!(
            i.repro.contains("goto 1"),
            "anchored at the NaN step: {i:?}"
        );
        // The still-live NaN also coaches an escape note.
        assert!(s.iter().any(|s| s.kind == "still-live"));
    }

    #[test]
    fn ftz_kill_notes_the_tradeoff_once_per_site() {
        let mk = |id| {
            tl(
                id,
                vec![
                    ev(
                        EventKind::Birth,
                        RegClass::Sub,
                        0,
                        "FMUL R1, R0, R0",
                        "@ a.cu in [k]:7",
                    ),
                    ev(
                        EventKind::Kill(KillReason::Ftz),
                        RegClass::Sub,
                        1,
                        "FADD.FTZ R1, R1, R1",
                        "@ a.cu in [k]:8",
                    ),
                ],
                TimelineOutcome::Killed(KillReason::Ftz),
            )
        };
        let rep = CoachReport {
            timelines: vec![mk(0), mk(1)],
            events: 4,
            dropped: 0,
        };
        let s = coach_suggestions(&rep, "p", None);
        let ftz: Vec<_> = s.iter().filter(|s| s.kind == "ftz-kill").collect();
        assert_eq!(ftz.len(), 1, "deduped per site: {s:?}");
        assert!(ftz[0].detail.contains("fast-math"), "{ftz:?}");
    }

    #[test]
    fn shadow_cancellation_cross_references_the_timeline() {
        let rep = CoachReport {
            timelines: vec![tl(
                0,
                vec![ev(
                    EventKind::Birth,
                    RegClass::NaN,
                    0,
                    "FADD R2, R1, R3",
                    "@ a.cu in [k]:118",
                )],
                TimelineOutcome::StillLive,
            )],
            events: 1,
            dropped: 0,
        };
        let sh = ShadowReport {
            findings: vec![fpx_shadow::report::ShadowFinding {
                state: FlowState::Appearance,
                kind: Some(DivergenceKind::Cancellation),
                loc: 3,
                kernel: "k".into(),
                sass: "FADD R2, R1, R3".into(),
                where_str: "@ a.cu in [k]:118".into(),
                block: 0,
                warp: 0,
                lane: 0,
                real_bits: 0,
                shadow_bits: 0x3ff0000000000000,
                err_ulps: 4.0e6,
                wide: false,
            }],
            ..ShadowReport::default()
        };
        let s = coach_suggestions(&rep, "GRAMSCHM", Some(&sh));
        let c = s
            .iter()
            .find(|s| s.kind == "cancellation")
            .expect("cancellation");
        assert!(c.title.contains("timeline 0"), "{c:?}");
        assert!(c.repro.contains("coach rewind"), "{c:?}");
    }

    #[test]
    fn ranking_puts_nan_producers_before_escape_notes() {
        let rep = CoachReport {
            timelines: vec![
                tl(
                    0,
                    vec![ev(
                        EventKind::Birth,
                        RegClass::NaN,
                        0,
                        "FADD R2, R1, R3",
                        "@ a.cu in [k]:1",
                    )],
                    TimelineOutcome::StillLive,
                ),
                tl(
                    1,
                    vec![ev(
                        EventKind::Birth,
                        RegClass::Inf,
                        0,
                        "MUFU.RCP R2, R1",
                        "@ a.cu in [k]:2",
                    )],
                    TimelineOutcome::StillLive,
                ),
            ],
            events: 2,
            dropped: 0,
        };
        let s = coach_suggestions(&rep, "p", None);
        assert_eq!(s.first().map(|s| s.kind), Some("div-guard"), "{s:?}");
        assert_eq!(s.last().map(|s| s.kind), Some("still-live"), "{s:?}");
    }
}
