//! The coach's timeline model: per-exceptional-value birth → propagate →
//! kill event lists reconstructed from the channel stream, plus the three
//! renderings the CLI exposes (human tables, deterministic JSON, and a
//! Graphviz view).
//!
//! ## Determinism contract
//!
//! Every field of every [`TimelineEvent`] is derived from the per-block
//! channel stream after the ⟨launch, block, seq⟩ merge, so a report is
//! byte-identical across SM worker counts and between a live run and a
//! trace replay. The global occurrence number (`occ`), the per-timeline
//! `step`, and the per-⟨launch, block, warp, site⟩ `hit` ordinal are all
//! counted in drain order for exactly this reason.

use gpu_fpx::analyzer::{KillReason, RegClass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// What happened to the tracked value at one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An exceptional value appeared in a destination register with no
    /// tracked exceptional source feeding the instruction.
    Birth,
    /// The value flowed from a tracked source register into a (possibly
    /// different) destination register.
    Propagate,
    /// The value stopped flowing, for the given reason.
    Kill(KillReason),
}

impl EventKind {
    /// Fixed-width table label.
    pub fn label(self) -> String {
        match self {
            EventKind::Birth => "BIRTH".to_string(),
            EventKind::Propagate => "PROP".to_string(),
            EventKind::Kill(r) => format!("KILL ({})", r.label()),
        }
    }

    /// Stable snake_case name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Birth => "birth",
            EventKind::Propagate => "propagate",
            EventKind::Kill(_) => "kill",
        }
    }
}

/// One step of one exceptional value's life.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    pub kind: EventKind,
    /// Class of the tracked value at this step (the *killed* class for a
    /// kill event).
    pub class: RegClass,
    /// Global occurrence number across the whole run, in drain order.
    pub occ: u64,
    /// Position within this timeline.
    pub step: u32,
    /// Launch ordinal (low 16 bits of the monotonic launch id).
    pub launch: u16,
    /// `LocationTable` site id.
    pub loc: u16,
    /// Site strings, shared by every event at the site (one allocation
    /// per site, not three per event).
    pub kernel: Arc<str>,
    pub sass: Arc<str>,
    pub where_str: Arc<str>,
    pub block: u16,
    pub warp: u8,
    /// Lane carrying the value (SIMT policy: first exceptional lane).
    pub lane: u8,
    /// Destination register of the event (the killed register for kills).
    pub reg: u8,
    /// Source register the value flowed from (propagation only).
    pub src_reg: Option<u8>,
    /// Ordinal of this event among all coach events at the same
    /// ⟨launch, block, warp, site⟩ — the rewind replay target.
    pub hit: u32,
}

impl TimelineEvent {
    /// One-line rendering used by tables and the rewind REPL.
    pub fn line(&self) -> String {
        let src = match self.src_reg {
            Some(r) => format!(" <- R{r}"),
            None => String::new(),
        };
        format!(
            "{:<22} {:<4} R{}{}  launch {} block {} warp {} lane {}  {}  {}",
            self.kind.label(),
            self.class,
            self.reg,
            src,
            self.launch,
            self.block,
            self.warp,
            self.lane,
            self.where_str,
            self.sass,
        )
    }
}

/// How a timeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineOutcome {
    /// The value (or a copy of it) was still in a register at run end —
    /// it escaped the kernel.
    StillLive,
    /// Every register carrying the value was killed; the reason of the
    /// final kill.
    Killed(KillReason),
}

impl TimelineOutcome {
    pub fn label(self) -> String {
        match self {
            TimelineOutcome::StillLive => "STILL LIVE".to_string(),
            TimelineOutcome::Killed(r) => format!("KILLED ({})", r.label()),
        }
    }

    /// Stable name for JSON exports.
    pub fn name(self) -> String {
        match self {
            TimelineOutcome::StillLive => "still-live".to_string(),
            TimelineOutcome::Killed(r) => format!("killed:{}", r.name()),
        }
    }
}

/// One exceptional value's ordered life story.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    pub id: usize,
    pub events: Vec<TimelineEvent>,
    pub outcome: TimelineOutcome,
}

impl Timeline {
    /// The birth event (every timeline starts with one).
    pub fn birth(&self) -> &TimelineEvent {
        &self.events[0]
    }

    /// Kill events of this timeline (one per register copy that died).
    pub fn kills(&self) -> impl Iterator<Item = &TimelineEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Kill(_)))
    }

    /// Human table for one timeline (the `chain` REPL command).
    pub fn render(&self) -> String {
        let b = self.birth();
        let mut s = format!(
            "timeline #{} - {} born at {} [{}] - {} after {} events\n",
            self.id,
            b.class,
            b.where_str,
            b.kernel,
            self.outcome.label(),
            self.events.len(),
        );
        let _ = writeln!(
            s,
            "  {:>4} {:>6} {:<22} {:<4} {:<9} {:<13} {:<28} sass",
            "step", "occ", "event", "cls", "reg", "lch/blk/w/ln", "site"
        );
        for e in &self.events {
            let reg = match e.src_reg {
                Some(r) => format!("R{}<-R{r}", e.reg),
                None => format!("R{}", e.reg),
            };
            let _ = writeln!(
                s,
                "  {:>4} {:>6} {:<22} {:<4} {:<9} {:<13} {:<28} {}",
                e.step,
                e.occ,
                e.kind.label(),
                e.class.to_string(),
                reg,
                format!("{}/{}/{}/{}", e.launch, e.block, e.warp, e.lane),
                e.where_str,
                e.sass,
            );
        }
        s
    }
}

/// The coach's run report: every reconstructed timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoachReport {
    pub timelines: Vec<Timeline>,
    /// Total coach records drained from the channel.
    pub events: u64,
    /// Records not stored (event cap, or lineage lost past the cap).
    pub dropped: u64,
}

impl CoachReport {
    /// Count kill events per reason, across all timelines.
    pub fn kill_counts(&self) -> BTreeMap<KillReason, usize> {
        let mut m = BTreeMap::new();
        for t in &self.timelines {
            for e in &t.events {
                if let EventKind::Kill(r) = e.kind {
                    *m.entry(r).or_insert(0) += 1;
                }
            }
        }
        m
    }

    /// Total kill events.
    pub fn kills(&self) -> usize {
        self.kill_counts().values().sum()
    }

    /// Timelines whose value escaped the run.
    pub fn still_live(&self) -> usize {
        self.timelines
            .iter()
            .filter(|t| t.outcome == TimelineOutcome::StillLive)
            .count()
    }

    /// Human rendering: a summary line plus one table per timeline.
    pub fn render_human(&self) -> String {
        let mut s = format!(
            "coach: {} timelines from {} lineage events ({} dropped), {} kills, {} still live\n",
            self.timelines.len(),
            self.events,
            self.dropped,
            self.kills(),
            self.still_live(),
        );
        for (r, n) in self.kill_counts() {
            let _ = writeln!(s, "  kills by {}: {}", r.label(), n);
        }
        for t in &self.timelines {
            s.push('\n');
            s.push_str(&t.render());
        }
        s
    }

    /// Deterministic hand-rolled JSON (fixed key order), mirroring the
    /// shadow report's conventions: no map iteration order leaks in.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"timelines\":{},\"events\":{},\"dropped\":{},\"still_live\":{}",
            self.timelines.len(),
            self.events,
            self.dropped,
            self.still_live()
        );
        s.push_str(",\"kills\":{");
        let counts = self.kill_counts();
        for (i, r) in [
            KillReason::Ftz,
            KillReason::Cvt,
            KillReason::Overwrite,
            KillReason::Predicate,
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{}",
                r.name(),
                counts.get(&r).copied().unwrap_or(0)
            );
        }
        s.push_str("},\"items\":[");
        for (i, t) in self.timelines.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"outcome\":{},\"events\":[",
                t.id,
                json_string(&t.outcome.name())
            );
            for (j, e) in t.events.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let reason = match e.kind {
                    EventKind::Kill(r) => json_string(r.name()),
                    _ => "null".to_string(),
                };
                let src = match e.src_reg {
                    Some(r) => r.to_string(),
                    None => "null".to_string(),
                };
                let _ = write!(
                    s,
                    "{{\"kind\":\"{}\",\"class\":\"{}\",\"reason\":{},\"occ\":{},\"step\":{},\
                     \"launch\":{},\"block\":{},\"warp\":{},\"lane\":{},\"reg\":{},\"src\":{},\
                     \"hit\":{},\"where\":{},\"sass\":{}}}",
                    e.kind.name(),
                    e.class,
                    reason,
                    e.occ,
                    e.step,
                    e.launch,
                    e.block,
                    e.warp,
                    e.lane,
                    e.reg,
                    src,
                    e.hit,
                    json_string(&e.where_str),
                    json_string(&e.sass),
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Graphviz rendering: one cluster per timeline, one node per event,
    /// edges in step order. Deterministic (vector order only).
    pub fn timeline_dot(&self) -> String {
        let mut s = String::from("digraph coach_timelines {\n");
        s.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\", fontsize=10];\n");
        for t in &self.timelines {
            let _ = writeln!(s, "  subgraph cluster_t{} {{", t.id);
            let _ = writeln!(
                s,
                "    label=\"timeline {}: {}\";",
                t.id,
                dot_escape(&t.outcome.label())
            );
            for e in &t.events {
                let color = match e.kind {
                    EventKind::Birth => "red",
                    EventKind::Propagate => "orange",
                    EventKind::Kill(_) => "blue",
                };
                let label = format!(
                    "{} {} R{}\\n{}",
                    e.kind.label(),
                    e.class,
                    e.reg,
                    dot_escape(&e.where_str)
                );
                let _ = writeln!(
                    s,
                    "    t{}_{} [label=\"{}\", color={}];",
                    t.id, e.step, label, color
                );
            }
            for w in t.events.windows(2) {
                let _ = writeln!(s, "    t{0}_{1} -> t{0}_{2};", t.id, w[0].step, w[1].step);
            }
            s.push_str("  }\n");
        }
        s.push('}');
        s.push('\n');
        s
    }
}

/// JSON string escaping (same policy as the shadow report's).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, step: u32) -> TimelineEvent {
        TimelineEvent {
            kind,
            class: RegClass::Inf,
            occ: step as u64,
            step,
            launch: 0,
            loc: 1,
            kernel: "k".into(),
            sass: "FMUL R1, R0, R0".into(),
            where_str: "f.cu:10".into(),
            block: 0,
            warp: 0,
            lane: 0,
            reg: 1,
            src_reg: if step > 0 { Some(1) } else { None },
            hit: 0,
        }
    }

    fn one_timeline() -> CoachReport {
        CoachReport {
            timelines: vec![Timeline {
                id: 0,
                events: vec![
                    ev(EventKind::Birth, 0),
                    ev(EventKind::Propagate, 1),
                    ev(EventKind::Kill(KillReason::Ftz), 2),
                ],
                outcome: TimelineOutcome::Killed(KillReason::Ftz),
            }],
            events: 3,
            dropped: 0,
        }
    }

    #[test]
    fn json_has_fixed_key_order_and_kill_buckets() {
        let j = one_timeline().to_json();
        assert!(
            j.starts_with("{\"timelines\":1,\"events\":3,\"dropped\":0,\"still_live\":0"),
            "{j}"
        );
        assert!(
            j.contains("\"kills\":{\"ftz\":1,\"cvt\":0,\"overwrite\":0,\"predicate\":0}"),
            "{j}"
        );
        assert!(j.contains("\"outcome\":\"killed:ftz\""), "{j}");
        assert!(
            j.contains("\"kind\":\"kill\",\"class\":\"INF\",\"reason\":\"ftz\""),
            "{j}"
        );
    }

    #[test]
    fn dot_renders_one_cluster_per_timeline() {
        let d = one_timeline().timeline_dot();
        assert!(d.contains("subgraph cluster_t0"), "{d}");
        assert!(d.contains("t0_0 -> t0_1;"), "{d}");
        assert!(d.contains("t0_1 -> t0_2;"), "{d}");
        assert!(d.contains("KILLED (FTZ FLUSH)"), "{d}");
    }

    #[test]
    fn human_render_includes_summary_and_steps() {
        let h = one_timeline().render_human();
        assert!(h.contains("1 timelines from 3 lineage events"), "{h}");
        assert!(h.contains("kills by FTZ FLUSH: 1"), "{h}");
        assert!(h.contains("INF born at f.cu:10"), "{h}");
    }
}
