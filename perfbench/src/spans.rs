//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span's layer is its name up to the first `.`: `nvbit.launch.detector`
//! belongs to `nvbit`. A layer's self time is the duration of its spans
//! minus the part of each covered by child spans, so the self times of
//! all layers plus the root span's own self time (`other`) add up to the
//! traced wall time. A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

/// Span and count recorder for the traced pass; single-threaded.
pub struct Tracer {
    epoch: Option<Instant>,
    state: RefCell<State>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: None,
            state: RefCell::default(),
        }
    }

    pub fn enabled() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            state: RefCell::default(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                name,
                start_ns: Self::now_ns(epoch),
                end_ns: 0,
                parent,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[id].end_ns = Self::now_ns(epoch);
        let top = st.open.pop();
        debug_assert_eq!(top, Some(id));
        out
    }

    /// Add `v` to the count `name` (ignored when disabled).
    pub fn count(&self, name: &'static str, v: f64) {
        if self.is_enabled() {
            *self.state.borrow_mut().counts.entry(name).or_default() += v;
        }
    }

    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.state.borrow().counts.clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Total duration of every span called `name`, in ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .sum()
}

/// Number of spans called `name`.
pub fn calls(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time per layer (ms) and the wall time of the root spans, after
/// checking that spans nest: every child lies inside its parent and
/// siblings do not overlap. The root spans' layer is reported as
/// `other`.
pub fn self_times(spans: &[Span]) -> Result<(BTreeMap<&'static str, f64>, f64), String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_end: BTreeMap<Option<usize>, u64> = BTreeMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!("span {} leaves its parent {}", s.name, ps.name));
            }
            child_ns[p] += s.dur();
        }
        // Spans are stored in start order, so a sibling starting before
        // the previous one ended is an overlap.
        let prev = last_end.entry(s.parent).or_insert(0);
        if s.start_ns < *prev {
            return Err(format!("span {} overlaps its previous sibling", s.name));
        }
        *prev = s.end_ns;
    }
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut wall_ms = 0.0;
    for (s, c) in spans.iter().zip(&child_ns) {
        let own = s.dur() as f64 / 1e6 - *c as f64 / 1e6;
        let layer = if s.parent.is_none() {
            wall_ms += s.dur() as f64 / 1e6;
            "other"
        } else {
            s.layer()
        };
        *layers.entry(layer).or_default() += own;
    }
    Ok((layers, wall_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_add_up_to_the_wall() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("nvbit.launch", 10, 60, Some(0)),
            span("nvbit.inner", 20, 30, Some(1)),
            span("sim.launch", 60, 90, Some(0)),
        ];
        let (layers, wall) = self_times(&spans).unwrap();
        assert_eq!(wall, 100.0 / 1e6);
        assert!((layers["other"] - 20.0 / 1e6).abs() < 1e-15);
        assert!((layers["nvbit"] - 50.0 / 1e6).abs() < 1e-15);
        assert!((layers["sim"] - 30.0 / 1e6).abs() < 1e-15);
        let sum: f64 = layers.values().sum();
        assert!((sum - wall).abs() < 1e-15);
    }

    #[test]
    fn overlapping_or_escaping_spans_are_rejected() {
        let overlap = vec![
            span("bench", 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("b.y", 50, 70, Some(0)),
        ];
        assert!(self_times(&overlap).is_err());
        let escape = vec![span("bench", 0, 100, None), span("a.x", 90, 110, Some(0))];
        assert!(self_times(&escape).is_err());
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let t = Tracer::enabled();
        let v = t.span("bench", || t.span("sim.launch", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "sim");
        assert!(self_times(&spans).is_ok());
        let off = Tracer::disabled();
        off.span("bench", || off.count("x", 1.0));
        assert!(off.spans().is_empty() && off.counts().is_empty());
    }
}
