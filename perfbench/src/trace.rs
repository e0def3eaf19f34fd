//! In-memory spans around the calls the traced run makes into each layer,
//! reduced to per-layer self times and written out when the run ends.

use qda_bench::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call: which layer, when, and which span caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique span id within the run.
    pub id: u64,
    /// The enclosing span (`None` for a root).
    pub parent: Option<u64>,
    /// Identifier shared by every span of one design run.
    pub run: u64,
    /// Layer name; the per-layer metric `<name>_s` (or `<name>.s`) sums
    /// its self time.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can open children.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        run: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id();
        let start = self.epoch.elapsed();
        let result = f(id);
        let end = self.epoch.elapsed();
        self.record(Span {
            id,
            parent,
            run,
            name,
            start,
            end,
        });
        result
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    /// The clock reading now, relative to the epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Every span recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval its children cover (children may overlap when they ran on
/// several threads; their union is subtracted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let busy = s.end.saturating_sub(s.start);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = busy.saturating_sub(covered(kids, s.start, s.end));
        *out.entry(s.name).or_default() += own.as_secs_f64();
    }
    out
}

/// The spans as a JSON array (times in seconds from the tracer's epoch).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::object([
                    ("id", Json::Int(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::Int)),
                    ("run", Json::Int(s.run)),
                    ("name", Json::from(s.name)),
                    ("start_s", Json::fixed(s.start.as_secs_f64(), 9)),
                    ("end_s", Json::fixed(s.end.as_secs_f64(), 9)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, "run", 0, 100),
            span(2, Some(1), "opt", 10, 40),
            span(3, Some(1), "verify", 40, 90),
            // Overlapping children (two threads) count once.
            span(4, Some(3), "inner", 45, 70),
            span(5, Some(3), "inner", 60, 80),
        ];
        let t = self_times(&spans);
        let ms = |name: &str| (t[name] * 1000.0).round() as u64;
        assert_eq!(ms("run"), 20);
        assert_eq!(ms("opt"), 30);
        assert_eq!(ms("verify"), 15);
        assert_eq!(ms("inner"), 45);
        // The nested self times plus the union of the parallel children
        // (45..80 ms) make up the root's 100 ms.
        let nested = t["run"] + t["opt"] + t["verify"] + 0.035;
        assert!((nested - 0.1).abs() < 1e-9, "{nested}");
    }

    #[test]
    fn tracer_records_nested_spans_with_parents() {
        let tracer = Tracer::new();
        let got = tracer.span(None, 7, "run", |root| {
            tracer.span(Some(root), 7, "child", |_| 42)
        });
        assert_eq!(got, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "run");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.run == 7 && s.end >= s.start));
        let json = spans_json(&spans).render();
        assert!(json.contains(r#""name": "child""#), "{json}");
    }
}
