//! In-memory spans recorded around every call the benchmark makes into a
//! layer's public API (traced runs only), and the per-span-name table
//! derived from them.
//!
//! A span names its layer (the crate), the operation, its start and end
//! on the tracer's clock, and the span that caused it. A span's self time
//! is its duration minus the parts of it its child spans cover. Spans
//! stay in memory until the run ends and are then written out in one
//! file together with the derived tables.

use crate::stats::Summary;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored.
const MAX_SPANS: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Crate the call went into.
    pub layer: &'static str,
    /// Operation name.
    pub op: &'static str,
    /// Start, nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the tracer's clock.
    pub end_ns: u64,
}

/// Thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if before it).
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        op: &'static str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        // ordering: id allocation only needs uniqueness.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id,
                parent,
                layer,
                op,
                start_ns,
                end_ns,
            });
        } else {
            // ordering: a statistic.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        id
    }

    /// Reserve an id for a parent span recorded after its children.
    pub fn reserve(&self) -> u64 {
        // ordering: id allocation only needs uniqueness.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under an id from [`Tracer::reserve`].
    pub fn record_reserved(
        &self,
        id: u64,
        layer: &'static str,
        op: &'static str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            id,
            parent,
            layer,
            op,
            start_ns,
            end_ns,
        });
    }

    /// Copy of all stored spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }

    /// Spans counted but not stored.
    pub fn dropped(&self) -> u64 {
        // ordering: a statistic read after every writer joined.
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-(layer, op) table row.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSummary {
    /// Crate.
    pub layer: &'static str,
    /// Operation.
    pub op: &'static str,
    /// Duration statistics, milliseconds.
    pub total: Summary,
    /// Self-time statistics, milliseconds.
    pub self_time: Summary,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get(&s.id) else {
                return dur;
            };
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Summaries per (layer, op), sorted by layer then op.
pub fn summarize(spans: &[Span]) -> Vec<OpSummary> {
    let selfs = self_times(spans);
    // (layer, op) -> (durations, self times).
    type Groups = BTreeMap<(&'static str, &'static str), (Vec<u64>, Vec<u64>)>;
    let mut groups = Groups::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let g = groups.entry((s.layer, s.op)).or_default();
        g.0.push(s.end_ns.saturating_sub(s.start_ns));
        g.1.push(self_ns);
    }
    groups
        .into_iter()
        .map(|((layer, op), (total, own))| OpSummary {
            layer,
            op,
            total: Summary::from_nanos(&total),
            self_time: Summary::from_nanos(&own),
        })
        .collect()
}

/// JSON form of a span table.
pub fn summary_value(rows: &[OpSummary]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                Value::Object(vec![
                    ("layer".into(), Value::Str(r.layer.into())),
                    ("op".into(), Value::Str(r.op.into())),
                    ("count".into(), Value::UInt(r.total.n as u64)),
                    ("p50_ms".into(), Value::Float(r.total.p50)),
                    ("p99_ms".into(), Value::Float(r.total.p99)),
                    ("self_p50_ms".into(), Value::Float(r.self_time.p50)),
                ])
            })
            .collect(),
    )
}

/// JSON form of raw spans: `[id, parent, layer, op, start_ns, end_ns]`.
pub fn spans_value(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::UInt(s.id),
                    Value::UInt(s.parent),
                    Value::Str(s.layer.into()),
                    Value::Str(s.op.into()),
                    Value::UInt(s.start_ns),
                    Value::UInt(s.end_ns),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            op: "o",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),  // overlaps span 2: union 10..50
            span(4, 1, 90, 120), // clipped to 90..100
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let t = Tracer::new();
        let parent = t.reserve();
        let child = t.record("cerl-math", "matmul", parent, 5, 9);
        t.record_reserved(parent, "bench", "suite", 0, 0, t.offset(Instant::now()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.id == child && s.parent == parent));
        let table = summarize(&spans);
        assert_eq!(table.len(), 2);
    }
}
