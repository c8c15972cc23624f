//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that encloses it and the id of the operation
//! it belongs to. Spans are recorded per thread, kept in memory, and written out once when
//! the run ends. A layer's *self time* is its span's duration minus the durations of its
//! direct children (children of one span never overlap: every operation runs on one client
//! thread). Alongside spans the recorder keeps named observations ("counters"): work counts
//! such as graph edges or cycle tests, measured where the work happens.
//!
//! When tracing is off, [`span`] runs its closure and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's thread started tracing.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, Vec<f64>>,
}

struct Recorder {
    origin: Instant,
    thread: usize,
    op: u64,
    stack: Vec<usize>,
    recording: Recording,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the current thread. `origin` is shared by all threads of a run so
/// their spans line up on one time axis.
pub fn start(origin: Instant, thread: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            thread,
            op: 0,
            stack: Vec::new(),
            recording: Recording::default(),
        })
    });
}

/// Stops recording on the current thread and returns what it recorded.
pub fn finish() -> Recording {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.recording)
        .unwrap_or_default()
}

/// Whether the current thread is recording.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Sets the operation id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let index = rec.recording.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.stack.last().copied();
        rec.recording.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: rec.op,
            thread: rec.thread,
        });
        rec.stack.push(index);
        Some(index)
    });
    let result = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.recording.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.stack.pop();
            }
        });
    }
    result
}

/// Records one observation of a named count.
pub fn count(name: &'static str, value: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.recording.counters.entry(name).or_default().push(value);
        }
    });
}

/// Per-name aggregates over a set of recordings.
#[derive(Debug, Default)]
pub struct Aggregate {
    /// Self time per span, in microseconds, by span name.
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    /// Self time per span, in microseconds, by the name of the operation's root span and the
    /// span's own name: a layer reached from two operations is told apart by its root.
    pub self_us_under: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Full duration per span, in microseconds, by span name.
    pub total_us: BTreeMap<&'static str, Vec<f64>>,
    /// Counter observations by name.
    pub counters: BTreeMap<&'static str, Vec<f64>>,
    /// Per operation id: the sum of the self times of every span of that operation, keyed
    /// by the name of the operation's root span.
    pub op_self_sum_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Aggregate {
    /// Folds the recordings of every thread into per-name aggregates.
    pub fn new(recordings: &[Recording]) -> Self {
        let mut agg = Aggregate::default();
        for rec in recordings {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for span in &rec.spans {
                if let Some(parent) = span.parent {
                    child_ns[parent] += span.duration_ns();
                }
            }
            // Root spans in recording order; each op's spans follow its root.
            let mut op_sums: BTreeMap<(usize, u64), (&'static str, f64)> = BTreeMap::new();
            let mut root_of = vec![0usize; rec.spans.len()];
            for (i, span) in rec.spans.iter().enumerate() {
                let self_us = span.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e3;
                agg.self_us.entry(span.name).or_default().push(self_us);
                agg.total_us
                    .entry(span.name)
                    .or_default()
                    .push(span.duration_ns() as f64 / 1e3);
                root_of[i] = span.parent.map_or(i, |p| root_of[p]);
                let root = &rec.spans[root_of[i]];
                agg.self_us_under
                    .entry((root.name, span.name))
                    .or_default()
                    .push(self_us);
                op_sums
                    .entry((root_of[i], span.op))
                    .or_insert((root.name, 0.0))
                    .1 += self_us;
            }
            for ((_, _), (name, sum)) in op_sums {
                agg.op_self_sum_us.entry(name).or_default().push(sum);
            }
            for (name, values) in &rec.counters {
                agg.counters
                    .entry(name)
                    .or_default()
                    .extend_from_slice(values);
            }
        }
        agg
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, recordings: &[Recording]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for rec in recordings {
        for span in &rec.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"thread\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op,
                span.thread
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start(Instant::now(), 0);
        set_op(1);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        count("work", 3.0);
        let rec = finish();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        let agg = Aggregate::new(&[rec]);
        let outer_self = agg.self_us["outer"][0];
        let inner = agg.self_us["inner"][0];
        assert!(inner >= 2000.0);
        assert!(outer_self < inner);
        assert_eq!(agg.self_us_under[&("outer", "inner")], vec![inner]);
        let sum = agg.op_self_sum_us["outer"][0];
        assert!((sum - agg.total_us["outer"][0]).abs() < 1e-6);
        assert_eq!(agg.counters["work"], vec![3.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        assert!(!enabled());
        assert_eq!(span("x", || 5), 5);
        assert!(finish().spans.is_empty());
    }
}
