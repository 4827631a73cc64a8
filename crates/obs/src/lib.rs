//! Std-only, lock-light observability primitives for the serving tier.
//!
//! Three layers, each independently usable:
//!
//! * **Instruments** — [`Counter`], [`Gauge`], and [`AtomicHistogram`]
//!   are plain relaxed atomics: recording is a single `fetch_add` (two
//!   for histograms), safe to call from any thread, never blocking.
//!   [`Histogram`] is the mergeable point-in-time snapshot type the
//!   engine's latency histograms are built on.
//! * **Registry and encoders** — a [`Registry`] hands out named
//!   instruments (registered once, by name) and [`Registry::gather`]s
//!   them into [`Metric`] samples, which [`prometheus_text`] and
//!   [`json_text`] encode with zero dependencies.
//! * **Traces** — a [`Trace`] is a per-request sequence of timestamped
//!   stage spans ([`TraceSpan`]), appended with [`Trace::record`] by
//!   code that wraps a stage's call in a span; the traced call is the
//!   same one an untraced request makes. A [`TraceRing`] retains the
//!   last N completed traces for post-mortem inspection.
//!
//! Everything here is `std`-only and allocation-free on the record
//! path (traces allocate only when spans are appended, which only
//! happens when tracing is enabled).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of power-of-two latency buckets in a [`Histogram`]: bucket
/// `i` counts durations in `[2^i, 2^{i+1})` nanoseconds (bucket 0
/// covers `[0, 2)`, the last bucket is unbounded above).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A mergeable point-in-time histogram of durations in power-of-two
/// nanosecond buckets.
///
/// This is the *snapshot* type: plain `u64`s, `Copy`, comparable, and
/// mergeable with [`Histogram::merge`]. The live, concurrently-written
/// counterpart is [`AtomicHistogram`]; [`AtomicHistogram::snapshot`]
/// produces one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Bucket `i` counts samples in `[2^i, 2^{i+1})` nanoseconds
    /// (bucket 0 covers `[0, 2)`; the last bucket is unbounded).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded durations, in nanoseconds (saturating).
    pub sum_nanos: u64,
}

/// Bucket index for a duration of `n` nanoseconds.
#[inline]
fn bucket_index(n: u64) -> usize {
    let n = n.max(1);
    ((63 - n.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Nanosecond count for a `Duration`, saturating at `u64::MAX`.
#[inline]
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, elapsed: Duration) {
        let n = duration_nanos(elapsed);
        self.buckets[bucket_index(n)] += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(n);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The smallest duration (in nanoseconds) that lands in bucket `i`.
    pub fn bucket_floor_nanos(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// An upper bound (in nanoseconds) for the `q`-quantile of the
    /// recorded durations: the ceiling of the bucket the quantile rank
    /// falls in. `None` when the histogram is empty.
    pub fn quantile_nanos(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        None
    }

    /// Adds every sample of `other` into `self`. Merging is exact:
    /// buckets and sums add componentwise, so merging per-shard
    /// histograms equals recording every sample into one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.count();
        if total == 0 {
            return write!(f, "histogram(empty)");
        }
        let q = |q: f64| self.quantile_nanos(q).unwrap_or(0);
        write!(
            f,
            "histogram(count={total}, sum={}ns, p50\u{2264}{}ns, p90\u{2264}{}ns, p99\u{2264}{}ns)",
            self.sum_nanos,
            q(0.5),
            q(0.9),
            q(0.99)
        )
    }
}

/// The live, concurrently-written counterpart of [`Histogram`]: every
/// [`AtomicHistogram::record`] is two relaxed `fetch_add`s, safe from
/// any thread.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_nanos: AtomicU64,
}

impl AtomicHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::default()
    }

    /// Records one duration (relaxed; never blocks).
    pub fn record(&self, elapsed: Duration) {
        let n = duration_nanos(elapsed);
        self.buckets[bucket_index(n)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy. Under concurrent recording the buckets
    /// and sum are each individually exact but may straddle a record
    /// (monotone counters — never torn, at worst one sample apart).
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram {
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            ..Histogram::default()
        };
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h
    }
}

/// A monotone event counter (relaxed atomic `u64`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (relaxed atomic `i64`) — queue
/// depths, resident weights, anything that goes up *and* down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One instrument's value at gather time.
///
/// The histogram variant is 33 words wide, dwarfing the scalar ones;
/// that is fine — `MetricValue`s exist only transiently inside a
/// gather (a few dozen per scrape), never in hot per-request state,
/// so boxing would buy nothing but an allocation per sample.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A duration histogram snapshot.
    Histogram(Histogram),
}

/// One labeled sample of a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label key/value pairs (may be empty).
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub value: MetricValue,
}

/// A named metric with one or more labeled samples — the unit both
/// encoders consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*` for Prometheus).
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// The samples; all must share the same value kind.
    pub samples: Vec<Sample>,
}

impl Metric {
    /// A single unlabeled sample.
    pub fn single(name: &str, help: &str, value: MetricValue) -> Metric {
        Metric {
            name: name.to_string(),
            help: help.to_string(),
            samples: vec![Sample {
                labels: Vec::new(),
                value,
            }],
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

struct Registered {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A set of named instruments, each registered once; [`Registry::gather`]
/// snapshots them all into [`Metric`]s for the encoders.
///
/// The registry lock is taken only on registration and gather — never
/// on the record path (instruments are shared out as `Arc`s).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Vec<Registered>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .inner
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|r| r.name.clone())
            .collect();
        f.debug_struct("Registry").field("metrics", &names).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        matching: impl Fn(&Instrument) -> Option<Arc<T>>,
        fresh: impl FnOnce() -> (Arc<T>, Instrument),
    ) -> Arc<T> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if let Some(existing) = inner.iter().find(|r| r.name == name) {
            return matching(&existing.instrument).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different kind")
            });
        }
        let (handle, instrument) = fresh();
        inner.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            instrument,
        });
        handle
    }

    /// The counter named `name`, registering it on first use. Later
    /// calls with the same name return the same counter (and ignore
    /// `help`).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Instrument::Counter(c))
            },
        )
    }

    /// The gauge named `name`, registering it on first use (see
    /// [`Registry::counter`] for the once-only contract).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (g.clone(), Instrument::Gauge(g))
            },
        )
    }

    /// The histogram named `name`, registering it on first use (see
    /// [`Registry::counter`] for the once-only contract).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<AtomicHistogram> {
        self.register(
            name,
            help,
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Arc::new(AtomicHistogram::new());
                (h.clone(), Instrument::Histogram(h))
            },
        )
    }

    /// Snapshots every registered instrument, in registration order.
    pub fn gather(&self) -> Vec<Metric> {
        self.inner
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|r| {
                let value = match &r.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get() as f64),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                Metric::single(&r.name, &r.help, value)
            })
            .collect()
    }
}

fn prometheus_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", label_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Formats a float the way Prometheus exposition expects (shortest
/// round-trippable decimal; `inf` spelled `+Inf`).
fn prom_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// Encodes metrics in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` headers followed by samples, histograms
/// as cumulative `_bucket{le=...}` series (bucket bounds in seconds)
/// plus `_sum` (seconds) and `_count`.
pub fn prometheus_text(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        if m.samples.is_empty() {
            continue;
        }
        let kind = match m.samples[0].value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        out.push_str(&format!(
            "# HELP {} {}\n# TYPE {} {}\n",
            m.name,
            prometheus_escape(&m.help),
            m.name,
            kind
        ));
        for s in &m.samples {
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, label_block(&s.labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        label_block(&s.labels, None),
                        prom_float(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            // Upper bound of bucket i, in seconds.
                            prom_float(Histogram::bucket_floor_nanos(i + 1) as f64 / 1e9)
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            m.name,
                            label_block(&s.labels, Some(("le", &le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        label_block(&s.labels, None),
                        prom_float(h.sum_nanos as f64 / 1e9)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {cum}\n",
                        m.name,
                        label_block(&s.labels, None)
                    ));
                }
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Encodes metrics as a stable JSON snapshot: metrics sorted by name,
/// labels sorted by key, histograms as lossless
/// `{"count", "sum_nanos", "buckets"}` objects. Two gathers of
/// identical instrument state produce byte-identical output.
pub fn json_text(metrics: &[Metric]) -> String {
    let mut sorted: Vec<&Metric> = metrics.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::from("{\"metrics\":[");
    for (mi, m) in sorted.iter().enumerate() {
        if mi > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"help\":\"{}\",\"samples\":[",
            json_escape(&m.name),
            json_escape(&m.help)
        ));
        for (si, s) in m.samples.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let mut labels: Vec<&(String, String)> = s.labels.iter().collect();
            labels.sort_by(|a, b| a.0.cmp(&b.0));
            out.push_str("{\"labels\":{");
            for (li, (k, v)) in labels.iter().enumerate() {
                if li > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str("},");
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{v}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{}", prom_float(*v)));
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
                    out.push_str(&format!(
                        "\"type\":\"histogram\",\"value\":{{\"count\":{},\"sum_nanos\":{},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum_nanos,
                        buckets.join(",")
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// A pipeline stage a [`TraceSpan`] can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the pool queue between submission and pickup.
    Queue,
    /// Pipeline-cache lookup (shared by a whole batch).
    Cache,
    /// Grammar/automaton compilation on a cache miss.
    Compile,
    /// The pipeline's parse call: for raw text, lexing, lexeme
    /// certification and the LR drive together.
    Parse,
    /// Report assembly after the drive returns.
    Finish,
    /// Self-hosted parse of a grammar-language text submission.
    Frontend,
    /// Elaboration of a parsed spec AST into a lexer + grammar pair.
    Elaborate,
}

impl Stage {
    /// The stage's stable lowercase name (used in exports and
    /// `Display`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Cache => "cache",
            Stage::Compile => "compile",
            Stage::Parse => "parse",
            Stage::Finish => "finish",
            Stage::Frontend => "frontend",
            Stage::Elaborate => "elaborate",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One timestamped stage of a request: `start` is the offset from the
/// trace's epoch (its creation), `duration` the stage's wall time.
/// Both are `Duration`s (not `Instant`s) so traces stay comparable and
/// serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Offset of the span's start from the trace epoch.
    pub start: Duration,
    /// Wall time the stage took.
    pub duration: Duration,
}

/// A completed per-request trace: an ordered list of stage spans plus
/// request identity. Spans are appended with [`Trace::record`] and
/// never overlap — their durations sum to at most
/// [`Trace::total`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Human label for the workload (e.g. the pipeline spec name).
    pub label: String,
    /// Index of the request in its batch.
    pub request: usize,
    /// Input size in bytes (or symbols for symbolic inputs).
    pub input_bytes: usize,
    /// The stage spans, in the order they were recorded.
    pub spans: Vec<TraceSpan>,
    /// Wall time from the trace epoch to completion (set by the code
    /// that finishes the trace; `ZERO` while in flight).
    pub total: Duration,
}

impl Trace {
    /// A fresh trace with no spans.
    pub fn new(label: &str, request: usize, input_bytes: usize) -> Trace {
        Trace {
            label: label.to_string(),
            request,
            input_bytes,
            ..Trace::default()
        }
    }

    /// Appends one stage span: `start` is the offset from the trace
    /// epoch, `duration` the stage's wall time.
    pub fn record(&mut self, stage: Stage, start: Duration, duration: Duration) {
        self.spans.push(TraceSpan {
            stage,
            start,
            duration,
        });
    }

    /// The duration of the first span covering `stage`, if recorded.
    pub fn span_duration(&self, stage: Stage) -> Option<Duration> {
        self.spans
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.duration)
    }

    /// The sum of all span durations (≤ [`Trace::total`] for a
    /// completed trace, since spans never overlap).
    pub fn spans_total(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace[{} #{} {}B total={:?}]",
            self.label, self.request, self.input_bytes, self.total
        )?;
        for s in &self.spans {
            write!(f, " {}={:?}", s.stage, s.duration)?;
        }
        Ok(())
    }
}

/// A bounded ring of the most recently completed traces.
///
/// Lock-light: writers claim a slot with one atomic ticket
/// (`fetch_add`) and hold that slot's mutex only for the `Option`
/// swap; readers lock one slot at a time. No writer ever blocks
/// another except on a same-slot collision (ring wrap under heavy
/// concurrency).
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Mutex<Option<Trace>>]>,
    next: AtomicU64,
}

impl TraceRing {
    /// A ring retaining the last `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Number of traces the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever pushed (not capped by capacity).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Stores a completed trace, evicting the oldest when full.
    pub fn push(&self, trace: Trace) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("trace ring slot poisoned") = Some(trace);
    }

    /// The retained traces, most recent first. Under concurrent pushes
    /// the snapshot is per-slot consistent (each trace is whole) but
    /// the ordering across slots is best-effort.
    pub fn recent(&self) -> Vec<Trace> {
        let pushed = self.pushed();
        let n = self.slots.len() as u64;
        let newest = pushed;
        let oldest = pushed.saturating_sub(n);
        let mut out = Vec::with_capacity((newest - oldest) as usize);
        let mut t = newest;
        while t > oldest {
            t -= 1;
            let slot = (t % n) as usize;
            if let Some(tr) = self.slots[slot]
                .lock()
                .expect("trace ring slot poisoned")
                .clone()
            {
                out.push(tr);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_record_merge_and_quantiles() {
        let mut a = Histogram::default();
        a.record(Duration::from_nanos(1));
        a.record(Duration::from_nanos(3));
        let mut b = Histogram::default();
        b.record(Duration::from_nanos(1000));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_nanos, 1004);
        assert_eq!(Histogram::bucket_floor_nanos(0), 0);
        assert_eq!(Histogram::bucket_floor_nanos(10), 1024);
        assert!(a.quantile_nanos(1.0).unwrap() >= 1000);
        assert!(Histogram::default().quantile_nanos(0.5).is_none());
        assert!(format!("{a}").contains("count=3"));
    }

    #[test]
    fn atomic_histogram_snapshot_matches_sequential() {
        let h = AtomicHistogram::new();
        let mut reference = Histogram::default();
        for n in [1u64, 2, 5, 100, 4096, 1 << 40] {
            h.record(Duration::from_nanos(n));
            reference.record(Duration::from_nanos(n));
        }
        assert_eq!(h.snapshot(), reference);
    }

    #[test]
    fn registry_registers_once_and_gathers() {
        let reg = Registry::new();
        let c1 = reg.counter("requests_total", "requests");
        let c2 = reg.counter("requests_total", "ignored");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        let g = reg.gauge("depth", "queue depth");
        g.set(-2);
        let gathered = reg.gather();
        assert_eq!(gathered.len(), 2);
        assert_eq!(gathered[0].samples[0].value, MetricValue::Counter(4));
        assert_eq!(gathered[1].samples[0].value, MetricValue::Gauge(-2.0));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_collisions() {
        let reg = Registry::new();
        let _c = reg.counter("x", "a counter");
        let _g = reg.gauge("x", "now a gauge");
    }

    #[test]
    fn prometheus_text_shape() {
        let mut h = Histogram::default();
        h.record(Duration::from_nanos(3));
        let metrics = vec![
            Metric::single("lambekd_hits_total", "cache hits", MetricValue::Counter(7)),
            Metric::single("lambekd_lat", "latency", MetricValue::Histogram(h)),
        ];
        let text = prometheus_text(&metrics);
        assert!(text.contains("# HELP lambekd_hits_total cache hits"));
        assert!(text.contains("# TYPE lambekd_hits_total counter"));
        assert!(text.contains("lambekd_hits_total 7"));
        assert!(text.contains("# TYPE lambekd_lat histogram"));
        assert!(text.contains("lambekd_lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lambekd_lat_count 1"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn json_text_is_stable_and_sorted() {
        let metrics = vec![
            Metric::single("zzz", "last", MetricValue::Gauge(1.5)),
            Metric::single("aaa", "first", MetricValue::Counter(2)),
        ];
        let a = json_text(&metrics);
        let b = json_text(&metrics);
        assert_eq!(a, b);
        assert!(a.find("\"aaa\"").unwrap() < a.find("\"zzz\"").unwrap());
        assert!(a.starts_with("{\"metrics\":["));
    }

    #[test]
    fn trace_records_spans_in_order() {
        let mut t = Trace::new("demo", 3, 128);
        t.record(
            Stage::Queue,
            Duration::from_micros(1),
            Duration::from_micros(5),
        );
        t.record(
            Stage::Parse,
            Duration::from_micros(6),
            Duration::from_micros(9),
        );
        t.total = Duration::from_micros(20);
        assert_eq!(
            t.span_duration(Stage::Queue),
            Some(Duration::from_micros(5))
        );
        assert_eq!(t.span_duration(Stage::Cache), None);
        assert!(t.spans_total() <= t.total);
        assert!(format!("{t}").contains("queue="));
    }

    #[test]
    fn trace_ring_bounds_and_recency() {
        let ring = TraceRing::new(3);
        for i in 0..7 {
            ring.push(Trace::new("r", i, 0));
        }
        assert_eq!(ring.pushed(), 7);
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        let ids: Vec<usize> = recent.iter().map(|t| t.request).collect();
        assert_eq!(ids, vec![6, 5, 4]);
        assert_eq!(TraceRing::new(0).capacity(), 1);
    }
}
