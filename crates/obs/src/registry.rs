//! The metric registry: named counters, gauges, and log-scale
//! histograms behind lock-free typed handles, rendered on demand as
//! Prometheus text exposition.
//!
//! Registration (name + label set → handle) takes a mutex and happens
//! once at startup; recording through a handle is relaxed atomics
//! only. Registering the same name and labels again returns a handle
//! to the *same* underlying series — components that share a registry
//! share the series — while re-registering under a different metric
//! kind panics (a configuration bug worth failing loudly on).
//!
//! Histograms use fixed log-scale buckets: bucket `i` holds
//! observations `v` with `2^(i-1) < v <= 2^i` (bucket 0 holds `0` and
//! `1`). One `fetch_add` on the bucket plus one on the running sum per
//! observation, no floats on the record path, and cumulative bucket
//! counts are derived at render time from a single point-in-time copy
//! of the slots — so a concurrent scrape can never observe a
//! non-monotone cumulative series or a `_count` that disagrees with
//! the `+Inf` bucket.

use crate::journal::EventJournal;
use crate::trace::{SpanContext, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Finite histogram buckets: upper bounds `2^0 ..= 2^63`. One extra
/// overflow slot (rendered only into `+Inf`) catches larger values.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// What kind of series a name is registered as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Set-to-current-value measurement.
    Gauge,
    /// Log-scale distribution of u64 observations.
    Histogram,
}

/// One scraped counter or gauge: `(name, labels, kind, value)` — see
/// [`Registry::scalar_values`]. Values are `f64` so seconds-unit
/// counters (stored internally in microseconds) sample into the tsdb
/// in the unit their name declares.
pub type ScalarValue = (String, Vec<(String, String)>, MetricKind, f64);

/// One scraped histogram: `(name, labels, snapshot)` — see
/// [`Registry::histogram_snapshots`].
pub type HistogramSample = (String, Vec<(String, String)>, HistogramSnapshot);

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle. Cloning shares the
/// underlying series.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`. One relaxed atomic add — safe on any hot path.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (set-to-value semantics). Cloning shares the
/// underlying series.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (for up/down occupancy gauges).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-watermark
    /// semantics, e.g. newest-timestamp gauges).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite buckets plus one overflow slot.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
}

/// A fixed-bucket log-scale histogram handle. Cloning shares the
/// underlying series.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for `v`: the smallest `i` with `v <= 2^i`, overflow
/// slot past `2^63`.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS)
    }
}

/// Upper bound of finite bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    /// Records one observation: one relaxed add on its bucket, one on
    /// the running sum.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Times `f` and records the elapsed wall clock in microseconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let out = f();
        self.observe(t.elapsed().as_micros() as u64);
        out
    }

    /// Records an already-measured duration, in microseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    /// A point-in-time copy of the slots — what rendering and
    /// quantile estimation work from, so one scrape is internally
    /// consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of one histogram's slots.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (finite buckets then overflow).
    pub counts: [u64; HISTOGRAM_BUCKETS + 1],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The observations recorded since `prev` was taken (per-bucket
    /// saturating difference) — what a windowed quantile works over,
    /// so a long-running process's p99 reflects the last sampling
    /// interval rather than its whole lifetime.
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(prev.counts[i])),
            sum: self.sum.saturating_sub(prev.sum),
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the owning log-scale bucket. Returns `None` before the
    /// first observation — "no data" is an explicit answer, never `0`
    /// (the same rule the server's latency ring uses).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                if i >= HISTOGRAM_BUCKETS {
                    // Overflow bucket: no finite upper bound to
                    // interpolate toward.
                    return Some(bucket_bound(HISTOGRAM_BUCKETS - 1));
                }
                let lo = if i == 0 { 0 } else { bucket_bound(i - 1) };
                let hi = bucket_bound(i);
                let into = (rank - cum) as f64 / n as f64;
                return Some(lo + ((hi - lo) as f64 * into).round() as u64);
            }
            cum += n;
        }
        unreachable!("rank <= total")
    }
}

/// One registered series: the shared handle plus its metadata.
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A counter whose handle records *microseconds* but whose series
    /// renders as fractional *seconds* — the shape Prometheus
    /// conventions demand of `*_seconds_total` CPU-time families while
    /// the registry stays integer-atomic inside.
    SecondsCounter(Counter),
}

impl Series {
    fn kind(&self) -> MetricKind {
        match self {
            Series::Counter(_) | Series::SecondsCounter(_) => MetricKind::Counter,
            Series::Gauge(_) => MetricKind::Gauge,
            Series::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Entry {
    help: String,
    series: Series,
}

type SeriesKey = (String, Vec<(String, String)>);

/// One named pipeline stage, for sites that time themselves: each
/// observation lands in the stage's `moas_stage_duration_us` series
/// *and* as a span through [`Tracer::record_stage`], from the same
/// measured duration — the histogram sums and the profiler's
/// per-stage time are fed by one call, not two that must agree.
#[derive(Debug, Clone)]
pub struct Stage {
    name: &'static str,
    histogram: Histogram,
    registry: Arc<Registry>,
}

impl Stage {
    /// Records one occurrence under the ambient ingest context
    /// ([`Tracer::current`]); outside any trace it profiles as its own
    /// root. Returns the recorded span's context.
    pub fn observe(&self, elapsed: Duration) -> SpanContext {
        self.observe_under(self.registry.tracer().current(), elapsed)
    }

    /// Records one occurrence under an explicit `parent` — for stages
    /// whose trace context crossed a thread boundary with the work.
    pub fn observe_under(&self, parent: SpanContext, elapsed: Duration) -> SpanContext {
        self.histogram.observe_duration(elapsed);
        self.registry
            .tracer()
            .record_stage(parent, self.name, elapsed)
    }
}

/// The central metric registry: registration map plus the embedded
/// operational [`EventJournal`].
///
/// Deployments create one `Arc<Registry>` and thread it through every
/// layer (monitor engine, history store, feed follower, query server)
/// so a single `GET /metrics` scrape covers the whole pipeline.
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Entry>>,
    journal: EventJournal,
    tracer: Tracer,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.series.lock().expect("registry lock poisoned").len();
        write!(f, "Registry({n} series)")
    }
}

impl Registry {
    /// An empty registry with a default-capacity event journal.
    pub fn new() -> Self {
        Registry::with_journal_capacity(crate::journal::DEFAULT_JOURNAL_CAPACITY)
    }

    /// An empty registry whose event journal holds `journal_capacity`
    /// events. The journal's eviction counter is pre-registered as
    /// `moas_journal_dropped_total`, so silently overwritten events
    /// are visible from the metric data itself.
    pub fn with_journal_capacity(journal_capacity: usize) -> Self {
        let dropped = Counter::default();
        let registry = Registry {
            series: Mutex::new(BTreeMap::new()),
            journal: EventJournal::with_capacity_and_counter(journal_capacity, dropped.clone()),
            tracer: Tracer::default(),
        };
        registry
            .series
            .lock()
            .expect("registry lock poisoned")
            .insert(
                ("moas_journal_dropped_total".to_string(), Vec::new()),
                Entry {
                    help: "Journal events evicted by ring overflow before being read.".to_string(),
                    series: Series::Counter(dropped),
                },
            );
        registry
    }

    /// The embedded operational event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The embedded span tracer (see [`crate::trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let key: SeriesKey = (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        let mut map = self.series.lock().expect("registry lock poisoned");
        // One name, one shape — across all label sets. Discriminants,
        // not kinds: a seconds counter and a plain counter both render
        // as TYPE counter but record in different units, so mixing
        // them under one name is the same configuration bug.
        let wanted = make();
        if let Some((_, existing)) = map
            .range((key.0.clone(), Vec::new())..)
            .take_while(|((n, _), _)| *n == key.0)
            .next()
        {
            assert!(
                std::mem::discriminant(&existing.series) == std::mem::discriminant(&wanted),
                "metric {name:?} already registered as {}, re-registered as {}",
                shape_str(&existing.series),
                shape_str(&wanted),
            );
        }
        match map.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => clone_series(&e.get().series),
            std::collections::btree_map::Entry::Vacant(e) => {
                let out = clone_series(&wanted);
                e.insert(Entry {
                    help: help.to_string(),
                    series: wanted,
                });
                out
            }
        }
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or finds) a counter with a static label set.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or finds) a gauge with a static label set.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(name, labels, help, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) a seconds-unit counter with a static label
    /// set. The returned handle records **microseconds** (`add` takes
    /// µs); the series renders and samples as fractional seconds, the
    /// conventional unit for `*_seconds_total` families like the
    /// per-thread CPU ledger's `moas_thread_cpu_seconds_total`.
    pub fn seconds_counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, || {
            Series::SecondsCounter(Counter::default())
        }) {
            Series::SecondsCounter(c) => c,
            _ => unreachable!("shape checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Registers (or finds) a histogram with a static label set.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.register(name, labels, help, || {
            Series::Histogram(Histogram::default())
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// The shared pipeline stage-latency histogram family
    /// (`moas_stage_duration_us{stage="..."}`), in microseconds. Every
    /// instrumented stage across monitor, history, feed, and server
    /// registers through here so stage names stay one label apart.
    pub fn stage_histogram(&self, stage: &str) -> Histogram {
        self.histogram_with(
            "moas_stage_duration_us",
            &[("stage", stage)],
            "Pipeline stage latency in microseconds.",
        )
    }

    /// A [`Stage`] handle for `stage`: its `moas_stage_duration_us`
    /// series plus this registry's tracer, so a self-timed stage site
    /// records both with one call.
    pub fn stage(self: &Arc<Self>, stage: &'static str) -> Stage {
        Stage {
            name: stage,
            histogram: self.stage_histogram(stage),
            registry: Arc::clone(self),
        }
    }

    /// The value of a registered counter or gauge, for tests and
    /// report views (`None` if the series does not exist or is a
    /// histogram). Seconds counters report their raw microsecond
    /// tally.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key: SeriesKey = (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        let map = self.series.lock().expect("registry lock poisoned");
        match &map.get(&key)?.series {
            Series::Counter(c) | Series::SecondsCounter(c) => Some(c.get()),
            Series::Gauge(g) => Some(g.get()),
            Series::Histogram(_) => None,
        }
    }

    /// Every registered counter and gauge as
    /// `(name, labels, kind, value)` — the sampling surface the
    /// [`crate::tsdb`] store scrapes on its cadence. Histograms are
    /// excluded (see [`Registry::histogram_snapshots`]).
    pub fn scalar_values(&self) -> Vec<ScalarValue> {
        let map = self.series.lock().expect("registry lock poisoned");
        map.iter()
            .filter_map(|((name, labels), entry)| match &entry.series {
                Series::Counter(c) => Some((
                    name.clone(),
                    labels.clone(),
                    MetricKind::Counter,
                    c.get() as f64,
                )),
                Series::SecondsCounter(c) => Some((
                    name.clone(),
                    labels.clone(),
                    MetricKind::Counter,
                    c.get() as f64 / 1e6,
                )),
                Series::Gauge(g) => Some((
                    name.clone(),
                    labels.clone(),
                    MetricKind::Gauge,
                    g.get() as f64,
                )),
                Series::Histogram(_) => None,
            })
            .collect()
    }

    /// A point-in-time snapshot of every registered histogram as
    /// `(name, labels, snapshot)` — the surface the tsdb derives
    /// windowed quantile series from.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSample> {
        let map = self.series.lock().expect("registry lock poisoned");
        map.iter()
            .filter_map(|((name, labels), entry)| match &entry.series {
                Series::Histogram(h) => Some((name.clone(), labels.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Renders every registered series as Prometheus text exposition
    /// (format 0.0.4): `# HELP` and `# TYPE` once per family, series
    /// sorted by name then label set, label values escaped, histogram
    /// families as cumulative `_bucket{le=...}` plus `_sum` and
    /// `_count`. Empty trailing histogram buckets are elided (the
    /// `+Inf` bucket always carries the total).
    pub fn render_prometheus(&self) -> String {
        let map = self.series.lock().expect("registry lock poisoned");
        let mut out = String::with_capacity(4096 + map.len() * 64);
        let mut last_name: Option<&str> = None;
        for ((name, labels), entry) in map.iter() {
            if last_name != Some(name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                escape_help(&entry.help, &mut out);
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(entry.series.kind().as_str());
                out.push('\n');
                last_name = Some(name.as_str());
            }
            match &entry.series {
                Series::Counter(c) => {
                    render_series_line(&mut out, name, labels, None, c.get());
                }
                Series::SecondsCounter(c) => {
                    let micros = c.get();
                    render_series_text(
                        &mut out,
                        name,
                        labels,
                        None,
                        &format!("{}.{:06}", micros / 1_000_000, micros % 1_000_000),
                    );
                }
                Series::Gauge(g) => {
                    render_series_line(&mut out, name, labels, None, g.get());
                }
                Series::Histogram(h) => {
                    let snap = h.snapshot();
                    let total = snap.count();
                    let last_used = snap.counts[..HISTOGRAM_BUCKETS]
                        .iter()
                        .rposition(|&n| n > 0)
                        .unwrap_or(0);
                    let bucket_name = format!("{name}_bucket");
                    let mut cum = 0u64;
                    for i in 0..=last_used {
                        cum += snap.counts[i];
                        render_series_line(
                            &mut out,
                            &bucket_name,
                            labels,
                            Some(&bucket_bound(i).to_string()),
                            cum,
                        );
                    }
                    render_series_line(&mut out, &bucket_name, labels, Some("+Inf"), total);
                    render_series_line(&mut out, &format!("{name}_sum"), labels, None, snap.sum);
                    render_series_line(&mut out, &format!("{name}_count"), labels, None, total);
                }
            }
        }
        out
    }
}

fn clone_series(s: &Series) -> Series {
    match s {
        Series::Counter(c) => Series::Counter(c.clone()),
        Series::Gauge(g) => Series::Gauge(g.clone()),
        Series::Histogram(h) => Series::Histogram(h.clone()),
        Series::SecondsCounter(c) => Series::SecondsCounter(c.clone()),
    }
}

/// The registration-shape name for conflict diagnostics (unlike
/// [`MetricKind::as_str`], distinguishes seconds counters).
fn shape_str(s: &Series) -> &'static str {
    match s {
        Series::Counter(_) => "counter",
        Series::Gauge(_) => "gauge",
        Series::Histogram(_) => "histogram",
        Series::SecondsCounter(_) => "seconds counter",
    }
}

fn render_series_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: u64,
) {
    render_series_text(out, name, labels, le, &value.to_string());
}

fn render_series_text(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label(v, out);
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Help-text escaping: backslash and newline (quotes are legal there).
fn escape_help(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_records_histogram_and_span_in_one_call() {
        let registry = Arc::new(Registry::new());
        let stage = registry.stage("demo_stage");
        let root = registry.tracer().span("root");
        let child = stage.observe_under(root.context(), Duration::from_micros(40));
        assert_eq!(child.trace, root.context().trace, "joins the parent trace");
        let lone = stage.observe(Duration::from_micros(2));
        assert_ne!(
            lone.trace,
            root.context().trace,
            "no ambient trace: own root"
        );
        let snap = registry.stage_histogram("demo_stage").snapshot();
        assert_eq!((snap.count(), snap.sum), (2, 42));
    }

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 63), 63);
        assert_eq!(bucket_index((1 << 63) + 1), HISTOGRAM_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn same_name_same_labels_share_a_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(r.value("x_total", &[]), Some(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total", "x");
        let _ = r.gauge("x_total", "x");
    }

    #[test]
    fn seconds_counter_renders_fractional_seconds() {
        let r = Registry::new();
        let c = r.seconds_counter_with("cpu_seconds_total", &[("thread", "w0")], "CPU.");
        c.add(1_234_567); // microseconds
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE cpu_seconds_total counter"), "{text}");
        assert!(
            text.contains("cpu_seconds_total{thread=\"w0\"} 1.234567"),
            "{text}"
        );
        // Samples into the tsdb surface in seconds, not micros.
        let (_, _, kind, v) = r
            .scalar_values()
            .into_iter()
            .find(|(n, _, _, _)| n == "cpu_seconds_total")
            .unwrap();
        assert_eq!(kind, MetricKind::Counter);
        assert!((v - 1.234567).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn seconds_counter_and_counter_shapes_conflict() {
        let r = Registry::new();
        let _ = r.counter_with("x_seconds_total", &[("thread", "a")], "x");
        let _ = r.seconds_counter_with("x_seconds_total", &[("thread", "b")], "x");
    }

    #[test]
    fn quantile_is_none_before_first_observation() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), None);
        h.observe(100);
        assert!(h.snapshot().quantile(0.5).is_some());
    }

    #[test]
    fn quantile_tracks_the_distribution() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(100_000);
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!(p50 <= 16, "p50 {p50} should sit in the low bucket");
        let p995 = snap.quantile(0.995).unwrap();
        assert!(
            p995 > 65_536,
            "p995 {p995} should sit in the outlier bucket"
        );
    }
}
