//! Live feed status: the shared block `/v1/feed` answers from.
//!
//! Every counter lives on a [`moas_obs::Registry`] — the follower
//! updates typed handles on its thread; any number of server workers
//! snapshot them without coordination, and the same series appear in
//! the Prometheus `GET /metrics` scrape. Gap events keep a small
//! bounded history (most recent first out) so a dashboard can show
//! *which* days went missing, not just how many — and each gap is
//! also recorded in the registry's operational event journal.

use moas_net::Date;
use moas_obs::{Counter, Gauge, Registry};
use serde::Value;
use std::sync::{Arc, Mutex};

/// Most gap events retained for the status answer.
const GAP_HISTORY: usize = 64;

/// One detected feed gap: an archive day that never landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedGap {
    /// The missing day's date.
    pub date: Date,
    /// Its day position in the window.
    pub day: u32,
}

/// Shared live counters, updated by the follower and read by servers
/// (and by Prometheus scrapes, through the shared registry).
pub struct FeedStatus {
    running: Gauge,
    caught_up: Gauge,
    current_file: Mutex<String>,
    cursor_offset: Gauge,
    files_done: Gauge,
    files_pending: Gauge,
    days_marked: Gauge,
    records: Gauge,
    records_skipped: Counter,
    gap_count: Gauge,
    late_files: Counter,
    truncated_tails: Counter,
    checkpoints: Counter,
    resumes: Counter,
    suppressed_duplicates: Counter,
    last_event_at: Gauge,
    lag_seconds: Gauge,
    files_seen_total: Counter,
    files_done_total: Counter,
    day_files_seen: Gauge,
    day_files_done: Gauge,
    gaps: Mutex<Vec<FeedGap>>,
    registry: Arc<Registry>,
    /// Collector name when this block is one vantage point of a
    /// federation: every series carries a `collector` label (the
    /// per-collector `moas_feed_lag_seconds{collector=...}` gauges
    /// replace the single ambient one), gap journal events are scoped
    /// to it, and the status JSON leads with it. `None` for a
    /// one-collector feed (a single follower) — unlabeled series and
    /// the plain single-feed JSON shape.
    collector: Option<String>,
}

impl Default for FeedStatus {
    fn default() -> Self {
        FeedStatus::new(&Arc::new(Registry::new()))
    }
}

/// A point-in-time copy of [`FeedStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedStatusSnapshot {
    /// Whether a follower currently drives the feed.
    pub running: bool,
    /// Whether the follower has consumed everything discovered.
    pub caught_up: bool,
    /// Update file currently being tailed (empty before the first).
    pub current_file: String,
    /// Durable cursor byte offset within `current_file`.
    pub cursor_offset: u64,
    /// Update files fully consumed.
    pub files_done: u64,
    /// Files discovered but not yet fully consumed — the feed's lag,
    /// in files.
    pub files_pending: u64,
    /// Day marks issued to the history service.
    pub days_marked: u64,
    /// MRT records ingested (lifetime, across restarts).
    pub records: u64,
    /// Records skipped as undecodable.
    pub records_skipped: u64,
    /// Missing archive days detected (lifetime, across restarts).
    pub gap_count: u64,
    /// Files that arrived after the follower had advanced past their
    /// timestamp slot (ignored — the history cannot rewind).
    pub late_files: u64,
    /// Finalized files that ended mid-record.
    pub truncated_tails: u64,
    /// Durable cursor checkpoints written.
    pub checkpoints: u64,
    /// Times a follower resumed from a persisted cursor.
    pub resumes: u64,
    /// Events dropped at resume because the durable log already held
    /// them (crash-window duplicates).
    pub suppressed_duplicates: u64,
    /// Largest update-stream timestamp ingested — stream time, for
    /// lag-behind-the-collector dashboards.
    pub last_event_at: u64,
    /// Seconds the ingest position trails the newest discovered
    /// archive file's encoded timestamp (0 while caught up).
    pub lag_seconds: u64,
    /// Archive files ever discovered (this process).
    pub files_seen_total: u64,
    /// Archive files fully consumed (this process).
    pub files_done_total: u64,
    /// Files discovered since the last day mark.
    pub day_files_seen: u64,
    /// Files fully consumed since the last day mark.
    pub day_files_done: u64,
    /// Recent gaps, oldest first.
    pub gaps: Vec<FeedGap>,
}

impl FeedStatus {
    /// Registers every feed series on `registry` — share the registry
    /// with the monitor engine and the query server so one scrape
    /// covers the pipeline.
    pub fn new(registry: &Arc<Registry>) -> Self {
        FeedStatus::build(registry, None)
    }

    /// A status block for one vantage point of a federation: every
    /// series is registered with a `collector` label, so N collectors
    /// coexist on one registry as N labeled series per family.
    pub fn for_collector(registry: &Arc<Registry>, collector: &str) -> Self {
        FeedStatus::build(registry, Some(collector.to_string()))
    }

    fn build(registry: &Arc<Registry>, collector: Option<String>) -> Self {
        let r = registry.as_ref();
        let labels: Vec<(&str, &str)> = match &collector {
            Some(name) => vec![("collector", name.as_str())],
            None => Vec::new(),
        };
        let gauge = |name, help| r.gauge_with(name, &labels, help);
        let counter = |name, help| r.counter_with(name, &labels, help);
        FeedStatus {
            running: gauge("moas_feed_running", "1 while a follower drives the feed."),
            caught_up: gauge(
                "moas_feed_caught_up",
                "1 when everything discovered has been consumed.",
            ),
            current_file: Mutex::new(String::new()),
            cursor_offset: gauge(
                "moas_feed_cursor_offset_bytes",
                "Durable cursor byte offset within the current file.",
            ),
            files_done: gauge(
                "moas_feed_files_done",
                "Update files fully consumed (lifetime, across restarts).",
            ),
            files_pending: gauge(
                "moas_feed_files_pending",
                "Files discovered but not yet fully consumed.",
            ),
            days_marked: gauge(
                "moas_feed_days_marked",
                "Day marks issued to the history service this run.",
            ),
            records: gauge(
                "moas_feed_records",
                "MRT records ingested (lifetime, across restarts).",
            ),
            records_skipped: counter(
                "moas_feed_records_skipped_total",
                "Records skipped as undecodable.",
            ),
            gap_count: gauge(
                "moas_feed_gaps",
                "Missing archive days detected (lifetime, across restarts).",
            ),
            late_files: counter(
                "moas_feed_late_files_total",
                "Files that arrived after the follower passed their slot.",
            ),
            truncated_tails: counter(
                "moas_feed_truncated_tails_total",
                "Finalized files that ended mid-record.",
            ),
            checkpoints: counter(
                "moas_feed_checkpoints_total",
                "Durable cursor checkpoints written.",
            ),
            resumes: counter(
                "moas_feed_resumes_total",
                "Followers resumed from a persisted cursor.",
            ),
            suppressed_duplicates: counter(
                "moas_feed_suppressed_duplicates_total",
                "Events dropped at resume as already durable.",
            ),
            last_event_at: gauge(
                "moas_feed_last_event_timestamp_seconds",
                "Largest update-stream timestamp ingested.",
            ),
            lag_seconds: gauge(
                "moas_feed_lag_seconds",
                "Seconds the ingest position trails the newest discovered file.",
            ),
            files_seen_total: counter(
                "moas_feed_files_seen_total",
                "Archive files discovered by this process.",
            ),
            files_done_total: counter(
                "moas_feed_files_done_total",
                "Archive files fully consumed by this process.",
            ),
            day_files_seen: gauge(
                "moas_feed_day_files_seen",
                "Files discovered since the last day mark.",
            ),
            day_files_done: gauge(
                "moas_feed_day_files_done",
                "Files fully consumed since the last day mark.",
            ),
            gaps: Mutex::new(Vec::new()),
            registry: Arc::clone(registry),
            collector,
        }
    }

    /// The collector name when this block is one federation vantage
    /// point (`None` for a one-collector feed).
    pub fn collector(&self) -> Option<&str> {
        self.collector.as_deref()
    }

    /// The registry the feed series live on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub(crate) fn set_running(&self, v: bool) {
        self.running.set(v as u64);
    }

    pub(crate) fn set_caught_up(&self, v: bool) {
        self.caught_up.set(v as u64);
    }

    pub(crate) fn set_position(&self, file: &str, offset: u64) {
        *self.current_file.lock().expect("status lock") = file.to_string();
        self.cursor_offset.set(offset);
    }

    pub(crate) fn set_files(&self, done: u64, pending: u64) {
        self.files_done.set(done);
        self.files_pending.set(pending);
    }

    pub(crate) fn set_counts(&self, records: u64, gaps: u64, days_marked: u64) {
        self.records.set(records);
        self.gap_count.set(gaps);
        self.days_marked.set(days_marked);
    }

    pub(crate) fn set_lag_seconds(&self, secs: u64) {
        self.lag_seconds.set(secs);
    }

    pub(crate) fn add_file_seen(&self) {
        self.files_seen_total.inc();
        self.day_files_seen.add(1);
    }

    pub(crate) fn add_file_done(&self) {
        self.files_done_total.inc();
        self.day_files_done.add(1);
    }

    /// Resets the per-day file counters at a day boundary.
    pub(crate) fn reset_day_files(&self) {
        self.day_files_seen.set(0);
        self.day_files_done.set(0);
    }

    pub(crate) fn add_skipped(&self, n: u64) {
        self.records_skipped.add(n);
    }

    pub(crate) fn add_late_file(&self) {
        self.late_files.inc();
    }

    pub(crate) fn add_truncated_tail(&self) {
        self.truncated_tails.inc();
    }

    pub(crate) fn add_checkpoint(&self) {
        self.checkpoints.inc();
    }

    pub(crate) fn add_resume(&self) {
        self.resumes.inc();
    }

    pub(crate) fn add_suppressed(&self, n: u64) {
        self.suppressed_duplicates.add(n);
    }

    pub(crate) fn observe_event_at(&self, at: u64) {
        self.last_event_at.max(at);
    }

    pub(crate) fn push_gap(&self, gap: FeedGap) {
        let message = format!(
            "archive day {} (day position {}) never landed",
            gap.date, gap.day
        );
        match &self.collector {
            Some(name) => self
                .registry
                .journal()
                .record_with_collector("feed_gap", message, name),
            None => self.registry.journal().record("feed_gap", message),
        }
        let mut gaps = self.gaps.lock().expect("status lock");
        if gaps.len() >= GAP_HISTORY {
            gaps.remove(0);
        }
        gaps.push(gap);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> FeedStatusSnapshot {
        FeedStatusSnapshot {
            running: self.running.get() != 0,
            caught_up: self.caught_up.get() != 0,
            current_file: self.current_file.lock().expect("status lock").clone(),
            cursor_offset: self.cursor_offset.get(),
            files_done: self.files_done.get(),
            files_pending: self.files_pending.get(),
            days_marked: self.days_marked.get(),
            records: self.records.get(),
            records_skipped: self.records_skipped.get(),
            gap_count: self.gap_count.get(),
            late_files: self.late_files.get(),
            truncated_tails: self.truncated_tails.get(),
            checkpoints: self.checkpoints.get(),
            resumes: self.resumes.get(),
            suppressed_duplicates: self.suppressed_duplicates.get(),
            last_event_at: self.last_event_at.get(),
            lag_seconds: self.lag_seconds.get(),
            files_seen_total: self.files_seen_total.get(),
            files_done_total: self.files_done_total.get(),
            day_files_seen: self.day_files_seen.get(),
            day_files_done: self.day_files_done.get(),
            gaps: self.gaps.lock().expect("status lock").clone(),
        }
    }

    /// The JSON shape `/v1/feed` serves. A federation vantage point
    /// leads with its collector name; a one-collector feed has none.
    pub fn to_json(&self) -> Value {
        let s = self.snapshot();
        let mut fields = Vec::new();
        if let Some(name) = &self.collector {
            fields.push(("collector".into(), Value::String(name.clone())));
        }
        fields.extend(vec![
            ("running".into(), Value::Bool(s.running)),
            ("caught_up".into(), Value::Bool(s.caught_up)),
            (
                "cursor".into(),
                Value::Object(vec![
                    ("file".into(), Value::String(s.current_file.clone())),
                    ("offset".into(), Value::U64(s.cursor_offset)),
                ]),
            ),
            (
                "lag".into(),
                Value::Object(vec![
                    ("files_pending".into(), Value::U64(s.files_pending)),
                    ("last_event_at".into(), Value::U64(s.last_event_at)),
                    ("lag_seconds".into(), Value::U64(s.lag_seconds)),
                ]),
            ),
            (
                "day".into(),
                Value::Object(vec![
                    ("files_seen".into(), Value::U64(s.day_files_seen)),
                    ("files_done".into(), Value::U64(s.day_files_done)),
                ]),
            ),
            ("files_seen".into(), Value::U64(s.files_seen_total)),
            ("files_done".into(), Value::U64(s.files_done)),
            ("days_marked".into(), Value::U64(s.days_marked)),
            ("records".into(), Value::U64(s.records)),
            ("records_skipped".into(), Value::U64(s.records_skipped)),
            ("gap_count".into(), Value::U64(s.gap_count)),
            (
                "gaps".into(),
                Value::Array(
                    s.gaps
                        .iter()
                        .map(|g| {
                            Value::Object(vec![
                                ("date".into(), Value::String(g.date.to_string())),
                                ("day".into(), Value::U64(g.day as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("late_files".into(), Value::U64(s.late_files)),
            ("truncated_tails".into(), Value::U64(s.truncated_tails)),
            ("checkpoints".into(), Value::U64(s.checkpoints)),
            ("resumes".into(), Value::U64(s.resumes)),
            (
                "suppressed_duplicates".into(),
                Value::U64(s.suppressed_duplicates),
            ),
        ]);
        Value::Object(fields)
    }
}

impl moas_serve::FeedStatusSource for FeedStatus {
    fn status_json(&self) -> Value {
        self.to_json()
    }

    fn lag_seconds(&self) -> u64 {
        self.lag_seconds.get()
    }
}
