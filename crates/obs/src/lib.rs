//! # moas-obs — the unified observability layer
//!
//! Every long-running crate in this workspace (monitor, history,
//! feed, server) used to grow its own ad-hoc atomics. This crate
//! replaces that with one std-only subsystem the whole pipeline
//! shares:
//!
//! * [`Registry`] — a central registry of named [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s. Handles
//!   are registered once at startup and recorded through relaxed
//!   atomics: the hot path is one atomic add per counter observation
//!   (two for a histogram: bucket + sum), no locks, no allocation.
//! * Prometheus text exposition — [`Registry::render_prometheus`]
//!   renders every registered series in the text format 0.0.4 shape
//!   (`# HELP`/`# TYPE`, escaped labels, cumulative
//!   `_bucket`/`_sum`/`_count` histogram series) for a `GET /metrics`
//!   scrape endpoint.
//! * Stage timing — [`Registry::stage_histogram`] names one pipeline
//!   stage (MRT decode, shard apply, event append, segment seal,
//!   compaction, epoch publish, feed poll/tail, request
//!   parse/route/serialize) as a labeled series of one shared
//!   `moas_stage_duration_us` histogram family; [`Registry::stage`]
//!   pairs that series with the tracer, so a self-timed stage records
//!   its histogram observation and its span in one call.
//! * [`LagTracker`] — the derived end-to-end `ingest_to_serve_lag`
//!   gauge: newest record timestamp ingested vs. the timestamp
//!   horizon of the epoch currently served.
//! * [`EventJournal`] — a bounded ring of structured operational
//!   events (slow requests, feed gaps, compaction runs, corrupt
//!   segment skips, alert transitions), served under
//!   `/v1/events/log`, with an eviction counter
//!   (`moas_journal_dropped_total`) so overflow is visible.
//! * [`Tracer`] — head-sampled span trees ([`trace`]): one trace id
//!   follows an MRT file from `feed_poll` through decode, shard
//!   apply, append, seal, and `epoch_publish`, and a served request
//!   from parse to serialize. Spans land in a bounded ring; the
//!   unsampled path is a single relaxed atomic load.
//! * [`Tsdb`] — a fixed-memory two-tier ring time-series store
//!   ([`tsdb`]): a background [`Sampler`] snapshots every registry
//!   scalar (plus windowed `:p99` series derived from histograms)
//!   every 10 s into a 1 h fine ring and a 24 h five-minute coarse
//!   ring, queryable under `/v1/series`.
//! * [`AlertEngine`] — §VII-style operational alerting ([`alert`]):
//!   each rule runs the paper's EWMA surge detector over one tsdb
//!   series (feed lag, ingest rate, 5xx rate, compaction backlog,
//!   p99 latency) with pending → firing → resolved hysteresis,
//!   journal events on transitions, and a firing-page hook for
//!   `/readyz`.
//! * Continuous profiling ([`prof`]) — the process-global thread-name
//!   registry ([`prof::register_thread`]) plus the [`CpuLedger`]
//!   attributing `/proc/self/task/*/stat` CPU to named pipeline
//!   threads, and the [`Profiler`] folding the span ring into
//!   per-stage self-time profiles and flamegraph.pl folded stacks
//!   for `GET /v1/profile`.
//! * Resource attribution ([`resource`]) — the [`ResourceLedger`] of
//!   per-component retained-byte probes
//!   (`moas_resource_bytes{component=...}`), process RSS, and the
//!   standard `moas_build_info` / `moas_process_start_time_seconds`
//!   gauges.
//! * Workload analytics ([`workload`]) — the [`Workload`] recorder
//!   behind `GET /v1/workload`: a space-saving hot-key sketch,
//!   per-endpoint latency/size histograms, and a bounded slow-query
//!   log carrying trace ids.
//!
//! ```
//! use moas_obs::Registry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let ingested = registry.counter("demo_records_ingested_total", "Records ingested.");
//! let latency = registry.stage_histogram("demo_stage");
//! ingested.add(3);
//! latency.observe(250);
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_records_ingested_total 3"));
//! assert!(text.contains("moas_stage_duration_us_bucket{stage=\"demo_stage\",le=\"256\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod journal;
pub mod lag;
pub mod prof;
pub mod registry;
pub mod resource;
pub mod trace;
pub mod tsdb;
pub mod workload;

pub use alert::{AlertDirection, AlertEngine, AlertInput, AlertRule, AlertSeverity, AlertStatus};
pub use journal::{EventJournal, JournalEvent};
pub use lag::LagTracker;
pub use prof::{CpuLedger, Profiler, StageProfile};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, Registry, Stage};
pub use resource::ResourceLedger;
pub use trace::{Span, SpanContext, SpanRecord, Tracer};
pub use tsdb::{Sampler, SeriesPoints, Tsdb, TsdbConfig};
pub use workload::{SlowQuery, TopEntry, Workload, WorkloadReport};
