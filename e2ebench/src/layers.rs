//! Per-layer measurements for the traced run.
//!
//! Each layer is timed from the benchmark's own calls into the
//! crate's public functions, inside [`trace::span`]s, over the same
//! inputs the workload ran: an isolated `FileTailer::poll` pass
//! (`mrt`), `MonitorEngine` passes at the workload's shard count and
//! at one shard (`monitor`), a replay of the drained events through a
//! `HistoryService` on the same day boundaries (`history` write path),
//! a read-only open of the workload's store (`history` read path), and
//! in-process `QueryService::respond` beside the same requests over
//! loopback (`server`). The `feed` and end-to-end spans come from the
//! workload itself.

use crate::client::Conn;
use crate::common::{day_pos, Report};
use crate::inputs::{service_config, SHARDS};
use crate::stats::median;
use crate::trace::{span, total_s};
use moas_core::replay::{record_instructions, RouteInstruction};
use moas_feed::FileTailer;
use moas_history::{HistoryService, ServiceConfig, ValidityConfig};
use moas_monitor::{MonitorConfig, MonitorEngine, SeqEvent};
use moas_mrt::record::MrtRecord;
use moas_net::{Date, Prefix};
use moas_obs::Registry;
use moas_serve::{QueryServer, QueryService, Request};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The `moas_stage_duration_us` stages the program exports, less
/// `compaction`: the daemon compacts only past four sealed segments,
/// which the `bootstrap` pass never reaches, so that stage would read
/// a constant zero there.
pub const STAGES: [&str; 10] = [
    "mrt_decode",
    "feed_tail",
    "shard_apply",
    "event_append",
    "segment_seal",
    "epoch_publish",
    "feed_poll",
    "request_parse",
    "request_route",
    "request_serialize",
];

/// What the layer passes run over.
pub struct LayerInputs<'a> {
    /// Collector archives in collector order; each file list in time
    /// order. Decode runs over all; apply and history over the first.
    pub archives: &'a [Vec<PathBuf>],
    /// The date of the archives' day position 0.
    pub start: Date,
    /// The workload's store, opened read-only for the read path, and
    /// the date of its day position 0.
    pub store: &'a Path,
    pub store_start: Date,
    /// Scratch directory for the history replay.
    pub scratch: &'a Path,
    /// Conflicted prefixes to look up.
    pub prefixes: &'a [String],
    /// A date inside the store's window, for `/v1/conflicts`.
    pub date: Date,
}

/// One day of collector 0's stream: its position and records.
struct Day {
    pos: u32,
    date: Date,
    records: Vec<MrtRecord>,
}

/// Runs every layer pass; `serving` is the registry of the workload's
/// query front end (its `request_*` stages).
pub fn probe(inputs: &LayerInputs, serving: &Registry, report: &mut Report) -> io::Result<()> {
    feed_stages(inputs, serving, report)?;
    let days = decode(inputs, report)?;
    let events = monitor(&days, report);
    monitor_one_shard(&days, report);
    history_write(&days, &events, inputs, report)?;
    history_read(inputs, report)?;
    server(inputs, report)?;
    Ok(())
}

fn decode(inputs: &LayerInputs, report: &mut Report) -> io::Result<Vec<Day>> {
    let (mut records, mut bytes, mut skipped) = (0u64, 0u64, 0u64);
    let mut days = Vec::new();
    for (c, files) in inputs.archives.iter().enumerate() {
        for file in files {
            let pass = span("mrt.poll", || FileTailer::open(file, 0).poll())?;
            records += pass.records.len() as u64;
            bytes += pass.bytes_read;
            skipped += pass.records_skipped;
            if c == 0 {
                let pos = day_pos(file, inputs.start);
                days.push(Day {
                    pos,
                    date: inputs.start.plus_days(pos as i64),
                    records: pass.records,
                });
            }
        }
    }
    report.set("mrt.records", records as f64);
    report.set("mrt.bytes", bytes as f64);
    report.set("mrt.records_skipped", skipped as f64);
    report.set(
        "mrt.decode_ns_per_record",
        total_s("mrt.poll") * 1e9 / records.max(1) as f64,
    );
    Ok(days)
}

fn update_total(days: &[Day]) -> u64 {
    days.iter()
        .map(|d| crate::inputs::update_count(&d.records))
        .sum()
}

/// Drained events per day: those the day's updates emitted, then
/// those its mark emitted — the two batches a feed commits.
type DayEvents = Vec<(u32, Vec<SeqEvent>, Vec<SeqEvent>)>;

fn monitor(days: &[Day], report: &mut Report) -> DayEvents {
    let registry = Arc::new(Registry::new());
    let mut engine =
        MonitorEngine::with_registry(MonitorConfig::with_shards(SHARDS), Arc::clone(&registry));
    let mut out = Vec::new();
    let mut next = 0u32;
    let mut marks = 0u64;
    for day in days {
        let mut gap_events = Vec::new();
        for pos in next..day.pos {
            span("monitor.mark_day", || {
                engine.mark_day(
                    pos as usize,
                    day.date.plus_days(pos as i64 - day.pos as i64),
                );
                gap_events.extend(engine.drain_events());
            });
            marks += 1;
        }
        // The drain after the updates waits for every shard to apply
        // them, so the span covers the whole apply.
        let applied = span("monitor.apply", || {
            for rec in &day.records {
                engine.ingest_record_from(0, rec);
            }
            engine.drain_events()
        });
        let marked = span("monitor.mark_day", || {
            engine.mark_day(day.pos as usize, day.date);
            engine.drain_events()
        });
        marks += 1;
        gap_events.extend(applied);
        out.push((day.pos, gap_events, marked));
        next = day.pos + 1;
    }
    let m = engine.metrics();
    let state_bytes: u64 = (0..SHARDS)
        .filter_map(|s| registry.value("moas_shard_state_bytes", &[("shard", &s.to_string())]))
        .sum();
    engine.finish();
    report.set(
        "monitor.apply_ns_per_update",
        total_s("monitor.apply") * 1e9 / update_total(days).max(1) as f64,
    );
    report.set(
        "monitor.mark_day_us",
        total_s("monitor.mark_day") * 1e6 / marks.max(1) as f64,
    );
    report.set(
        "monitor.bytes_per_route",
        state_bytes as f64 / live_routes(days).max(1) as f64,
    );
    report.set("monitor.updates_applied", m.updates_applied as f64);
    report.set("monitor.events_emitted", m.events_emitted as f64);
    report.set(
        "monitor.spurious_withdrawals",
        m.spurious_withdrawals as f64,
    );
    out
}

/// Routes held at the end of the stream: (session, prefix) pairs
/// announced and not since withdrawn.
fn live_routes(days: &[Day]) -> usize {
    let mut live: HashSet<(std::net::IpAddr, u32, Prefix)> = HashSet::new();
    for rec in days.iter().flat_map(|d| &d.records) {
        let Some(((addr, asn), instructions)) = record_instructions(rec) else {
            continue;
        };
        for i in instructions {
            match i {
                RouteInstruction::Withdraw { prefix } => {
                    live.remove(&(addr, asn.value(), prefix));
                }
                RouteInstruction::Announce { prefix, .. } => {
                    live.insert((addr, asn.value(), prefix));
                }
            }
        }
    }
    live.len()
}

fn monitor_one_shard(days: &[Day], report: &mut Report) {
    let mut engine = MonitorEngine::new(MonitorConfig::with_shards(1));
    for day in days {
        span("monitor.apply_1shard", || {
            for rec in &day.records {
                engine.ingest_record_from(0, rec);
            }
            engine.drain_events();
        });
        engine.mark_day(day.pos as usize, day.date);
        engine.drain_events();
    }
    engine.finish();
    report.set(
        "monitor.apply_ns_per_update_1shard",
        total_s("monitor.apply_1shard") * 1e9 / update_total(days).max(1) as f64,
    );
}

fn history_write(
    days: &[Day],
    events: &DayEvents,
    inputs: &LayerInputs,
    report: &mut Report,
) -> io::Result<()> {
    let dir = inputs.scratch.join("history-replay");
    std::fs::remove_dir_all(&dir).ok();
    let service = span("history.open", || {
        HistoryService::open(&dir, service_config(inputs.start))
    })?;
    let mut next = 0u32;
    let (mut appended, mut marks, mut checkpoints) = (0u64, 0u64, 0u64);
    for (day, (pos, applied, marked)) in days.iter().zip(events) {
        debug_assert_eq!(day.pos, *pos);
        span("history.append", || service.append(applied))?;
        span("history.checkpoint", || service.checkpoint())?;
        checkpoints += 1;
        for gap in next..*pos {
            span("history.mark_day", || service.mark_day(gap as usize))?;
            marks += 1;
        }
        span("history.append", || service.append(marked))?;
        span("history.mark_day", || service.mark_day(*pos as usize))?;
        marks += 1;
        appended += (applied.len() + marked.len()) as u64;
        next = pos + 1;
    }
    let stats = service.stats();
    let epoch = service.reader().epoch();
    span("history.close", || service.close())?;
    std::fs::remove_dir_all(&dir).ok();
    report.set(
        "history.append_ns_per_event",
        total_s("history.append") * 1e9 / appended.max(1) as f64,
    );
    report.set(
        "history.mark_day_us",
        total_s("history.mark_day") * 1e6 / marks.max(1) as f64,
    );
    report.set(
        "history.checkpoint_us",
        total_s("history.checkpoint") * 1e6 / checkpoints.max(1) as f64,
    );
    report.set(
        "history.bytes_per_event",
        stats.lifetime_bytes as f64 / stats.events_appended.max(1) as f64,
    );
    report.set("history.segments_written", stats.segments_written as f64);
    report.set("history.epochs_published", epoch as f64);
    Ok(())
}

fn read_only_config(start: Date) -> ServiceConfig {
    ServiceConfig {
        daemon: false,
        ..service_config(start)
    }
}

fn history_read(inputs: &LayerInputs, report: &mut Report) -> io::Result<()> {
    let started = Instant::now();
    let service = span("history.open_read_only", || {
        HistoryService::open_read_only(inputs.store, read_only_config(inputs.store_start))
    })?;
    report.set("history.open_s", started.elapsed().as_secs_f64());
    let reader = service.reader();
    let started = Instant::now();
    let snap = span("history.snapshot", || reader.snapshot());
    report.set("history.snapshot_us", started.elapsed().as_secs_f64() * 1e6);
    let reports = 5;
    for _ in 0..reports {
        std::hint::black_box(span("history.validity", || {
            snap.validity(ValidityConfig::default()).conflicts.len()
        }));
    }
    report.set(
        "history.validity_report_us",
        total_s("history.validity") * 1e6 / reports as f64,
    );
    let keys: Vec<Prefix> = sample(inputs.prefixes, 200)
        .iter()
        .filter_map(|p| p.parse().ok())
        .collect();
    for p in &keys {
        std::hint::black_box(span("history.validity_of", || {
            snap.validity_of(p, ValidityConfig::default())
        }));
    }
    report.set(
        "history.validity_of_us",
        total_s("history.validity_of") * 1e6 / keys.len().max(1) as f64,
    );
    drop(snap);
    service.close()?;
    Ok(())
}

/// Up to `n` evenly spaced entries of `all`.
fn sample(all: &[String], n: usize) -> Vec<String> {
    let step = (all.len() / n.max(1)).max(1);
    all.iter().step_by(step).take(n).cloned().collect()
}

fn request(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k.to_string(), v.to_string())
            })
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    }
}

/// In-process `respond` per endpoint on an uncached service, and the
/// same requests over loopback: `server.wire_us` is the median of
/// (loopback − in-process) over request pairs.
fn server(inputs: &LayerInputs, report: &mut Report) -> io::Result<()> {
    let service =
        HistoryService::open_read_only(inputs.store, read_only_config(inputs.store_start))?;
    let config = moas_serve::ServerConfig {
        cache_capacity: 0,
        ..crate::common::server_config(inputs.store_start)
    };
    let query = Arc::new(QueryService::new(service.reader(), config));
    let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query))?;
    let mut conn = Conn::connect(server.local_addr())?;
    let prefixes = sample(inputs.prefixes, 50);
    let endpoints: [(&str, Vec<String>); 4] = [
        (
            "prefix",
            prefixes.iter().map(|p| format!("/v1/prefix/{p}")).collect(),
        ),
        ("stats", vec!["/v1/stats".to_string(); 50]),
        ("validity", vec!["/v1/validity?limit=0".to_string(); 10]),
        (
            "conflicts",
            vec![format!("/v1/conflicts?date={}&limit=100", inputs.date); 20],
        ),
    ];
    let mut wire_gap = Vec::new();
    for (name, targets) in &endpoints {
        let mut local = Vec::new();
        for t in targets {
            let req = request(t);
            let started = Instant::now();
            let answer = span("server.respond", || query.respond(&req));
            let in_process = started.elapsed().as_secs_f64() * 1e6;
            report.op(answer.status == 200, || {
                format!("{t} answered {} in process", answer.status)
            });
            local.push(in_process);
            let started = Instant::now();
            let wire = span("server.get", || conn.get(t, None))?;
            let over_wire = started.elapsed().as_secs_f64() * 1e6;
            report.op(wire.status == 200, || {
                format!("{t} answered {} over loopback", wire.status)
            });
            wire_gap.push(over_wire - in_process);
        }
        report.set(
            &format!("server.respond_us.{name}"),
            median(&local).unwrap_or(0.0),
        );
    }
    report.set("server.wire_us", median(&wire_gap).unwrap_or(0.0));
    drop(conn);
    server.shutdown();
    drop(query);
    service.close()?;
    Ok(())
}

/// The program's own stage timers, read through the public
/// `Registry` passed to `FeedFollower::open_with_registry`: a
/// single-collector catch-up over collector 0's files into a scratch
/// store (a `Federation` exports no poll, tail or decode stage), plus
/// the workload front end's request stages. Reports seconds per stage
/// and the share of `feed_poll` time the stages under it account for
/// (`shard_apply` runs on the shard threads, overlapping the rest).
fn feed_stages(inputs: &LayerInputs, serving: &Registry, report: &mut Report) -> io::Result<()> {
    let dir = inputs.scratch.join("stage-pass");
    std::fs::remove_dir_all(&dir).ok();
    let registry = Arc::new(Registry::new());
    let service = Arc::new(HistoryService::open(
        dir.join("store"),
        service_config(inputs.start),
    )?);
    let archive = dir.join("archive");
    for f in &inputs.archives[0] {
        crate::common::land(f, &archive)?;
    }
    let config = moas_feed::FeedConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..moas_feed::FeedConfig::new(&archive, inputs.start)
    };
    let mut follower = moas_feed::FeedFollower::open_with_registry(
        config,
        Arc::clone(&service),
        Arc::clone(&registry),
    )?;
    while !follower.poll_once()?.caught_up {}
    follower.finalize()?;
    follower.shutdown()?;
    crate::inputs::close(service)?;
    std::fs::remove_dir_all(&dir).ok();

    let mut sums = std::collections::BTreeMap::new();
    for r in [&*registry, serving] {
        for (name, labels, snap) in r.histogram_snapshots() {
            if name != "moas_stage_duration_us" {
                continue;
            }
            if let Some((_, stage)) = labels.iter().find(|(k, _)| k == "stage") {
                *sums.entry(stage.clone()).or_insert(0u64) += snap.sum;
            }
        }
    }
    let secs = |s: &str| sums.get(s).copied().unwrap_or(0) as f64 / 1e6;
    for stage in STAGES {
        report.set(&format!("stage.{stage}_s"), secs(stage));
    }
    let covered: f64 = [
        "feed_tail",
        "shard_apply",
        "event_append",
        "segment_seal",
        "epoch_publish",
    ]
    .iter()
    .map(|s| secs(s))
    .sum();
    report.set("stage.coverage", covered / secs("feed_poll").max(1e-9));
    Ok(())
}

/// The feed layer's share of busy time its isolated layers do not
/// account for.
pub fn unattributed_share(report: &mut Report) {
    let busy = total_s("feed.poll_once") + total_s("feed.finalize");
    let attributed = total_s("mrt.poll")
        + total_s("monitor.apply")
        + total_s("monitor.mark_day")
        + total_s("history.append")
        + total_s("history.mark_day")
        + total_s("history.checkpoint");
    report.set("feed.poll_busy_s", busy);
    report.set(
        "feed.unattributed_share",
        if busy > 0.0 {
            (busy - attributed) / busy
        } else {
            0.0
        },
    );
}
