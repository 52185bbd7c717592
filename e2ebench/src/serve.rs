//! `serve`: no ingest. A read-only replica (`open_read_only`) of the
//! whole-window store behind a `QueryServer`, driven by two open-loop
//! clients, each on one keep-alive connection.
//!
//! The read path does all the work, so an ingest change predicts no
//! change here. Point lookups are O(records), so the store is sized
//! to the paper's window. A serve-only workload has no archive to
//! ingest; its ingest, restart and (printed) freshness figures describe
//! a cold replica instead: history events and store bytes loaded per
//! second of set-up, and the time from open until the first `/v1`
//! answer is served.

use crate::client::Conn;
use crate::common::{archive_files, date_of, rss_mb, Front, Report};
use crate::inputs::{self, collector_specs, service_config, SHARDS};
use crate::load::{self, Mix};
use crate::stats::median;
use crate::trace::span;
use crate::Ctx;
use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, ValidityConfig};
use moas_monitor::MonitorConfig;
use moas_net::{Date, Prefix};
use moas_obs::Registry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold replica opens per run (the set-up and restart samples). One
/// costs some 50 ms; with seven, their median still moved by a third
/// between runs of unchanged code.
const OPENS: usize = 40;

/// The fixed nominal rate `query_p50_ms` (and the ungated p90) is
/// read at, requests/s across both clients: at lower rates wake-up
/// latency of idle threads dominates and the median moved by a third
/// between runs. It runs for [`NOMINAL_RUN`] before the ladder and
/// again after it, so a slow spell of the host weighs on only part of
/// the samples; one 1.2 s stretch still spread by 29% over five seeds.
const NOMINAL: f64 = 2_500.0;
const NOMINAL_RUN: Duration = Duration::from_millis(1_500);

/// The capacity ladder, requests/s across both clients.
const LADDER: [f64; 7] = [
    4_000.0, 5_500.0, 7_000.0, 8_500.0, 10_000.0, 12_500.0, 16_000.0,
];
const RUNG: Duration = Duration::from_millis(1_200);

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let meta = &ctx.meta;
    let start = date_of(meta.get("start_day"));
    let store = ctx.input.join("store");
    let prefixes: Vec<String> = std::fs::read_to_string(ctx.input.join("prefixes.txt"))?
        .lines()
        .map(str::to_string)
        .collect();
    let registry = Arc::new(Registry::new());

    // Cold opens: set-up (open + first snapshot) and time to the first
    // served answer, half before the ladder and half after it, so a
    // slow spell of the host weighs on only part of them. The first
    // one also prices the replica's memory.
    let rss_before = rss_mb();
    let mut opens = ColdOpens::default();
    opens.run(&store, start, OPENS / 2, report)?;
    report.set("rss_growth_mb", opens.rss_mb - rss_before);
    // The serving replica.
    let service = HistoryService::open_read_only(&store, service_config(start))?;
    let reader = service.reader();
    let front = Front::start(reader.clone(), start, Arc::clone(&registry))?;
    let mut conn = Conn::connect(front.addr)?;
    let conditional = "/v1/validity?limit=0";
    let first = conn.get(conditional, None)?;
    report.op(first.status == 200 && first.etag.is_some(), || {
        format!("{conditional} answered {} without an ETag", first.status)
    });
    let etag = (conditional.to_string(), first.etag.unwrap_or_default());

    // Oracle: sampled point lookups equal `validity_of` on a snapshot.
    let snap = reader.snapshot();
    let step = (prefixes.len() / 50).max(1);
    for p in prefixes.iter().step_by(step) {
        let answer = conn.get(&format!("/v1/prefix/{p}"), None)?;
        let prefix: Prefix = p.parse().map_err(|_| io::Error::other("bad prefix key"))?;
        let expected = snap.validity_of(&prefix, ValidityConfig::default());
        let served = answer.json().and_then(|v| v.get("validity").cloned());
        report.op(
            answer.status == 200 && validity_matches(served.as_ref(), expected.as_ref()),
            || format!("/v1/prefix/{p} disagrees with validity_of"),
        );
    }
    drop(snap);
    drop(conn);

    let window = meta.get("last_day") as i64;
    let dates: Vec<String> = (0..16)
        .map(|i| start.plus_days(window * i / 16).to_string())
        .collect();
    let mix = Mix::serve(prefixes.clone(), dates, etag);
    let nominal = |seed| load::ladder(front.addr, &mix, seed, 2, &[NOMINAL], NOMINAL_RUN);
    let mut fixed = nominal(ctx.seed);
    let rungs = load::ladder(front.addr, &mix, ctx.seed ^ 1, 2, &LADDER, RUNG);
    fixed.extend(nominal(ctx.seed ^ 2));
    let fixed_ms: Vec<f64> = fixed
        .iter()
        .flat_map(|r| r.paced.latency_ms.iter().copied())
        .collect();
    let fixed: Vec<&load::Paced> = fixed.iter().map(|r| &r.paced).collect();
    crate::report_queries(report, &fixed_ms, &rungs, &fixed, &[]);
    let server_stats = front.stop();
    crate::report_server(report, &server_stats);
    drop(reader);
    service.close()?;

    opens.run(&store, start, OPENS - OPENS / 2, report)?;
    let setup_s = median(&opens.setup).expect("OPENS > 0");
    report.set("setup_s", setup_s);
    report.set("restart_s", median(&opens.answered).expect("OPENS > 0"));
    let answered_ms: Vec<f64> = opens.answered.iter().map(|s| s * 1e3).collect();
    report.sample("freshness_ms", &answered_ms);
    report.set("ingest_updates_per_s", opens.events as f64 / setup_s);
    report.set("ingest_mb_per_s", dir_bytes(&store) as f64 / 1e6 / setup_s);

    if crate::trace::enabled() {
        traced_feed(ctx, &store, &prefixes, report, &registry)?;
    }
    Ok(())
}

/// Cold replica opens: per open, the seconds to open plus first
/// snapshot, and to the first `/v1/stats` answer.
#[derive(Default)]
struct ColdOpens {
    setup: Vec<f64>,
    answered: Vec<f64>,
    /// History events the replica holds.
    events: u64,
    /// Resident memory right after the first open and snapshot.
    rss_mb: f64,
}

impl ColdOpens {
    fn run(&mut self, store: &Path, start: Date, n: usize, report: &mut Report) -> io::Result<()> {
        for _ in 0..n {
            let began = Instant::now();
            let service = span("history.open_read_only", || {
                HistoryService::open_read_only(store, service_config(start))
            })?;
            let reader = service.reader();
            let snap = span("history.snapshot", || reader.snapshot());
            self.setup.push(began.elapsed().as_secs_f64());
            self.events = snap.stats().events_appended;
            drop(snap);
            if self.setup.len() == 1 {
                self.rss_mb = rss_mb();
            }
            let front = Front::start(reader, start, Arc::new(Registry::new()))?;
            let mut conn = Conn::connect(front.addr)?;
            let answer = span("server.get", || conn.get("/v1/stats", None))?;
            self.answered.push(began.elapsed().as_secs_f64());
            report.op(answer.status == 200, || {
                format!("/v1/stats answered {}", answer.status)
            });
            drop(conn);
            front.stop();
            service.close()?;
        }
        Ok(())
    }
}

/// Whether a served `/v1/prefix` validity block equals the scored row.
fn validity_matches(
    served: Option<&serde::Value>,
    expected: Option<&moas_history::ConflictValidity>,
) -> bool {
    let (Some(v), Some(e)) = (served, expected) else {
        return false;
    };
    let u = |k: &str| v.get(k).and_then(|x| x.as_u64());
    let close = v
        .get("longevity_percentile")
        .and_then(|x| x.as_f64())
        .is_some_and(|p| (p - e.longevity_percentile).abs() <= 1e-9);
    v.get("prefix").and_then(|x| x.as_str()) == Some(e.prefix.to_string().as_str())
        && u("open_secs") == Some(e.open_secs)
        && u("episodes") == Some(e.episodes as u64)
        && u("flaps") == Some(e.flaps as u64)
        && u("corroboration") == Some(e.corroboration as u64)
        && close
}

/// The traced run's feed and layer passes: `serve` ingests nothing,
/// so they run over the sample archive kept with its store — a
/// two-collector `Federation` catch-up into a scratch store and a
/// resume, then the isolated layer passes.
fn traced_feed(
    ctx: &Ctx,
    store: &Path,
    prefixes: &[String],
    report: &mut Report,
    serve_registry: &Registry,
) -> io::Result<()> {
    let specs = collector_specs();
    let archives: Vec<Vec<PathBuf>> = specs
        .iter()
        .map(|s| archive_files(&ctx.input.join("sample").join(&s.name)))
        .collect::<io::Result<_>>()?;
    let first = crate::common::day_pos(&archives[0][0], moas_net::Date::ymd(1970, 1, 1));
    let start = date_of(first as f64);
    let scratch = ctx.run_dir.join("sample-store");
    let mut config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..FederationConfig::new(start)
    };
    for spec in &specs {
        config = config.collector(spec.name.clone(), ctx.input.join("sample").join(&spec.name));
    }
    let registry = Arc::new(Registry::new());
    let service = Arc::new(HistoryService::open(&scratch, service_config(start))?);
    let mut fed = Federation::open_with_registry(
        config.clone(),
        Arc::clone(&service),
        Arc::clone(&registry),
    )?;
    let mut feed = crate::common::FeedTally::default();
    loop {
        let p = span("feed.poll_once", || fed.poll_once())?;
        feed.add(&p);
        if p.caught_up {
            break;
        }
    }
    let p = span("feed.finalize", || fed.finalize())?;
    feed.add(&p);
    let status = fed.status();
    feed.report(report, status.released(), status.deduped());
    report.set(
        "feed.backlog_files_max",
        (archives.len() * archives[0].len()) as f64,
    );
    fed.shutdown()?;
    let fed = span("feed.resume", || {
        Federation::open_with_registry(config, Arc::clone(&service), Arc::clone(&registry))
    })?;
    fed.shutdown()?;
    inputs::close(service)?;

    let window_start = date_of(ctx.meta.get("start_day"));
    let layer_inputs = crate::layers::LayerInputs {
        archives: &archives,
        start,
        store,
        store_start: window_start,
        scratch: &ctx.run_dir,
        prefixes,
        date: window_start.plus_days(ctx.meta.get("last_day") as i64 / 2),
    };
    crate::layers::probe(&layer_inputs, serve_registry, report)?;
    Ok(())
}
