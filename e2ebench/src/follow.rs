//! `follow`: a two-collector `Federation` (identical streams, clocks
//! 30 s apart) over many small daily files.
//!
//! Catch-up over the backlog is the ingest measurement, where per-file
//! commit work (seal, cursor, day barrier, epoch publish) dominates.
//! Then the next day's files for both collectors land every
//! [`INTERVAL`] while one open-loop client queries; every epoch
//! publish empties the response cache, so an ingest gain that costs
//! query latency shows. The oracle: the federated fold serves the
//! conflicts a single-collector fold of collector `a` does, with every
//! update deduplicated exactly once.
//!
//! `BENCHMARK.json` leaves this workload out: on the 2-core reference
//! VM its commit-bound figures track the shared disk, not the program
//! (see README.md).

use crate::common::{archive_files, date_of, Report};
use crate::ingest::{self, Feed, Served, Shape};
use crate::inputs::{collector_specs, SHARDS};
use crate::oracle::conflict_digest;
use crate::Ctx;
use moas_feed::{Federation, FederationConfig};
use moas_monitor::MonitorConfig;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Live landing interval: a little over twice the time one day's files
/// took to ingest on the 2-core reference VM, so the follower stays
/// about half busy.
const INTERVAL: Duration = Duration::from_millis(40);

/// Backlog catch-ups timed per repetition: the 600-file catch-up is
/// bound by per-file commits, whose fsync latency swung its time by a
/// third between runs, so its median over two steadies the figure.
const CATCHUPS: usize = 2;

/// Shutdown/reopen cycles timed per repetition: a reopen takes about
/// a second, and a single one swung by a third between runs.
const RESTARTS: usize = 3;

/// Query rate beside live ingest, requests/s on one connection.
const LIVE_QPS: f64 = 300.0;

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let meta = &ctx.meta;
    let specs = collector_specs();
    let sources: Vec<Vec<PathBuf>> = specs
        .iter()
        .map(|s| archive_files(&ctx.input.join("all").join(&s.name)))
        .collect::<io::Result<_>>()?;
    let dirs: Vec<PathBuf> = specs
        .iter()
        .map(|s| ctx.run_dir.join("archive").join(&s.name))
        .collect();
    let mut config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..FederationConfig::new(date_of(meta.get("start_day")))
    };
    for (spec, dir) in specs.iter().zip(&dirs) {
        config = config.collector(spec.name.clone(), dir);
    }
    let shape = Shape {
        sources,
        dirs,
        backlog: meta.get("backlog") as usize,
        updates: meta.get("updates"),
        bytes: meta.get("bytes"),
        interval: INTERVAL,
        qps: LIVE_QPS,
        catchups: CATCHUPS,
        restarts: RESTARTS,
    };
    let oracle = |served: Served<'_, Federation>, report: &mut Report| {
        let (digest, records) = conflict_digest(&served.service.reader().snapshot());
        report.op(
            digest as f64 == meta.get("oracle_digest")
                && records as f64 == meta.get("oracle_records"),
            || format!("federated fold ({records} records) differs from the single-collector fold"),
        );
        let (released, deduped) = served.feed.dedup();
        report.op(released == deduped, || {
            format!("released {released} records but deduplicated {deduped}")
        });
        Ok(())
    };
    ingest::run::<Federation>(ctx, &shape, config, &oracle, report)
}
