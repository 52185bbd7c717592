//! `bootstrap`: a single-collector `FeedFollower` cold-starts on a
//! full table, then follows the daily files, serves, shuts down and
//! resumes.
//!
//! Day 0 (the full table) and day 1 are on disk at open; catch-up over
//! them is the ingest measurement. The remaining days (one diff, then
//! days without updates) land live, one per [`INTERVAL`], each a day
//! mark over the full-table state: the freshness samples. The oracle:
//! the conflicts served at the last day equal `moas_core::detect` over
//! that day's table.

use crate::client::Conn;
use crate::common::{archive_files, date_of, Report};
use crate::ingest::{self, Served, Shape};
use crate::inputs::SHARDS;
use crate::trace::span;
use crate::Ctx;
use moas_feed::{FeedConfig, FeedFollower};
use moas_monitor::MonitorConfig;
use std::io;
use std::time::Duration;

/// Days on disk at open: the full table and the first diff.
const BACKLOG: usize = 2;

/// Live landing interval.
const INTERVAL: Duration = Duration::from_millis(100);

/// Query rate beside live ingest, requests/s on one connection.
const LIVE_QPS: f64 = 200.0;

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let meta = &ctx.meta;
    let archive = ctx.run_dir.join("archive");
    let (updates, bytes) = (0..BACKLOG).fold((0.0, 0.0), |(u, b), d| {
        (
            u + meta.get(&format!("updates.{d}")),
            b + meta.get(&format!("bytes.{d}")),
        )
    });
    let shape = Shape {
        sources: vec![archive_files(&ctx.input.join("archive"))?],
        dirs: vec![archive.clone()],
        backlog: BACKLOG,
        updates,
        bytes,
        interval: INTERVAL,
        qps: LIVE_QPS,
        catchups: 1,
        restarts: 1,
    };
    let config = FeedConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..FeedConfig::new(&archive, date_of(meta.get("start_day")))
    };
    let detected: Vec<String> = std::fs::read_to_string(ctx.input.join("oracle.txt"))?
        .lines()
        .map(str::to_string)
        .collect();
    let oracle = |served: Served<'_, FeedFollower>, report: &mut Report| {
        let last = served.last;
        let answer = span("server.get", || {
            Conn::connect(served.addr)?.get(&format!("/v1/conflicts?date={last}"), None)
        })?;
        let mut prefixes: Vec<String> = answer
            .json()
            .and_then(|v| {
                v.get("prefixes")?
                    .as_array()?
                    .iter()
                    .map(|p| p.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        prefixes.sort();
        report.op(answer.status == 200 && prefixes == detected, || {
            format!(
                "served {} conflicts at {last}, batch detect found {}",
                prefixes.len(),
                detected.len()
            )
        });
        Ok(())
    };
    ingest::run::<FeedFollower>(ctx, &shape, config, &oracle, report)
}
