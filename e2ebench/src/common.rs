//! Pieces every workload's repetition shares: the report a child
//! prints, process memory, the served front end, and the restart
//! oracle's captured answers.

use crate::client::{Answer, Conn};
use crate::load::{self, Mix, Paced};
use moas_history::HistoryReader;
use moas_net::{Date, DayIndex};
use moas_obs::Registry;
use moas_serve::{QueryServer, QueryService, ServerConfig, ServerStats};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Raw samples the parent pools across repetitions before taking
    /// percentiles (`query_ms`, `freshness_ms`).
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn sample(&mut self, name: &str, values: &[f64]) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(values);
    }

    /// Counts one operation; a wrong one is failed and explained.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Folds a batch of paced operations in.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// The lines a repetition child prints for its parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            out.push_str(&format!("m {k} {v}\n"));
        }
        for (k, vs) in &self.samples {
            for v in vs {
                out.push_str(&format!("s {k} {v}\n"));
            }
        }
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        out
    }
}

/// Resident set size of this process, in MB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn date_of(day: f64) -> Date {
    Date::from_day_index(DayIndex(day as i64))
}

/// A loopback `/v1` front end over `reader`: two workers (one per core
/// of the reference box) and the default 256-entry response cache.
pub struct Front {
    pub server: QueryServer,
    pub query: Arc<QueryService>,
    pub addr: SocketAddr,
}

impl Front {
    pub fn start(reader: HistoryReader, start: Date, registry: Arc<Registry>) -> io::Result<Front> {
        let query = Arc::new(QueryService::with_registry(
            reader,
            server_config(start),
            registry,
        ));
        let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&query))?;
        let addr = server.local_addr();
        Ok(Front {
            server,
            query,
            addr,
        })
    }

    /// Stops serving; returns the server's counters.
    pub fn stop(self) -> ServerStats {
        self.server.shutdown();
        self.query.metrics().stats(self.query.cache_stats())
    }
}

pub fn server_config(start: Date) -> ServerConfig {
    ServerConfig {
        workers: 2,
        start_date: start,
        keep_alive_requests: u32::MAX,
        ..ServerConfig::default()
    }
}

/// Polls `/v1/stats` until the served epoch holds `events` appended
/// events — the writer's whole durable state. Each poll is an
/// operation; gives up after 10 s. Connections are opened per use:
/// the server closes one left idle past its read timeout, and it runs
/// one worker per connection.
pub fn wait_served(addr: SocketAddr, events: u64, report: &mut Report) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let answer = crate::trace::span("server.get", || conn.get("/v1/stats", None))?;
        let served = answer
            .json()
            .and_then(|v| v.get("store")?.get("events_appended")?.as_u64());
        report.op(answer.status == 200, || {
            format!("/v1/stats answered {}", answer.status)
        });
        if served == Some(events) {
            return Ok(());
        }
        if Instant::now() > deadline {
            report.op(false, || {
                format!("served events {served:?} never reached the writer's {events}")
            });
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Answers captured before a shutdown, compared byte for byte (body
/// and `ETag`) after the restart.
pub struct Captured(Vec<(String, u16, Option<String>, Vec<u8>)>);

impl Captured {
    pub fn take(addr: SocketAddr, targets: &[String], report: &mut Report) -> io::Result<Captured> {
        let mut conn = Conn::connect(addr)?;
        let mut out = Vec::new();
        for t in targets {
            let Answer { status, etag, body } = conn.get(t, None)?;
            report.op(status == 200, || {
                format!("{t} answered {status} before restart")
            });
            out.push((t.clone(), status, etag, body));
        }
        Ok(Captured(out))
    }

    pub fn check(&self, addr: SocketAddr, report: &mut Report) -> io::Result<()> {
        let mut conn = Conn::connect(addr)?;
        for (t, status, etag, body) in &self.0 {
            let after = conn.get(t, None)?;
            report.op(
                after.status == *status && after.etag == *etag && after.body == *body,
                || format!("{t} changed across the restart"),
            );
        }
        Ok(())
    }
}

/// The answers a restart must reproduce byte for byte: the summary
/// endpoints, the last day's conflicts and a few point lookups.
pub fn restart_targets(conflicted: &[String], last: Date) -> Vec<String> {
    let mut targets = vec![
        "/v1/stats".to_string(),
        "/v1/validity?limit=0".to_string(),
        format!("/v1/conflicts?date={last}"),
    ];
    targets.extend(conflicted.iter().take(5).map(|p| format!("/v1/prefix/{p}")));
    targets
}

/// Hard-links `src` into `dir` (created if missing); a link appears
/// whole, as a collector's atomic rename would.
pub fn land(src: &Path, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let dst = dir.join(src.file_name().expect("archive file has a name"));
    std::fs::hard_link(src, &dst)?;
    Ok(dst)
}

/// The update files of an input archive directory, in name (= time)
/// order.
pub fn archive_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    files.retain(|p| p.extension().is_some_and(|e| e == "mrt"));
    files.sort();
    Ok(files)
}

/// Day position of an update file, from the date its name encodes.
pub fn day_pos(file: &Path, start: Date) -> u32 {
    let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let (date, _) = moas_feed::parse_update_name(name).expect("update file name");
    start.days_until(&date) as u32
}

/// Set-ups timed on fresh empty stores before the measured one. One
/// takes a millisecond or two, so `setup_s` is a median of many: with
/// a handful, scheduler noise on a 2-core VM moved it by half.
pub const SETUP_SAMPLES: usize = 30;

/// Times [`SETUP_SAMPLES`] set-ups under `run_dir`: `open(dir)` sets up
/// and hands back the tear-down, run after timing.
pub fn setup_samples<F, T>(run_dir: &Path, mut open: F) -> io::Result<Vec<f64>>
where
    F: FnMut(&Path) -> io::Result<T>,
    T: FnOnce() -> io::Result<()>,
{
    let mut out = Vec::new();
    for i in 0..SETUP_SAMPLES {
        let dir = run_dir.join(format!("setup-{i}"));
        let began = Instant::now();
        let teardown = open(&dir)?;
        out.push(began.elapsed().as_secs_f64());
        teardown()?;
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(out)
}

/// Feed progress summed over every call.
#[derive(Default)]
pub struct FeedTally {
    pub polls: u64,
    pub files: u64,
    pub days: u64,
    pub records: u64,
}

impl FeedTally {
    pub fn add(&mut self, p: &moas_feed::FeedProgress) {
        self.polls += 1;
        self.files += p.files_closed;
        self.days += p.days_marked;
        self.records += p.records;
    }

    /// Feed counts; `released`/`deduped` come from a federation (both
    /// 0 for a single follower, whose records are all released).
    pub fn report(&self, report: &mut Report, released: u64, deduped: u64) {
        report.set("feed.polls", self.polls as f64);
        report.set("feed.files_closed", self.files as f64);
        report.set("feed.days_marked", self.days as f64);
        let released = if released + deduped == 0 {
            self.records
        } else {
            released
        };
        report.set("feed.records_released", released as f64);
        report.set("feed.records_deduped", deduped as f64);
        report.set(
            "feed.dedup_ratio",
            deduped as f64 / (released + deduped).max(1) as f64,
        );
    }
}

/// What a live phase measured.
pub struct Live {
    /// Per landing: ms from the landing to the return of the poll
    /// that published the day it completed.
    pub freshness_ms: Vec<f64>,
    pub landings: Paced,
    pub queries: Paced,
    /// Most files landed but not yet consumed before a poll.
    pub backlog_max: u64,
}

/// The live phase: a generator thread lands day `k` of `files` (one
/// list per collector, into the matching `dirs`) at `start + k *
/// interval`; an open-loop client queries `addr` at `qps`; the calling
/// thread polls the feed. Landing `k` completes the day before it,
/// which is served once the feed has marked every day position below
/// `need[k]`. `landed` files were already on disk, `feed` holds the
/// progress so far.
#[allow(clippy::too_many_arguments)]
pub fn live(
    files: &[&[PathBuf]],
    dirs: &[PathBuf],
    need: &[u64],
    interval: Duration,
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    qps: f64,
    landed: u64,
    feed: &mut FeedTally,
    mut poll: impl FnMut() -> io::Result<moas_feed::FeedProgress>,
) -> io::Result<Live> {
    let days = need.len();
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + interval.mul_f64(days as f64);
    let log: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let mut freshness_ms = Vec::new();
    let mut backlog_max = 0u64;
    let per_day = files.len() as u64;
    std::thread::scope(|scope| {
        let client = scope.spawn(|| load::query_client(addr, mix, seed, qps, start, end));
        let generator = scope.spawn(|| {
            load::paced(start, interval, end, |k| {
                let ok = files
                    .iter()
                    .zip(dirs)
                    .all(|(list, dir)| land(&list[k as usize], dir).is_ok());
                log.lock()
                    .expect("landing log poisoned")
                    .push(Instant::now());
                ok
            })
        });
        let deadline = end + Duration::from_secs(30);
        while freshness_ms.len() < days && Instant::now() < deadline {
            let on_disk = landed + per_day * log.lock().expect("landing log poisoned").len() as u64;
            backlog_max = backlog_max.max(on_disk.saturating_sub(feed.files));
            let p = crate::trace::span("feed.poll_once", &mut poll)?;
            feed.add(&p);
            let now = Instant::now();
            let log = log.lock().expect("landing log poisoned");
            while freshness_ms.len() < log.len() && feed.days >= need[freshness_ms.len()] {
                freshness_ms.push(load::ms(
                    now.saturating_duration_since(log[freshness_ms.len()]),
                ));
            }
            drop(log);
            if p.files_closed == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(Live {
            freshness_ms,
            queries: client.join().expect("query client panicked"),
            landings: generator.join().expect("landing generator panicked"),
            backlog_max,
        })
    })
}
