//! The repetition `bootstrap` and `follow` share: open → catch up on
//! a backlog → live landings beside queries → oracle → rate ladder →
//! shutdown → timed reopen. The two differ in the feed under test
//! (a single-collector `FeedFollower` or a `Federation`), their input
//! shape and their oracle.

use crate::common::{
    date_of, day_pos, land, live, restart_targets, rss_mb, setup_samples, wait_served, Captured,
    FeedTally, Front, Report,
};
use crate::inputs::{self, service_config};
use crate::load::{self, Mix};
use crate::trace::span;
use crate::Ctx;
use moas_feed::{Federation, FederationConfig, FeedConfig, FeedFollower, FeedProgress};
use moas_history::HistoryService;
use moas_net::Date;
use moas_obs::Registry;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The feed under test, through the calls the benchmark makes.
pub trait Feed: Sized {
    type Config: Clone;
    fn open(
        config: Self::Config,
        service: Arc<HistoryService>,
        registry: Arc<Registry>,
    ) -> io::Result<Self>;
    fn poll_once(&mut self) -> io::Result<FeedProgress>;
    fn finalize(&mut self) -> io::Result<FeedProgress>;
    fn shutdown(self) -> io::Result<()>;
    /// Records released and deduplicated; `(0, 0)` without dedup.
    fn dedup(&self) -> (u64, u64);
}

impl Feed for FeedFollower {
    type Config = FeedConfig;
    fn open(c: FeedConfig, s: Arc<HistoryService>, r: Arc<Registry>) -> io::Result<Self> {
        FeedFollower::open_with_registry(c, s, r)
    }
    fn poll_once(&mut self) -> io::Result<FeedProgress> {
        FeedFollower::poll_once(self)
    }
    fn finalize(&mut self) -> io::Result<FeedProgress> {
        FeedFollower::finalize(self)
    }
    fn shutdown(self) -> io::Result<()> {
        FeedFollower::shutdown(self).map(drop)
    }
    fn dedup(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Feed for Federation {
    type Config = FederationConfig;
    fn open(c: FederationConfig, s: Arc<HistoryService>, r: Arc<Registry>) -> io::Result<Self> {
        Federation::open_with_registry(c, s, r)
    }
    fn poll_once(&mut self) -> io::Result<FeedProgress> {
        Federation::poll_once(self)
    }
    fn finalize(&mut self) -> io::Result<FeedProgress> {
        Federation::finalize(self)
    }
    fn shutdown(self) -> io::Result<()> {
        Federation::shutdown(self).map(drop)
    }
    fn dedup(&self) -> (u64, u64) {
        let status = self.status();
        (status.released(), status.deduped())
    }
}

/// What a workload feeds the shared repetition.
pub struct Shape {
    /// Every day file, per collector, in time order.
    pub sources: Vec<Vec<PathBuf>>,
    /// Where each collector's files land, in collector order.
    pub dirs: Vec<PathBuf>,
    /// Files per collector on disk at open.
    pub backlog: usize,
    /// Route-level updates and bytes in the backlog files.
    pub updates: f64,
    pub bytes: f64,
    /// Live landing interval and the query rate beside it.
    pub interval: Duration,
    pub qps: f64,
    /// Backlog catch-ups timed per repetition (their median is the
    /// ingest figure).
    pub catchups: usize,
    /// Shutdown/reopen cycles timed per repetition (their median is
    /// `restart_s`).
    pub restarts: usize,
}

/// What a workload's oracle sees once every day is served.
pub struct Served<'s, F> {
    pub addr: SocketAddr,
    pub service: &'s HistoryService,
    pub feed: &'s F,
    /// The last day of the archive.
    pub last: Date,
}

/// The workload's correctness check; each verdict is an operation.
pub type Oracle<'a, F> = &'a dyn Fn(Served<'_, F>, &mut Report) -> io::Result<()>;

pub fn run<F: Feed>(
    ctx: &Ctx,
    shape: &Shape,
    config: F::Config,
    oracle: Oracle<F>,
    report: &mut Report,
) -> io::Result<()> {
    let start = date_of(ctx.meta.get("start_day"));
    let store = ctx.run_dir.join("store");
    for (files, dir) in shape.sources.iter().zip(&shape.dirs) {
        for f in &files[..shape.backlog] {
            land(f, dir)?;
        }
    }
    let collectors = shape.sources.len() as u64;

    // Opens the store, the feed (resuming from any cursor) and the
    // loopback front end.
    let open = |store: &Path, registry: &Arc<Registry>, feed_span: &'static str| {
        let service = Arc::new(span("history.open", || {
            HistoryService::open(store, service_config(start))
        })?);
        let feed = span(feed_span, || {
            F::open(config.clone(), Arc::clone(&service), Arc::clone(registry))
        })?;
        let front = span("server.bind", || {
            Front::start(service.reader(), start, Arc::clone(registry))
        })?;
        io::Result::Ok((service, feed, front))
    };

    let mut setups = setup_samples(&ctx.run_dir, |dir| {
        let (service, feed, front) = open(dir, &Arc::new(Registry::new()), "feed.open")?;
        Ok(move || {
            feed.shutdown()?;
            front.stop();
            inputs::close(service)
        })
    })?;
    let rss_before = rss_mb();
    let registry = Arc::new(Registry::new());
    let began = Instant::now();
    let (service, mut feed, front) = open(&store, &registry, "feed.open")?;
    setups.push(began.elapsed().as_secs_f64());
    report.set(
        "setup_s",
        crate::stats::median(&setups).expect("set-up samples"),
    );

    // Catch-up over the backlog: from the first poll to the first
    // `/v1/stats` answer that serves everything appended.
    let catch_up = |feed: &mut F,
                    service: &HistoryService,
                    addr,
                    tally: &mut FeedTally,
                    name,
                    report: &mut Report| {
        let began = Instant::now();
        loop {
            let p = span(name, || feed.poll_once())?;
            tally.add(&p);
            if p.caught_up {
                break;
            }
        }
        wait_served(addr, service.stats().events_appended, report)?;
        io::Result::Ok(began.elapsed().as_secs_f64())
    };
    let mut tally = FeedTally::default();
    let main = catch_up(
        &mut feed,
        &service,
        front.addr,
        &mut tally,
        "feed.poll_once",
        report,
    )?;
    let mut ingest_s = vec![main];
    report.set("rss_growth_mb", rss_mb() - rss_before);
    // Further catch-ups on scratch stores, taken after the memory
    // reading (a process reuses the pages a catch-up freed) and spread
    // between the restarts at the end, so that they meet the host's
    // disk at other moments than the first: commit latency drifts.
    let scratch_catch_up = |i: usize, report: &mut Report| {
        let dir = ctx.run_dir.join(format!("catchup-{i}"));
        let (service, mut feed, front) = open(&dir, &Arc::new(Registry::new()), "feed.open")?;
        let mut scratch = FeedTally::default();
        let name = "feed.catchup_sample";
        let took = catch_up(&mut feed, &service, front.addr, &mut scratch, name, report)?;
        feed.shutdown()?;
        front.stop();
        inputs::close(service)?;
        std::fs::remove_dir_all(&dir).ok();
        io::Result::Ok(took)
    };

    // Live: the remaining days land one per interval, each completing
    // the day before it, and `finalize` completes the last, while an
    // open-loop client queries the prefixes conflicted so far.
    let prefixes: Vec<String> = service
        .reader()
        .snapshot()
        .conflicts()
        .records()
        .keys()
        .map(|p| p.to_string())
        .collect();
    let mix = Mix::live(prefixes.clone());
    let live_files: Vec<&[PathBuf]> = shape.sources.iter().map(|f| &f[shape.backlog..]).collect();
    let need: Vec<u64> = live_files[0]
        .iter()
        .map(|f| day_pos(f, start) as u64)
        .collect();
    let mut live = live(
        &live_files,
        &shape.dirs,
        &need,
        shape.interval,
        front.addr,
        &mix,
        ctx.seed,
        shape.qps,
        collectors * shape.backlog as u64,
        &mut tally,
        || feed.poll_once(),
    )?;
    let declared = Instant::now();
    let p = span("feed.finalize", || feed.finalize())?;
    tally.add(&p);
    live.freshness_ms.push(load::ms(declared.elapsed()));
    report.ops(live.landings.attempted(), live.landings.failed, "landings");
    report.op(live.freshness_ms.len() == need.len() + 1, || {
        format!(
            "{} of {} completed days were served",
            live.freshness_ms.len(),
            need.len() + 1
        )
    });
    let files = collectors * shape.sources[0].len() as u64;
    report.op(tally.files == files, || {
        format!("{} of {files} landed files ingested", tally.files)
    });
    let last_pos = need[need.len() - 1];
    report.op(tally.days == last_pos + 1, || {
        format!("{} days marked, expected {}", tally.days, last_pos + 1)
    });
    wait_served(front.addr, service.stats().events_appended, report)?;
    let last = start.plus_days(last_pos as i64);
    oracle(
        Served {
            addr: front.addr,
            service: &service,
            feed: &feed,
            last,
        },
        report,
    )?;

    let rungs = load::ladder(
        front.addr,
        &mix,
        ctx.seed,
        2,
        &crate::SHORT_LADDER,
        Duration::from_millis(400),
    );
    crate::report_queries(
        report,
        &live.queries.latency_ms,
        &rungs,
        &[&live.queries],
        &live.landings.late_ms,
    );
    report.sample("freshness_ms", &live.freshness_ms);
    report.set(
        "feed.backlog_files_max",
        live.backlog_max.max(collectors * shape.backlog as u64) as f64,
    );

    // Shutdown, then timed reopens that resume from the cursors; each
    // must serve what was served before the first shutdown.
    let before = Captured::take(front.addr, &restart_targets(&prefixes, last), report)?;
    let events = service.stats().events_appended;
    let (released, deduped) = feed.dedup();
    span("feed.shutdown", || feed.shutdown())?;
    let server_stats = front.stop();
    span("history.close", || inputs::close(service))?;

    let mut restarts = Vec::new();
    for i in 0..shape.restarts.max(shape.catchups) {
        if i < shape.restarts {
            let began = Instant::now();
            let (service, feed, front) = open(&store, &registry, "feed.resume")?;
            wait_served(front.addr, events, report)?;
            restarts.push(began.elapsed().as_secs_f64());
            before.check(front.addr, report)?;
            feed.shutdown()?;
            front.stop();
            inputs::close(service)?;
        }
        if (1..shape.catchups).contains(&i) {
            ingest_s.push(scratch_catch_up(i, report)?);
        }
    }
    report.set(
        "restart_s",
        crate::stats::median(&restarts).expect("at least one restart"),
    );
    let ingest_s = crate::stats::median(&ingest_s).expect("at least one catch-up");
    report.set("ingest_updates_per_s", shape.updates / ingest_s);
    report.set("ingest_mb_per_s", shape.bytes / 1e6 / ingest_s);

    tally.report(report, released, deduped);
    crate::report_server(report, &server_stats);
    if crate::trace::enabled() {
        let layer_inputs = crate::layers::LayerInputs {
            archives: &shape.sources,
            start,
            store: &store,
            store_start: start,
            scratch: &ctx.run_dir,
            prefixes: &prefixes,
            date: last,
        };
        crate::layers::probe(&layer_inputs, &registry, report)?;
    }
    Ok(())
}
