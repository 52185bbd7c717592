//! The single-collector follower: a one-collector [`Federation`].
//!
//! A deployment that follows one Route Views / RIS-style collector
//! directory gets exactly the federated ingest path with N = 1 — the
//! same discovery, tailing, resume replay, watermark duplicate
//! suppression, day and gap marking, checkpointing and finalize —
//! under the single-feed API. One collector is not a federation, so
//! the coordinator runs no corroboration and no cross-collector
//! dedup, registers the feed series without a `collector` label, and
//! serves the plain single-feed `/v1/feed` shape.
//!
//! The durable cursor is collector 0's `FEED_CURSOR` in the v2
//! format; a v1 cursor left by an older build is adopted in place
//! and rewritten at the next checkpoint.

use crate::cursor::FeedCursor;
use crate::federation::{Federation, FederationConfig, FeedProgress};
use crate::status::FeedStatus;
use moas_history::HistoryService;
use moas_monitor::{MonitorConfig, MonitorReport};
use moas_net::Date;
use moas_obs::Registry;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Follower tuning.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// The collector directory to follow.
    pub archive_dir: PathBuf,
    /// Date of day position 0 — must match the history service's
    /// [`moas_history::ServiceConfig::start_date`].
    pub start_date: Date,
    /// Monitor engine config. Must be identical across restarts of
    /// the same store (shard routing and sequence numbers depend on
    /// it); the cursor records the shard count and refuses a
    /// mismatch.
    pub monitor: MonitorConfig,
    /// Persist a durable cursor mid-file once this many bytes have
    /// been consumed since the last one (0 = only at file/day
    /// boundaries).
    pub checkpoint_bytes: u64,
}

impl FeedConfig {
    /// A config following `archive_dir` with defaults otherwise.
    pub fn new(archive_dir: impl Into<PathBuf>, start_date: Date) -> Self {
        FeedConfig {
            archive_dir: archive_dir.into(),
            start_date,
            monitor: MonitorConfig::default(),
            checkpoint_bytes: 1 << 20,
        }
    }
}

/// A live follower over one collector directory, driving one
/// [`HistoryService`].
pub struct FeedFollower {
    federation: Federation,
}

impl FeedFollower {
    /// Opens a follower over `service`'s store. With no persisted
    /// cursor this is a fresh follower; with one, the archive is
    /// replayed up to the cursor (sink disabled) to rebuild monitor
    /// state, and ingestion resumes at the exact byte offset.
    pub fn open(config: FeedConfig, service: Arc<HistoryService>) -> io::Result<FeedFollower> {
        FeedFollower::open_with_registry(config, service, Arc::new(Registry::new()))
    }

    /// [`FeedFollower::open`] with the feed and engine metrics on
    /// `registry` — share it with the query server so one `/metrics`
    /// scrape covers ingest and serving in the same document.
    pub fn open_with_registry(
        config: FeedConfig,
        service: Arc<HistoryService>,
        registry: Arc<Registry>,
    ) -> io::Result<FeedFollower> {
        let name = config.archive_dir.display().to_string();
        let config = FederationConfig {
            monitor: config.monitor,
            checkpoint_bytes: config.checkpoint_bytes,
            ..FederationConfig::new(config.start_date)
        }
        .collector(name, config.archive_dir);
        let federation = Federation::open_with_registry(config, service, registry)?;
        Ok(FeedFollower { federation })
    }

    /// The live status block (wire it to a query server's `/v1/feed`).
    pub fn status(&self) -> Arc<FeedStatus> {
        Arc::clone(self.federation.first_collector().1)
    }

    /// The follower's current cursor (durable fields as of the last
    /// checkpoint).
    pub fn cursor(&self) -> &FeedCursor {
        self.federation.first_collector().0
    }

    /// One discovery-and-ingest pass: register newly landed files,
    /// finish every file a newer file has finalized (marking days and
    /// gaps), and tail the in-flight newest file. Returns what
    /// happened; call in a loop.
    pub fn poll_once(&mut self) -> io::Result<FeedProgress> {
        self.federation.poll_once()
    }

    /// Declares the in-flight file complete — the collector will not
    /// grow it again — consuming its remaining records and marking
    /// its day. The shape tests and window-bounded replays need: the
    /// last archive day has no successor file to finalize it.
    pub fn finalize(&mut self) -> io::Result<FeedProgress> {
        self.federation.finalize()
    }

    /// Graceful stop: checkpoints at the exact current byte offset,
    /// shuts the engine down, and returns the final cursor plus the
    /// monitor's report (day slices, §VII alarms, counters).
    pub fn shutdown(self) -> io::Result<(FeedCursor, MonitorReport)> {
        let (cursors, report) = self.federation.shutdown()?;
        let cursor = cursors.into_iter().next().expect("one collector");
        Ok((cursor, report))
    }
}
