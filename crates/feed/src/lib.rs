//! # moas-feed — the live collector-feed subsystem
//!
//! The batch pipelines scan a *rendered* archive; a deployed monitor
//! follows a *growing* one. This crate is the ingestion layer between
//! the two. One coordinator, [`Federation`], polls N Route Views /
//! RIS-style collector directories (`updates.YYYYMMDD.HHMM.mrt`
//! BGP4MP update files), discovers newly landed files in timestamp
//! order, tails the in-flight newest file record-by-record, and
//! drives one sharded [`moas_monitor::MonitorEngine`] plus one
//! [`moas_history::HistoryService`] so served epochs advance live.
//! [`FeedFollower`] is the single-collector API over the same path: a
//! one-collector federation, with no cross-collector dedup or
//! corroboration, unlabeled feed series and the single-feed status
//! shape.
//!
//! Restartability is the design center: a durable cursor per
//! collector (`FEED_CURSOR[.id]`, file + byte offset, always written
//! in the v2 format and swapped atomically next to the history
//! `MANIFEST`) is only ever written behind the sealed log, and a
//! restarted feed replays the archives up to the cursors — sink
//! disabled, duplicates suppressed by per-shard sequence watermarks —
//! so the history after any kill-and-resume equals a single
//! uninterrupted pass, byte for byte of cursor position
//! (`tests/feed_follow.rs` pins this against batch
//! `analyze_mrt_archive`).
//!
//! Feed pathologies are handled, not fatal: truncated in-flight files
//! wait (then count as truncated tails once finalized), out-of-order
//! arrivals inside a polling window sort into place, late files
//! beyond the feed's position are counted and ignored, and missing
//! archive days surface as [`FeedGap`]s through each collector's
//! [`FeedStatus`] — served by `moas-serve` as `/v1/feed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod federation;
pub mod follower;
pub mod layout;
pub mod status;
pub mod tail;

pub use cursor::FeedCursor;
pub use federation::{CollectorSpec, Federation, FederationConfig, FederationStatus, FeedProgress};
pub use follower::{FeedConfig, FeedFollower};
pub use layout::{parse_update_name, scan_layout, FeedFile};
pub use status::{FeedGap, FeedStatus, FeedStatusSnapshot};
pub use tail::{FileTailer, TailPass};
