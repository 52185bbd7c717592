//! The background compaction daemon and the retention policy it
//! enforces.
//!
//! A long-running [`crate::service::HistoryService`] accumulates one
//! sealed event-log segment per day, forever. The daemon is the
//! thread that keeps that sustainable: woken by every day mark (and by
//! a fallback poll), it watches the *compaction backlog* — sealed
//! segments not yet covered by the record table — and when the
//! backlog crosses the configured watermark it rewrites the table:
//! seed a [`Compactor`] from the current table, fold the backlog
//! segments on top, prune episodes behind the retention horizon,
//! write the new table to a temporary file, and atomically install it
//! (rename + manifest swap). Only then does retention expire the raw
//! segments the table now covers.
//!
//! The heavy work — folding events (from the tail chunks already
//! resident in memory for readers; no segment re-reads), writing and
//! syncing the new table — happens *without* the store lock held; the
//! lock is taken only to capture the plan and to commit the result,
//! so the writer keeps appending and readers keep snapshotting
//! throughout a rewrite. A crash at any point leaves either a
//! stale-but-complete table or a partial temporary file the next open
//! discards.

use crate::compact::{horizon_cutoff, Compactor};
use crate::service::{publish_epoch, Shared};
use crate::table::{write_table, TableData};
use std::io;
use std::sync::Arc;

/// What a retention policy is allowed to delete, and when.
///
/// Age and size caps compose: age expires whole days of both raw
/// segments *and* their episodes (pruned from the table at the next
/// rewrite), while the size cap deletes oldest raw segments only —
/// their episode history stays in the table, so a tight disk budget
/// bounds the log without changing query answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionPolicy {
    /// Keep this many most-recent days; older days are expired whole
    /// at day boundaries. `None` keeps everything.
    pub max_age_days: Option<u32>,
    /// Cap on retained bytes (live segments + table); oldest covered
    /// segments are deleted until under it. `None` is unbounded.
    pub max_bytes: Option<u64>,
}

impl RetentionPolicy {
    /// No retention: keep everything (the default).
    pub fn keep_everything() -> Self {
        RetentionPolicy::default()
    }

    /// Age-based retention: keep the most recent `days` days.
    pub fn keep_days(days: u32) -> Self {
        RetentionPolicy {
            max_age_days: Some(days),
            max_bytes: None,
        }
    }

    /// Whether any cap is configured.
    pub fn is_active(&self) -> bool {
        self.max_age_days.is_some() || self.max_bytes.is_some()
    }
}

/// One maintenance sweep: compact if the backlog or retention demands
/// it, then expire what retention allows. Returns whether anything
/// changed. Safe to call from any thread; concurrent sweeps serialize
/// on the maintain lock.
pub(crate) fn maintain_once(shared: &Shared) -> io::Result<bool> {
    let _serialize = shared.maintain.lock().expect("maintain lock poisoned");

    // Capture the plan under the state lock, then work unlocked. The
    // backlog's events are already resident: the service keeps every
    // uncovered segment's events in the published tail chunks, so a
    // rewrite folds cheap `Arc` clones instead of re-reading and
    // re-CRC-checking the segment files.
    let (backlog, tail, table, horizon_target, retained_bytes) = {
        let st = shared.state.lock().expect("state lock poisoned");
        let m = st.store.manifest();
        let horizon_target = shared
            .config
            .retention
            .max_age_days
            .map_or(0, |k| m.next_day.saturating_sub(k));
        (
            st.store.uncovered_segment_days(),
            st.tail.clone(),
            st.store.table(),
            horizon_target,
            st.store.stats().retained_bytes,
        )
    };

    let expiry_blocked = backlog.iter().any(|&(_, day)| day < horizon_target);
    let size_pressure = shared
        .config
        .retention
        .max_bytes
        .is_some_and(|max| retained_bytes > max);
    let need_compact = !backlog.is_empty()
        && (backlog.len() >= shared.config.watermark_segments || expiry_blocked || size_pressure);

    let registry = shared
        .registry
        .lock()
        .expect("registry slot poisoned")
        .clone();

    let mut did_work = false;
    if need_compact {
        let started = std::time::Instant::now();
        let mut comp = Compactor::new();
        let mut horizon = horizon_target;
        if let Some(t) = &table {
            t.seed_compactor(&mut comp);
            horizon = horizon.max(t.horizon_day);
        }
        // Coverage advances over every backlog segment, including any
        // that was corrupt at open (absent from the tail — its events
        // are lost either way and were noted then).
        let mut covers_below = table.as_ref().map_or(0, |t| t.covers_below);
        for &(n, _) in &backlog {
            if let Some((_, chunk)) = tail.iter().find(|(file, _)| *file == n) {
                comp.fold(chunk);
            }
            covers_below = covers_below.max(n + 1);
        }
        if horizon > 0 {
            comp.prune_closed_before(horizon_cutoff(shared.config.start_date, horizon));
        }
        let data = TableData::from_compactor(&comp, covers_below, horizon);
        let tmp = shared.dir.join("tab-build.tmp");
        write_table(&tmp, &data)?;
        {
            let mut st = shared.state.lock().expect("state lock poisoned");
            let installed = st.store.install_table(data, &tmp)?;
            let cb = installed.covers_below;
            st.tail.retain(|(n, _)| *n >= cb);
            publish_epoch(shared, &st);
        }
        if let Some(r) = &registry {
            // If an ingest poll trace is ambient when the sweep
            // finishes, the compaction span joins it; a standalone
            // sweep profiles as its own root.
            r.stage("compaction").observe(started.elapsed());
            r.journal().record(
                "compaction",
                format!(
                    "compacted {} segment(s), horizon day {}, in {}ms",
                    backlog.len(),
                    horizon,
                    started.elapsed().as_millis()
                ),
            );
        }
        did_work = true;
    }

    // Retention: expire raw segments the table now covers.
    if shared.config.retention.is_active() {
        let mut st = shared.state.lock().expect("state lock poisoned");
        let mut expired_any = false;
        if horizon_target > 0 {
            let outcome = st.store.expire_through(horizon_target)?;
            expired_any |= !outcome.expired.is_empty();
        }
        if let Some(max) = shared.config.retention.max_bytes {
            let outcome = st.store.expire_for_size(max)?;
            expired_any |= !outcome.expired.is_empty();
        }
        if expired_any {
            publish_epoch(shared, &st);
            did_work = true;
        }
    }

    Ok(did_work)
}

/// The daemon thread body: wake on day-mark notifications (or the
/// fallback poll), sweep, record completion for
/// [`crate::service::HistoryService::wait_idle`], repeat until
/// shutdown — draining any generation still pending first.
pub(crate) fn run_daemon(shared: Arc<Shared>) {
    loop {
        let generation = {
            let mut ws = shared.work.lock().expect("work lock poisoned");
            loop {
                if ws.generation > ws.completed {
                    break ws.generation;
                }
                if ws.shutdown {
                    return;
                }
                let (guard, timeout) = shared
                    .work_cv
                    .wait_timeout(ws, shared.config.poll_interval)
                    .expect("work cv poisoned");
                ws = guard;
                if timeout.timed_out() {
                    // Opportunistic sweep: time-based retention can
                    // become due without a new day mark.
                    break ws.generation;
                }
            }
        };
        if let Err(e) = maintain_once(&shared) {
            shared.note(format!("maintenance sweep failed: {e}"));
        }
        let mut ws = shared.work.lock().expect("work lock poisoned");
        ws.completed = ws.completed.max(generation);
        shared.work_cv.notify_all();
    }
}
