//! The durable feed cursor: `(file, byte offset)` plus progress
//! counters, one per collector, persisted next to the history store's
//! `MANIFEST`.
//!
//! The cursor is the feed's whole restart contract. It is only ever
//! written *after* the events covering its position are durable in
//! the history log (a [`moas_history::HistoryService::checkpoint`] or
//! day mark sealed them), and it is swapped atomically
//! (`FEED_CURSOR.tmp` + rename), so at any crash point the disk holds
//! a cursor that is *at or behind* the durable log — never ahead of
//! it. A restarted feed replays the archive up to the cursor to
//! rebuild monitor state without re-appending, then resumes at the
//! exact byte offset; the narrow window where the log is ahead of the
//! cursor (crash between seal and rename) is closed by per-shard
//! sequence watermarks (see `federation.rs`).
//!
//! Cursors are always written in the v2 format (`MFCUR002`, carrying
//! the collector id). The v1 format (`MFCUR001`) of older builds is
//! still read, so their stores are adopted in place.

use moas_history::codec::crc32;
use std::io;
use std::path::Path;

/// File name of the cursor, in the history store directory.
pub const CURSOR_NAME: &str = "FEED_CURSOR";
/// Version-1 magic: read only, adopted as collector 0's position.
const CURSOR_MAGIC: &str = "MFCUR001";
/// Version-2 magic: the written format, carrying the collector id.
const CURSOR_MAGIC_V2: &str = "MFCUR002";

/// File name of collector `id`'s cursor: collector 0 keeps the
/// legacy `FEED_CURSOR` name (so a v1 cursor is adopted in place on
/// upgrade), others append their id.
pub fn cursor_name(id: u32) -> String {
    if id == 0 {
        CURSOR_NAME.to_string()
    } else {
        format!("{CURSOR_NAME}.{id}")
    }
}

/// One collector's durable position in its archive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeedCursor {
    /// Update-file name currently being consumed (empty before the
    /// first file is opened).
    pub file: String,
    /// Bytes of `file` fully consumed and persisted — always a
    /// record boundary (or the poisoned-scan end of the file).
    pub offset: u64,
    /// Next day position awaiting its mark (day positions below this
    /// are complete in the history store).
    pub next_day: u32,
    /// Update files fully consumed.
    pub files_done: u64,
    /// Feed gaps (missing archive days) observed so far.
    pub gaps: u64,
    /// MRT records ingested (lifetime, survives restarts).
    pub records: u64,
    /// Monitor shard count the events were generated with. Shard
    /// routing and per-shard sequence numbers depend on it, so a
    /// resumed feed must run the same count — a mismatch is refused
    /// rather than silently double-counting.
    pub shards: u32,
    /// Collector id this cursor belongs to (0 for a single
    /// follower).
    pub collector: u32,
}

impl FeedCursor {
    /// Serializes to the single-line v2 on-disk format, CRC-trailed.
    fn render_v2(&self) -> String {
        let payload = format!(
            "{CURSOR_MAGIC_V2} collector={} file={} offset={} next_day={} files_done={} gaps={} records={} shards={}",
            self.collector,
            if self.file.is_empty() { "-" } else { &self.file },
            self.offset,
            self.next_day,
            self.files_done,
            self.gaps,
            self.records,
            self.shards,
        );
        format!("{payload} crc={:08x}\n", crc32(payload.as_bytes()))
    }

    /// Parses either on-disk format, verifying magic and CRC.
    /// Returns the cursor and whether it was the read-only v1 format.
    fn parse(text: &str) -> Result<(FeedCursor, bool), String> {
        let line = text.trim_end();
        let (payload, crc_field) = line
            .rsplit_once(" crc=")
            .ok_or_else(|| "missing crc field".to_string())?;
        let stored = u32::from_str_radix(crc_field, 16).map_err(|_| "bad crc hex".to_string())?;
        if crc32(payload.as_bytes()) != stored {
            return Err("crc mismatch".to_string());
        }
        let mut parts = payload.split(' ');
        let v1 = match parts.next() {
            Some(m) if m == CURSOR_MAGIC => true,
            Some(m) if m == CURSOR_MAGIC_V2 => false,
            _ => return Err("bad magic".to_string()),
        };
        let mut cursor = FeedCursor::default();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad field {part:?}"))?;
            let num = || v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
            match k {
                "file" => {
                    cursor.file = if v == "-" {
                        String::new()
                    } else {
                        v.to_string()
                    }
                }
                "offset" => cursor.offset = num()?,
                "next_day" => cursor.next_day = num()? as u32,
                "files_done" => cursor.files_done = num()?,
                "gaps" => cursor.gaps = num()?,
                "records" => cursor.records = num()?,
                "shards" => cursor.shards = num()? as u32,
                "collector" if !v1 => cursor.collector = num()? as u32,
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok((cursor, v1))
    }

    /// Persists this one cursor atomically: stage (write + fsync the
    /// tmp file), then rename into place.
    pub fn persist(&self, dir: &Path) -> io::Result<()> {
        self.stage_v2(dir)?.commit()
    }

    /// Stage one v2 cursor for an atomic multi-cursor swap: the tmp
    /// file is written and fsynced, but not yet renamed into place.
    /// A federation stages every collector's cursor first and only
    /// then commits them all — no rename happens until every write
    /// has safely hit disk.
    pub fn stage_v2(&self, dir: &Path) -> io::Result<CursorStage> {
        let name = cursor_name(self.collector);
        let tmp = dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, self.render_v2())?;
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        drop(f);
        Ok(CursorStage {
            tmp,
            dest: dir.join(name),
        })
    }

    /// Loads collector 0's cursor if one exists. `Ok(None)` when no
    /// cursor was ever persisted (a fresh feed); a corrupt cursor is an
    /// error — resuming from a guessed position could double-count,
    /// so the caller must decide (typically: fail loudly).
    pub fn load(dir: &Path) -> io::Result<Option<FeedCursor>> {
        FeedCursor::load_for(dir, 0).map(|found| found.map(|(cursor, _)| cursor))
    }

    /// Loads collector `id`'s cursor if one exists, reporting whether
    /// it was the v1 format (only possible for collector 0, whose file
    /// name the v1 format used). A v2 cursor recorded for a different collector id
    /// is refused — the store was laid out for another topology.
    pub fn load_for(dir: &Path, id: u32) -> io::Result<Option<(FeedCursor, bool)>> {
        let path = dir.join(cursor_name(id));
        let bad =
            |why: String| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {why}"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let (mut cursor, v1) = FeedCursor::parse(&text).map_err(bad)?;
        if v1 {
            // A v1 cursor carries no id: it is collector 0's by
            // definition (the file name proves it).
            cursor.collector = 0;
        } else if cursor.collector != id {
            return Err(bad(format!(
                "cursor belongs to collector {}, expected {id}",
                cursor.collector
            )));
        }
        Ok(Some((cursor, v1)))
    }
}

/// A staged (written + fsynced, not yet renamed) v2 cursor — see
/// [`FeedCursor::stage_v2`].
#[derive(Debug)]
pub struct CursorStage {
    tmp: std::path::PathBuf,
    dest: std::path::PathBuf,
}

impl CursorStage {
    /// Renames the staged cursor into place (atomic per cursor).
    pub fn commit(self) -> io::Result<()> {
        std::fs::rename(&self.tmp, &self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moas-feed-cursor-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrips_and_survives_reload() {
        let dir = tmpdir("roundtrip");
        assert_eq!(FeedCursor::load(&dir).unwrap(), None);
        let cursor = FeedCursor {
            file: "updates.20010101.0000.mrt".into(),
            offset: 4_242,
            next_day: 3,
            files_done: 2,
            gaps: 1,
            records: 917,
            shards: 4,
            collector: 0,
        };
        cursor.persist(&dir).unwrap();
        assert_eq!(FeedCursor::load(&dir).unwrap(), Some(cursor.clone()));
        // Overwrite is atomic and total.
        let later = FeedCursor {
            offset: 9_000,
            ..cursor
        };
        later.persist(&dir).unwrap();
        assert_eq!(FeedCursor::load(&dir).unwrap(), Some(later));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_roundtrips_per_collector_and_migrates_v1_in_place() {
        let dir = tmpdir("v2");
        let mut cursor = FeedCursor {
            file: "updates.20010102.0000.mrt".into(),
            offset: 128,
            next_day: 1,
            files_done: 1,
            gaps: 0,
            records: 40,
            shards: 4,
            collector: 2,
        };
        cursor.stage_v2(&dir).unwrap().commit().unwrap();
        assert_eq!(
            FeedCursor::load_for(&dir, 2).unwrap(),
            Some((cursor.clone(), false))
        );
        // A cursor claiming another collector's id is refused.
        assert!(FeedCursor::load_for(&dir, 0).unwrap().is_none());
        std::fs::rename(dir.join("FEED_CURSOR.2"), dir.join("FEED_CURSOR.3")).unwrap();
        assert!(FeedCursor::load_for(&dir, 3).is_err());

        // A v1 cursor at the legacy name, as older builds wrote it, is
        // adopted as collector 0's (and flagged); rewriting it lands
        // as v2.
        cursor.collector = 0;
        let v1 = "MFCUR001 file=updates.20010102.0000.mrt offset=128 next_day=1 \
                  files_done=1 gaps=0 records=40 shards=4";
        let legacy = format!("{v1} crc={:08x}\n", crc32(v1.as_bytes()));
        std::fs::write(dir.join(CURSOR_NAME), legacy).unwrap();
        let (loaded, was_v1) = FeedCursor::load_for(&dir, 0).unwrap().unwrap();
        assert!(was_v1);
        assert_eq!(loaded, cursor);
        loaded.stage_v2(&dir).unwrap().commit().unwrap();
        let (migrated, was_v1) = FeedCursor::load_for(&dir, 0).unwrap().unwrap();
        assert!(!was_v1, "rewrite must land in the v2 format");
        assert_eq!(migrated, cursor);
        // The legacy loader still reads the v2 file (same position).
        assert_eq!(FeedCursor::load(&dir).unwrap(), Some(cursor));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cursor_is_an_error_not_a_guess() {
        let dir = tmpdir("corrupt");
        let cursor = FeedCursor::default();
        cursor.persist(&dir).unwrap();
        let path = dir.join(CURSOR_NAME);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with(CURSOR_MAGIC_V2));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("offset=0", "offset=7");
        std::fs::write(&path, text).unwrap();
        assert!(FeedCursor::load(&dir).is_err(), "crc must catch the edit");
        std::fs::remove_dir_all(&dir).ok();
    }
}
