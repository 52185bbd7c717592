//! Deterministic, cached benchmark inputs.
//!
//! Every archive and store is a pure function of (workload, size,
//! seed). It is generated once into `work/inputs/<key>/` behind a
//! `DONE` marker (written last, after an atomic rename of the whole
//! directory), so an interrupted generation is never reused and a
//! second run with the same seed pays nothing. What the program under
//! test writes itself — `serve`'s store, `follow`'s oracle fold — is
//! keyed by a hash of the program's sources as well ([`program_hash`]),
//! so two commits measured from one checkout never share it.
//! Generation time is reported as `gen.input_s` and never counted in
//! `setup_s`.

use crate::meta::Meta;
use crate::Size;
use moas_bgp::message::BgpMessage;
use moas_bgp::TableSnapshot;
use moas_core::detect::detect;
use moas_feed::{Federation, FederationConfig};
use moas_history::{HistoryService, ServiceConfig};
use moas_lab::study::{Study, StudyConfig};
use moas_monitor::{MonitorConfig, MonitorEngine};
use moas_mrt::record::{MrtBody, MrtRecord};
use moas_net::Date;
use moas_routeviews::updates::diff_snapshots;
use moas_routeviews::{
    update_file_name, BackgroundMode, Collector, SimCollectorSpec, SimFederation,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Monitor shards every workload runs at: one per core of the 2-core
/// reference box, fixed so results do not depend on the host.
pub const SHARDS: usize = 2;

/// The two vantage points `follow` and `serve` federate: identical
/// streams, the second collector's clock 30 s ahead.
pub fn collector_specs() -> Vec<SimCollectorSpec> {
    vec![
        SimCollectorSpec::new("a"),
        SimCollectorSpec::new("b").skewed(30),
    ]
}

/// Route-level updates (announced + withdrawn prefixes) in records.
pub fn update_count(records: &[MrtRecord]) -> u64 {
    records
        .iter()
        .map(|r| match &r.body {
            MrtBody::Bgp4mpMessage(m) => match &m.message {
                BgpMessage::Update(u) => (u.all_announced().len() + u.all_withdrawn().len()) as u64,
                _ => 0,
            },
            _ => 0,
        })
        .sum()
}

fn build_study(scale: f64, seed: u64, background: BackgroundMode) -> Study {
    let mut config = StudyConfig::test(scale);
    config.params.seed = seed;
    config.background = background;
    Study::build(config)
}

fn start_date(study: &Study) -> Date {
    study.world.window.all_days()[0].date()
}

/// Calls `each(idx, snapshot, records)` for window positions
/// `0..days` in order, where `records` is the BGP4MP update stream
/// leading into that day (day 0 announces the whole table from cold)
/// — the stream `SimFeed` writes. Two threads, each with its own
/// collector, synthesize alternate days ahead of the consumer.
fn day_streams(
    study: &Study,
    days: usize,
    background: BackgroundMode,
    mut each: impl FnMut(usize, &TableSnapshot, Vec<MrtRecord>) -> io::Result<()>,
) -> io::Result<()> {
    const THREADS: usize = 2;
    std::thread::scope(|scope| {
        let feeds: Vec<_> = (0..THREADS)
            .map(|t| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<TableSnapshot>(2);
                scope.spawn(move || {
                    let mut collector = Collector::new(&study.world, &study.peers);
                    for idx in (t..days).step_by(THREADS) {
                        if tx.send(collector.snapshot_at(idx, background)).is_err() {
                            return;
                        }
                    }
                });
                rx
            })
            .collect();
        let mut prev: Option<TableSnapshot> = None;
        for idx in 0..days {
            let snapshot = feeds[idx % THREADS]
                .recv()
                .map_err(|_| io::Error::other("snapshot thread stopped"))?;
            let empty = TableSnapshot::new(snapshot.date);
            let records = diff_snapshots(prev.as_ref().unwrap_or(&empty), &snapshot);
            each(idx, &snapshot, records)?;
            prev = Some(snapshot);
        }
        Ok(())
    })
}

/// Returns the input directory for `key`, generating it first if no
/// complete copy is cached.
fn cached(
    work: &Path,
    key: &str,
    generate: impl FnOnce(&Path, &mut Meta) -> io::Result<()>,
) -> io::Result<(PathBuf, Meta)> {
    let dir = work.join("inputs").join(key);
    if dir.join("DONE").exists() {
        return Ok((dir.clone(), Meta::load(&dir.join("meta.txt"))?));
    }
    let tmp = work
        .join("inputs")
        .join(format!(".{key}.tmp{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp)?;
    let started = Instant::now();
    let mut meta = Meta::default();
    if let Err(e) = generate(&tmp, &mut meta) {
        std::fs::remove_dir_all(&tmp).ok();
        return Err(e);
    }
    meta.set("gen_s", started.elapsed().as_secs_f64());
    meta.save(&tmp.join("meta.txt"))?;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::rename(&tmp, &dir)?;
    std::fs::write(dir.join("DONE"), b"")?;
    Ok((dir, meta))
}

/// FNV-1a over the program's sources — every `.rs`, `.toml` and
/// `.lock` file of the root package and the workspace crates, with
/// its path — as 16 hex digits.
pub fn program_hash() -> io::Result<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out)?;
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
        Ok(())
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files)?;
    walk(&root.join("crates"), &mut files)?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let name = file.strip_prefix(&root).unwrap_or(file).to_string_lossy();
        for b in name.bytes().chain(std::fs::read(file)?) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{h:016x}"))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// `bootstrap`: a full-table cold start (day 0 announces every route
/// of every session, `BackgroundMode::Full`), two daily diff files,
/// then [`QUIET_DAYS`] days without updates (empty files) — each still
/// a day mark over the full-table state when it lands. One BGP4MP
/// update file per day under `archive/`. The oracle is
/// `moas_core::detect` over the last table: its conflicted prefixes,
/// one per line, in `oracle.txt`.
pub fn bootstrap(work: &Path, size: Size, seed: u64) -> io::Result<(PathBuf, Meta)> {
    let (scale, days) = match size {
        Size::Full => (0.9, 3),
        Size::Toy => (0.02, 3),
    };
    let key = format!("bootstrap-{scale}-{days}+{QUIET_DAYS}-{seed}");
    cached(work, &key, |dir, meta| {
        let study = build_study(scale, seed, BackgroundMode::Full);
        let archive = dir.join("archive");
        std::fs::create_dir_all(&archive)?;
        day_streams(
            &study,
            days,
            BackgroundMode::Full,
            |idx, snapshot, records| {
                let mut encoded = Vec::new();
                for rec in &records {
                    encoded.extend_from_slice(&rec.encode());
                }
                write_atomic(&archive.join(update_file_name(snapshot.date, 0)), &encoded)?;
                meta.set(&format!("updates.{idx}"), update_count(&records) as f64);
                meta.set(&format!("bytes.{idx}"), encoded.len() as f64);
                if idx + 1 == days {
                    let observed = detect(snapshot);
                    let mut oracle: Vec<String> = observed
                        .conflicts
                        .iter()
                        .map(|c| c.prefix.to_string())
                        .collect();
                    oracle.sort();
                    std::fs::write(dir.join("oracle.txt"), oracle.join("\n"))?;
                    meta.set("routes", observed.total_routes as f64);
                    meta.set("conflicts", observed.conflicts.len() as f64);
                }
                Ok(())
            },
        )?;
        for idx in days..days + QUIET_DAYS {
            let date = study.world.window.day_at(idx).date();
            write_atomic(&archive.join(update_file_name(date, 0)), &[])?;
        }
        meta.set("start_day", start_date(&study).day_index().0 as f64);
        meta.set("days", (days + QUIET_DAYS) as f64);
        Ok(())
    })
}

/// Days without updates that follow `bootstrap`'s diffs.
pub const QUIET_DAYS: usize = 8;

/// `follow`: two identical collectors (clocks 30 s apart) over a small
/// world with `Sample` background — `backlog` days to catch up on,
/// then `live` days the run lands one at a time. All days live under
/// `all/<collector>/`; each run hard-links them into its own archive.
/// The oracle is a single-collector fold over collector `a`: a digest
/// of every conflict record with corroboration left out. The program
/// under test folds it, so it is cached apart, keyed by
/// [`program_hash`] too.
pub fn follow(work: &Path, size: Size, seed: u64) -> io::Result<(PathBuf, Meta)> {
    let (scale, backlog, live) = match size {
        Size::Full => (0.1, 300, 100),
        Size::Toy => (0.02, 20, 12),
    };
    let key = format!("follow-{scale}-{backlog}+{live}-{seed}");
    let (dir, mut meta) = cached(work, &key, |dir, meta| {
        let study = build_study(scale, seed, BackgroundMode::Sample(20));
        let all = dir.join("all");
        let mut collector = Collector::new(&study.world, &study.peers);
        let mut sim = SimFederation::new(
            &mut collector,
            &all,
            0,
            backlog + live,
            BackgroundMode::Sample(20),
            collector_specs(),
        )?;
        let (mut updates, mut bytes) = (0u64, 0u64);
        while let Some(day) = sim.append_day()? {
            if day.idx >= backlog {
                continue;
            }
            for (path, _) in day.collectors.iter().flatten() {
                let pass = moas_feed::FileTailer::open(path, 0).poll()?;
                updates += update_count(&pass.records);
                bytes += pass.bytes_read;
            }
        }
        meta.set("start_day", start_date(&study).day_index().0 as f64);
        meta.set("backlog", backlog as f64);
        meta.set("live", live as f64);
        meta.set("updates", updates as f64);
        meta.set("bytes", bytes as f64);
        Ok(())
    })?;
    let start = crate::common::date_of(meta.get("start_day"));
    let oracle_key = format!("{key}-oracle-{}", program_hash()?);
    let (_, oracle) = cached(work, &oracle_key, |tmp, oracle| {
        let store = tmp.join("store");
        let (digest, records) = single_fold_digest(&dir.join("all").join("a"), &store, start)?;
        std::fs::remove_dir_all(&store)?;
        oracle.set("oracle_digest", digest as f64);
        oracle.set("oracle_records", records as f64);
        Ok(())
    })?;
    meta.set("gen_s", meta.get("gen_s") + oracle.get("gen_s"));
    meta.set("oracle_digest", oracle.get("oracle_digest"));
    meta.set("oracle_records", oracle.get("oracle_records"));
    Ok((dir, meta))
}

fn single_fold_digest(archive: &Path, store: &Path, start: Date) -> io::Result<(u32, usize)> {
    let service = Arc::new(HistoryService::open(store, service_config(start))?);
    let config = FederationConfig {
        monitor: MonitorConfig::with_shards(SHARDS),
        ..FederationConfig::new(start)
    }
    .collector("a", archive);
    let mut fed = Federation::open(config, Arc::clone(&service))?;
    while !fed.poll_once()?.caught_up {}
    fed.finalize()?;
    fed.shutdown()?;
    let digest = crate::oracle::conflict_digest(&service.reader().snapshot());
    close(service)?;
    Ok(digest)
}

/// Closes a service whose other owners have all been dropped.
pub fn close(service: Arc<HistoryService>) -> io::Result<()> {
    Arc::try_unwrap(service)
        .map_err(|_| io::Error::other("history service still shared at close"))?
        .close()
        .map(drop)
}

/// The history-service config every workload opens with: the
/// production default (background compaction daemon on), anchored at
/// the window's first day.
pub fn service_config(start: Date) -> ServiceConfig {
    ServiceConfig {
        start_date: start,
        ..ServiceConfig::default()
    }
}

/// `serve`: a store holding the whole study window as two identical
/// collectors (clocks 30 s apart) deliver it. It is folded by the
/// calls a `Federation` makes per file — collector `a`'s records
/// ingested, collector `b`'s identical copies corroborated, events
/// committed at a checkpoint, every day position marked — without
/// the archive files, whose per-file commits would make the input
/// cost minutes. `prefixes.txt` lists every conflicted prefix (the
/// query keys). The program under test writes the store, so the key
/// includes [`program_hash`]. The last [`SAMPLE_DAYS`] days are also
/// written as both collectors' archives under `sample/`, for the
/// traced run's layer passes.
pub fn serve(work: &Path, size: Size, seed: u64) -> io::Result<(PathBuf, Meta)> {
    let (scale, days) = match size {
        Size::Full => (0.3, 1307),
        Size::Toy => (0.02, 60),
    };
    let key = format!("serve-{scale}-{days}-{seed}-{}", program_hash()?);
    cached(work, &key, |dir, meta| {
        let study = build_study(scale, seed, BackgroundMode::Sample(20));
        let days = days.min(study.world.window.all_days().len());
        let start = start_date(&study);
        let service = HistoryService::open(dir.join("store"), service_config(start))?;
        let mut engine = MonitorEngine::new(MonitorConfig {
            collectors: 2,
            ..MonitorConfig::with_shards(SHARDS)
        });
        let specs = collector_specs();
        let skew = specs[1].clock_skew_secs as u32;
        let mut next_pos = 0u32;
        day_streams(
            &study,
            days,
            BackgroundMode::Sample(20),
            |idx, snapshot, records| {
                let pos = start.days_until(&snapshot.date) as u32;
                for gap in next_pos..pos {
                    engine.mark_day(gap as usize, start.plus_days(gap as i64));
                    service.append(&engine.drain_events())?;
                    service.mark_day(gap as usize)?;
                }
                let copies: Vec<MrtRecord> = records
                    .iter()
                    .map(|rec| {
                        let mut copy = rec.clone();
                        copy.timestamp += skew;
                        copy
                    })
                    .collect();
                for rec in &records {
                    engine.ingest_record_from(0, rec);
                }
                service.append(&engine.drain_events())?;
                service.checkpoint()?;
                for rec in &copies {
                    engine.corroborate_record(1, rec);
                }
                service.append(&engine.drain_events())?;
                service.checkpoint()?;
                engine.mark_day(pos as usize, snapshot.date);
                service.append(&engine.drain_events())?;
                service.mark_day(pos as usize)?;
                next_pos = pos + 1;
                if idx + SAMPLE_DAYS >= days {
                    for (spec, stream) in specs.iter().zip([&records, &copies]) {
                        let mut encoded = Vec::new();
                        for rec in stream {
                            encoded.extend_from_slice(&rec.encode());
                        }
                        let sample = dir.join("sample").join(&spec.name);
                        std::fs::create_dir_all(&sample)?;
                        write_atomic(&sample.join(update_file_name(snapshot.date, 0)), &encoded)?;
                    }
                }
                Ok(())
            },
        )?;
        engine.finish();
        let snap = service.reader().snapshot();
        let prefixes: Vec<String> = snap
            .conflicts()
            .records()
            .keys()
            .map(|p| p.to_string())
            .collect();
        drop(snap);
        std::fs::write(dir.join("prefixes.txt"), prefixes.join("\n"))?;
        meta.set("start_day", start.day_index().0 as f64);
        meta.set("days", days as f64);
        meta.set("last_day", (next_pos - 1) as f64);
        meta.set("records", prefixes.len() as f64);
        service.close()?;
        Ok(())
    })
}

/// Days of `serve`'s window kept as archive files for its layer passes.
pub const SAMPLE_DAYS: usize = 30;
