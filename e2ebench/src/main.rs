//! End-to-end benchmark of the MOAS pipeline: MRT archive on disk →
//! decode → sharded monitor → history epochs → `/v1` over loopback.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bootstrap --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `bootstrap`, `follow`, `serve` (`BENCHMARK.json` names
//! the first and last and why each exists). The parent process generates (or reuses) the
//! seed's inputs, then runs repetitions, each in a fresh child process
//! so memory and first-run effects are taken fresh, until `--seconds`
//! have passed. It prints every metric with its unit, the oracle
//! verdicts and the operation counts, and as its last line one JSON
//! object: the medians over repetitions of the end-to-end metrics
//! (`--trace 0`), or of the per-layer metrics from a traced repetition
//! (`--trace 1`). `--size toy` runs a seconds-long miniature.

mod bootstrap;
mod client;
mod common;
mod follow;
mod ingest;
mod inputs;
mod layers;
mod load;
mod meta;
mod oracle;
mod serve;
mod stats;
mod trace;

use common::Report;
use load::{Paced, Rung};
use meta::Meta;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Input size: the benchmark's real one, or a miniature for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Toy => "toy",
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["bootstrap", "follow", "serve"];

/// The ladder `bootstrap` and `follow` probe their store with after
/// the live part, requests/s across two clients. Their stores answer
/// the live mix almost entirely from the response cache, so the
/// server saturates only near 50k req/s, where throughput is bound by
/// loopback syscalls and context switches: a saturating top rung
/// (80k req/s) spread by 19% and 30% over two ten-seed sets of
/// unchanged code. So the ladder tops out at `serve`'s top rate: an
/// unchanged program sustains it, and `serve_max_rps` falls only once
/// the read path can no longer carry 90% of it. `serve` measures the
/// capacity itself.
pub const SHORT_LADDER: [f64; 3] = [4_000.0, 8_000.0, 16_000.0];

/// Every end-to-end metric and its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ingest_updates_per_s", "updates/s"),
    ("ingest_mb_per_s", "MB/s"),
    ("restart_s", "s"),
    ("rss_growth_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("serve_max_rps", "req/s"),
];

/// Percentiles printed beside the end-to-end metrics but left out of
/// the result line: across ten runs of unchanged code on the 2-core
/// reference VM they spread by more than any bound of at most 25%
/// (see README.md).
const UNGATED: [(&str, &str, f64); 3] = [
    ("freshness_ms", "freshness_p50_ms", 0.5),
    ("freshness_ms", "freshness_p90_ms", 0.9),
    ("query_ms", "query_p90_ms", 0.9),
];

/// Every per-layer metric and its unit, in the order printed.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("mrt.decode_ns_per_record", "ns"),
        ("mrt.records", "count"),
        ("mrt.bytes", "bytes"),
        ("mrt.records_skipped", "count"),
        ("monitor.apply_ns_per_update", "ns"),
        ("monitor.apply_ns_per_update_1shard", "ns"),
        ("monitor.mark_day_us", "us"),
        ("monitor.bytes_per_route", "bytes"),
        ("monitor.updates_applied", "count"),
        ("monitor.events_emitted", "count"),
        ("monitor.spurious_withdrawals", "count"),
        ("history.append_ns_per_event", "ns"),
        ("history.mark_day_us", "us"),
        ("history.checkpoint_us", "us"),
        ("history.bytes_per_event", "bytes"),
        ("history.segments_written", "count"),
        ("history.epochs_published", "count"),
        ("history.open_s", "s"),
        ("history.snapshot_us", "us"),
        ("history.validity_report_us", "us"),
        ("history.validity_of_us", "us"),
        ("feed.poll_busy_s", "s"),
        ("feed.resume_s", "s"),
        ("feed.unattributed_share", "ratio"),
        ("feed.dedup_ratio", "ratio"),
        ("feed.backlog_files_max", "count"),
        ("feed.polls", "count"),
        ("feed.files_closed", "count"),
        ("feed.days_marked", "count"),
        ("feed.records_released", "count"),
        ("feed.records_deduped", "count"),
        ("server.respond_us.prefix", "us"),
        ("server.respond_us.stats", "us"),
        ("server.respond_us.validity", "us"),
        ("server.respond_us.conflicts", "us"),
        ("server.wire_us", "us"),
        ("server.cache_hit_ratio", "ratio"),
        ("server.requests", "count"),
        ("server.rejected", "count"),
        ("gen.late_ms_p99", "ms"),
        ("gen.late_ms_max", "ms"),
        ("gen.input_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in layers::STAGES {
        out.push((format!("stage.{stage}_s"), "s"));
    }
    out.push(("stage.coverage".to_string(), "ratio"));
    out.push(("trace.overhead_share".to_string(), "ratio"));
    out
}

/// What a repetition child is handed.
pub struct Ctx {
    pub seed: u64,
    pub input: PathBuf,
    pub meta: Meta,
    pub run_dir: PathBuf,
}

/// Query latency (`fixed`: due-time latencies at the workload's fixed
/// rate, in ms), the ladder's capacity, the operations of the ladder
/// and of `others`, and how late every generator ran.
pub fn report_queries(
    report: &mut Report,
    fixed: &[f64],
    rungs: &[Rung],
    others: &[&Paced],
    late_ms: &[f64],
) {
    let mut late: Vec<f64> = late_ms.to_vec();
    for p in others.iter().copied().chain(rungs.iter().map(|r| &r.paced)) {
        report.ops(p.attempted(), p.failed, "paced queries");
        late.extend(&p.late_ms);
    }
    report.sample("query_ms", fixed);
    report.set("query_p50_ms", stats::quantile(fixed, 0.5).unwrap_or(0.0));
    report.set("serve_max_rps", load::max_rate(rungs));
    report.set(
        "gen.late_ms_p99",
        stats::quantile(&late, 0.99).unwrap_or(0.0),
    );
    report.set("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
}

/// The workload server's cache hit ratio, requests and rejections.
pub fn report_server(report: &mut Report, stats: &moas_serve::ServerStats) {
    let c = stats.cache;
    report.set(
        "server.cache_hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    report.set("server.requests", stats.requests as f64);
    report.set(
        "server.rejected",
        (stats.connections_rejected + stats.responses_server_error) as f64,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Set in a repetition child: its scratch directory.
    run_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
        run_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "toy" => Size::Toy,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--run-dir" => args.run_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Where inputs, repetition scratch and span dumps live: beside this
/// package, inside the checkout being measured.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.run_dir {
        Some(dir) => child(&args, dir.clone()),
        None => parent(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn input(args: &Args) -> std::io::Result<(PathBuf, Meta)> {
    let work = work_dir();
    match args.workload.as_str() {
        "bootstrap" => inputs::bootstrap(&work, args.size, args.seed),
        "follow" => inputs::follow(&work, args.size, args.seed),
        _ => inputs::serve(&work, args.size, args.seed),
    }
}

/// One repetition, in a fresh process: prints its report lines.
fn child(args: &Args, run_dir: PathBuf) -> std::io::Result<ExitCode> {
    if args.trace {
        trace::enable();
    }
    let (input, meta) = input(args)?;
    std::fs::remove_dir_all(&run_dir).ok();
    std::fs::create_dir_all(&run_dir)?;
    let ctx = Ctx {
        seed: args.seed,
        input,
        meta,
        run_dir: run_dir.clone(),
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "bootstrap" => bootstrap::run(&ctx, &mut report),
        "follow" => follow::run(&ctx, &mut report),
        _ => serve::run(&ctx, &mut report),
    };
    if let Err(e) = &outcome {
        report.op(false, || format!("I/O error: {e}"));
    }
    if args.trace {
        report.set("feed.resume_s", trace::mean_s("feed.resume"));
        layers::unattributed_share(&mut report);
        report.set("gen.input_s", ctx.meta.get("gen_s"));
        let run = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
        let spans = work_dir().join("spans").join(format!("{run}.jsonl"));
        trace::write(&spans, &run)?;
        eprint!("{}", trace::summary());
        eprintln!("spans written to {}", spans.display());
    }
    std::fs::remove_dir_all(&run_dir).ok();
    print!("{}", report.render());
    Ok(if outcome.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A repetition's parsed report.
#[derive(Default)]
struct Rep {
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run_rep(args: &Args, trace: bool, index: usize) -> std::io::Result<Rep> {
    let run_dir = work_dir()
        .join("runs")
        .join(format!("{}-{}", std::process::id(), index));
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--size",
            args.size.name(),
            "--trace",
            if trace { "1" } else { "0" },
            "--run-dir",
        ])
        .arg(&run_dir)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    std::fs::remove_dir_all(&run_dir).ok();
    let mut rep = Rep::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("m"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse() {
                    rep.metrics.insert(name.to_string(), v);
                }
            }
            (Some("s"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse() {
                    rep.samples.entry(name.to_string()).or_default().push(v);
                }
            }
            (Some("attempted"), Some(n), None) => rep.attempted = n.parse().unwrap_or(0),
            (Some("failed"), Some(n), None) => rep.failed = n.parse().unwrap_or(0),
            (Some("fail"), _, _) => rep.failures.push(line[5..].to_string()),
            _ => {}
        }
    }
    if !output.status.success() {
        rep.failed += 1;
        rep.attempted += 1;
        rep.failures
            .push(format!("repetition {index} exited with {}", output.status));
    }
    Ok(rep)
}

fn parent(args: &Args) -> std::io::Result<ExitCode> {
    let began = Instant::now();
    let (_, meta) = input(args)?;
    eprintln!(
        "{} seed {}: inputs ready in {:.1} s (generated in {:.1} s)",
        args.workload,
        args.seed,
        began.elapsed().as_secs_f64(),
        meta.get("gen_s")
    );
    let mut reps = Vec::new();
    if args.trace {
        // One untraced and one traced repetition: the traced one gives
        // the per-layer figures, the pair gives the tracing overhead.
        reps.push(run_rep(args, false, 0)?);
        reps.push(run_rep(args, true, 1)?);
    } else {
        for i in 0..repetitions(args) {
            reps.push(run_rep(args, false, i)?);
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    for (i, r) in reps.iter().enumerate() {
        for f in &r.failures {
            println!("oracle/op failure (repetition {i}): {f}");
        }
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let source: Vec<&Rep> = if args.trace {
        vec![&reps[1]]
    } else {
        reps.iter().collect()
    };
    let mut values = BTreeMap::new();
    for (name, unit) in &wanted {
        let samples: Vec<f64> = source
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        let value = match name.as_str() {
            "trace.overhead_share" => overhead_share(args, &reps[0], &reps[1]),
            "query_p50_ms" => pooled(&source, "query_ms", 0.5),
            _ => stats::median(&samples),
        };
        match value {
            Some(v) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                values.insert(name.clone(), (v, *unit));
            }
            _ => {
                eprintln!("e2ebench: metric {name} was not measured");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if !args.trace {
        for (sample, name, q) in UNGATED {
            if let Some(v) = pooled(&source, sample, q) {
                println!("{name} = {v} ms (not in the result line)");
            }
        }
    }
    println!(
        "oracles and operations: {attempted} attempted, {failed} failed over {} repetition(s)",
        reps.len()
    );
    let metrics: Vec<String> = values
        .iter()
        .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// The `q`-quantile of `sample` pooled over every repetition.
fn pooled(reps: &[&Rep], sample: &str, q: f64) -> Option<f64> {
    let all: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.samples.get(sample).into_iter().flatten().copied())
        .collect();
    stats::quantile(&all, q)
}

/// Repetitions a `--seconds` run makes: the measured time divided by
/// a per-workload share, at least one — three repetitions of
/// `bootstrap` and two of `follow` and `serve` at the benchmark's
/// 15 s, so that a full schedule of ten-run sets, input generation
/// included, fits within an hour on the 2-core reference VM. Fixed
/// per (workload, seconds), so every run of a benchmark configuration
/// pools the same number of repetitions.
fn repetitions(args: &Args) -> usize {
    let share = match (args.workload.as_str(), args.size) {
        (_, Size::Toy) => 1.0,
        ("bootstrap", _) => 5.0,
        _ => 7.5,
    };
    ((args.seconds / share).round() as usize).max(1)
}

/// How much slower the traced repetition ran on the workload's primary
/// metric, as a share of the untraced value.
fn overhead_share(args: &Args, untraced: &Rep, traced: &Rep) -> Option<f64> {
    let (name, higher_is_better) = match args.workload.as_str() {
        "serve" => ("query_p50_ms", false),
        _ => ("ingest_updates_per_s", true),
    };
    let (u, t) = (*untraced.metrics.get(name)?, *traced.metrics.get(name)?);
    Some(if higher_is_better {
        u / t - 1.0
    } else {
        t / u - 1.0
    })
}
