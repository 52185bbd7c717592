//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Tracing is off unless [`enable`] was called (the `--trace 1` run);
//! then every [`span`] records name, start, end, parent and run id,
//! spans stay in memory, and [`write`] dumps them as JSON lines when
//! the repetition ends. A layer's self time is its spans' durations
//! minus the parts their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` (a plain call when tracing is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Calls, total and self nanoseconds per span name.
pub fn times() -> BTreeMap<&'static str, (u64, u64, u64)> {
    let spans = spans();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// One line per span name: calls, total and self seconds.
pub fn summary() -> String {
    times()
        .iter()
        .map(|(name, (n, total, own))| {
            format!(
                "span {name}: {n} calls, {:.6} s total, {:.6} s self\n",
                *total as f64 / 1e9,
                *own as f64 / 1e9
            )
        })
        .collect()
}

/// Total seconds spent in spans named `name`.
pub fn total_s(name: &str) -> f64 {
    times().get(name).map_or(0.0, |t| t.1 as f64 / 1e9)
}

/// Mean seconds per call of spans named `name`.
pub fn mean_s(name: &str) -> f64 {
    times()
        .get(name)
        .map_or(0.0, |t| t.1 as f64 / 1e9 / t.0.max(1) as f64)
}

/// Writes every span as one JSON object per line.
pub fn write(path: &Path, run: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans() {
        writeln!(
            out,
            "{{\"run\":\"{run}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
