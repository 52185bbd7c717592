//! Open-loop load: schedules that keep their pace when the system
//! stalls, the query clients and the rate ladder built on them.
//!
//! An open-loop generator acts at `start + i * interval` whatever the
//! previous action cost. When an action overruns, the next ones start
//! late rather than being skipped or re-spaced, and every latency is
//! timed from the action's due time, so a stall is charged to every
//! request queued behind it. How late the generator ran is reported
//! (`gen.late_ms_*`), so an unsustainable rate is visible.

use crate::client::Conn;
use crate::stats::quantile;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one open-loop schedule did.
#[derive(Debug, Default, Clone)]
pub struct Paced {
    /// Due time to completion, per action, in ms.
    pub latency_ms: Vec<f64>,
    /// Due time to start, per action, in ms.
    pub late_ms: Vec<f64>,
    /// Actions whose outcome was wrong or failed.
    pub failed: u64,
    /// Seconds from the schedule's start to its last completion.
    pub elapsed_s: f64,
}

impl Paced {
    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    pub fn merge(&mut self, other: Paced) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Correct actions completed per second of the schedule.
    pub fn throughput(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.elapsed_s.max(1e-9)
    }

    /// Largest lateness among the last quarter of actions: a backlog
    /// that is still growing when the schedule ends shows here.
    pub fn final_late_ms(&self) -> f64 {
        let tail = &self.late_ms[self.late_ms.len() * 3 / 4..];
        tail.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs `action(i)` at `start + i * interval` for every due time
/// before `until`. `action` returns whether its outcome was correct.
pub fn paced(
    start: Instant,
    interval: Duration,
    until: Instant,
    mut action: impl FnMut(u64) -> bool,
) -> Paced {
    let mut out = Paced::default();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        let ok = action(i);
        let done = Instant::now();
        out.late_ms.push(ms(began.saturating_duration_since(due)));
        out.latency_ms.push(ms(done.saturating_duration_since(due)));
        if !ok {
            out.failed += 1;
        }
        out.elapsed_s = done.saturating_duration_since(start).as_secs_f64();
    }
    out
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A small deterministic generator (SplitMix64) for request streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(1) over `keys`, ranked in a seed-dependent order.
pub struct Zipf {
    keys: Vec<String>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(mut keys: Vec<String>, rng: &mut Rng) -> Zipf {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        let mut total = 0.0;
        let cdf = (1..=keys.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect::<Vec<_>>();
        let cdf = cdf.iter().map(|c| c / total).collect();
        Zipf { keys, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> &str {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        &self.keys[i]
    }
}

/// The request mix a query client sends.
#[derive(Clone)]
pub struct Mix {
    /// Conflicted prefixes `/v1/prefix/{p}` draws from.
    pub prefixes: Vec<String>,
    /// Dates `/v1/conflicts` cursor crawls start from.
    pub dates: Vec<String>,
    /// Cumulative shares of prefix, stats, validity, conflicts and
    /// conditional requests (the last share takes the rest).
    pub shares: [f64; 4],
    /// The `ETag` conditional requests replay (a 304 is expected; the
    /// store must not change while they run).
    pub etag: Option<(String, String)>,
}

impl Mix {
    /// `serve`'s mix: 60% prefix, 15% stats, 10% validity, 10%
    /// conflicts cursor crawl, 5% `If-None-Match`.
    pub fn serve(prefixes: Vec<String>, dates: Vec<String>, etag: (String, String)) -> Mix {
        Mix {
            prefixes,
            dates,
            shares: [0.60, 0.75, 0.85, 0.95],
            etag: Some(etag),
        }
    }

    /// The mix queried beside live ingest: a third each of stats,
    /// prefix and validity (no conditional requests — the epoch moves).
    pub fn live(prefixes: Vec<String>) -> Mix {
        Mix {
            prefixes,
            dates: Vec::new(),
            shares: [1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0],
            etag: None,
        }
    }
}

/// One open-loop client on one keep-alive connection at `rate`
/// requests/s from `start` until `until`. A request is failed on an
/// I/O error or an unexpected status.
pub fn query_client(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    rate: f64,
    start: Instant,
    until: Instant,
) -> Paced {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            return Paced {
                latency_ms: vec![0.0],
                late_ms: vec![0.0],
                failed: 1,
                elapsed_s: 0.0,
            }
        }
    };
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(mix.prefixes.clone(), &mut rng);
    let mut crawl: Option<(String, Option<String>)> = None;
    paced(start, Duration::from_secs_f64(1.0 / rate), until, |_| {
        let u = rng.unit();
        let (target, tag, expect) = if u < mix.shares[0] {
            (format!("/v1/prefix/{}", zipf.sample(&mut rng)), None, 200)
        } else if u < mix.shares[1] {
            ("/v1/stats".to_string(), None, 200)
        } else if u < mix.shares[2] {
            ("/v1/validity?limit=0".to_string(), None, 200)
        } else if u < mix.shares[3] {
            let (date, cursor) = crawl
                .take()
                .unwrap_or_else(|| (mix.dates[rng.below(mix.dates.len())].clone(), None));
            let mut target = format!("/v1/conflicts?date={date}&limit=100");
            if let Some(c) = &cursor {
                target.push_str(&format!("&cursor={c}"));
            }
            crawl = Some((date, None));
            (target, None, 200)
        } else {
            let (target, tag) = mix.etag.clone().expect("conditional share needs an etag");
            (target, Some(tag), 304)
        };
        match conn.get(&target, tag.as_deref()) {
            Ok(answer) => {
                if target.starts_with("/v1/conflicts") {
                    let next = answer
                        .json()
                        .and_then(|v| v.get("next_cursor")?.as_str().map(str::to_string));
                    match (next, crawl.as_mut()) {
                        (Some(next), Some(c)) => c.1 = Some(next),
                        _ => crawl = None,
                    }
                }
                answer.status == expect
            }
            Err(_) => false,
        }
    })
}

/// One rung of a rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub paced: Paced,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Drives `clients` open-loop clients (one connection each) at each
/// total rate of `rates` in turn, `step` per rung. Stops after the
/// first saturated rung — one that completed under 90% of the rate it
/// offered, so its throughput is the capacity — or a failed request.
pub fn ladder(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    clients: usize,
    rates: &[f64],
    step: Duration,
) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for (r, &rate) in rates.iter().enumerate() {
        let start = Instant::now() + Duration::from_millis(20);
        let until = start + step;
        let paced = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let seed = seed ^ ((r * clients + c) as u64) << 32;
                    scope.spawn(move || {
                        query_client(addr, mix, seed, rate / clients as f64, start, until)
                    })
                })
                .collect();
            let mut all = Paced::default();
            for h in handles {
                all.merge(h.join().expect("query client panicked"));
            }
            all
        });
        let rung = Rung::new(rate, paced);
        eprintln!(
            "ladder rung {rate} req/s: {} requests, {:.0} req/s done, p50 {:.3} ms, p90 {:.3} ms, end lateness {:.3} ms, {} failed",
            rung.paced.attempted(),
            rung.paced.throughput(),
            rung.p50_ms,
            rung.p90_ms,
            rung.paced.final_late_ms(),
            rung.paced.failed
        );
        let saturated = rung.paced.throughput() < 0.9 * rate || rung.paced.failed > 0;
        rungs.push(rung);
        if saturated {
            break;
        }
    }
    rungs
}

impl Rung {
    pub fn new(rate: f64, paced: Paced) -> Rung {
        let p50_ms = quantile(&paced.latency_ms, 0.5).unwrap_or(f64::INFINITY);
        let p90_ms = quantile(&paced.latency_ms, 0.9).unwrap_or(f64::INFINITY);
        Rung {
            rate,
            paced,
            p50_ms,
            p90_ms,
        }
    }
}

/// The highest throughput the ladder reached: correct responses per
/// second over each rung, from its start to its last response. Below
/// capacity a rung completes what it offers; past it, what the system
/// can do.
pub fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .map(|r| r.paced.throughput())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately slow sink: every action during a 150 ms window
    /// blocks for 40 ms while the schedule asks for one every 5 ms.
    /// The generator must keep its schedule — the same number of
    /// actions as an unstalled run, each timed from its due time — so
    /// the stall shows as lateness and latency, not as lost load.
    #[test]
    fn open_loop_keeps_schedule_through_a_stall() {
        let interval = Duration::from_millis(5);
        let run = Duration::from_millis(600);
        let start = Instant::now() + Duration::from_millis(5);
        let until = start + run;
        let stall_from = start + Duration::from_millis(100);
        let stall_to = stall_from + Duration::from_millis(150);
        let paced = paced(start, interval, until, |_| {
            let now = Instant::now();
            if now >= stall_from && now < stall_to {
                std::thread::sleep(Duration::from_millis(40));
            }
            true
        });
        // Every due time before `until` was served: 600 / 5 = 120.
        assert_eq!(paced.attempted(), 120);
        // The stall is charged to the requests queued behind it.
        let worst_late = paced.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(worst_late >= 100.0, "worst lateness {worst_late} ms");
        let worst_latency = paced.latency_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            worst_latency >= worst_late,
            "latency counts from the due time"
        );
        // A closed loop would have issued far fewer in the same time.
        let closed_loop_bound = (run.as_millis() / 5 - 150 / 5 + 150 / 40) as u64;
        assert!(paced.attempted() > closed_loop_bound);
    }

    #[test]
    fn max_rate_is_the_best_rung_throughput() {
        let rung = |rate: f64, n: usize, elapsed_s: f64| Rung {
            rate,
            paced: Paced {
                latency_ms: vec![1.0; n],
                late_ms: vec![0.0; n],
                failed: 0,
                elapsed_s,
            },
            p50_ms: 1.0,
            p90_ms: 1.0,
        };
        // 100 req/s offered and done; 400 offered, 250 done.
        let rungs = [rung(100.0, 100, 1.0), rung(400.0, 400, 1.6)];
        assert!((max_rate(&rungs) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(7);
        let keys: Vec<String> = (0..1000).map(|i| i.to_string()).collect();
        let zipf = Zipf::new(keys, &mut rng);
        let top = zipf.keys[0].clone();
        let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) == top).count();
        // Rank 1 of Zipf(1) over 1000 keys draws ~13%.
        assert!((1_000..1_700).contains(&hits), "{hits}");
    }
}
