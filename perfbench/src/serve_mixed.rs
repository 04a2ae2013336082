//! `serve-mixed`: small submissions against a `service::Server` on a
//! loopback port, in an open loop and then in closed-loop batches.
//!
//! Each server runs in this process with [`THREADS`] workers and a fresh
//! store. [`THREADS`] client threads send the seeded schedule at a fixed
//! offered rate; each submission's latency runs from the time it was
//! due, so a stall also charges the submissions queued behind it. Then
//! the same client threads send the schedule's first submissions
//! closed-loop to fresh servers, each batch timed for its makespan.
//! Finally every distinct spec is re-derived locally (generate, build,
//! run, emit) and every streamed body must match it byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use st_core::SimReport;
use st_sweep::{client, emit, Server, ServiceConfig, SweepPoint, SweepSpec};

use crate::common::{self, secs, Ctx, Outcome, THREADS};
use crate::host;
use crate::inputs::{self, ServeInputs, Submission};
use crate::stats::{median, percentile, window_of, windowed_p95, WINDOWS};
use crate::trace::{Tracer, NO_ID};

/// Offered load, submissions per second: about half of what the
/// service sustained on this mix with two closed-loop clients on a
/// 2-core host (see README.md).
pub const OFFERED_RATE: f64 = 40.0;

/// Fewest submissions of the open loop: 200 per window, so each
/// window's p95 has at least ten samples beyond it.
const MIN_SUBMISSIONS: usize = 200 * WINDOWS;

/// Share of `--seconds` the open loop runs for; the closed-loop batches
/// take about the rest.
const OPEN_SHARE: f64 = 0.75;

/// Closed-loop batches per run (the median makespan is `wall_s`).
const CLOSED_BATCHES: usize = 5;

/// Submissions per closed-loop batch: the schedule's first ones.
const CLOSED_SUBMISSIONS: usize = 100;

/// Server start-ups before the open loop; with the start-ups of the
/// batches themselves, the median is `setup_s`.
const SETUPS: usize = 5;

/// Instructions per point of a submission.
const INSTRUCTIONS: u64 = 10_000;

/// One sent submission.
#[derive(Debug)]
struct Sent {
    /// When it was due, sent and answered, s after the batch start.
    due: f64,
    sent: f64,
    done: f64,
    /// The streamed body, or the client's error.
    body: Result<Vec<u8>, String>,
}

/// Stops the server when dropped, so a panic mid-batch cannot leave the
/// accept loop running (and the scope waiting on it forever).
struct StopOnDrop<'a>(&'a str);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        if let Err(e) = client::shutdown(self.0) {
            eprintln!("serve-mixed: shutdown request failed: {e}");
        }
    }
}

/// Binds a server on a fresh store, runs it on its own thread until `f`
/// returns, then shuts it down and joins it. Returns `f`'s result and
/// the start-up time: `Server::bind`, which builds the service and
/// preloads its store. (The first reply also waits for the accept
/// loop's poll interval, a race that would make set-up time bimodal.)
fn with_server<T>(ctx: &Ctx, name: &str, f: impl FnOnce(&Server, &str) -> T) -> (T, f64) {
    let config = ServiceConfig { out: ctx.fresh_dir(name), threads: THREADS, ..Default::default() };
    let t = Instant::now();
    let server = ctx.tracer.span("service.bind", None, NO_ID, |_| {
        Server::bind("127.0.0.1:0", &config).expect("bind a loopback port")
    });
    let startup = secs(t);
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let result = {
            let _stop = StopOnDrop(&addr);
            client::status(&addr).expect("server answers status");
            (f(&server, &addr), startup)
        };
        handle.join().expect("server thread").expect("server accept loop");
        result
    })
}

/// Sends the schedule from [`THREADS`] client threads: paced, each
/// submission no earlier than it is due (the open loop), or unpaced,
/// each client sending its next as soon as its last is answered (the
/// closed loop). Also returns the peak resident memory of each window,
/// MiB.
fn send(
    tr: &Tracer,
    addr: &str,
    pool: &[String],
    schedule: &[Submission],
    paced: bool,
) -> (Vec<Sent>, Vec<f64>) {
    let n = schedule.len();
    let slots: Vec<OnceLock<Sent>> = schedule.iter().map(|_| OnceLock::new()).collect();
    let rss: Vec<OnceLock<f64>> = (0..WINDOWS).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    host::reset_peak_rss();
    let start = Instant::now() + if paced { Duration::from_millis(20) } else { Duration::ZERO };
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sub) = schedule.get(i) else { break };
                if paced {
                    let due = start + Duration::from_secs_f64(sub.due_s);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                let w = window_of(i, n);
                if i > 0 && window_of(i - 1, n) < w {
                    // The first submission of a window closes the last one.
                    let _ = rss[w - 1].set(host::peak_rss_mib());
                    host::reset_peak_rss();
                }
                let sent = at(Instant::now());
                let mut body = Vec::new();
                let r = tr.span("client.submit", None, i as u64, |_| {
                    client::submit(addr, &pool[sub.key], &mut body)
                });
                let done = at(Instant::now());
                let due = if paced { sub.due_s } else { sent };
                let body = r.map(|_| body).map_err(|e| e.to_string());
                slots[i].set(Sent { due, sent, done, body }).expect("sent once");
            });
        }
    });
    let _ = rss[WINDOWS - 1].set(host::peak_rss_mib());
    let sent = slots.into_iter().map(|s| s.into_inner().expect("every submission sent")).collect();
    (sent, rss.into_iter().map(|r| r.into_inner().unwrap_or(f64::NAN)).collect())
}

/// One pool spec, expanded.
fn points(text: &str) -> Vec<SweepPoint> {
    SweepSpec::parse(text).and_then(|s| s.points()).expect("benchmark spec expands")
}

/// A `"key":<integer>` field of the one-line status JSON.
fn status_field(status: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    status
        .find(&pat)
        .map(|i| &status[i + pat.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// What one batch measured.
#[derive(Debug)]
struct Batch {
    sent: Vec<Sent>,
    /// Peak resident memory of each window of the schedule, MiB.
    window_rss_mib: Vec<f64>,
    status: String,
    /// Direct `SweepService::stream` time per distinct spec, ms.
    stream_ms: Vec<f64>,
    store_bytes: u64,
}

fn run_batch(
    ctx: &Ctx,
    tr: &Tracer,
    name: &str,
    pool: &[String],
    schedule: &[Submission],
) -> (Batch, f64) {
    with_server(ctx, name, |server, addr| {
        let (sent, window_rss_mib) = send(tr, addr, pool, schedule, true);
        let status = client::status(addr).expect("server answers status");
        let mut keys: Vec<usize> = schedule.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        let stream_ms = keys
            .iter()
            .map(|&k| {
                let pts = points(&pool[k]);
                let t = Instant::now();
                tr.span("service.stream", None, k as u64, |_| {
                    server.service().stream(&pts, &mut std::io::sink())
                })
                .expect("stream into a sink");
                secs(t) * 1e3
            })
            .collect();
        let store_bytes = common::dir_bytes(&ctx.work.join(name));
        Batch { sent, window_rss_mib, status, stream_ms, store_bytes }
    })
}

/// Latency of each submission from its due time, ms.
fn latencies(sent: &[Sent]) -> Vec<f64> {
    sent.iter().map(|s| (s.done - s.due) * 1e3).collect()
}

/// Runs `serve-mixed`.
///
/// # Panics
///
/// Panics if the loopback server cannot be started.
#[must_use]
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = if ctx.smoke {
        20
    } else {
        MIN_SUBMISSIONS.max((OFFERED_RATE * ctx.seconds * OPEN_SHARE).ceil() as usize)
    };
    let instructions = if ctx.smoke { 2_000 } else { INSTRUCTIONS };
    let ServeInputs { pool, schedule } =
        inputs::serve_inputs(ctx.seed, n, OFFERED_RATE, instructions);
    let closed_schedule = &schedule[..CLOSED_SUBMISSIONS.min(n)];

    // The open loop runs first: its first submission of each generative
    // member is the only one that calibrates it (calibration is memoised
    // for the process).
    let off = Tracer::new(false);
    let mut setups: Vec<f64> = (1..ctx.setups(SETUPS))
        .map(|k| with_server(ctx, &format!("setup-{k}"), |_, _| ()).1)
        .collect();
    let (plain, startup) = run_batch(ctx, &off, "server", &pool, &schedule);
    setups.push(startup);
    let traced =
        ctx.traced().then(|| run_batch(ctx, &ctx.tracer, "server-traced", &pool, &schedule).0);
    // The closed loop: each batch on a fresh server, timed for its
    // makespan.
    let closed_batches = if ctx.traced() {
        0
    } else if ctx.smoke {
        1
    } else {
        CLOSED_BATCHES
    };
    let closed: Vec<Vec<Sent>> = (0..closed_batches)
        .map(|k| {
            let (sent, startup) = with_server(ctx, &format!("closed-{k}"), |_, addr| {
                send(&off, addr, &pool, closed_schedule, false).0
            });
            setups.push(startup);
            sent
        })
        .collect();

    // Local reference: every distinct spec generated, built, run and
    // emitted here, through the same public functions the engine hides.
    let mut expected: BTreeMap<usize, (Vec<SimReport>, String)> = BTreeMap::new();
    for sub in &schedule {
        expected.entry(sub.key).or_insert_with(|| {
            let pts = points(&pool[sub.key]);
            let jobs: Vec<_> = pts.iter().map(|p| p.job.clone()).collect();
            let reports = common::run_points(&ctx.tracer, None, &jobs);
            let jsonl = emit::sweep_jsonl(&pts, &reports);
            (reports, jsonl)
        });
    }
    let open = std::iter::once(&plain.sent).chain(traced.as_ref().map(|t| &t.sent));
    for sent in open.chain(&closed) {
        for (sub, s) in schedule.iter().zip(sent) {
            out.attempted += 1;
            let ok = matches!(&s.body, Ok(body) if *body == expected[&sub.key].1.as_bytes());
            if !ok {
                out.failed += 1;
                if let Err(e) = &s.body {
                    out.notes.push(format!("submission {} failed: {e}", sub.id));
                }
            }
        }
    }

    let lat = latencies(&plain.sent);
    out.samples_ms.clone_from(&lat);
    let first = plain.sent.iter().map(|s| s.sent).fold(f64::INFINITY, f64::min);
    let last = plain.sent.iter().map(|s| s.sent).fold(0.0, f64::max);
    let achieved = (n as f64 - 1.0) / (last - first).max(1e-9);
    if achieved < 0.9 * OFFERED_RATE {
        out.invalid = Some(format!(
            "load generator lagged: achieved {achieved:.2}/s of {OFFERED_RATE:.2}/s offered"
        ));
    }
    let lag: Vec<f64> = plain.sent.iter().map(|s| (s.sent - s.due) * 1e3).collect();
    let m = &mut out.metrics;
    m.set("loadgen.offered_rate", OFFERED_RATE, 1);
    m.set("loadgen.achieved_rate", achieved, n);
    let lag95 = percentile(&lag, 95.0);
    m.set("loadgen.lag_p95_ms", lag95.value, lag95.n);

    if let Some(traced) = &traced {
        let overhead =
            median(&latencies(&traced.sent)).value - median(&latencies(&plain.sent)).value;
        m.set("trace.overhead_ms", overhead, n);
        // Cold: a spec's first submission. Warm: a repeat sent after an
        // earlier copy had completed. Repeats that overlapped an
        // in-flight copy are neither. Taken from the untraced batch,
        // the one whose cold submissions calibrate.
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        let mut first_done: BTreeMap<usize, f64> = BTreeMap::new();
        for (sub, s) in schedule.iter().zip(&plain.sent) {
            match first_done.get(&sub.key) {
                None => {
                    cold.push((s.done - s.due) * 1e3);
                    first_done.insert(sub.key, s.done);
                }
                Some(&d) if d <= s.sent => warm.push((s.done - s.due) * 1e3),
                Some(_) => {}
            }
        }
        let (cold, warm) = (median(&cold), median(&warm));
        m.set("service.cold_p50_ms", cold.value, cold.n);
        m.set("service.warm_p50_ms", warm.value, warm.n);
        m.set("service.cold_n", cold.n as f64, 1);
        m.set("service.warm_n", warm.n as f64, 1);
        let stream = median(&plain.stream_ms);
        m.set("service.stream_ms", stream.value, stream.n);
        m.set("service.http_ms", warm.value - stream.value, warm.n);
        m.set("service.simulated", status_field(&plain.status, "points_simulated"), 1);
        m.set("service.served", status_field(&plain.status, "points_served"), 1);
        m.set("engine.simulated", status_field(&plain.status, "points_simulated"), 1);
        m.set("engine.cache_hits", status_field(&plain.status, "cache_hits"), 1);
        m.set("store.bytes", plain.store_bytes as f64, 1);
        let bytes: usize =
            plain.sent.iter().filter_map(|s| s.body.as_ref().ok()).map(Vec::len).sum();
        m.set("emit.bytes", bytes as f64, n);
        let reports: Vec<&SimReport> = expected.values().flat_map(|(r, _)| r).collect();
        common::sim_stats(&reports, m);
        m.set("workloads.distinct_programs", expected.len() as f64, 1);
        common::span_metrics(&ctx.tracer, m);
        return out;
    }

    // wall_s and sim_mips: makespan of each closed-loop batch and the
    // committed instructions it delivered per host second.
    let delivered: u64 =
        closed_schedule.iter().map(|s| common::committed(&expected[&s.key].0)).sum();
    let makespans: Vec<f64> = closed
        .iter()
        .map(|sent| {
            let first = sent.iter().map(|s| s.sent).fold(f64::INFINITY, f64::min);
            sent.iter().map(|s| s.done).fold(0.0, f64::max) - first
        })
        .collect();
    let mips: Vec<f64> = makespans.iter().map(|w| delivered as f64 / 1e6 / w).collect();
    let wall = median(&makespans);
    m.set("wall_s", wall.value, wall.n);
    let mips = median(&mips);
    m.set("sim_mips", mips.value, mips.n);
    let p50 = median(&lat);
    m.set("latency_p50_ms", p50.value, p50.n);
    let p95 = windowed_p95(&lat);
    m.set("latency_p95_ms", p95.value, p95.n);
    let setup = median(&setups);
    m.set("setup_s", setup.value, setup.n);
    let rss = median(&plain.window_rss_mib);
    m.set("peak_rss_mib", rss.value, rss.n);
    let spans: Vec<String> = makespans.iter().map(|w| format!("{w:.3}")).collect();
    out.notes.push(format!(
        "closed loop: {} submissions per batch, makespans (s): {}",
        closed_schedule.len(),
        spans.join(" ")
    ));
    out
}
