//! What the four workloads share: the run context, the direct
//! generate → build → run decomposition, simulated statistics, the
//! fidelity figure and the mapping from spans to per-layer metrics.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use st_core::{SimReport, Simulator};
use st_sweep::{JobSpec, SweepPoint};

use crate::metrics::Collected;
use crate::stats::{median, windowed_p95};
use crate::trace::{self, SpanId, Tracer, NO_ID};

/// Worker threads of every engine and service, and the client threads
/// of the load generator (sized for a 2-core host).
pub const THREADS: usize = 2;

/// How one benchmark run is configured.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: fixes every input.
    pub seed: u64,
    /// Measuring time of the run, s.
    pub seconds: f64,
    /// Shrinks every workload so the whole benchmark runs in seconds.
    pub smoke: bool,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Span recorder (disabled unless `--trace 1`).
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether this is the traced run.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A fresh (removed, then created) directory under the run's scratch
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    /// Set-ups per run: `n` (the median is reported), or one in smoke
    /// mode and when tracing, since the traced run reports no `setup_s`.
    #[must_use]
    pub fn setups(&self, n: usize) -> usize {
        if self.smoke || self.traced() {
            1
        } else {
            n
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (points or submissions, plus re-runs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Why the run is invalid regardless of its checks, if it is.
    pub invalid: Option<String>,
    /// Every metric the workload measured.
    pub metrics: Collected,
    /// Human-readable notes printed above the result.
    pub notes: Vec<String>,
    /// The timed operations' latencies, ms, in the order they ran
    /// (passes, or submissions by due time), kept in the result record.
    pub samples_ms: Vec<f64>,
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Resolves every workload name once through `st_workloads::by_name`
/// (generative members calibrate here), one `workloads.resolve` span
/// each.
///
/// # Panics
///
/// Panics on an unknown name: the benchmark only generates valid ones.
pub fn resolve_names(tr: &Tracer, parent: Option<SpanId>, names: &[String]) {
    for name in names {
        tr.span("workloads.resolve", parent, NO_ID, |_| {
            std::hint::black_box(st_workloads::by_name(name).expect("known workload"));
        });
    }
}

/// Runs one point through the public pieces the engine hides:
/// `WorkloadSpec::generate`, the `Simulator` builder and
/// `Simulator::run`, each in its own span under a `point` span.
/// No benchmark grid overrides the confidence estimator, so the plain
/// builder path reproduces `JobSpec::run`; the bit-identity checks
/// would flag a grid that did.
#[must_use]
pub fn run_point(tr: &Tracer, parent: Option<SpanId>, id: u64, job: &JobSpec) -> SimReport {
    tr.span("point", parent, id, |p| {
        let program = tr.span("workloads.generate", p, id, |_| job.workload.generate());
        let sim = tr.span("core.build", p, id, |_| {
            Simulator::builder()
                .program(program)
                .config(job.config.clone())
                .power(job.power.clone())
                .experiment(job.experiment.clone())
                .max_instructions(job.instructions)
                .build()
        });
        tr.span("pipeline.run", p, id, |_| sim.run())
    })
}

/// [`run_point`] over a job list on [`THREADS`] threads, reports in
/// job order.
///
/// # Panics
///
/// Panics if a simulation thread panics.
#[must_use]
pub fn run_points(tr: &Tracer, parent: Option<SpanId>, jobs: &[JobSpec]) -> Vec<SimReport> {
    let slots: Vec<OnceLock<SimReport>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = run_point(tr, parent, i as u64, job);
                slots[i].set(r).expect("each slot filled once");
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("every job ran")).collect()
}

/// The traced decomposition of a job list: fingerprints (one
/// `engine.fingerprint` span), then every job through [`run_points`].
/// Returns the reports and the number of in-batch duplicates.
#[must_use]
pub fn decompose(tr: &Tracer, jobs: &[JobSpec]) -> (Vec<SimReport>, u64) {
    tr.span("decompose", None, NO_ID, |p| {
        let distinct = tr.span("engine.fingerprint", p, NO_ID, |_| {
            jobs.iter().map(JobSpec::fingerprint).collect::<HashSet<u64>>().len()
        });
        (run_points(tr, p, jobs), (jobs.len() - distinct) as u64)
    })
}

/// Number of positions at which two reports lists differ (plus any
/// length difference).
#[must_use]
pub fn report_mismatches(a: &[impl Borrow<SimReport>], b: &[impl Borrow<SimReport>]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| (*x).borrow() != (*y).borrow()).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// Number of lines at which two JSONL texts differ (plus any line-count
/// difference).
#[must_use]
pub fn line_mismatches(a: &str, b: &str) -> u64 {
    let differing = a.lines().zip(b.lines()).filter(|(x, y)| x != y).count();
    (differing + a.lines().count().abs_diff(b.lines().count())) as u64
}

/// Total bytes of the regular files under `path`.
#[must_use]
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Per-pass samples of a workload made of repeated timed passes; one
/// pass is the operation whose latency a user waits for.
#[derive(Debug, Default)]
pub struct Passes {
    walls: Vec<f64>,
    mips: Vec<f64>,
    rss: Vec<f64>,
}

impl Passes {
    /// Passes recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// Whether no pass was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.walls.is_empty()
    }

    /// Whether to run another pass: always until there are two, then
    /// while one more like the last still ends within `seconds` of `t0`.
    #[must_use]
    pub fn more(&self, t0: Instant, seconds: f64) -> bool {
        match self.walls.last() {
            Some(last) if self.walls.len() >= 2 => secs(t0) + last <= seconds,
            _ => true,
        }
    }

    /// Records one pass: host seconds, delivered M instructions per
    /// host second, and peak resident memory in MiB.
    pub fn record(&mut self, wall_s: f64, mips: f64, peak_rss_mib: f64) {
        self.walls.push(wall_s);
        self.mips.push(mips);
        self.rss.push(peak_rss_mib);
    }

    /// Sets every end-to-end metric from the passes and the set-ups.
    pub fn finish(&self, out: &mut Outcome, setups: &[f64]) {
        let m = &mut out.metrics;
        let wall = median(&self.walls);
        m.set("wall_s", wall.value, wall.n);
        let mips = median(&self.mips);
        m.set("sim_mips", mips.value, mips.n);
        m.set("latency_p50_ms", wall.value * 1e3, wall.n);
        let p95 = windowed_p95(&self.walls);
        m.set("latency_p95_ms", p95.value * 1e3, p95.n);
        let rss = median(&self.rss);
        m.set("peak_rss_mib", rss.value, rss.n);
        let setup = median(setups);
        m.set("setup_s", setup.value, setup.n);
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        out.notes.push(format!("pass walls (s): {}", walls.join(" ")));
        out.samples_ms = self.walls.iter().map(|w| w * 1e3).collect();
    }
}

/// Committed instructions summed over reports.
#[must_use]
pub fn committed(reports: &[impl Borrow<SimReport>]) -> u64 {
    reports.iter().map(|r| r.borrow().perf.committed).sum()
}

/// The simulated statistics of a set of reports. They repeat exactly
/// for a given grid and move only with a model change.
pub fn sim_stats(reports: &[impl Borrow<SimReport>], m: &mut Collected) {
    let n = reports.len();
    let sum = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(|r| f(r.borrow())).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let fetched = sum(&|r| r.perf.fetched as f64);
    let cycles = sum(&|r| r.perf.cycles as f64);
    m.set("pipeline.sim_cycles", cycles, n);
    m.set("pipeline.committed", sum(&|r| r.perf.committed as f64), n);
    m.set(
        "pipeline.wrong_path_frac",
        ratio(sum(&|r| r.perf.wrong_path_fetched as f64), fetched),
        n,
    );
    m.set(
        "pipeline.fetch_gated_frac",
        ratio(sum(&|r| r.perf.fetch_gated_cycles as f64), cycles),
        n,
    );
    m.set(
        "bpred.mispredict_rate",
        ratio(
            sum(&|r| r.perf.mispredicts_committed as f64),
            sum(&|r| r.perf.branches_committed as f64),
        ),
        n,
    );
    m.set(
        "bpred.low_conf_frac",
        ratio(sum(&|r| r.conf.low_labeled() as f64), sum(&|r| r.conf.total() as f64)),
        n,
    );
    m.set("mem.l1d_miss_rate", ratio(sum(&|r| r.mem.l1d_miss_rate), n as f64), n);
    m.set("mem.l2_miss_rate", ratio(sum(&|r| r.mem.l2_miss_rate), n as f64), n);
    m.set(
        "power.wasted_energy_frac",
        ratio(sum(&|r| r.energy.wasted_frac() * r.energy.energy), sum(&|r| r.energy.energy)),
        n,
    );
}

/// Mean |reproduced − paper| average energy savings, in percentage
/// points, over the experiments the paper quotes averages for. `points`
/// and `reports` must hold a baseline and every quoted experiment for
/// each workload; `None` otherwise.
#[must_use]
pub fn paper_energy_err_pp(points: &[SweepPoint], reports: &[Arc<SimReport>]) -> Option<f64> {
    let find = |w: &str, e: &str| {
        points.iter().zip(reports).find_map(|(p, r)| {
            (p.job.workload.name == w && p.job.experiment.id == e).then_some(r.as_ref())
        })
    };
    let mut workloads: Vec<&str> = points.iter().map(|p| p.job.workload.name.as_str()).collect();
    workloads.dedup();
    let paper = st_sweep::figures::paper_averages();
    let mut errs = Vec::new();
    for (id, avg) in &paper {
        let cmps: Option<Vec<st_core::Comparison>> = workloads
            .iter()
            .map(|w| Some(st_core::compare(find(w, "BASE")?, find(w, id)?)))
            .collect();
        let mean = st_core::average_comparison(&cmps?);
        errs.push((mean.energy_savings_pct - avg.energy).abs());
    }
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Per-layer timings from the recorded spans: each layer's self time
/// and call count, the parallel efficiency of the decomposed points
/// against the traced `engine.run`, and the remainder no child span
/// covers inside the traced pass.
pub fn span_metrics(tr: &Tracer, m: &mut Collected) {
    let spans = tr.spans();
    let t = trace::self_times(&spans);
    let ms = |name: &str| t.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    let count = |name: &str| t.get(name).map_or(0, |s| s.count as usize);
    for (span, metric) in [
        ("workloads.resolve", "workloads.resolve_ms"),
        ("workloads.generate", "workloads.generate_ms"),
        ("core.build", "core.build_ms"),
        ("spec.parse", "spec.parse_ms"),
        ("spec.expand", "spec.expand_ms"),
        ("engine.fingerprint", "engine.fingerprint_ms"),
        ("engine.run", "engine.run_ms"),
        ("store.open", "store.open_ms"),
        ("store.write", "store.write_ms"),
        ("emit.jsonl", "emit.jsonl_ms"),
        ("service.bind", "service.startup_ms"),
    ] {
        m.set(metric, ms(span), count(span));
    }
    m.set("workloads.generate_calls", count("workloads.generate") as f64, 1);
    m.set("core.builds", count("core.build") as f64, 1);
    m.set("store.writes", count("store.write") as f64, 1);
    let run_ns = t.get("pipeline.run").map_or(0, |s| s.self_ns);
    m.set("pipeline.run_s", run_ns as f64 / 1e9, count("pipeline.run"));
    if let Some(cycles) = m.get("pipeline.sim_cycles").filter(|c| c.value > 0.0 && run_ns > 0) {
        m.set("pipeline.ns_per_cycle", run_ns as f64 / cycles.value, cycles.n);
    }
    let points_ns = t.get("point").map_or(0, |s| s.total_ns) as f64;
    let engine_ns = t.get("engine.run").map_or(0, |s| s.total_ns) as f64;
    if points_ns > 0.0 && engine_ns > 0.0 {
        m.set("engine.parallel_efficiency", points_ns / (engine_ns * THREADS as f64), 1);
    }
    m.set("trace.unattributed_ms", ms("pass"), count("pass"));
    m.set("trace.spans", spans.len() as f64, 1);
}
