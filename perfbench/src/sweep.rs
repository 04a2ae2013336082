//! `sweep-short` and `sweep-long`: spec grids through
//! `SweepEngine::with_result_store` on a fresh output directory.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use st_core::SimReport;
use st_sweep::{emit, EngineStats, JobSpec, SweepEngine, SweepPoint, SweepSpec};

use crate::common::{self, secs, Ctx, Outcome, Passes, THREADS};
use crate::host;
use crate::inputs;
use crate::metrics::Collected;

use crate::trace::{Tracer, NO_ID};

/// Cold resolutions of a fresh member set per run (the median is
/// `setup_s`). Each takes tens of milliseconds, so many of them.
const SETUPS: usize = 25;

/// Points of `sweep-short` re-run through `JobSpec::run` per run.
const SAMPLED_POINTS: usize = 16;

/// One timed pass over a list of specs.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds from parsing the first spec to writing the last JSONL.
    pub wall_s: f64,
    /// Expanded points, per spec.
    pub points: Vec<Vec<SweepPoint>>,
    /// Reports of every point, specs concatenated.
    pub reports: Vec<Arc<SimReport>>,
    /// The emitted JSONL, per spec.
    pub jsonl: Vec<String>,
    /// The engine's counters after the pass.
    pub stats: EngineStats,
    /// Bytes of the result store after the pass.
    pub store_bytes: u64,
    /// Peak resident memory during the pass, MiB.
    pub peak_rss_mib: f64,
}

impl Pass {
    /// Every job of the pass, in batch order.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobSpec> {
        self.points.iter().flatten().map(|p| p.job.clone()).collect()
    }

    /// Committed instructions the pass delivered, M, per host second.
    #[must_use]
    pub fn mips(&self) -> f64 {
        common::committed(&self.reports) as f64 / 1e6 / self.wall_s
    }
}

/// One pass as `st run` does it: parse and expand each spec, open an
/// engine on `out` (preloading its result store), run every point in
/// one batch, then emit each spec's JSONL into `out/<name>.jsonl`.
///
/// # Panics
///
/// Panics if a benchmark spec fails to parse or the JSONL cannot be
/// written.
#[must_use]
pub fn sweep_pass(tr: &Tracer, specs: &[String], out: &Path) -> Pass {
    host::reset_peak_rss();
    let t = Instant::now();
    let (engine, points, reports, jsonl) = tr.span("pass", None, NO_ID, |p| {
        let mut names = Vec::new();
        let mut points = Vec::new();
        for text in specs {
            let spec = tr.span("spec.parse", p, NO_ID, |_| SweepSpec::parse(text));
            let spec = spec.expect("benchmark spec parses");
            let pts = tr.span("spec.expand", p, NO_ID, |_| spec.points());
            points.push(pts.expect("benchmark spec expands"));
            names.push(spec.name);
        }
        let engine =
            tr.span("store.open", p, NO_ID, |_| SweepEngine::with_result_store(THREADS, out));
        let jobs: Vec<JobSpec> = points.iter().flatten().map(|p| p.job.clone()).collect();
        let reports = tr.span("engine.run", p, NO_ID, |_| engine.run(&jobs));
        let mut jsonl = Vec::new();
        let mut at = 0;
        for (name, pts) in names.iter().zip(&points) {
            let part = &reports[at..at + pts.len()];
            at += pts.len();
            jsonl.push(tr.span("emit.jsonl", p, NO_ID, |_| {
                let text = emit::sweep_jsonl(pts, part);
                std::fs::write(out.join(format!("{name}.jsonl")), &text).expect("write JSONL");
                text
            }));
        }
        (engine, points, reports, jsonl)
    });
    let wall_s = secs(t);
    let peak_rss_mib = host::peak_rss_mib();
    let stats = engine.stats();
    drop(engine);
    let store_bytes =
        common::dir_bytes(&out.join(".cache")) + common::dir_bytes(&out.join(".store"));
    Pass { wall_s, points, reports, jsonl, stats, store_bytes, peak_rss_mib }
}

/// The per-layer metrics every traced sweep pass yields: simulated
/// statistics, engine and store counters, emitted bytes, the tracing
/// overhead against an untraced pass, and the span timings.
pub fn traced_pass_metrics(ctx: &Ctx, m: &mut Collected, plain: &Pass, pass: &Pass) {
    common::sim_stats(&pass.reports, m);
    m.set("trace.overhead_ms", (pass.wall_s - plain.wall_s) * 1e3, 1);
    m.set("engine.simulated", pass.stats.simulated as f64, 1);
    m.set("engine.cache_hits", pass.stats.cache.hits as f64, 1);
    m.set("store.entries_loaded", pass.stats.loaded as f64, 1);
    if pass.stats.loaded > 0 {
        let useful = pass.stats.cache.hits as f64 / pass.stats.loaded as f64;
        m.set("store.hits_per_loaded", useful, 1);
    }
    m.set("store.bytes", pass.store_bytes as f64, 1);
    let bytes: usize = pass.jsonl.iter().map(String::len).sum();
    m.set("emit.bytes", bytes as f64, pass.jsonl.len());
    common::span_metrics(&ctx.tracer, m);
}

/// Failed checks of `pass` against the first pass of the run: points
/// whose report or JSONL line differs.
fn repeat_failures(first: &Pass, pass: &Pass) -> u64 {
    let lines: u64 =
        first.jsonl.iter().zip(&pass.jsonl).map(|(a, b)| common::line_mismatches(a, b)).sum();
    common::report_mismatches(&first.reports, &pass.reports).max(lines)
}

/// Median set-up time over the run's set-ups: each resolves a fresh
/// member set's workloads (generative members calibrate here, once per
/// process) and parses and expands its specs.
fn timed_setups(ctx: &Ctx, specs_for_set: &dyn Fn(u64) -> Vec<String>) -> Vec<f64> {
    (0..ctx.setups(SETUPS) as u64)
        .map(|set| {
            let specs = specs_for_set(set);
            let t = Instant::now();
            ctx.tracer.span("setup", None, NO_ID, |p| {
                for text in &specs {
                    let spec = SweepSpec::parse(text).expect("benchmark spec parses");
                    common::resolve_names(&ctx.tracer, p, &spec.workloads);
                    std::hint::black_box(spec.points().expect("benchmark spec expands"));
                }
            });
            secs(t)
        })
        .collect()
}

/// Which sweep workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Many 2,000-instruction points per program.
    Short,
    /// The paper grid at 200,000 instructions plus held-out members.
    Long,
}

fn specs(ctx: &Ctx, kind: Kind, set: u64) -> Vec<String> {
    match kind {
        Kind::Short => {
            let instr = if ctx.smoke { 500 } else { 2_000 };
            vec![inputs::sweep_short_spec(ctx.seed, set, instr, ctx.smoke)]
        }
        Kind::Long => {
            let instr = if ctx.smoke { 2_000 } else { 200_000 };
            let (paper, held) = inputs::sweep_long_specs(ctx.seed, set, instr, ctx.smoke);
            vec![paper, held]
        }
    }
}

/// Runs `sweep-short` or `sweep-long`.
///
/// # Panics
///
/// Panics on scratch-directory I/O failures.
#[must_use]
pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let setups = timed_setups(ctx, &|set| specs(ctx, kind, set));
    let specs = specs(ctx, kind, 0);
    if ctx.traced() {
        traced(ctx, kind, &specs, &mut out);
        return out;
    }

    let t0 = Instant::now();
    let mut first: Option<Pass> = None;
    let mut passes = Passes::default();
    while passes.more(t0, ctx.seconds) {
        let dir = ctx.fresh_dir(&format!("pass-{}", passes.len()));
        let pass = sweep_pass(&ctx.tracer, &specs, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        passes.record(pass.wall_s, pass.mips(), pass.peak_rss_mib);
        out.attempted += pass.reports.len() as u64;
        match &first {
            Some(f) => out.failed += repeat_failures(f, &pass),
            None => first = Some(pass),
        }
    }
    let first = first.expect("at least one pass");

    if kind == Kind::Short {
        // A seed-sampled subset re-runs through `JobSpec::run` and must
        // be bit-identical to what the engine returned.
        let k = if ctx.smoke { 4 } else { SAMPLED_POINTS };
        let jobs = first.jobs();
        for i in inputs::sample_indices(ctx.seed, jobs.len(), k) {
            out.attempted += 1;
            if jobs[i].run() != *first.reports[i] {
                out.failed += 1;
            }
        }
    } else if let Some(err) = common::paper_energy_err_pp(&first.points[0], &first.reports) {
        out.notes.push(format!("fidelity: paper_energy_err_pp = {err:.4} pp (deterministic)"));
    }

    passes.finish(&mut out, &setups);
    out
}

/// The traced run: one untraced pass, one traced pass (their difference
/// is the tracing overhead), then the job list decomposed through the
/// public generate/build/run functions, which must reproduce the
/// engine's reports bit for bit.
fn traced(ctx: &Ctx, kind: Kind, specs: &[String], out: &mut Outcome) {
    let tr = &ctx.tracer;
    let plain = sweep_pass(&Tracer::new(false), specs, &ctx.fresh_dir("untraced"));
    let pass = sweep_pass(tr, specs, &ctx.fresh_dir("traced"));
    let jobs = pass.jobs();
    let (direct, dups) = common::decompose(tr, &jobs);
    out.attempted += 2 * jobs.len() as u64;
    out.failed += repeat_failures(&plain, &pass);
    out.failed += common::report_mismatches(&pass.reports, &direct);

    let m = &mut out.metrics;
    traced_pass_metrics(ctx, m, &plain, &pass);
    m.set("engine.dedup_hits", dups as f64, 1);
    let mut programs: Vec<&str> = jobs.iter().map(|j| j.workload.name.as_str()).collect();
    programs.sort_unstable();
    programs.dedup();
    m.set("workloads.distinct_programs", programs.len() as f64, 1);
    if kind == Kind::Long {
        if let Some(err) = common::paper_energy_err_pp(&pass.points[0], &pass.reports) {
            m.set("fidelity.paper_energy_err_pp", err, 1);
        }
    }
    out.notes.push(format!(
        "traced pass {:.3} s vs untraced {:.3} s; decomposed {} points",
        pass.wall_s,
        plain.wall_s,
        jobs.len()
    ));
}
