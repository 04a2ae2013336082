//! `store-warm`: the `sweep-short` grid answered entirely from a large
//! segment-log store.
//!
//! Preparation runs the grid cold once, which yields the real reports
//! and the reference JSONL. Set-up fills `<out>/.store` through
//! `LogStore::store` with those reports plus synthetic entries (real
//! reports perturbed per entry, under seed-derived fingerprints no grid
//! point has). Each timed pass opens an engine on the directory, runs
//! the grid (every point a hit) and emits the JSONL.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use st_core::SimReport;
use st_sweep::{JobSpec, LogStore};

use crate::common::{self, secs, Ctx, Outcome, Passes};
use crate::inputs;

use crate::sweep::{self, sweep_pass, Pass};
use crate::trace::{Tracer, NO_ID};

/// Store fills per run (the median is `setup_s`).
const SETUPS: usize = 3;

/// Synthetic entries added to the store besides the grid's own.
const SYNTHETIC_ENTRIES: usize = 100_000;

/// Fills the segment log under `out` with the grid's reports and one
/// perturbed copy of a real report per synthetic fingerprint.
fn fill(tr: &Tracer, out: &Path, grid: &[(u64, Arc<SimReport>)], synthetic: &[u64]) {
    tr.span("setup", None, NO_ID, |p| {
        let store = LogStore::open(out.join(".store"));
        for (fp, report) in grid {
            tr.span("store.write", p, NO_ID, |_| store.store(*fp, report)).expect("store write");
        }
        for (i, fp) in synthetic.iter().enumerate() {
            let mut report = SimReport::clone(&grid[i % grid.len()].1);
            report.perf.cycles += i as u64 + 1;
            report.energy.energy *= 1.0 + (i as f64 + 1.0) * 1e-9;
            tr.span("store.write", p, NO_ID, |_| store.store(*fp, &report)).expect("store write");
        }
    });
}

/// Failed checks of one warm pass: JSONL lines that differ from the
/// cold reference, plus any point the engine had to simulate.
fn failures(reference: &Pass, pass: &Pass) -> u64 {
    common::line_mismatches(&reference.jsonl[0], &pass.jsonl[0]).max(pass.stats.simulated)
}

/// Runs `store-warm`.
///
/// # Panics
///
/// Panics on scratch-directory or store I/O failures.
#[must_use]
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let instr = if ctx.smoke { 500 } else { 2_000 };
    let specs = vec![inputs::sweep_short_spec(ctx.seed, 0, instr, ctx.smoke)];

    let cold_dir = ctx.fresh_dir("cold");
    let reference = sweep_pass(&Tracer::new(false), &specs, &cold_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
    let grid: Vec<(u64, Arc<SimReport>)> = reference
        .jobs()
        .iter()
        .map(JobSpec::fingerprint)
        .zip(reference.reports.iter().cloned())
        .collect();
    let avoid: HashSet<u64> = grid.iter().map(|(fp, _)| *fp).collect();
    let n = if ctx.smoke { 1_000 } else { SYNTHETIC_ENTRIES };
    let synthetic = inputs::synthetic_fingerprints(ctx.seed, n, &avoid);

    let mut setups = Vec::new();
    for k in 0..ctx.setups(SETUPS) {
        let dir = ctx.fresh_dir(&format!("warm-{k}"));
        let t = Instant::now();
        fill(&ctx.tracer, &dir, &grid, &synthetic);
        setups.push(secs(t));
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let warm = ctx.work.join("warm-0");
    out.notes.push(format!(
        "store: {} grid + {} synthetic entries, {} bytes",
        grid.len(),
        synthetic.len(),
        common::dir_bytes(&warm.join(".store"))
    ));

    if ctx.traced() {
        let plain = sweep_pass(&Tracer::new(false), &specs, &warm);
        let pass = sweep_pass(&ctx.tracer, &specs, &warm);
        out.attempted += 2 * pass.reports.len() as u64;
        out.failed += failures(&reference, &plain) + failures(&reference, &pass);
        sweep::traced_pass_metrics(ctx, &mut out.metrics, &plain, &pass);
        return out;
    }

    let t0 = Instant::now();
    let mut passes = Passes::default();
    while passes.more(t0, ctx.seconds) {
        let pass = sweep_pass(&ctx.tracer, &specs, &warm);
        out.attempted += pass.reports.len() as u64;
        out.failed += failures(&reference, &pass);
        passes.record(pass.wall_s, pass.mips(), pass.peak_rss_mib);
    }
    passes.finish(&mut out, &setups);
    out
}
