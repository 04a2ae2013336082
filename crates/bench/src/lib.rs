//! # st-bench — the experiment harness
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 (power breakdown + waste by mis-speculation) |
//! | `fig1_oracle` | Figure 1 (oracle fetch/decode/select potential) |
//! | `table2_workloads` | Table 2 (benchmark characteristics) |
//! | `conf_metrics` | §4.3 (SPEC/PVN of the estimators) |
//! | `fig3_fetch` | Figure 3 (fetch throttling A1–A7) |
//! | `fig4_decode` | Figure 4 (decode throttling B1–B9) |
//! | `fig5_select` | Figure 5 (selection throttling C1–C7) |
//! | `fig6_depth` | Figure 6 (pipeline-depth sensitivity) |
//! | `fig7_size` | Figure 7 (predictor/estimator size sensitivity) |
//! | `all_experiments` | everything above, in sequence |
//!
//! Since the `st-sweep` engine landed, every binary is a thin wrapper
//! that submits its grid to [`st_sweep::figures`] — one shared
//! [`SweepEngine`] per process shards simulations across a worker pool
//! and memoises repeated configuration points. `st repro` (in
//! `st-sweep`) runs all of the figures against a single engine, which is
//! the fastest way to regenerate the whole paper. The [`Harness`] here
//! remains as the stable library API: same shape as the pre-sweep
//! harness, now backed by the engine.
//!
//! Runs are deterministic for any worker count; the per-run instruction
//! budget comes from `ST_BENCH_INSTR` (default 200 000) so CI can run
//! quick sweeps and workstations deep ones.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::PathBuf;

use st_core::{compare, Comparison, Experiment, SimReport};
use st_pipeline::PipelineConfig;
use st_report::Table;
use st_sweep::figures::FigureCtx;
use st_sweep::{JobSpec, SweepEngine};
use st_workloads::WorkloadInfo;

pub use st_sweep::figures::{paper_averages, print_paper_comparison, PanelRow, PaperAverage};

/// Harness configuration shared by all experiment binaries.
#[derive(Debug)]
pub struct Harness {
    /// Dynamic instruction budget per run.
    pub instructions: u64,
    /// Workloads to run (defaults to the paper's eight).
    pub workloads: Vec<WorkloadInfo>,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    engine: SweepEngine,
}

impl Harness {
    /// Builds the default harness: the eight paper workloads, instruction
    /// budget from `ST_BENCH_INSTR` (default 200 000), CSVs in `results/`,
    /// a worker pool sized to the hardware.
    #[must_use]
    pub fn from_env() -> Harness {
        let engine = SweepEngine::auto();
        // One source of truth for the env-var parsing and defaults.
        let defaults = FigureCtx::from_env(&engine);
        let (instructions, workloads, out_dir) =
            (defaults.instructions, defaults.workloads, defaults.out_dir);
        Harness { instructions, workloads, out_dir, engine }
    }

    /// The sweep engine backing this harness (shared result cache).
    #[must_use]
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// A [`FigureCtx`] view of this harness for `st_sweep::figures`.
    #[must_use]
    pub fn ctx(&self) -> FigureCtx<'_> {
        FigureCtx {
            engine: &self.engine,
            instructions: self.instructions,
            workloads: self.workloads.clone(),
            out_dir: self.out_dir.clone(),
        }
    }

    /// Runs one experiment over all workloads through the sweep engine,
    /// returning reports in workload order. Repeated configuration points
    /// are served from the engine's cache.
    #[must_use]
    pub fn run_all(&self, experiment: &Experiment, config: &PipelineConfig) -> Vec<SimReport> {
        let jobs: Vec<JobSpec> = self
            .workloads
            .iter()
            .map(|info| {
                JobSpec::new(info.spec.clone(), self.instructions)
                    .with_config(config.clone())
                    .with_experiment(experiment.clone())
            })
            .collect();
        self.engine.run(&jobs).into_iter().map(|r| (*r).clone()).collect()
    }

    /// Runs the baseline over all workloads.
    #[must_use]
    pub fn run_baselines(&self, config: &PipelineConfig) -> Vec<SimReport> {
        self.run_all(&st_core::experiments::baseline(), config)
    }

    /// Writes a table to `results/<name>.csv` and prints any I/O problem
    /// to stderr without failing the experiment.
    pub fn save_csv(&self, table: &Table, name: &str) {
        // Direct write: building a FigureCtx view here would clone the
        // whole workload list just to join a path.
        let path = self.out_dir.join(format!("{name}.csv"));
        if let Err(e) = st_report::write_csv(table, &path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  [csv] {}", path.display());
        }
    }
}

/// Runs a whole experiment group against a shared baseline and produces
/// panel rows (the contents of one of the paper's figure panels).
#[must_use]
pub fn run_panel(
    harness: &Harness,
    config: &PipelineConfig,
    baselines: &[SimReport],
    experiments: &[Experiment],
) -> Vec<PanelRow> {
    experiments
        .iter()
        .map(|e| {
            let reports = harness.run_all(e, config);
            let per_workload: Vec<(String, Comparison)> = baselines
                .iter()
                .zip(&reports)
                .map(|(b, r)| (b.workload.clone(), compare(b, r)))
                .collect();
            let average = st_core::average_comparison(
                &per_workload.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            );
            PanelRow { id: e.id.to_string(), label: e.label.to_string(), per_workload, average }
        })
        .collect()
}

/// Formats a figure panel (one metric across experiments × workloads) as a
/// table: rows = experiments, columns = workloads + Average.
#[must_use]
pub fn panel_table(
    title: &str,
    rows: &[PanelRow],
    metric: impl Fn(&Comparison) -> f64,
    unit: &str,
) -> Table {
    st_sweep::figures::panel_table(title, rows, metric, 1, unit)
}

/// The four metric panels of a Figure 3/4/5-style figure, printed and
/// saved under `results/`.
pub fn emit_figure(harness: &Harness, fig: &str, rows: &[PanelRow]) {
    st_sweep::figures::emit_figure(&harness.ctx(), fig, rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_from_env_defaults() {
        let h = Harness::from_env();
        assert_eq!(h.workloads.len(), 8);
        assert!(h.instructions > 0);
    }

    #[test]
    fn paper_averages_cover_headline_experiments() {
        let p = paper_averages();
        assert!(p.contains_key("C2"));
        assert!(p.contains_key("A5"));
        assert!((p["C2"].energy - 13.5).abs() < 1e-9);
        assert_eq!(p["C2"].ed, Some(8.5));
    }

    #[test]
    fn panel_runs_on_tiny_budget() {
        let mut h = Harness::from_env();
        h.instructions = 2_000;
        h.workloads.truncate(2);
        let cfg = PipelineConfig::paper_default();
        let base = h.run_baselines(&cfg);
        assert_eq!(base.len(), 2);
        let rows = run_panel(&h, &cfg, &base, &[st_core::experiments::a5()]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_workload.len(), 2);
        let t = panel_table("t", &rows, |c| c.energy_savings_pct, "%");
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("A5"));
    }

    #[test]
    fn rerunning_baselines_hits_the_cache() {
        let mut h = Harness::from_env();
        h.instructions = 2_000;
        h.workloads.truncate(2);
        let cfg = PipelineConfig::paper_default();
        let a = h.run_baselines(&cfg);
        let simulated = h.engine().stats().simulated;
        let b = h.run_baselines(&cfg);
        assert_eq!(a, b);
        assert_eq!(h.engine().stats().simulated, simulated, "no re-simulation");
    }
}
