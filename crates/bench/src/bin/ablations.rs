//! Design-choice ablations of the reproduction (clock-gating style,
//! estimator training asymmetry, Pipeline Gating threshold), submitted
//! to the `st-sweep` engine as batched grids.
//!
//! Thin wrapper over [`st_sweep::figures::ablations`]; `st repro`
//! regenerates every figure in one shared-cache pass.

use st_sweep::figures::{ablations, FigureCtx};
use st_sweep::SweepEngine;

fn main() {
    let engine = SweepEngine::auto();
    ablations(&FigureCtx::from_env(&engine));
}
