//! Property test for the engine's schedule: for a *random* sweep spec
//! (random workload subset, experiment list, window sizes, gating
//! threshold and instruction budget) the engine's JSONL output at every
//! thread count in {1, 2, 4} is byte-identical to the JSONL built from
//! per-point `JobSpec::run` reports.
//!
//! The engine groups a batch's points by workload and shares one
//! generated program image per group; `JobSpec::run` generates its own.
//! So this compares sharing on against sharing off, over the spec space
//! rather than at a handful of pinned points like the goldens.

use proptest::prelude::*;
use st_sweep::{JobSpec, SweepEngine, SweepSpec};

/// Workload pool the mask draws from (a subset keeps cases fast; the
/// goldens already cover every paper workload).
const WORKLOADS: [&str; 4] = ["go", "gcc", "compress", "twolf"];

/// Renders one random sweep spec as TOML.
fn spec_toml(wmask: u8, with_a7: bool, ruu: u64, gate: u64, instructions: u64) -> String {
    let picked: Vec<String> = WORKLOADS
        .iter()
        .enumerate()
        .filter(|(i, _)| wmask & (1 << i) != 0)
        .map(|(_, w)| format!("\"{w}\""))
        .collect();
    let workloads = if picked.is_empty() { "\"go\"".to_string() } else { picked.join(", ") };
    let experiments = if with_a7 { "\"C2\", \"A7\"" } else { "\"C2\"" };
    format!(
        "name = \"schedule-props\"\nworkloads = [{workloads}]\nexperiments = [{experiments}]\n\n\
         [axis]\nruu_size = [{ruu}, {}]\ngating_threshold = [{gate}]\ninstructions = {instructions}\n",
        ruu * 2,
    )
}

/// Renders the same JSONL document `st run` emits for `toml`, with the
/// reports either from an engine at `threads` workers or, at `None`,
/// from `JobSpec::run` point by point.
fn jsonl(toml: &str, threads: Option<usize>) -> String {
    let spec = SweepSpec::parse(toml).expect("random spec parses");
    let points = spec.points().expect("points resolve");
    let jobs: Vec<JobSpec> = points.iter().map(|p| p.job.clone()).collect();
    let reports = match threads {
        Some(n) => SweepEngine::new(n).run(&jobs),
        None => jobs.iter().map(|j| std::sync::Arc::new(j.run())).collect(),
    };
    st_sweep::emit::sweep_jsonl(&points, &reports)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn every_thread_count_emits_the_per_point_jsonl_bytes(
        wmask in 1u8..16,
        with_a7 in any::<bool>(),
        ruu_pick in 0usize..3,
        gate in 1u64..=3,
        instructions in 500u64..=2_000,
    ) {
        let ruu = [16u64, 32, 64][ruu_pick];
        let toml = spec_toml(wmask, with_a7, ruu, gate, instructions);
        let unshared = jsonl(&toml, None);
        for threads in [1usize, 2, 4] {
            let shared = jsonl(&toml, Some(threads));
            prop_assert_eq!(
                &shared,
                &unshared,
                "{} threads diverged from per-point runs for spec:\n{}",
                threads,
                toml
            );
        }
    }
}
