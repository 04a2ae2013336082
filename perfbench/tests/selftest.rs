//! Self-tests of the benchmark: seeded inputs repeat exactly, the
//! catalogue matches `BENCHMARK.json`, and smoke mode runs every
//! workload end to end.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;

use st_perfbench::inputs;
use st_perfbench::metrics::{END_TO_END, PER_LAYER};
use st_perfbench::stats::percentile;
use st_perfbench::WORKLOADS;

#[test]
fn same_seed_same_inputs_and_another_seed_differs() {
    let short = |seed| inputs::sweep_short_spec(seed, 0, 2_000, false);
    let long = |seed| inputs::sweep_long_specs(seed, 0, 200_000, false);
    let serve = |seed| inputs::serve_inputs(seed, 300, 32.0, 10_000);
    let avoid: HashSet<u64> = [1, 2, 3].into_iter().collect();
    let synth = |seed| inputs::synthetic_fingerprints(seed, 1_000, &avoid);
    let sample = |seed| inputs::sample_indices(seed, 648, 16);

    assert_eq!(short(7), short(7));
    assert_eq!(long(7), long(7));
    assert_eq!(serve(7), serve(7));
    assert_eq!(synth(7), synth(7));
    assert_eq!(sample(7), sample(7));

    assert_ne!(short(7), short(8));
    assert_ne!(long(7).1, long(8).1);
    assert_ne!(serve(7), serve(8));
    assert_ne!(synth(7), synth(8));
    assert_ne!(sample(7), sample(8));
    // The paper grid of sweep-long is the same for every seed; only the
    // held-out members change.
    assert_eq!(long(7).0, long(8).0);
}

#[test]
fn inputs_have_the_documented_shape() {
    let spec = st_sweep::SweepSpec::parse(&inputs::sweep_short_spec(3, 0, 2_000, false))
        .expect("sweep-short spec parses");
    assert_eq!(spec.points().expect("expands").len(), 12 * 27 * 2);
    let (paper, held) = inputs::sweep_long_specs(3, 0, 200_000, false);
    let n =
        |t: &str| st_sweep::SweepSpec::parse(t).and_then(|s| s.points()).expect("expands").len();
    assert_eq!(n(&paper) + n(&held), 8 * 13 + 4 * 3);

    let avoid: HashSet<u64> =
        inputs::synthetic_fingerprints(5, 100, &HashSet::new()).into_iter().collect();
    let synth = inputs::synthetic_fingerprints(5, 10_000, &avoid);
    assert_eq!(synth.len(), 10_000);
    assert!(
        synth.iter().all(|fp| !avoid.contains(fp)),
        "synthetic entries avoid grid fingerprints"
    );
    assert_eq!(
        synth.iter().collect::<HashSet<_>>().len(),
        synth.len(),
        "fingerprints are distinct"
    );

    let serve = inputs::serve_inputs(5, 600, 32.0, 10_000);
    assert_eq!(serve.pool.len(), 16, "8 paper workloads + 8 generative members");
    assert_eq!(serve.schedule.len(), 600);
    assert!(serve.schedule.windows(2).all(|w| w[1].due_s > w[0].due_s), "evenly spaced");
    let distinct: HashSet<usize> = serve.schedule.iter().map(|s| s.key).collect();
    assert!(distinct.len() >= 10, "cold (first) submissions: {}", distinct.len());
}

#[test]
fn nearest_rank_percentiles_report_their_n() {
    let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    let p95 = percentile(&v, 95.0);
    assert_eq!((p95.value, p95.n, p95.beyond), (190.0, 200, 10));
}

/// The metric objects of one `BENCHMARK.json` section, as
/// `(name, unit)` pairs, read line by line (one object per line).
fn section(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, name: &str| {
        let at = line.find(&format!("\"{name}\": \""))? + name.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(m, u)| ((*m).to_string(), (*u).to_string())).collect()
    };
    assert_eq!(section(&text, "end_to_end"), own(&END_TO_END));
    assert_eq!(section(&text, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = section(&text, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Runs the benchmark binary in smoke mode and returns its last line.
fn smoke(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_st-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8").lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_mode_runs_every_workload() {
    for workload in WORKLOADS {
        let result = smoke(workload, false);
        assert!(result.starts_with("{\"correct\":true,"), "{workload}: {result}");
        for (m, u) in END_TO_END {
            assert!(result.contains(&format!("\"{m}\":{{\"value\":")), "{workload} lacks {m}");
            assert!(result.contains(&format!("\"unit\":\"{u}\"")), "{workload} lacks unit {u}");
        }
        let traced = smoke(workload, true);
        assert!(traced.starts_with("{\"correct\":true,"), "{workload} traced: {traced}");
        for (m, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{m}\":")), "{workload} traced lacks {m}");
        }
    }
}

#[test]
fn a_bad_argument_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_st-perfbench"))
        .args(["--workload", "nope"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
