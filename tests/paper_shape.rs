//! Paper-shape regression tests: the qualitative results of the paper must
//! hold on the calibrated workloads. Each test checks one published claim
//! against a band around the paper's number (the band and the paper
//! section sit on the test itself), so a model change that moves a
//! result out of the paper's range fails here; run lengths are kept
//! moderate so the suite stays fast in CI.

use selective_throttling::core::{compare, experiments, Simulator};
use st_isa::WorkloadSpec;

const N: u64 = 40_000;

fn run(spec: &WorkloadSpec, e: st_core::Experiment) -> st_core::SimReport {
    Simulator::builder().workload(spec.clone()).max_instructions(N).experiment(e).build().run()
}

/// §3 / Table 1: a significant fraction of the baseline's energy is wasted
/// by mis-speculated instructions, and hard workloads waste more.
#[test]
fn wasted_energy_fraction_matches_paper_band() {
    let go = run(&st_workloads::go(), experiments::baseline());
    let parser = run(&st_workloads::parser(), experiments::baseline());
    assert!(go.energy.wasted_frac() > 0.25, "go must waste >25% ({:.3})", go.energy.wasted_frac());
    assert!(
        parser.energy.wasted_frac() > 0.10,
        "parser must waste >10% ({:.3})",
        parser.energy.wasted_frac()
    );
    assert!(go.energy.wasted_frac() > parser.energy.wasted_frac(), "harder workload wastes more");
}

/// Figure 1: oracle fetch saves power in the paper's ~15-30% band on the
/// hard workloads.
#[test]
fn oracle_fetch_savings_in_band() {
    let spec = st_workloads::twolf();
    let base = run(&spec, experiments::baseline());
    let of = run(&spec, experiments::oracle_fetch());
    let c = compare(&base, &of);
    assert!(
        c.power_savings_pct > 10.0 && c.power_savings_pct < 45.0,
        "oracle fetch power savings out of band: {c:?}"
    );
    assert_eq!(of.perf.wrong_path_fetched, 0);
}

/// Figure 3 trend: more aggressive fetch throttling saves more energy but
/// eventually hurts the E-D product (A6 worse than A5 on E-D).
#[test]
fn fetch_throttling_aggressiveness_tradeoff() {
    let spec = st_workloads::go();
    let base = run(&spec, experiments::baseline());
    let a1 = compare(&base, &run(&spec, experiments::a1()));
    let a5 = compare(&base, &run(&spec, experiments::a5()));
    let a6 = compare(&base, &run(&spec, experiments::a6()));
    assert!(
        a5.energy_savings_pct > a1.energy_savings_pct,
        "A5 must save more energy than A1 ({a5:?} vs {a1:?})"
    );
    assert!(
        a6.speedup < a5.speedup,
        "A6 must be slower than A5 ({} vs {})",
        a6.speedup,
        a5.speedup
    );
    assert!(
        a5.ed_improvement_pct > a6.ed_improvement_pct,
        "blanket stalling must hurt E-D vs selective stalling"
    );
}

/// §5.2 headline, part 1: on go, C2 saves energy in the paper's band and
/// improves the E-D product.
#[test]
fn c2_headline_on_go() {
    let spec = st_workloads::go();
    let base = run(&spec, experiments::baseline());
    let c2 = compare(&base, &run(&spec, experiments::c2()));
    assert!(c2.energy_savings_pct > 10.0, "C2 energy savings on go out of band: {c2:?}");
    assert!(c2.ed_improvement_pct > 0.0, "C2 must improve E-D on go: {c2:?}");
}

/// §5.2 headline, part 2: averaged over workloads, Selective Throttling
/// beats Pipeline Gating on the E-D product (the paper's 8.5 % vs 3.5 %).
/// Gating's all-or-nothing stalls hurt most on the easier benchmarks, so
/// the average — not any single benchmark — carries the claim.
#[test]
fn c2_beats_gating_on_ed_average() {
    let mut c2_sum = 0.0;
    let mut c7_sum = 0.0;
    for spec in [st_workloads::go(), st_workloads::gcc(), st_workloads::parser()] {
        let base = run(&spec, experiments::baseline());
        c2_sum += compare(&base, &run(&spec, experiments::c2())).ed_improvement_pct;
        c7_sum += compare(&base, &run(&spec, experiments::c7())).ed_improvement_pct;
    }
    assert!(
        c2_sum > c7_sum,
        "selective throttling must beat gating on average E-D ({:.1} vs {:.1})",
        c2_sum / 3.0,
        c7_sum / 3.0
    );
}

/// §4.3: the JRS estimator has higher SPEC but lower PVN than the
/// BPRU-style estimator — the asymmetry the paper's design exploits.
#[test]
fn estimator_operating_points_differ_as_published() {
    let spec = st_workloads::gcc();
    let bpru = run(&spec, experiments::baseline());
    let jrs = run(&spec, experiments::a7());
    assert!(
        jrs.conf.spec() > bpru.conf.spec(),
        "JRS must cover more mispredictions (SPEC {:.2} vs {:.2})",
        jrs.conf.spec(),
        bpru.conf.spec()
    );
    assert!(
        bpru.conf.pvn() > jrs.conf.pvn(),
        "BPRU labels must be more precise (PVN {:.2} vs {:.2})",
        bpru.conf.pvn(),
        jrs.conf.pvn()
    );
}

/// Table 2: the calibrated pipeline misprediction rates track the paper's
/// per-benchmark ordering (go hardest, parser/crafty easiest).
#[test]
fn pipeline_mispredict_rates_track_table2() {
    let go = run(&st_workloads::go(), experiments::baseline());
    let parser = run(&st_workloads::parser(), experiments::baseline());
    let crafty = run(&st_workloads::crafty(), experiments::baseline());
    assert!(go.perf.mispredict_rate() > 0.14, "go ({:.3})", go.perf.mispredict_rate());
    assert!(parser.perf.mispredict_rate() < 0.11, "parser ({:.3})", parser.perf.mispredict_rate());
    assert!(go.perf.mispredict_rate() > parser.perf.mispredict_rate());
    assert!(go.perf.mispredict_rate() > crafty.perf.mispredict_rate());
}
