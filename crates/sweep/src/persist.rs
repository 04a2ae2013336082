//! The result-store payload codec and the legacy-cache import.
//!
//! [`report_to_json`] serialises a [`SimReport`] as one line of JSON —
//! the payload of every segment-log frame (see [`crate::logstore`]) —
//! and [`report_from_json`] parses it back. Round-trips are **exact**:
//! floats are written with Rust's shortest round-trip formatting and
//! parsed back bit-identically, so a report served from disk is
//! indistinguishable from a fresh simulation — the CI determinism check
//! diffs JSONL output across cached and uncached runs. Version-skewed
//! payloads fail to parse and are treated as misses, never fatal.
//!
//! [`open_store`] opens the result store under an output directory.
//! Older versions kept one JSON file per fingerprint under
//! `<out>/.cache/`; when `<out>/.store` does not exist yet, those files'
//! raw bytes are imported once into the segment log (read-only: the
//! JSON files and the `claims/` directory next to them stay untouched).

use std::path::{Path, PathBuf};

use crate::logstore::LogStore;

use st_bpred::{ConfidenceStats, PredictorStats};
use st_core::SimReport;
use st_pipeline::{MemSummary, PerfStats};
use st_power::{EnergyReport, UNIT_COUNT};

use crate::emit::json_escape;
use crate::json::Json;

/// Format version; bump when the encoding changes so stale stores
/// degrade to misses instead of mis-parses.
const VERSION: u64 = 1;

/// Where the result store lives under an output directory.
#[must_use]
pub fn store_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(".store")
}

/// Where older versions kept their one-file-per-fingerprint JSON cache
/// (and where `st shard` keeps its work-stealing claims).
#[must_use]
pub fn legacy_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(".cache")
}

/// Opens the result store under `out_dir` index-only (see
/// [`LogStore::open`]). If `<out>/.store` does not exist but a legacy
/// JSON cache does, every readable legacy entry's raw bytes are appended
/// first, in fingerprint order; entries that do not parse are skipped
/// and counted in [`LoadStats::skipped_corrupt`](crate::LoadStats). A
/// fresh directory creates nothing until the first append.
#[must_use]
pub fn open_store(out_dir: &Path) -> LogStore {
    let dir = store_dir(out_dir);
    let import = !dir.exists();
    let store = LogStore::open(dir);
    if import {
        import_legacy(&legacy_dir(out_dir), &store);
    }
    store
}

fn import_legacy(legacy: &Path, store: &LogStore) {
    let Ok(dir) = std::fs::read_dir(legacy) else { return };
    let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut skipped = 0;
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(fp) = fingerprint_of(&path) else { continue };
        let parsed = std::fs::read(&path)
            .ok()
            .filter(|bytes| std::str::from_utf8(bytes).is_ok_and(|t| report_from_json(t).is_ok()));
        match parsed {
            Some(bytes) => entries.push((fp, bytes)),
            None => skipped += 1,
        }
    }
    entries.sort_unstable_by_key(|(fp, _)| *fp);
    for (fp, bytes) in &entries {
        if let Err(e) = store.append_raw(*fp, bytes) {
            eprintln!("warning: legacy import into {} stopped: {e}", store.dir().display());
            break;
        }
    }
    store.note_import(skipped);
}

/// Deletes the legacy JSON entry files under `out_dir` (leaving claims
/// and foreign files alone), so a cleared store is not re-imported.
/// Returns how many were removed.
///
/// # Errors
///
/// Returns the first failed removal.
pub fn remove_legacy_entries(out_dir: &Path) -> std::io::Result<u64> {
    let Ok(dir) = std::fs::read_dir(legacy_dir(out_dir)) else { return Ok(0) };
    let mut removed = 0;
    for entry in dir.flatten() {
        if fingerprint_of(&entry.path()).is_some() {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// `<dir>/0123456789abcdef.json` → the fingerprint; anything else `None`.
fn fingerprint_of(path: &Path) -> Option<u64> {
    if path.extension()?.to_str()? != "json" {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

// ---------------------------------------------------------------------
// SimReport <-> JSON (exact round-trip).
// ---------------------------------------------------------------------

/// Exact float encoding: Rust's shortest round-trip representation
/// (non-finite values render as `NaN`/`inf`, which [`report_from_json`]
/// accepts — this is a private cache format, not interchange JSON).
fn num(v: f64) -> String {
    format!("{v}")
}

fn num_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

fn int_array(vs: &[u64]) -> String {
    let items: Vec<String> = vs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Serialises a report as one line of JSON.
#[must_use]
pub fn report_to_json(r: &SimReport) -> String {
    let p = &r.perf;
    let perf = [
        p.cycles,
        p.committed,
        p.fetched,
        p.wrong_path_fetched,
        p.dispatched,
        p.wrong_path_dispatched,
        p.issued,
        p.wrong_path_issued,
        p.squashed,
        p.branches_committed,
        p.mispredicts_committed,
        p.recoveries,
        p.fetch_gated_cycles,
        p.decode_gated_cycles,
        p.selection_blocked,
    ];
    let conf: Vec<u64> = r.conf.counts.iter().flatten().copied().collect();
    let mem = [r.mem.l1i_miss_rate, r.mem.l1d_miss_rate, r.mem.l2_miss_rate, r.mem.tlb_miss_rate];
    format!(
        "{{\"v\":{VERSION},\"workload\":\"{}\",\"experiment\":\"{}\",\"label\":\"{}\",\"perf\":{},\"energy_cycles\":{},\"energy_committed\":{},\"frequency_hz\":{},\"energy\":{},\"per_unit\":{},\"wasted_per_unit\":{},\"bpred\":{},\"conf\":{},\"mem\":{}}}\n",
        json_escape(&r.workload),
        json_escape(&r.experiment),
        json_escape(&r.label),
        int_array(&perf),
        r.energy.cycles,
        r.energy.committed,
        num(r.energy.frequency_hz),
        num(r.energy.energy),
        num_array(&r.energy.per_unit),
        num_array(&r.energy.wasted_per_unit),
        int_array(&[r.bpred.predictions, r.bpred.mispredictions]),
        int_array(&conf),
        num_array(&mem),
    )
}

/// Parses a report serialised by [`report_to_json`].
pub fn report_from_json(text: &str) -> Result<SimReport, String> {
    let json = Json::parse(text)?;
    let obj = json.as_obj()?;
    if get(obj, "v")?.as_u64()? != VERSION {
        return Err("unsupported cache entry version".to_string());
    }
    let perf_raw = get(obj, "perf")?.as_u64_vec()?;
    let [cycles, committed, fetched, wrong_path_fetched, dispatched, wrong_path_dispatched, issued, wrong_path_issued, squashed, branches_committed, mispredicts_committed, recoveries, fetch_gated_cycles, decode_gated_cycles, selection_blocked] =
        perf_raw.as_slice()
    else {
        return Err(format!("perf expects 15 counters, got {}", perf_raw.len()));
    };
    let perf = PerfStats {
        cycles: *cycles,
        committed: *committed,
        fetched: *fetched,
        wrong_path_fetched: *wrong_path_fetched,
        dispatched: *dispatched,
        wrong_path_dispatched: *wrong_path_dispatched,
        issued: *issued,
        wrong_path_issued: *wrong_path_issued,
        squashed: *squashed,
        branches_committed: *branches_committed,
        mispredicts_committed: *mispredicts_committed,
        recoveries: *recoveries,
        fetch_gated_cycles: *fetch_gated_cycles,
        decode_gated_cycles: *decode_gated_cycles,
        selection_blocked: *selection_blocked,
    };
    let energy = EnergyReport {
        cycles: get(obj, "energy_cycles")?.as_u64()?,
        committed: get(obj, "energy_committed")?.as_u64()?,
        frequency_hz: get(obj, "frequency_hz")?.as_f64()?,
        energy: get(obj, "energy")?.as_f64()?,
        per_unit: unit_array(get(obj, "per_unit")?)?,
        wasted_per_unit: unit_array(get(obj, "wasted_per_unit")?)?,
    };
    let bpred_raw = get(obj, "bpred")?.as_u64_vec()?;
    let [predictions, mispredictions] = bpred_raw.as_slice() else {
        return Err("bpred expects 2 counters".to_string());
    };
    let conf_raw = get(obj, "conf")?.as_u64_vec()?;
    if conf_raw.len() != 8 {
        return Err("conf expects 8 counters".to_string());
    }
    let mut conf = ConfidenceStats::default();
    for (i, v) in conf_raw.iter().enumerate() {
        conf.counts[i / 2][i % 2] = *v;
    }
    let mem_raw = get(obj, "mem")?.as_f64_vec()?;
    let [l1i, l1d, l2, tlb] = mem_raw.as_slice() else {
        return Err("mem expects 4 rates".to_string());
    };
    Ok(SimReport {
        workload: get(obj, "workload")?.as_str()?.to_string(),
        experiment: get(obj, "experiment")?.as_str()?.to_string(),
        label: get(obj, "label")?.as_str()?.to_string(),
        perf,
        energy,
        bpred: PredictorStats { predictions: *predictions, mispredictions: *mispredictions },
        conf,
        mem: MemSummary {
            l1i_miss_rate: *l1i,
            l1d_miss_rate: *l1d,
            l2_miss_rate: *l2,
            tlb_miss_rate: *tlb,
        },
    })
}

fn unit_array(json: &Json) -> Result<[f64; UNIT_COUNT], String> {
    let v = json.as_f64_vec()?;
    let arr: [f64; UNIT_COUNT] =
        v.try_into().map_err(|_| format!("expected {UNIT_COUNT} per-unit values"))?;
    Ok(arr)
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or_else(|| format!("missing `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpec;
    use st_isa::WorkloadSpec;

    fn report(seed: u64) -> SimReport {
        JobSpec::new(WorkloadSpec::builder("persist-test").seed(seed).blocks(64).build(), 1_500)
            .with_experiment(st_core::experiments::c2())
            .run()
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = report(1);
        let json = report_to_json(&r);
        let back = report_from_json(&json).expect("parse");
        // PartialEq covers every counter and float bit-for-bit.
        assert_eq!(r, back);
    }

    #[test]
    fn non_finite_floats_survive() {
        let mut r = report(2);
        r.mem.l2_miss_rate = f64::NAN;
        r.mem.tlb_miss_rate = f64::INFINITY;
        let back = report_from_json(&report_to_json(&r)).expect("parse");
        assert!(back.mem.l2_miss_rate.is_nan());
        assert_eq!(back.mem.tlb_miss_rate, f64::INFINITY);
    }

    #[test]
    fn escaped_strings_survive() {
        let mut r = report(3);
        r.label = "quote\" slash\\ newline\n tab\t".to_string();
        let back = report_from_json(&report_to_json(&r)).expect("parse");
        assert_eq!(back.label, r.label);
    }

    #[test]
    fn rejects_version_skew_and_garbage() {
        let r = report(4);
        let json = report_to_json(&r).replace("\"v\":1", "\"v\":999");
        assert!(report_from_json(&json).is_err());
        assert!(report_from_json("not json").is_err());
        assert!(report_from_json("{}").is_err());
        assert!(report_from_json("{\"v\":1}").is_err());
    }

    /// Writes `report` as a legacy `<out>/.cache/<fp>.json` entry.
    fn write_legacy(out: &Path, fp: u64, report: &SimReport) -> PathBuf {
        let path = legacy_dir(out).join(format!("{fp:016x}.json"));
        std::fs::create_dir_all(legacy_dir(out)).expect("mkdir");
        std::fs::write(&path, report_to_json(report)).expect("write legacy entry");
        path
    }

    #[test]
    fn import_round_trips_byte_identically_and_leaves_legacy_files() {
        let out = std::env::temp_dir().join(format!("st-import-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let (a, b) = (report(20), report(21));
        let path_a = write_legacy(&out, 0x20, &a);
        write_legacy(&out, 0x10, &b);
        let raw_a = std::fs::read(&path_a).expect("raw a");
        // One corrupt entry and the claims directory: skipped, untouched.
        let corrupt = legacy_dir(&out).join(format!("{:016x}.json", 0x99u64));
        std::fs::write(&corrupt, "garbage").unwrap();
        std::fs::create_dir_all(legacy_dir(&out).join("claims")).unwrap();

        let store = open_store(&out);
        assert!(store_dir(&out).is_dir(), "segment store created by the import");
        assert_eq!(store.fingerprints(), vec![0x10, 0x20]);
        assert_eq!(store.load_stats().skipped_corrupt, 1);
        assert_eq!(store.raw_payload(0x20).as_deref(), Some(raw_a.as_slice()), "bytes verbatim");
        assert_eq!(store.get(0x10), Some(b));
        assert_eq!(std::fs::read(&path_a).expect("legacy entry kept"), raw_a);
        assert!(corrupt.exists() && legacy_dir(&out).join("claims").is_dir());
        drop(store);

        // The import is one-shot: once `.store` exists, legacy files
        // are never read again, so a cleared store stays cleared.
        std::fs::write(&corrupt, report_to_json(&a)).unwrap();
        assert_eq!(open_store(&out).fingerprints(), vec![0x10, 0x20]);
        assert_eq!(remove_legacy_entries(&out).expect("remove"), 3);
        assert!(legacy_dir(&out).join("claims").is_dir(), "claims survive");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn importing_an_absent_cache_creates_nothing() {
        let out = std::env::temp_dir().join(format!("st-import-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let store = open_store(&out);
        assert!(store.fingerprints().is_empty());
        assert!(!out.exists(), "opening a fresh output directory creates nothing");
        let r = report(22);
        store.store(7, &r).expect("first append creates the store");
        assert_eq!(open_store(&out).get(7), Some(r));
        let _ = std::fs::remove_dir_all(&out);
    }
}
