//! Property tests for the segment-log result store's durability
//! contract: **any** committed record survives **any** crash or
//! corruption byte-for-byte, or is detected and skipped — never served
//! mangled.
//!
//! * a torn tail (simulated at *every* byte boundary of the file)
//!   recovers to exactly the committed prefix;
//! * any single-byte tamper is detected — what loads is a strict,
//!   byte-identical subset of what was written — whether it happened
//!   before the store was opened (the scan catches it) or after the
//!   index was built (the lookup's re-verification catches it);
//! * arbitrary record sets round-trip byte-identically across reopens,
//!   and stay byte-identical for the survivors of any eviction order.

use std::sync::OnceLock;

use proptest::prelude::*;
use st_core::SimReport;
use st_sweep::logstore::{LogStore, LogStoreConfig};
use st_sweep::persist::report_to_json;
use st_sweep::JobSpec;

/// On-disk format constants (documented in `st_sweep::logstore`): the
/// 8-byte segment header and the 21-byte frame header.
const SEGMENT_HEADER_BYTES: u64 = 8;
const FRAME_HEADER_BYTES: u64 = 21;

/// One real (tiny) simulation, reused as the payload template; each
/// record perturbs one field so payloads are pairwise distinct but stay
/// realistic in size and shape.
fn report_for(seed: u64) -> SimReport {
    static BASE: OnceLock<SimReport> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let spec = st_workloads::by_name("go").expect("known workload");
        JobSpec::new(spec, 500).run()
    });
    let mut r = base.clone();
    r.perf.cycles = r.perf.cycles.wrapping_add(seed);
    r
}

/// Every live entry decoded through the decode-on-hit lookup path,
/// ascending by fingerprint.
fn load_all(store: &LogStore) -> Vec<(u64, SimReport)> {
    store.fingerprints().into_iter().filter_map(|fp| Some((fp, store.get(fp)?))).collect()
}

/// A throwaway store directory unique to this test and case.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("st-logstore-props-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic permutation of `0..n` from a seed (tiny LCG
/// Fisher-Yates, so proptest shrinking stays meaningful).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Torn-tail recovery, exhaustively: a store of `N` records is cut at
/// **every** byte length between the segment header and the full file,
/// and every cut must recover exactly the records fully committed
/// before it — with the partial frame's bytes counted as torn.
#[test]
fn torn_tail_recovers_the_committed_prefix_at_every_byte_boundary() {
    let dir = scratch_dir("torn-write");
    let seg = dir.join("seg-0.log");
    let mut boundaries = vec![SEGMENT_HEADER_BYTES];
    {
        let store = LogStore::open(&dir);
        for seed in 1..=3u64 {
            store.store(seed, &report_for(seed)).expect("append");
            boundaries.push(std::fs::metadata(&seg).expect("segment exists").len());
        }
    }
    let pristine = std::fs::read(&seg).expect("read segment");
    assert_eq!(*boundaries.last().expect("nonempty") as usize, pristine.len());

    let cut_dir = scratch_dir("torn-cut");
    std::fs::create_dir_all(&cut_dir).expect("mkdir");
    let cut_seg = cut_dir.join("seg-0.log");
    for cut in SEGMENT_HEADER_BYTES as usize..=pristine.len() {
        std::fs::write(&cut_seg, &pristine[..cut]).expect("write cut copy");
        let store = LogStore::open(&cut_dir);
        let loaded = load_all(&store);
        // Records whose frame is entirely below the cut survive.
        let committed = boundaries.iter().skip(1).filter(|&&end| end as usize <= cut).count();
        let fps: Vec<u64> = loaded.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(
            fps,
            (1..=committed as u64).collect::<Vec<u64>>(),
            "cut at byte {cut}: expected exactly the committed prefix"
        );
        for (fp, report) in &loaded {
            assert_eq!(
                report_to_json(report),
                report_to_json(&report_for(*fp)),
                "cut at byte {cut}: record {fp} must be byte-identical"
            );
        }
        // The partial frame is accounted as torn and physically gone.
        let last_boundary =
            *boundaries.iter().filter(|&&b| b as usize <= cut).max().expect("header boundary");
        assert_eq!(store.load_stats().torn_tail_bytes, cut as u64 - last_boundary);
        drop(store);
        assert_eq!(
            std::fs::metadata(&cut_seg).expect("segment kept").len(),
            last_boundary,
            "cut at byte {cut}: torn tail must be physically truncated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any single-byte change anywhere in a segment file is detected:
    /// the reload serves a strict, byte-identical subset of what was
    /// written and reports the damage in its counters.
    #[test]
    fn any_single_byte_tamper_is_detected(
        records in 1u64..=4,
        tamper_pos in any::<u64>(),
        tamper_xor in 1u8..=255,
    ) {
        let dir = scratch_dir(&format!("tamper-{records}"));
        {
            let store = LogStore::open(&dir);
            for seed in 1..=records {
                store.store(seed, &report_for(seed)).expect("append");
            }
        }
        let seg = dir.join("seg-0.log");
        let mut buf = std::fs::read(&seg).expect("read segment");
        let pos = (tamper_pos % buf.len() as u64) as usize;
        buf[pos] ^= tamper_xor;
        std::fs::write(&seg, &buf).expect("write tampered segment");

        let store = LogStore::open(&dir);
        let loaded = load_all(&store);
        prop_assert!(
            (loaded.len() as u64) < records,
            "a tampered byte at {pos} must lose at least one record"
        );
        for (fp, report) in &loaded {
            prop_assert_eq!(
                report_to_json(report),
                report_to_json(&report_for(*fp)),
                "surviving record {} must be byte-identical",
                fp
            );
        }
        let stats = store.load_stats();
        prop_assert!(
            stats.skipped_corrupt + stats.torn_tail_bytes > 0,
            "damage must be visible in the load counters"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single-byte change inside a frame made *after* the index was
    /// built is caught when that frame is read: its lookup is a miss
    /// (the engine then re-simulates the point), never a decode of the
    /// damaged bytes, and every other record still reads back intact.
    #[test]
    fn a_tamper_after_open_is_caught_on_read(
        records in 1u64..=4,
        tamper_pos in any::<u64>(),
        tamper_xor in 1u8..=255,
    ) {
        let dir = scratch_dir(&format!("late-tamper-{records}"));
        let seg = dir.join("seg-0.log");
        let mut ends = vec![SEGMENT_HEADER_BYTES];
        let store = LogStore::open(&dir);
        for seed in 1..=records {
            store.store(seed, &report_for(seed)).expect("append");
            ends.push(std::fs::metadata(&seg).expect("segment exists").len());
        }
        let mut buf = std::fs::read(&seg).expect("read segment");
        let frames = buf.len() as u64 - SEGMENT_HEADER_BYTES;
        let pos = SEGMENT_HEADER_BYTES + tamper_pos % frames;
        buf[pos as usize] ^= tamper_xor;
        std::fs::write(&seg, &buf).expect("write tampered segment");
        // Record `k` owns the frame bytes ends[k-1]..ends[k].
        let hit = (1..=records).find(|&k| pos < ends[k as usize]).expect("inside a frame");
        for seed in 1..=records {
            let got = store.get(seed);
            if seed == hit {
                prop_assert!(got.is_none(), "tampered record {} must be a miss", seed);
                prop_assert!(store.raw_payload(seed).is_none());
            } else {
                let got = got.expect("untouched record reads back");
                prop_assert_eq!(report_to_json(&got), report_to_json(&report_for(seed)));
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary record sets round-trip byte-identically across a
    /// reopen — at any segment-roll granularity — and after evicting in
    /// an arbitrary LRU order the survivors are still byte-identical.
    #[test]
    fn round_trip_survives_reopens_and_arbitrary_eviction_orders(
        records in 1usize..=10,
        keep in 0usize..=10,
        segment_pick in 0usize..4,
        order_seed in any::<u64>(),
    ) {
        let keep = keep.min(records);
        // segment_bytes 1 seals a segment per record; larger targets
        // pack several records per segment.
        let segment_kib = [0u64, 1, 4, 64][segment_pick];
        let config = LogStoreConfig {
            segment_bytes: if segment_kib == 0 { 1 } else { segment_kib * 1024 },
        };
        let dir = scratch_dir(&format!("roundtrip-{records}-{segment_kib}"));
        {
            let store = LogStore::open_with_config(&dir, config);
            for seed in 1..=records as u64 {
                store.store(seed, &report_for(seed)).expect("append");
            }
        }
        let store = LogStore::open_with_config(&dir, config);
        let loaded = load_all(&store);
        prop_assert_eq!(loaded.len(), records);
        let mut frame_bytes = std::collections::HashMap::new();
        for (fp, report) in &loaded {
            let expected = report_to_json(&report_for(*fp));
            prop_assert_eq!(&report_to_json(report), &expected);
            let raw = store.raw_payload(*fp).expect("indexed payload");
            prop_assert_eq!(raw.as_slice(), expected.as_bytes(), "raw bytes preserved verbatim");
            frame_bytes.insert(*fp, FRAME_HEADER_BYTES + raw.len() as u64);
        }

        // Touch in an arbitrary order; the last `keep` touched must be
        // exactly the survivors of an eviction sized to fit them.
        let order = permutation(records, order_seed);
        for &i in &order {
            store.touch_all(&[i as u64 + 1]);
        }
        let survivors: Vec<u64> =
            order[records - keep..].iter().map(|&i| i as u64 + 1).collect();
        let budget = SEGMENT_HEADER_BYTES
            + survivors.iter().map(|fp| frame_bytes[fp]).sum::<u64>();
        store.evict_to_budget(budget).expect("evict");
        drop(store);

        let store = LogStore::open_with_config(&dir, config);
        let reloaded = load_all(&store);
        let mut expected: Vec<u64> = survivors.clone();
        expected.sort_unstable();
        let fps: Vec<u64> = reloaded.iter().map(|(fp, _)| *fp).collect();
        prop_assert_eq!(fps, expected, "exactly the {} most recently used survive", keep);
        for (fp, report) in &reloaded {
            let expected = report_to_json(&report_for(*fp));
            prop_assert_eq!(&report_to_json(report), &expected);
            let raw = store.raw_payload(*fp).expect("indexed payload");
            prop_assert_eq!(
                raw.as_slice(),
                expected.as_bytes(),
                "survivor bytes preserved verbatim across eviction + reopen"
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
