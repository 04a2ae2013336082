//! The deterministic parallel executor.
//!
//! [`SweepEngine::run`] takes a batch of [`JobSpec`]s and returns their
//! reports *in submission order*. Internally it:
//!
//! 1. fingerprints every job and answers what it can from the
//!    [`ResultCache`], falling back to the on-disk result store (a hit
//!    there is decoded once and joins the cache);
//! 2. dedups identical points submitted in the same batch;
//! 3. shards the remaining unique points across a worker pool (a shared
//!    atomic work index over a fixed job list — no channels, no locks on
//!    the hot path);
//! 4. reassembles results by submission index.
//!
//! Every simulation is a pure function of its [`JobSpec`] (the workload
//! seed fixes the program; the pipeline is cycle-deterministic), so the
//! thread count and OS scheduling cannot influence any result bit —
//! `--threads 1` and `--threads N` produce identical output, which the
//! integration tests assert.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use st_core::SimReport;

use crate::cache::{CacheStats, ResultCache};
use crate::job::JobSpec;
use crate::logstore::{LoadStats, LogStore};

/// Aggregate execution counters of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Simulations actually executed (cache misses).
    pub simulated: u64,
    /// Reports decoded from the on-disk result store (each one a lookup
    /// that hit the store after missing the in-memory cache). Opening
    /// the store decodes nothing, so this starts at 0; the number of
    /// entries indexed at open is [`SweepEngine::load_stats`].
    pub loaded: u64,
    /// Cache counters (hits include batch-level dedup).
    pub cache: CacheStats,
}

/// A parallel, cache-aware sweep executor.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    lanes: usize,
    cache: ResultCache,
    simulated: AtomicU64,
    loaded: AtomicU64,
    store: Option<LogStore>,
}

impl SweepEngine {
    /// An engine with an explicit worker count (`0` = auto-detect the
    /// available hardware parallelism).
    #[must_use]
    pub fn new(threads: usize) -> SweepEngine {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4)
        } else {
            threads
        };
        SweepEngine {
            threads,
            lanes: 1,
            cache: ResultCache::new(),
            simulated: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            store: None,
        }
    }

    /// Sets the lane width: how many same-workload points one worker
    /// steps in lockstep per pull (`0` and `1` both mean solo execution).
    /// Lane packing changes scheduling only — reports stay bit-identical
    /// to solo runs at any width.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> SweepEngine {
        self.lanes = lanes.max(1);
        self
    }

    /// An engine sized to the available hardware parallelism.
    #[must_use]
    pub fn auto() -> SweepEngine {
        SweepEngine::new(0)
    }

    /// An engine backed by the segment-log result store at
    /// `<out>/.store/` (see [`crate::persist::open_store`], which also
    /// imports a legacy `<out>/.cache/` once). The store is opened
    /// index-only; a report is decoded when a lookup first hits it, and
    /// every freshly simulated point is written through, so repeated
    /// invocations reuse points across processes.
    #[must_use]
    pub fn with_result_store(threads: usize, out_dir: impl AsRef<Path>) -> SweepEngine {
        let mut engine = SweepEngine::new(threads);
        engine.store = Some(crate::persist::open_store(out_dir.as_ref()));
        engine
    }

    /// The result store this engine reads from and writes through to,
    /// if any.
    #[must_use]
    pub fn result_store(&self) -> Option<&LogStore> {
        self.store.as_ref()
    }

    /// What opening the result store found (entries indexed, corrupt
    /// entries skipped, torn tails truncated, …). All zeros without a
    /// store.
    #[must_use]
    pub fn load_stats(&self) -> LoadStats {
        self.store.as_ref().map(LogStore::load_stats).unwrap_or_default()
    }

    /// Worker-pool size.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured lane width (1 = solo execution).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Execution counters so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Runs a batch of jobs, returning reports in submission order.
    ///
    /// Results are bit-identical regardless of the worker count: each job
    /// is a pure function of its spec, and assembly is by submission
    /// index, not completion order.
    ///
    /// # Panics
    ///
    /// Panics if a simulation thread panics (a simulator bug, not a usage
    /// error).
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<Arc<SimReport>> {
        // Phase 1: resolve against the cache and dedup within the batch.
        // `slots[i]` is either a finished report or an index into `fresh`.
        enum Slot {
            Done(Arc<SimReport>),
            Fresh(usize),
        }
        let mut fresh: Vec<(u64, &JobSpec)> = Vec::new();
        let mut fresh_index: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        let slots: Vec<Slot> = jobs
            .iter()
            .map(|job| {
                let fp = job.fingerprint();
                if let Some(hit) = match fresh_index.get(&fp) {
                    // A duplicate of a point already scheduled in this
                    // batch: count it as a hit, don't re-consult the map.
                    Some(&idx) => {
                        self.cache.count_dedup_hit();
                        return Slot::Fresh(idx);
                    }
                    None => self.cache.get_or_load(fp, || self.decode(fp)),
                } {
                    return Slot::Done(hit);
                }
                let idx = fresh.len();
                fresh.push((fp, job));
                fresh_index.insert(fp, idx);
                Slot::Fresh(idx)
            })
            .collect();

        // Phase 2: pack the unique misses into lane chunks and shard the
        // chunks across the worker pool. At `lanes == 1` every chunk is a
        // single point (the classic one-point-per-pull schedule); wider
        // lanes pack up to `lanes` same-workload points per chunk so one
        // worker steps them in lockstep over a shared program image.
        let chunks = self.lane_chunks(&fresh);
        let results: Vec<OnceLock<Arc<SimReport>>> =
            (0..fresh.len()).map(|_| OnceLock::new()).collect();
        let run_chunk = |chunk: &[usize]| match chunk {
            [i] => {
                results[*i].set(Arc::new(fresh[*i].1.run())).expect("slot set once");
            }
            _ => {
                let specs: Vec<&JobSpec> = chunk.iter().map(|&i| fresh[i].1).collect();
                for (&i, r) in chunk.iter().zip(crate::job::run_group(&specs)) {
                    results[i].set(Arc::new(r)).expect("slot set once");
                }
            }
        };
        let next = AtomicUsize::new(0);
        // Worker count is chunk-aware: with lane packing there are only
        // `chunks.len()` ≈ ⌈points/lanes⌉ schedulable units, so spawning
        // `threads` workers regardless would oversubscribe with threads
        // that never pull work.
        let workers = self.threads.min(chunks.len());
        if workers <= 1 {
            for chunk in &chunks {
                run_chunk(chunk);
            }
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(c) else { break };
                        run_chunk(chunk);
                    });
                }
            });
        }
        self.simulated.fetch_add(fresh.len() as u64, Ordering::Relaxed);

        // Phase 3: publish to the cache and assemble in submission order.
        let finished: Vec<Arc<SimReport>> = results
            .into_iter()
            .map(|cell| cell.into_inner().expect("worker filled every slot"))
            .collect();
        for ((fp, _), report) in fresh.iter().zip(&finished) {
            self.cache.insert(*fp, Arc::clone(report));
            if let Some(store) = &self.store {
                if let Err(e) = store.store(*fp, report) {
                    eprintln!(
                        "warning: could not persist {:016x} under {}: {e}",
                        fp,
                        store.dir().display()
                    );
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => r,
                Slot::Fresh(i) => Arc::clone(&finished[i]),
            })
            .collect()
    }

    /// Decodes one report from the result store, if it holds a verified
    /// frame for `fp`.
    fn decode(&self, fp: u64) -> Option<SimReport> {
        let report = self.store.as_ref()?.get(fp)?;
        self.loaded.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Packs fresh-point indices into lane chunks: points sharing a
    /// `(workload, instructions)` pair — and therefore one generated
    /// program and one budget regime — are grouped in first-seen order
    /// and split into runs of at most `lanes` indices each.
    fn lane_chunks(&self, fresh: &[(u64, &JobSpec)]) -> Vec<Vec<usize>> {
        if self.lanes <= 1 {
            return (0..fresh.len()).map(|i| vec![i]).collect();
        }
        let mut order: Vec<u64> = Vec::new();
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, (_, job)) in fresh.iter().enumerate() {
            let key =
                crate::job::fnv1a64(format!("{:?}/{}", job.workload, job.instructions).as_bytes());
            groups
                .entry(key)
                .or_insert_with(|| {
                    order.push(key);
                    Vec::new()
                })
                .push(i);
        }
        order.iter().flat_map(|key| groups[key].chunks(self.lanes).map(<[usize]>::to_vec)).collect()
    }

    /// Runs a single job through the cache (and the persistent
    /// write-through, when configured).
    ///
    /// Convenience for streaming callers — the shard worker and the
    /// sweep service emit each point as it completes rather than
    /// batching a whole grid — with the same determinism and
    /// memoisation as [`SweepEngine::run`]. All engine methods take
    /// `&self` and are safe to call from many threads at once (the
    /// service does); note that two *concurrent* `run_one` calls for
    /// the same not-yet-cached fingerprint will both simulate it —
    /// callers that overlap requests de-duplicate in flight (see
    /// [`SweepService::compute`](crate::service::SweepService::compute)).
    #[must_use]
    pub fn run_one(&self, job: &JobSpec) -> Arc<SimReport> {
        self.run(std::slice::from_ref(job)).pop().expect("one report per job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_isa::WorkloadSpec;

    fn job(seed: u64) -> JobSpec {
        JobSpec::new(WorkloadSpec::builder("engine-test").seed(seed).blocks(64).build(), 1_000)
    }

    #[test]
    fn batch_dedup_simulates_once() {
        let engine = SweepEngine::new(2);
        let jobs = vec![job(1), job(1), job(1)];
        let out = engine.run(&jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.cache.hits, 2);
    }

    /// Writes `report` as a legacy `<out>/.cache/<fp>.json` entry.
    fn write_legacy(out: &Path, fp: u64, report: &SimReport) {
        let dir = crate::persist::legacy_dir(out);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{fp:016x}.json")), crate::persist::report_to_json(report))
            .unwrap();
    }

    #[test]
    fn persistent_cache_survives_engine_restarts() {
        let dir = std::env::temp_dir().join(format!("st-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = SweepEngine::with_result_store(2, &dir);
        assert_eq!(first.load_stats().entries, 0, "cold start");
        let out1 = first.run(&[job(7), job(8)]);
        assert_eq!(first.stats().simulated, 2);

        // A brand-new engine (a new process, conceptually) indexes both
        // points, decodes them on their first lookup and serves them
        // without simulating.
        let second = SweepEngine::with_result_store(2, &dir);
        assert_eq!(second.load_stats().entries, 2);
        assert_eq!(second.stats().loaded, 0, "opening decodes nothing");
        let out2 = second.run(&[job(7), job(8)]);
        let stats = second.stats();
        assert_eq!(stats.simulated, 0, "everything came from disk");
        assert_eq!((stats.cache.hits, stats.cache.misses), (2, 0));
        assert_eq!(stats.loaded, 2, "one decode per store hit");
        assert_eq!(out1, out2, "disk round-trip is bit-exact");
        let _ = second.run(&[job(7)]);
        assert_eq!(second.stats().loaded, 2, "a repeat lookup is served from memory");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_store_serves_a_migrated_segment_store_identically() {
        let out = std::env::temp_dir().join(format!("st-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let fresh = SweepEngine::new(2).run(&[job(17), job(18)]);

        // A legacy JSON cache is imported into the segment log on open...
        write_legacy(&out, job(17).fingerprint(), &fresh[0]);
        write_legacy(&out, job(18).fingerprint(), &fresh[1]);
        let first = SweepEngine::with_result_store(2, &out);
        assert_eq!(first.load_stats().entries, 2);
        let out1 = first.run(&[job(17), job(18)]);
        assert_eq!(first.stats().simulated, 0, "everything came from the imported store");
        assert_eq!(first.stats().loaded, 2);
        assert_eq!(out1, fresh, "the import is observationally invisible");

        // ...and write-through appends to the log and survives a restart.
        let _ = first.run(&[job(19)]);
        let second = SweepEngine::with_result_store(2, &out);
        assert_eq!(second.load_stats().entries, 3);

        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn corrupt_legacy_entries_are_skipped_and_counted() {
        let out = std::env::temp_dir().join(format!("st-engine-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let reports = SweepEngine::new(2).run(&[job(30), job(31)]);
        write_legacy(&out, job(30).fingerprint(), &reports[0]);
        write_legacy(&out, job(31).fingerprint(), &reports[1]);
        std::fs::write(
            crate::persist::legacy_dir(&out).join(format!("{:016x}.json", 0x5555u64)),
            "{torn",
        )
        .unwrap();
        let engine = SweepEngine::with_result_store(2, &out);
        assert_eq!(engine.load_stats().entries, 2, "good entries still load");
        assert_eq!(engine.load_stats().skipped_corrupt, 1, "bad entry skipped and counted");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn a_frame_damaged_after_open_is_resimulated_not_decoded() {
        let out = std::env::temp_dir().join(format!("st-engine-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let expected = SweepEngine::with_result_store(1, &out).run(&[job(40)]);
        let engine = SweepEngine::with_result_store(1, &out);
        assert_eq!(engine.load_stats().entries, 1);
        // Flip a payload byte after the index was built.
        let seg = crate::persist::store_dir(&out).join("seg-0.log");
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let got = engine.run(&[job(40)]);
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.loaded, stats.cache.misses), (1, 0, 1));
        assert_eq!(got, expected, "the re-simulated report is the true one");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn lane_widths_produce_identical_reports() {
        // A mixed grid: two workloads × three experiments, plus one
        // odd-budget point so a group splits unevenly across chunks.
        let mut jobs: Vec<JobSpec> = Vec::new();
        for seed in [41, 42] {
            for e in [
                st_core::experiments::baseline(),
                st_core::experiments::c2(),
                st_core::experiments::a7(),
            ] {
                jobs.push(job(seed).with_experiment(e));
            }
        }
        jobs.push(JobSpec::new(
            WorkloadSpec::builder("engine-test").seed(41).blocks(64).build(),
            1_500,
        ));
        let solo = SweepEngine::new(1).run(&jobs);
        for lanes in [2, 4, 8] {
            let engine = SweepEngine::new(2).with_lanes(lanes);
            assert_eq!(engine.lanes(), lanes);
            let out = engine.run(&jobs);
            assert_eq!(solo, out, "lanes={lanes} must be bit-identical to solo");
            assert_eq!(engine.stats().simulated, jobs.len() as u64);
        }
    }

    #[test]
    fn lane_chunks_respect_grouping_and_width() {
        let engine = SweepEngine::new(1).with_lanes(4);
        let a: Vec<JobSpec> = (0..6)
            .map(|i| {
                job(77).with_experiment(if i % 2 == 0 {
                    st_core::experiments::baseline()
                } else {
                    st_core::experiments::c2()
                })
            })
            .collect();
        // 6 points, 2 distinct (the rest dedup away) → one 2-wide chunk.
        let fresh: Vec<(u64, &JobSpec)> = a.iter().take(2).map(|j| (j.fingerprint(), j)).collect();
        let chunks = engine.lane_chunks(&fresh);
        assert_eq!(chunks, vec![vec![0, 1]]);
        // Mixed workloads never share a chunk.
        let other = job(78);
        let fresh: Vec<(u64, &JobSpec)> = vec![
            (a[0].fingerprint(), &a[0]),
            (other.fingerprint(), &other),
            (a[1].fingerprint(), &a[1]),
        ];
        let chunks = engine.lane_chunks(&fresh);
        assert_eq!(chunks, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn generated_workloads_group_by_seed_and_stay_lane_identical() {
        // Two seeds of one family are *different* workloads: they must
        // never share a lane chunk, while same-member points across
        // experiments still pack together.
        let wl0 = st_workloads::by_name("gen:jit:0").expect("generative member");
        let wl1 = st_workloads::by_name("gen:jit:1").expect("generative member");
        let jobs = vec![
            JobSpec::new(wl0.clone(), 2_000),
            JobSpec::new(wl1.clone(), 2_000),
            JobSpec::new(wl0, 2_000).with_experiment(st_core::experiments::a7()),
            JobSpec::new(wl1, 2_000).with_experiment(st_core::experiments::c2()),
        ];
        let engine = SweepEngine::new(1).with_lanes(4);
        let fresh: Vec<(u64, &JobSpec)> = jobs.iter().map(|j| (j.fingerprint(), j)).collect();
        let chunks = engine.lane_chunks(&fresh);
        assert_eq!(chunks, vec![vec![0, 2], vec![1, 3]], "seeds must not co-pack");

        let solo = SweepEngine::new(1).run(&jobs);
        let packed = SweepEngine::new(2).with_lanes(4).run(&jobs);
        assert_eq!(solo, packed, "lane packing over generated workloads must be bit-identical");
    }

    #[test]
    fn cross_batch_caching() {
        let engine = SweepEngine::new(1);
        let _ = engine.run(&[job(5)]);
        assert_eq!(engine.stats().simulated, 1);
        let _ = engine.run(&[job(5)]);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1, "second batch must be served from cache");
        assert_eq!(stats.cache.hits, 1);
    }
}
