//! The deterministic parallel executor.
//!
//! [`SweepEngine::run`] takes a batch of [`JobSpec`]s and returns their
//! reports *in submission order*. Internally it:
//!
//! 1. fingerprints every job and answers what it can from the
//!    [`ResultCache`], falling back to the on-disk result store (a hit
//!    there is decoded once and joins the cache);
//! 2. dedups identical points submitted in the same batch;
//! 3. groups the remaining unique points by workload and shards them, in
//!    that grouped order, across a worker pool (a shared atomic work
//!    index over a fixed schedule). The first point of a group to run
//!    generates the workload's program image; the group's other points
//!    share it through one `Arc`, and the group drops it once its last
//!    point has taken it. A worker that would wait for another's
//!    generation generates the next group's image instead. So each
//!    workload is generated once per batch and only about one or two
//!    images per worker are resident at a time;
//! 4. reassembles results by submission index.
//!
//! Every simulation is a pure function of its [`JobSpec`] (the workload
//! seed fixes the program; the pipeline is cycle-deterministic), so
//! sharing an image, the thread count and OS scheduling cannot influence
//! any result bit — `--threads 1` and `--threads N` produce identical
//! output, which the integration tests assert.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};

use st_core::SimReport;
use st_isa::{Program, WorkloadSpec};

use crate::cache::{CacheStats, ResultCache};
use crate::job::JobSpec;
use crate::logstore::{LoadStats, LogStore};

/// Aggregate execution counters of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Simulations actually executed (cache misses).
    pub simulated: u64,
    /// Program images generated: one per distinct workload among each
    /// batch's misses, whatever the thread count.
    pub generated: u64,
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
    cache: ResultCache,
    simulated: AtomicU64,
    generated: AtomicU64,
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
            cache: ResultCache::new(),
            simulated: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            store: None,
        }
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

    /// Execution counters so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            generated: self.generated.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Runs a batch of jobs, returning reports in submission order.
    ///
    /// Results are bit-identical regardless of the worker count: each job
    /// is a pure function of its spec, a shared program image is exactly
    /// what the job would generate itself, and assembly is by submission
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

        // Phase 2: group the unique misses by workload (first-seen
        // order) and shard them in that order across the worker pool.
        let (schedule, images) = ImageGroups::new(&fresh, &self.generated);
        let results: Vec<OnceLock<Arc<SimReport>>> =
            (0..fresh.len()).map(|_| OnceLock::new()).collect();
        let run_point = |&(i, g): &(usize, usize)| {
            let report = fresh[i].1.run_on(images.take(g));
            results[i].set(Arc::new(report)).expect("slot set once");
        };
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(schedule.len());
        if workers <= 1 {
            schedule.iter().for_each(run_point);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(point) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run_point(point);
                        }
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

/// One workload's program image, shared by the points of a batch that
/// run it.
#[derive(Debug)]
struct ImageGroup<'a> {
    workload: &'a WorkloadSpec,
    /// `Some` from generation until the group's last point takes it.
    image: Mutex<Option<Arc<Program>>>,
    /// Points of the group that have not yet taken the image. Read and
    /// written only under `image`'s lock, which orders it.
    left: AtomicUsize,
}

/// The image groups of one batch: fresh points grouped by workload, each
/// group's program generated exactly once.
#[derive(Debug)]
struct ImageGroups<'a> {
    groups: Vec<ImageGroup<'a>>,
    generated: &'a AtomicU64,
}

impl<'a> ImageGroups<'a> {
    /// Groups fresh points by workload. The key is the workload spec
    /// alone: `generate()` does not depend on the instruction budget or
    /// any other job field. Returns the run schedule — `(fresh index,
    /// group)` pairs, groups in first-seen order and points in batch
    /// order within each group — and the groups, which count each
    /// generation in `generated`.
    fn new(
        fresh: &[(u64, &'a JobSpec)],
        generated: &'a AtomicU64,
    ) -> (Vec<(usize, usize)>, ImageGroups<'a>) {
        let mut group_of: HashMap<String, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, (_, job)) in fresh.iter().enumerate() {
            let g = *group_of.entry(format!("{:?}", job.workload)).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            members[g].push(i);
        }
        let schedule = members
            .iter()
            .enumerate()
            .flat_map(|(g, points)| points.iter().map(move |&i| (i, g)))
            .collect();
        let groups = members
            .iter()
            .map(|points| ImageGroup {
                workload: &fresh[points[0]].1.workload,
                image: Mutex::new(None),
                left: AtomicUsize::new(points.len()),
            })
            .collect();
        (schedule, ImageGroups { groups, generated })
    }

    /// Group `g`'s image for one of its points: the first caller
    /// generates it while holding the group's lock, later callers clone
    /// the `Arc`, and the last caller takes the group's reference with
    /// it, so the image is freed as soon as its last point finishes.
    ///
    /// A caller that finds the lock held (usually: another worker is
    /// generating the image) does not idle on it: it first generates the
    /// next group in schedule order that has no image yet, which a later
    /// pull would otherwise generate alone. Every group is still
    /// generated exactly once.
    fn take(&self, g: usize) -> Arc<Program> {
        let group = &self.groups[g];
        let mut slot = match group.image.try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::WouldBlock) => {
                self.generate_ahead(g);
                group.image.lock().expect("image lock poisoned by a panicking generation")
            }
            Err(TryLockError::Poisoned(_)) => {
                panic!("image lock poisoned by a panicking generation")
            }
        };
        let image = slot.take().unwrap_or_else(|| self.generate(group));
        if group.left.fetch_sub(1, Ordering::Relaxed) > 1 {
            *slot = Some(Arc::clone(&image));
        }
        image
    }

    /// Generates the image of the first group after `g` that has points
    /// left, no image and no other worker generating it, if there is one.
    /// (While points are left, a group holds its image once generated.)
    fn generate_ahead(&self, g: usize) {
        for group in &self.groups[g + 1..] {
            let Ok(mut slot) = group.image.try_lock() else { continue };
            if slot.is_none() && group.left.load(Ordering::Relaxed) > 0 {
                *slot = Some(self.generate(group));
                return;
            }
        }
    }

    fn generate(&self, group: &ImageGroup<'_>) -> Arc<Program> {
        self.generated.fetch_add(1, Ordering::Relaxed);
        Arc::new(group.workload.generate())
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
    fn each_workload_is_generated_once_per_batch() {
        // Two workloads × three experiments, interleaved combo-major the
        // way a grid expands.
        let exps = [
            st_core::experiments::baseline(),
            st_core::experiments::c2(),
            st_core::experiments::a7(),
        ];
        let jobs: Vec<JobSpec> = exps
            .iter()
            .flat_map(|e| [41, 42].map(|seed| job(seed).with_experiment(e.clone())))
            .collect();
        let reference: Vec<SimReport> = jobs.iter().map(JobSpec::run).collect();
        for threads in [1, 4] {
            let engine = SweepEngine::new(threads);
            let out = engine.run(&jobs);
            assert!(out.iter().map(|r| &**r).eq(&reference), "threads={threads}");
            let stats = engine.stats();
            assert_eq!((stats.simulated, stats.generated), (6, 2), "threads={threads}");

            // A fully cached rerun simulates and generates nothing.
            let _ = engine.run(&jobs);
            let stats = engine.stats();
            assert_eq!((stats.simulated, stats.generated), (6, 2), "threads={threads} rerun");
        }
    }

    #[test]
    fn generated_workload_seeds_never_share_an_image() {
        // Two seeds of one family are different workloads: each gets its
        // own image, while points of one member across experiments and
        // budgets share theirs.
        let wl0 = st_workloads::by_name("gen:jit:0").expect("generative member");
        let wl1 = st_workloads::by_name("gen:jit:1").expect("generative member");
        let jobs = vec![
            JobSpec::new(wl0.clone(), 2_000),
            JobSpec::new(wl1.clone(), 2_000),
            JobSpec::new(wl0, 1_500).with_experiment(st_core::experiments::a7()),
            JobSpec::new(wl1, 2_000).with_experiment(st_core::experiments::c2()),
        ];
        let fresh: Vec<(u64, &JobSpec)> = jobs.iter().map(|j| (j.fingerprint(), j)).collect();
        let generated = AtomicU64::new(0);
        let (schedule, images) = ImageGroups::new(&fresh, &generated);
        assert_eq!(schedule, vec![(0, 0), (2, 0), (1, 1), (3, 1)], "seeds must not share");
        assert_eq!(images.groups.len(), 2);

        let engine = SweepEngine::new(2);
        let out = engine.run(&jobs);
        let reference: Vec<SimReport> = jobs.iter().map(JobSpec::run).collect();
        assert!(out.iter().map(|r| &**r).eq(&reference), "shared images change no bit");
        assert_eq!(engine.stats().generated, 2);
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
