//! Content-hashed result cache.
//!
//! Keys are [`JobSpec::fingerprint`](crate::JobSpec::fingerprint) values;
//! values are shared [`SimReport`]s. The cache is thread-safe and lives
//! for the duration of an engine, so every figure or sweep submitted to
//! the same engine reuses previously simulated points — the paper's
//! figures overlap heavily (every figure re-runs the eight baselines, C2
//! appears in four different studies), so a full `st repro` pass sees a
//! substantial hit rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use st_core::SimReport;

/// Hit/miss counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including batch-level dedup of
    /// identical points submitted together).
    pub hits: u64,
    /// Lookups that required a fresh simulation.
    pub misses: u64,
    /// Distinct simulation points currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered without simulating, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe fingerprint → report cache.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, Arc<SimReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Looks up a fingerprint, counting a hit or a miss.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Arc<SimReport>> {
        self.get_or_load(fingerprint, || None)
    }

    /// Looks up a fingerprint, falling back to `load` (the on-disk
    /// result store) on a miss; a loaded report joins the cache and
    /// counts as a hit. `load` runs without the cache lock held.
    pub fn get_or_load(
        &self,
        fingerprint: u64,
        load: impl FnOnce() -> Option<SimReport>,
    ) -> Option<Arc<SimReport>> {
        let cached = self.map.lock().expect("cache poisoned").get(&fingerprint).cloned();
        let found = cached.or_else(|| {
            let report = Arc::new(load()?);
            self.insert(fingerprint, Arc::clone(&report));
            Some(report)
        });
        match found {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Counts a hit that was resolved outside the map (batch-level dedup
    /// of identical points submitted in the same run).
    pub fn count_dedup_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a freshly simulated report.
    pub fn insert(&self, fingerprint: u64, report: Arc<SimReport>) {
        self.map.lock().expect("cache poisoned").insert(fingerprint, report);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("cache poisoned").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> Arc<SimReport> {
        Arc::new(
            crate::JobSpec::new(
                st_isa::WorkloadSpec::builder("cache-test").seed(1).blocks(64).build(),
                500,
            )
            .run(),
        )
    }

    #[test]
    fn get_or_load_counts_a_loaded_report_as_a_hit() {
        let cache = ResultCache::new();
        let r = dummy_report();
        assert!(cache.get_or_load(7, || None).is_none(), "nothing to load: a miss");
        let loaded = cache.get_or_load(7, || Some((*r).clone())).expect("loaded");
        assert_eq!(*loaded, *r);
        assert!(cache.get_or_load(7, || panic!("cached now: no second load")).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn get_insert_and_stats() {
        let cache = ResultCache::new();
        assert!(cache.get(42).is_none());
        let r = dummy_report();
        cache.insert(42, Arc::clone(&r));
        let back = cache.get(42).expect("cached");
        assert_eq!(*back, *r);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }
}
