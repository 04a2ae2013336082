//! The metric catalogue and a run's collected values.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; a
//! self-test checks the two agree. Every workload reports every
//! end-to-end metric. A per-layer metric a workload does not exercise
//! reads 0 with a sample count of 0.

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `<layer>.<metric>`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.resolve_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("workloads.generate_calls", "count"),
    ("workloads.distinct_programs", "count"),
    ("core.build_ms", "ms"),
    ("core.builds", "count"),
    ("pipeline.run_s", "s"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.committed", "count"),
    ("pipeline.ns_per_cycle", "ns"),
    ("pipeline.wrong_path_frac", "ratio"),
    ("pipeline.fetch_gated_frac", "ratio"),
    ("bpred.mispredict_rate", "ratio"),
    ("bpred.low_conf_frac", "ratio"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("power.wasted_energy_frac", "ratio"),
    ("fidelity.paper_energy_err_pp", "pp"),
    ("spec.parse_ms", "ms"),
    ("spec.expand_ms", "ms"),
    ("engine.fingerprint_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.simulated", "count"),
    ("engine.cache_hits", "count"),
    ("engine.dedup_hits", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("store.open_ms", "ms"),
    ("store.entries_loaded", "count"),
    ("store.hits_per_loaded", "ratio"),
    ("store.bytes", "bytes"),
    ("store.write_ms", "ms"),
    ("store.writes", "count"),
    ("emit.jsonl_ms", "ms"),
    ("emit.bytes", "bytes"),
    ("service.startup_ms", "ms"),
    ("service.stream_ms", "ms"),
    ("service.http_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.warm_p50_ms", "ms"),
    ("service.cold_n", "count"),
    ("service.warm_n", "count"),
    ("service.simulated", "count"),
    ("service.served", "count"),
    ("loadgen.offered_rate", "1/s"),
    ("loadgen.achieved_rate", "1/s"),
    ("loadgen.lag_p95_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a total).
    pub n: usize,
}

/// The values one run collected, keyed by catalogue position.
#[derive(Debug, Clone)]
pub struct Collected {
    e2e: Vec<Option<Value>>,
    layer: Vec<Option<Value>>,
}

impl Default for Collected {
    fn default() -> Collected {
        Collected::new()
    }
}

impl Collected {
    /// Nothing collected yet.
    #[must_use]
    pub fn new() -> Collected {
        Collected { e2e: vec![None; END_TO_END.len()], layer: vec![None; PER_LAYER.len()] }
    }

    /// Records `name` (an end-to-end or per-layer catalogue name).
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let v = Some(Value { value, n });
        if let Some(i) = END_TO_END.iter().position(|(m, _)| *m == name) {
            self.e2e[i] = v;
        } else if let Some(i) = PER_LAYER.iter().position(|(m, _)| *m == name) {
            self.layer[i] = v;
        } else {
            panic!("metric `{name}` is not in the catalogue");
        }
    }

    /// A recorded value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Value> {
        END_TO_END
            .iter()
            .position(|(m, _)| *m == name)
            .and_then(|i| self.e2e[i])
            .or_else(|| PER_LAYER.iter().position(|(m, _)| *m == name).and_then(|i| self.layer[i]))
    }

    /// The end-to-end metrics as `(name, unit, value)`; `None` for one
    /// the workload did not record.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<Value>)> {
        END_TO_END.iter().zip(&self.e2e).map(|(&(m, u), v)| (m, u, *v)).collect()
    }

    /// The per-layer metrics as `(name, unit, value)`, with 0 (n = 0)
    /// for a layer the workload does not exercise.
    #[must_use]
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, Value)> {
        PER_LAYER
            .iter()
            .zip(&self.layer)
            .map(|(&(m, u), v)| (m, u, v.unwrap_or(Value { value: 0.0, n: 0 })))
            .collect()
    }
}
