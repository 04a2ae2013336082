//! Seeded input generation. Everything the program receives — spec
//! texts, the service's request schedule, the store's synthetic
//! fingerprints — is a pure function of the `--seed` argument, so two
//! runs with one seed feed the program byte-identical inputs.

use std::collections::HashSet;

/// The paper's eight SPECint workloads, in the paper's order.
pub const PAPER_WORKLOADS: [&str; 8] =
    ["compress", "gcc", "go", "bzip2", "crafty", "gzip", "parser", "twolf"];

/// The generative workload families (`gen:<family>:<seed>`).
pub const FAMILIES: [&str; 4] = ["spec2006", "server", "jit", "mix"];

/// Every named experiment except `BASE` (the spec's `baseline = true`
/// adds it), so `sweep-short` runs all 27 per program and window size.
pub const ALL_EXPERIMENTS: [&str; 26] = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9",
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "OF", "OD", "OS",
];

/// The twelve experiments whose average energy savings the paper quotes
/// (`st_sweep::figures::paper_averages`).
pub const QUOTED_EXPERIMENTS: [&str; 12] =
    ["A1", "A2", "A3", "A5", "A6", "A7", "B1", "B2", "B3", "B7", "C2", "C7"];

/// Experiments run on the held-out generative members of `sweep-long`.
pub const HELD_OUT_EXPERIMENTS: [&str; 2] = ["C2", "A7"];

/// Experiment triples a `serve-mixed` submission draws from.
const SERVE_TRIPLES: [[&str; 3]; 6] = [
    ["C2", "A7", "B7"],
    ["A5", "A6", "C7"],
    ["A1", "B1", "C2"],
    ["A7", "B3", "OF"],
    ["A2", "B2", "C1"],
    ["A3", "B7", "OD"],
];

/// Generative members in the `serve-mixed` pool.
const SERVE_GEN: usize = 8;

/// SplitMix64: a tiny, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream ids, one per kind of derived input.
mod stream {
    pub const GEN_MEMBER: u64 = 1;
    pub const SAMPLE: u64 = 2;
    pub const SYNTHETIC: u64 = 3;
    pub const SERVE: u64 = 4;
}

/// The seed-derived generative member of `family` for member set `set`
/// (set 0 is the one a workload measures; later sets only exist to
/// repeat a cold resolution during set-up).
#[must_use]
pub fn gen_member(seed: u64, family: &str, set: u64) -> String {
    let idx = FAMILIES.iter().position(|f| *f == family).expect("known family") as u64;
    let mut rng = Rng::new(seed, stream::GEN_MEMBER ^ (set << 8) ^ (idx << 4));
    format!("gen:{family}:{}", rng.next_u64() % 1_000_000)
}

fn quoted(items: &[impl AsRef<str>]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{}\"", s.as_ref())).collect();
    format!("[{}]", q.join(", "))
}

fn spec_text(
    name: &str,
    workloads: &[String],
    experiments: &[&str],
    ruu: Option<&[u32]>,
    instructions: u64,
) -> String {
    let mut text = format!(
        "name = \"{name}\"\nworkloads = {}\nexperiments = {}\nbaseline = true\n\n[axis]\n",
        quoted(workloads),
        quoted(experiments)
    );
    if let Some(ruu) = ruu {
        let v: Vec<String> = ruu.iter().map(u32::to_string).collect();
        text.push_str(&format!("ruu_size = [{}]\n", v.join(", ")));
    }
    text.push_str(&format!("instructions = {instructions}\n"));
    text
}

/// The `sweep-short` grid: the paper's eight workloads plus one
/// generative member per family × all 27 experiments × two window sizes.
#[must_use]
pub fn sweep_short_spec(seed: u64, set: u64, instructions: u64, smoke: bool) -> String {
    let mut workloads: Vec<String> = PAPER_WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    workloads.extend(FAMILIES.iter().map(|f| gen_member(seed, f, set)));
    let experiments: &[&str] = if smoke { &ALL_EXPERIMENTS[..3] } else { &ALL_EXPERIMENTS };
    if smoke {
        workloads.truncate(2);
        workloads.push(gen_member(seed, FAMILIES[0], set));
    }
    spec_text("sweep-short", &workloads, experiments, Some(&[64, 128]), instructions)
}

/// The `sweep-long` grids: the paper's eight workloads × BASE + the
/// twelve quoted experiments, and the held-out generative members ×
/// BASE + C2 + A7.
#[must_use]
pub fn sweep_long_specs(seed: u64, set: u64, instructions: u64, smoke: bool) -> (String, String) {
    let mut paper: Vec<String> = PAPER_WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    let mut held: Vec<String> = FAMILIES.iter().map(|f| gen_member(seed, f, set)).collect();
    if smoke {
        paper.truncate(2);
        held.truncate(1);
    }
    (
        spec_text("sweep-long", &paper, &QUOTED_EXPERIMENTS, None, instructions),
        spec_text("sweep-long-held-out", &held, &HELD_OUT_EXPERIMENTS, None, instructions),
    )
}

/// `k` distinct indices below `n`, drawn from the seed (the points
/// `sweep-short` re-runs through `JobSpec::run`), in ascending order.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream::SAMPLE);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < k.min(n) {
        let i = rng.below(n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// `n` distinct synthetic fingerprints derived from the seed, none of
/// them in `avoid` (the grid's own fingerprints).
#[must_use]
pub fn synthetic_fingerprints(seed: u64, n: usize, avoid: &HashSet<u64>) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream::SYNTHETIC);
    let mut seen: HashSet<u64> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let fp = rng.next_u64();
        if !avoid.contains(&fp) && seen.insert(fp) {
            out.push(fp);
        }
    }
    out
}

/// One `serve-mixed` submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Position in the schedule.
    pub id: usize,
    /// When it is due, in seconds after the batch starts.
    pub due_s: f64,
    /// Index of its spec in the pool (equal index = identical spec).
    pub key: usize,
}

/// The `serve-mixed` inputs: the spec pool and the schedule, whose
/// keys index the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// One spec text per distinct submission.
    pub pool: Vec<String>,
    /// Every submission, in due order.
    pub schedule: Vec<Submission>,
}

/// Zipf exponent of the draw over the pool.
const ZIPF_S: f64 = 1.1;

/// The `serve-mixed` inputs: `n` submissions at a fixed offered rate
/// (`rate` per second, evenly spaced). Each names one workload, one of
/// six experiment triples and `instructions` per point. The workload
/// comes from a skewed seed pool (the paper's
/// eight plus eight seed-derived generative members) drawn Zipf-skewed:
/// each spec is cold on its first submission and warm after it.
#[must_use]
pub fn serve_inputs(seed: u64, n: usize, rate: f64, instructions: u64) -> ServeInputs {
    let mut rng = Rng::new(seed, stream::SERVE);
    let spec = |rng: &mut Rng, key: usize, workload: String| {
        let triple = SERVE_TRIPLES[rng.below(SERVE_TRIPLES.len())];
        spec_text(&format!("serve-{key}"), &[workload], &triple, None, instructions)
    };
    let mut workloads: Vec<String> = PAPER_WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    for i in 0..SERVE_GEN {
        workloads.push(format!(
            "gen:{}:{}",
            FAMILIES[i % FAMILIES.len()],
            rng.next_u64() % 1_000_000
        ));
    }
    // Shuffle so the skew favours different names under different seeds.
    for i in (1..workloads.len()).rev() {
        workloads.swap(i, rng.below(i + 1));
    }
    let pool: Vec<String> =
        workloads.into_iter().enumerate().map(|(key, w)| spec(&mut rng, key, w)).collect();
    let weights: Vec<f64> = (1..=pool.len()).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let schedule = (0..n)
        .map(|id| {
            let mut x = rng.unit() * total;
            let key = weights
                .iter()
                .position(|w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(weights.len() - 1);
            Submission { id, due_s: id as f64 / rate, key }
        })
        .collect();
    ServeInputs { pool, schedule }
}
