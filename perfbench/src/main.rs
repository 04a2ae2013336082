//! Command-line entry of the benchmark; see `README.md`.
//!
//! ```text
//! st-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Prints every metric with its unit and sample count, the host stamp,
//! and as the last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics without `--trace`, the per-layer ones with it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use st_perfbench::common::{Ctx, Outcome};
use st_perfbench::host::HostStamp;
use st_perfbench::serve_mixed;
use st_perfbench::store_warm;
use st_perfbench::sweep::{self, Kind};
use st_perfbench::trace::Tracer;
use st_perfbench::WORKLOADS;

/// Where runs keep their scratch data and results, under the directory
/// the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Removes the run's scratch directory when dropped, on success and
/// while unwinding from a panic alike.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Formats a metric value for JSON: every digit as measured, and 0 for
/// a value that could not be measured (a percentile of no samples).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("st-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let work: PathBuf =
        [OUT_DIR, &format!("{}-{}", args.workload, std::process::id())].iter().collect();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        work,
        tracer: Tracer::new(args.trace),
    };
    let stamp = HostStamp::read(root);
    let _cleanup = RemoveOnDrop(ctx.work.clone());
    let t = Instant::now();
    let mut out: Outcome = match args.workload.as_str() {
        "sweep-short" => sweep::run(&ctx, Kind::Short),
        "sweep-long" => sweep::run(&ctx, Kind::Long),
        "store-warm" => store_warm::run(&ctx),
        _ => serve_mixed::run(&ctx),
    };
    let elapsed = t.elapsed().as_secs_f64();

    // Every end-to-end metric must be measured on every workload.
    let mut correct = out.failed == 0 && out.invalid.is_none();
    let metrics: Vec<(&str, &str, f64, usize)> = if args.trace {
        out.metrics.per_layer().into_iter().map(|(m, u, v)| (m, u, v.value, v.n)).collect()
    } else {
        out.metrics
            .end_to_end()
            .into_iter()
            .map(|(m, u, v)| match v {
                Some(v) if v.value.is_finite() && v.value > 0.0 => (m, u, v.value, v.n),
                _ => {
                    correct = false;
                    out.notes.push(format!("end-to-end metric {m} was not measured"));
                    (m, u, v.map_or(0.0, |v| v.value), 0)
                }
            })
            .collect()
    };

    println!(
        "workload {} seed {} trace {} ({elapsed:.2} s)",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", stamp.to_json());
    for note in &out.notes {
        println!("note {note}");
    }
    if let Some(why) = &out.invalid {
        println!("invalid {why}");
    }
    for (m, u, v, n) in &metrics {
        println!("metric {m} = {v} {u} (n={n})");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, u, v, _)| format!("\"{m}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );

    // The full record (host stamp included) and, when tracing, the spans.
    let results = Path::new(OUT_DIR).join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let name = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
        let samples: Vec<String> = out.samples_ms.iter().map(|v| json_number(*v)).collect();
        let record = format!(
            "{{\"host\":{},\"samples_ms\":[{}],\"result\":{result}}}\n",
            stamp.to_json(),
            samples.join(",")
        );
        if let Err(e) = std::fs::write(results.join(format!("{name}.json")), record) {
            eprintln!("st-perfbench: cannot write the result record: {e}");
        }
        if args.trace {
            if let Err(e) = ctx.tracer.write_jsonl(&results.join(format!("{name}.spans.jsonl"))) {
                eprintln!("st-perfbench: cannot write the spans: {e}");
            }
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
