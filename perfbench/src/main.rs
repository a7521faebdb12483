//! The repository benchmark: two workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! rknn-perfbench --workload <allpoints-cover|serve-linear>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed check exits with code 1.
//! See `perfbench/README.md` for what each workload and metric is
//! for.

mod alloc;
mod allpoints;
mod layers;
mod oracle;
mod report;
mod serving;
mod stats;
mod trace;

use report::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Sets `out.metrics` to every named metric, in order; a metric with no
/// value (a layer that does not run on this workload) reads 0.
pub(crate) fn emit(
    out: &mut Outcome,
    names: &[(&'static str, &'static str)],
    values: &layers::Values,
) {
    out.metrics.clear();
    for &(name, unit) in names {
        out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Writes a traced run's spans to `out/trace-<workload>.jsonl` in this
/// package's directory.
pub(crate) fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    if let Err(e) = trace::write_spans(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "allpoints-cover" => allpoints::run(args.seed, args.seconds, args.trace),
        "serve-linear" => serving::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
