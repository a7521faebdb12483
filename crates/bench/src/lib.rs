//! Shared plumbing for the experiment harness binaries.
//!
//! Every binary regenerates one paper table or figure, or records one
//! engineering measurement:
//!
//! * `table1` — Table 1, intrinsic-dimensionality estimates;
//! * `fig3_sequoia`, `fig4_aloi`, `fig5_fct`, `fig6_mnist` — Figures 3–6,
//!   recall/query-time tradeoffs per dataset;
//! * `fig7_lazy` — Figure 7, lazy accepts, lazy rejects and verifications
//!   as a function of `t`;
//! * `fig8_imagenet` — Figure 8, RDT+ against the exact methods;
//! * `fig9_amortization` — Figure 9, queries answered within the RdNN-Tree's
//!   precomputation time;
//! * `theory_check` — the §5 analysis (Lemma 1, Theorem 1) on random
//!   workloads;
//! * `hubness` — reverse-neighbor count skew against dimensionality;
//! * `ablation_witness` — what the witness machinery, the RDT+ exclusion
//!   and the adaptive schedule each buy;
//! * `substrate_sweep` — the all-points workload on every forward substrate;
//! * `perf_snapshot`, `serving_snapshot` — `BENCH_rdt.json` and
//!   `BENCH_serving.json`;
//! * `run_all` — every table and figure harness in sequence.
//!
//! Each accepts environment-variable overrides so the same code scales
//! from smoke test to full run:
//!
//! * `RKNN_SCALE` — multiplies all dataset sizes (default 1.0; the
//!   defaults are laptop-scaled versions of the paper's workloads with the
//!   size *ratios* preserved);
//! * `RKNN_QUERIES` — queries per batch (default per experiment);
//! * `RKNN_SEED` — workload seed (default 0x5eed);
//! * `RKNN_OUT` — output directory for CSVs (default `results/`).

use rknn_eval::Table;
use std::path::PathBuf;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Global size multiplier.
    pub scale: f64,
    /// Query-count override.
    pub queries: Option<usize>,
    /// Workload seed.
    pub seed: u64,
    /// CSV output directory.
    pub out_dir: PathBuf,
}

impl HarnessOpts {
    /// Reads options from the environment.
    pub fn from_env() -> Self {
        let scale = std::env::var("RKNN_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let queries = std::env::var("RKNN_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok());
        let seed = std::env::var("RKNN_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5eed);
        let out_dir = std::env::var("RKNN_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        HarnessOpts {
            scale,
            queries,
            seed,
            out_dir,
        }
    }

    /// Applies the scale factor to a default size (minimum 64 points).
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(64)
    }

    /// Query count with override.
    pub fn queries_or(&self, default: usize) -> usize {
        self.queries.unwrap_or(default)
    }

    /// Prints the table and writes its CSV next to it.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.csv"));
        match table.write_csv(&path) {
            Ok(()) => println!("[csv written to {}]\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// JSON fragment for a rate (`events / seconds`): the finite value under
/// `key`, or — when the section had zero events or zero duration — `null`
/// plus an explicit `<key>_skipped` marker naming the reason, so BENCH
/// files stay machine-parseable instead of carrying `inf`/`NaN` (which are
/// not JSON at all).
pub fn rate_json(key: &str, events: f64, seconds: f64) -> String {
    let rate = events / seconds;
    if events > 0.0 && seconds > 0.0 && rate.is_finite() {
        format!("\"{key}\": {rate:.1}")
    } else {
        let reason = if events <= 0.0 {
            "zero events in section"
        } else {
            "zero-duration section"
        };
        format!("\"{key}\": null, \"{key}_skipped\": \"{reason}\"")
    }
}

/// JSON fragment for an already-computed optional value: the value under
/// `key` when present and finite, else `null` plus `<key>_skipped`.
pub fn opt_json(key: &str, value: Option<f64>, skip_reason: &str) -> String {
    match value {
        Some(v) if v.is_finite() => format!("\"{key}\": {v:.3}"),
        _ => format!("\"{key}\": null, \"{key}_skipped\": \"{skip_reason}\""),
    }
}

/// Runs one Figures 3–6 style tradeoff figure and emits its table.
///
/// `use_cover_tree` follows §7.1: cover tree everywhere except the
/// MNIST/Imagenet-like sets, which use sequential scan.
pub fn run_tradeoff_figure(
    opts: &HarnessOpts,
    csv_name: &str,
    title: &str,
    dataset_label: &str,
    ds: std::sync::Arc<rknn_core::Dataset>,
    use_cover_tree: bool,
) {
    use rknn_eval::tradeoff::{rows_to_table, run_tradeoff, TradeoffConfig};
    let cfg = TradeoffConfig {
        queries: opts.queries_or(40),
        use_cover_tree,
        seed: opts.seed,
        ..TradeoffConfig::new(dataset_label)
    };
    let rows = run_tradeoff(ds, &cfg);
    opts.emit(csv_name, &rows_to_table(title, &rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_has_floor() {
        let opts = HarnessOpts {
            scale: 0.001,
            queries: None,
            seed: 1,
            out_dir: PathBuf::from("/tmp"),
        };
        assert_eq!(opts.scaled(8000), 64);
        let opts = HarnessOpts { scale: 2.0, ..opts };
        assert_eq!(opts.scaled(100), 200);
        assert_eq!(opts.queries_or(40), 40);
    }

    #[test]
    fn rate_json_guards_zero_denominators() {
        assert_eq!(rate_json("qps", 100.0, 2.0), "\"qps\": 50.0");
        assert_eq!(
            rate_json("qps", 100.0, 0.0),
            "\"qps\": null, \"qps_skipped\": \"zero-duration section\""
        );
        assert_eq!(
            rate_json("qps", 0.0, 2.0),
            "\"qps\": null, \"qps_skipped\": \"zero events in section\""
        );
        assert_eq!(
            rate_json("qps", 0.0, 0.0),
            "\"qps\": null, \"qps_skipped\": \"zero events in section\""
        );
        // The fragments parse as JSON object members.
        for frag in [rate_json("r", 1.0, 1.0), rate_json("r", 1.0, 0.0)] {
            assert!(frag.starts_with("\"r\":"));
        }
    }

    #[test]
    fn opt_json_skips_absent_and_non_finite() {
        assert_eq!(opt_json("p99", Some(1.5), "x"), "\"p99\": 1.500");
        assert_eq!(
            opt_json("p99", None, "too few queries"),
            "\"p99\": null, \"p99_skipped\": \"too few queries\""
        );
        assert_eq!(
            opt_json("p99", Some(f64::INFINITY), "overflow"),
            "\"p99\": null, \"p99_skipped\": \"overflow\""
        );
    }
}
