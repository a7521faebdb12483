//! Metric names, and the per-layer figures derived from answers, spans and
//! the kernel probe.

use crate::stats::mean;
use crate::trace::QueryBreakdown;
use rknn_core::{Dataset, Euclidean, Metric};
use rknn_rdt::{RknnAnswer, Termination};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics (tracing off), in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("recall", "ratio"),
    ("batch_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("sat_qps", "1/s"),
    ("advance_ms", "ms"),
];

/// Per-layer metrics (traced run), in output order. A layer that does not
/// run on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("kernel.ns_per_dist", "ns"),
    ("kernel.ns_per_dist_tile", "ns"),
    ("kernel.dist_per_query", "count"),
    ("kernel.share", "ratio"),
    ("index.build_s", "s"),
    ("index.nodes_per_query", "count"),
    ("index.heap_pushes_per_query", "count"),
    ("index.retrieved_per_query", "count"),
    ("index.filter_cursor_ms_per_query", "ms"),
    ("index.verify_cursor_ms_per_query", "ms"),
    ("rdt.self_ms_per_query", "ms"),
    ("rdt.witness_pairs_per_query", "count"),
    ("rdt.witness_eval_ratio", "ratio"),
    ("rdt.filter_set_size", "count"),
    ("rdt.verified_per_query", "count"),
    ("rdt.lazy_ratio", "ratio"),
    ("rdt.term_omega_frac", "ratio"),
    ("rdt.dk_hit_ratio", "ratio"),
    ("rdt.dk_misses", "count"),
    ("rdt.prepare_s", "s"),
    ("driver.wall_s", "s"),
    ("driver.busy_s", "s"),
    ("driver.parallel_eff", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.stolen", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("advance.build_ms", "ms"),
    ("advance.publish_us", "us"),
    ("advance.maint_dist", "count"),
    ("advance.cache_fill_frac", "ratio"),
    ("advance.epochs_seen", "count"),
    ("gen.max_lag_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("env.calib_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Named values collected during a run.
pub type Values = HashMap<&'static str, f64>;

/// Nanoseconds per distance on the workload's own rows: `(one-to-one
/// Metric::dist, blocked Metric::dist_tile)`.
pub fn kernel_ns(ds: &Dataset) -> (f64, f64) {
    let metric = Euclidean;
    let n = ds.len();
    let pairs: Vec<(usize, usize)> = (0..n.min(2048)).map(|i| (i, (i * 7 + 1) % n)).collect();
    let reps = 64;
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        for &(a, b) in &pairs {
            acc += metric.dist(black_box(ds.point(a)), black_box(ds.point(b)));
        }
    }
    black_box(acc);
    let dist_ns = start.elapsed().as_nanos() as f64 / (reps * pairs.len()) as f64;

    let stride = ds.stride();
    let rows = n.min(256);
    let qpad = ds.padded_point(n - 1).to_vec();
    let block = &ds.padded_flat()[..rows * stride];
    let bounds = vec![f64::INFINITY; rows];
    let mut out = vec![0.0; rows];
    let reps = 512;
    let start = Instant::now();
    for _ in 0..reps {
        metric.dist_tile(black_box(&qpad), block, stride, ds.dim(), &bounds, &mut out);
        black_box(&out);
    }
    let tile_ns = start.elapsed().as_nanos() as f64 / (reps * rows) as f64;
    (dist_ns, tile_ns)
}

/// RDT's own counters, averaged over answers.
pub fn rdt_counters(answers: &[&RknnAnswer], v: &mut Values) {
    let per =
        |f: &dyn Fn(&RknnAnswer) -> f64| mean(&answers.iter().map(|a| f(a)).collect::<Vec<_>>());
    v.insert(
        "rdt.witness_pairs_per_query",
        per(&|a| a.stats.witness_pairs as f64),
    );
    let pairs: u64 = answers.iter().map(|a| a.stats.witness_pairs).sum();
    let evals: u64 = answers.iter().map(|a| a.stats.witness_dist_comps).sum();
    v.insert("rdt.witness_eval_ratio", evals as f64 / pairs.max(1) as f64);
    v.insert(
        "rdt.filter_set_size",
        per(&|a| a.stats.filter_set_size as f64),
    );
    v.insert("rdt.verified_per_query", per(&|a| a.stats.verified as f64));
    let lazy: usize = answers
        .iter()
        .map(|a| a.stats.lazy_accepts + a.stats.lazy_rejects)
        .sum();
    let verified: usize = answers.iter().map(|a| a.stats.verified).sum();
    v.insert(
        "rdt.lazy_ratio",
        lazy as f64 / (lazy + verified).max(1) as f64,
    );
    v.insert(
        "rdt.term_omega_frac",
        per(&|a| f64::from(u8::from(a.stats.termination == Termination::Omega))),
    );
}

/// Index work counters and distance counts per query.
pub fn work_counters(work: &[rknn_core::SearchStats], v: &mut Values) {
    let per = |f: &dyn Fn(&rknn_core::SearchStats) -> u64| {
        mean(&work.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
    };
    v.insert("kernel.dist_per_query", per(&|w| w.dist_computations));
    v.insert("index.nodes_per_query", per(&|w| w.nodes_visited));
    v.insert("index.heap_pushes_per_query", per(&|w| w.heap_pushes));
}

/// Cursor and self time per query from the span breakdown.
pub fn span_times(rows: &[QueryBreakdown], v: &mut Values) {
    let ms = |f: &dyn Fn(&QueryBreakdown) -> u64| {
        mean(&rows.iter().map(|r| f(r) as f64 / 1e6).collect::<Vec<_>>())
    };
    v.insert("index.filter_cursor_ms_per_query", ms(&|r| r.filter_ns));
    v.insert("index.verify_cursor_ms_per_query", ms(&|r| r.verify_ns));
    v.insert("rdt.self_ms_per_query", ms(&|r| r.self_ns));
    v.insert(
        "index.retrieved_per_query",
        mean(&rows.iter().map(|r| r.retrieved as f64).collect::<Vec<_>>()),
    );
}

/// The kernel's share of query time: index distances at the substrate's
/// kernel path plus witness distances at the tile path, over the mean
/// query span.
pub fn kernel_share(
    answers: &[&RknnAnswer],
    rows: &[QueryBreakdown],
    index_ns: f64,
    tile_ns: f64,
) -> f64 {
    let index: f64 = mean(
        &answers
            .iter()
            .map(|a| a.stats.search.dist_computations as f64)
            .collect::<Vec<_>>(),
    );
    let witness: f64 = mean(
        &answers
            .iter()
            .map(|a| a.stats.witness_dist_comps as f64)
            .collect::<Vec<_>>(),
    );
    let query_ns = mean(&rows.iter().map(|r| r.total_ns as f64).collect::<Vec<_>>());
    (index * index_ns + witness * tile_ns) / query_ns.max(1.0)
}
