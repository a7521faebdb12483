//! `allpoints-cover`: the paper's all-points experiment on a cover tree.
//!
//! Tree traversal, the verification path (every point misses its `d_k`
//! once on a cold cache) and the parallel batch driver do the work; there
//! is no serving layer.

use crate::alloc;
use crate::layers::{self, Values};
use crate::oracle::{answer_hash, Change, Oracle, Verdict};
use crate::report::Outcome;
use crate::stats::{calibrate_ms, median, percentile_mut, SplitMix};
use crate::trace::{self, Kind, Observed, TracedIndex, Tracer};
use rknn_core::{Dataset, Euclidean, PointId};
use rknn_index::{CoverTree, DynamicIndex, KnnIndex};
use rknn_rdt::algorithm::{
    run_algorithm_all_points, run_algorithm_batch, AlgorithmAnswer, RdtAlgorithm, RknnAlgorithm,
};
use rknn_rdt::{RdtParams, RknnAnswer};
use rknn_serve::{advance_snapshot, ChurnOp, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 5_000;
const DIM: usize = 32;
const CLUSTERS: usize = 10;
const SIGMA: f64 = 1.0;
const K: usize = 10;
const T: f64 = 4.0;
/// A cover-tree build takes ~10 ms: `setup_s` is the median of this many
/// set-ups before the first pass and again after every pass, so that
/// neither one preemption nor one slow stretch of a shared box moves it.
const SETUP_REPS: usize = 5;
/// Distinct churn batches folded into each pass's warm snapshot: how much
/// an advance costs depends on which points it touches, so `advance_ms`
/// is a median over several.
const ADVANCE_PER_PASS: usize = 8;
/// Inserts and removes per churn batch.
const CHURN_HALF: usize = 8;
const CHECKED_AFTER_ADVANCE: usize = 300;

type Tree = CoverTree<Euclidean>;

fn prepared<I: KnnIndex<Euclidean>>(index: &I) -> RdtAlgorithm {
    let mut algo = RdtAlgorithm::new(RdtParams::new(K, T));
    RknnAlgorithm::<Euclidean, I>::prepare(&mut algo, index);
    algo
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut v = Values::new();
    v.insert("env.calib_ms", calibrate_ms());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Inputs and oracle, outside every timed region.
    let extra = ADVANCE_PER_PASS * CHURN_HALF;
    let full = rknn_data::gaussian_blobs(N + extra, DIM, CLUSTERS, SIGMA, seed);
    let ds: Arc<Dataset> = full
        .subset(&(0..N).collect::<Vec<_>>())
        .expect("ids are in range")
        .into_shared();
    let mut rng = SplitMix::new(seed ^ 0xa11);
    let mut removable: Vec<PointId> = (0..N).collect();
    rng.shuffle(&mut removable);
    let batches: Vec<Vec<ChurnOp>> = (0..extra)
        .step_by(CHURN_HALF)
        .map(|at| {
            (at..at + CHURN_HALF)
                .map(|i| ChurnOp::Insert(full.point(N + i).to_vec()))
                .chain(
                    removable[at..at + CHURN_HALF]
                        .iter()
                        .map(|&id| ChurnOp::Remove(id)),
                )
                .collect()
        })
        .collect();
    // The queries checked after the first batch.
    let removed = &removable[..CHURN_HALF];
    let checked: Vec<PointId> = (0..N + CHURN_HALF)
        .filter(|q| !removed.contains(q))
        .step_by(((N + CHURN_HALF) / CHECKED_AFTER_ADVANCE).max(1))
        .collect();
    let mut oracle = Oracle::new(&ds, K, threads);

    // Check pass, before the heap mark is reset: one cold all-points pass
    // and the first batch's advance, every answer against the oracle. The measured
    // passes below keep only hashes of their answers and must match these.
    let mut verdict = Verdict::default();
    let (reference, checked_reference) = {
        let tree = CoverTree::build(Arc::clone(&ds), Euclidean);
        let algo = prepared(&tree);
        let cold = run_algorithm_all_points(&algo, &tree, threads);
        for (q, a) in cold.answers.iter().enumerate() {
            oracle.check(q, &a.result, &mut verdict);
        }
        let reference = answer_hash(&cold.answers);
        let ops = &batches[0];
        let checked_reference = match advance_snapshot(&Snapshot::new(0, tree, algo), ops) {
            Ok((next, report)) => {
                let expected: Vec<PointId> = (N..N + CHURN_HALF).collect();
                out.require(report.inserted == expected, || {
                    "inserted ids are not appended".into()
                });
                let mut changes: Vec<Change> = report
                    .inserted
                    .iter()
                    .zip(ops)
                    .filter_map(|(&id, op)| match op {
                        ChurnOp::Insert(p) => Some(Change::Insert(id, p.clone())),
                        ChurnOp::Remove(_) => None,
                    })
                    .collect();
                changes.extend(report.removed.iter().map(|&id| Change::Remove(id)));
                oracle.apply(&changes);
                let answers = run_algorithm_batch(next.algo(), next.index(), &checked, 1).answers;
                for (&q, a) in checked.iter().zip(&answers) {
                    oracle.check(q, &a.result, &mut verdict);
                }
                answer_hash(&answers)
            }
            Err(e) => {
                out.problems.push(format!("advance failed: {e}"));
                0
            }
        };
        (reference, checked_reference)
    };
    out.require(verdict.exact_where_answered(), || {
        format!("oracle mismatch: {verdict:?}")
    });

    // Everything the measured passes record is allocated here, before the
    // heap mark is reset, so `peak_heap_mb` is the program's alone.
    let latency: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
    let mut pass_ms = vec![0.0; N];
    let samples = || Vec::<f64>::with_capacity(1_024);
    let (mut latency_p50, mut cold_qps, mut warm_qps) = (samples(), samples(), samples());
    let (mut plain_wall, mut traced_wall) = (samples(), samples());
    let (mut setup, mut build, mut prepare) = (samples(), samples(), samples());
    let mut adv = Advances {
        millis: samples(),
        build_ms: samples(),
        maint_dist: samples(),
        cache_fill: None,
        errors: Vec::new(),
    };
    let tracer = Arc::new(Tracer::new(RdtParams::new(K, T).rank_cap(N - 1), K));
    alloc::reset_peak();

    // Set-up: index build plus (cold) prepare.
    let mut set_up = || {
        let mut tree = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let built = CoverTree::build(Arc::clone(&ds), Euclidean);
            build.push(t0.elapsed().as_secs_f64());
            let algo = prepared(&built);
            setup.push(t0.elapsed().as_secs_f64());
            prepare.push(RknnAlgorithm::<Euclidean, Tree>::precompute_time(&algo).as_secs_f64());
            tree = Some(built);
        }
        tree.expect("at least one set-up")
    };
    let mut tree = set_up();
    let wrapped = traced.then(|| TracedIndex::new(tree.clone(), Arc::clone(&tracer)));

    // Measured passes, each on the tree the last set-up built. Untraced: a
    // cold all-points pass (fresh cache, per-query latency recorded), then
    // a warm one on the same cache with half the churn batches folded into
    // the warm snapshot before it and half after, so that the advances
    // sample two moments of each pass. Traced: an untraced cold pass and a
    // traced cold pass, then every churn batch.
    let mut same_answers = true;
    let mut last_traced: Option<(Vec<RknnAnswer>, Duration, RdtAlgorithm)> = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds * 0.9);
    let mut rep_time = Duration::ZERO;
    while cold_qps.is_empty() || start.elapsed() + rep_time <= budget {
        let rep_start = Instant::now();
        let algo = prepared(&tree);
        let observed = Observed::new(&algo, None, Some(&latency));
        let cold = run_algorithm_all_points(&observed, &tree, threads);
        cold_qps.push(N as f64 / cold.elapsed.as_secs_f64());
        plain_wall.push(cold.elapsed.as_secs_f64());
        for (ms, l) in pass_ms.iter_mut().zip(&latency) {
            *ms = l.load(Relaxed) as f64 / 1e6;
        }
        latency_p50.push(percentile_mut(&mut pass_ms, 50.0));
        same_answers &= answer_hash(&cold.answers) == reference;
        drop(cold);
        // Churn batches are folded into the warm snapshot with no engine
        // (nothing to publish to), each from the same snapshot.
        if let Some(index) = &wrapped {
            tracer.take();
            let traced_algo = prepared(index);
            let observed = Observed::new(&traced_algo, Some(&tracer), None);
            let run = run_algorithm_all_points(&observed, index, threads);
            traced_wall.push(run.elapsed.as_secs_f64());
            same_answers &= answer_hash(&run.answers) == reference;
            last_traced = Some((run.answers, run.elapsed, traced_algo));
            let snapshot = Snapshot::new(0, index.clone(), algo);
            let checked_hash =
                advance_burst(&snapshot, &batches, Some(&tracer), Some(&checked), &mut adv);
            same_answers &= checked_hash == checked_reference;
        } else {
            let snapshot = Snapshot::new(0, tree, algo);
            let (before, after) = batches.split_at(ADVANCE_PER_PASS / 2);
            let checked_hash = advance_burst(&snapshot, before, None, Some(&checked), &mut adv);
            same_answers &= checked_hash == checked_reference;
            let warm = run_algorithm_all_points(snapshot.algo(), snapshot.index(), threads);
            warm_qps.push(N as f64 / warm.elapsed.as_secs_f64());
            same_answers &= answer_hash(&warm.answers) == reference;
            drop(warm);
            advance_burst(&snapshot, after, None, None, &mut adv);
        }
        tree = set_up();
        rep_time = rep_start.elapsed();
    }
    let peak_mb = alloc::peak_mb_since_reset();
    // (peak is read here; what follows allocates for the benchmark.)
    out.attempted += (cold_qps.len() * N * 2) as u64;
    out.require(same_answers, || {
        "answers differ from the checked pass".into()
    });
    out.attempted += adv.millis.len() as u64;
    for e in &adv.errors {
        out.failed += 1;
        out.problems.push(format!("advance failed: {e}"));
    }
    v.insert("advance.build_ms", median(&adv.build_ms));
    v.insert("advance.maint_dist", median(&adv.maint_dist));
    if let Some(fill) = adv.cache_fill {
        v.insert("advance.cache_fill_frac", fill);
    }
    out.correct = out.problems.is_empty();

    if !traced {
        let e2e = Values::from([
            ("setup_s", median(&setup)),
            ("peak_heap_mb", peak_mb),
            ("recall", verdict.recall()),
            ("batch_qps", median(&cold_qps)),
            ("latency_p50_ms", median(&latency_p50)),
            ("sat_qps", median(&warm_qps)),
            ("advance_ms", median(&adv.millis)),
        ]);
        crate::emit(&mut out, &layers::END_TO_END, &e2e);
        eprintln!(
            "allpoints-cover: env.calib_ms={:.3} passes={}",
            v["env.calib_ms"],
            cold_qps.len()
        );
        return out;
    }

    // Per-layer figures from the last traced pass.
    let (answers, wall, algo) = last_traced.expect("traced mode ran a traced pass");
    let mut spans = tracer.take();
    let rows = match trace::breakdown(&spans) {
        Ok(rows) => rows,
        Err(e) => {
            out.problems.push(format!("trace: {e}"));
            Vec::new()
        }
    };
    let refs: Vec<&RknnAnswer> = answers.iter().collect();
    let retrieved: u64 = answers.iter().map(|a| a.stats.retrieved as u64).sum();
    let traced_retrieved: u64 = rows.iter().map(|r| r.retrieved).sum();
    out.require(retrieved == traced_retrieved, || {
        format!("cursor spans saw {traced_retrieved} retrievals, answers report {retrieved}")
    });
    let (dist_ns, tile_ns) = layers::kernel_ns(&ds);
    v.insert("kernel.ns_per_dist", dist_ns);
    v.insert("kernel.ns_per_dist_tile", tile_ns);
    v.insert(
        "kernel.share",
        layers::kernel_share(&refs, &rows, dist_ns, tile_ns),
    );
    layers::work_counters(
        &answers.iter().map(|a| a.work()).collect::<Vec<_>>(),
        &mut v,
    );
    layers::span_times(&rows, &mut v);
    layers::rdt_counters(&refs, &mut v);
    v.insert("index.build_s", median(&build));
    v.insert("rdt.prepare_s", median(&prepare));
    let (hits, misses) = algo.dk_cache().map_or((0, 0), |c| c.hit_stats());
    v.insert(
        "rdt.dk_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert("rdt.dk_misses", misses as f64);
    let busy: f64 = rows.iter().map(|r| r.total_ns as f64 / 1e9).sum();
    v.insert("driver.wall_s", wall.as_secs_f64());
    v.insert("driver.busy_s", busy);
    v.insert(
        "driver.parallel_eff",
        busy / (wall.as_secs_f64() * threads as f64),
    );
    v.insert(
        "trace.overhead_frac",
        median(&traced_wall) / median(&plain_wall) - 1.0,
    );
    spans.sort_by_key(|s| s.start_ns);
    crate::write_trace("allpoints-cover", &spans);
    out.correct = out.problems.is_empty();
    crate::emit(&mut out, &layers::PER_LAYER, &v);
    out
}

/// What the churn batches on the warm snapshots cost, over all passes.
struct Advances {
    millis: Vec<f64>,
    build_ms: Vec<f64>,
    maint_dist: Vec<f64>,
    /// Share of `d_k` slots the first successor carried filled.
    cache_fill: Option<f64>,
    errors: Vec<String>,
}

/// Folds each batch into `snapshot`, each from the same snapshot. With
/// `checked`, returns the hash of the first successor's answers to those
/// queries (otherwise 0).
fn advance_burst<I>(
    snapshot: &Snapshot<Euclidean, I, RdtAlgorithm>,
    batches: &[Vec<ChurnOp>],
    tracer: Option<&Tracer>,
    checked: Option<&[PointId]>,
    adv: &mut Advances,
) -> u64
where
    I: DynamicIndex<Euclidean> + Clone + Sync,
{
    let mut checked_hash = 0;
    for (i, ops) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let result = match tracer {
            Some(t) => t.scoped(0, Kind::Advance, || advance_snapshot(snapshot, ops)),
            None => advance_snapshot(snapshot, ops),
        };
        adv.millis.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok((next, report)) => {
                if let Some(queries) = checked.filter(|_| i == 0) {
                    checked_hash = answer_hash(
                        &run_algorithm_batch(next.algo(), next.index(), queries, 1).answers,
                    );
                }
                adv.build_ms.push(report.build_time.as_secs_f64() * 1e3);
                adv.maint_dist
                    .push(report.maintenance.dist_computations as f64);
                adv.cache_fill.get_or_insert(
                    report.cache_filled.unwrap_or(0) as f64 / (N + CHURN_HALF) as f64,
                );
            }
            Err(e) => adv.errors.push(e.to_string()),
        }
    }
    checked_hash
}
