//! Equivalence of every method running through the unified
//! `RknnAlgorithm` abstraction, per the algorithm-refactor PR's
//! acceptance:
//!
//! 1. every **exact** method — naive, TPL, MRkNNCoP (`k ≤ k_max`),
//!    RdNN-Tree, and RDT at an exhaustive scale parameter — returns
//!    byte-identical RkNN sets (same ids, bit-identical distances) on a
//!    tie-heavy grid. RDT+ at the same exhaustive parameter keeps **full
//!    recall** with bit-identical distances on every true member, but its
//!    §4.3 candidate-set reduction can lazily accept points whose witness
//!    census was undercounted by exclusions (the repo's documented
//!    precision tradeoff), so each RDT+ extra is checked to be a genuine
//!    false positive rather than asserted absent;
//! 2. for each method, the algorithm-generic batch driver matches a
//!    sequential per-query loop over the same worker exactly: results,
//!    terminations (RDT), and deterministically merged statistics, at
//!    every worker count.
//!
//! Coordinates are drawn from a coarse half-integer grid so exact distance
//! ties (the adversarial case for strict/closed threshold tests like
//! `dist_lt`/`dist_le` and for the conservative MRkNNCoP bounds) occur
//! constantly.
//!
//! All assertions run on whatever kernel backend dispatch selects; CI
//! reruns this suite with `RKNN_KERNEL=scalar` (and `RKNN_KERNEL=avx2` on
//! capable hosts) pinned, so every method's byte-identity contract is
//! checked under every backend. A dedicated property additionally pins the
//! whole RDT engine — filter cursor, tiled witness pass, refinement — on
//! the sequential scan's SIMD tile fast path against its per-point
//! fallback, and a differential property pins the engine against a
//! literal row-by-row Algorithm 1 (full distance on every witness pair, a
//! lazy-accept sweep over the whole filter set) on every substrate,
//! variant and scale schedule.

use proptest::prelude::*;
use rknn::baselines::{MrknncopAlgorithm, NaiveRknn, RdnnAlgorithm, Sft, TplAlgorithm};
use rknn::core::{
    CursorScratch, Dataset, Euclidean, Metric, Neighbor, PointId, QueryScratch, SearchStats,
};
use rknn::index::{CoverTree, DynamicIndex, KnnIndex, LinearScan, VpTree};
use rknn::rdt::algorithm::{run_algorithm_batch, AlgorithmAnswer, RdtAlgorithm, RknnAlgorithm};
use rknn::rdt::engine::run_query_full;
use rknn::rdt::{RdtParams, RdtQueryStats, RdtVariant, RknnAnswer, TSchedule, Termination};
use std::sync::Arc;

/// Builds a dataset on the half-integer grid `{0, 0.5, …, 4}` from raw
/// proptest levels, so duplicate points and tied distances are common.
fn grid_dataset(levels: &[u8], dim: usize) -> Arc<Dataset> {
    let n = levels.len() / dim;
    let coords: Vec<f64> = levels[..n * dim]
        .iter()
        .map(|&v| f64::from(v % 9) * 0.5)
        .collect();
    Dataset::from_flat(dim, coords)
        .expect("grid coordinates are finite")
        .into_shared()
}

/// Byte-identity of two neighbor lists: same ids in the same order with
/// bit-identical distances.
fn assert_identical(a: &[Neighbor], b: &[Neighbor], what: &str) {
    prop_assert_eq!(a.len(), b.len(), "{}: set sizes differ", what);
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.id, y.id, "{}: ids diverged", what);
        prop_assert_eq!(
            x.dist.to_bits(),
            y.dist.to_bits(),
            "{}: distances diverged",
            what
        );
    }
}

/// Runs one prepared algorithm over all points through (a) a sequential
/// per-query loop on a single worker and (b) the batch driver at several
/// worker counts, demanding identical answers and identical merged stats.
/// Returns the sequential reference answers.
fn assert_batch_matches_sequential<A>(
    algo: &A,
    index: &LinearScan<Euclidean>,
    label: &str,
) -> Vec<A::Answer>
where
    A: RknnAlgorithm<Euclidean, LinearScan<Euclidean>>,
{
    let queries: Vec<usize> = (0..index.num_points()).collect();
    // The reference: a plain sequential loop over one worker.
    let mut worker = algo.make_worker(index);
    let reference: Vec<A::Answer> = queries
        .iter()
        .map(|&q| algo.query(index, q, &mut worker))
        .collect();

    for threads in [1usize, 2, 5] {
        let out = run_algorithm_batch(algo, index, &queries, threads);
        prop_assert_eq!(out.answers.len(), reference.len());
        let mut members = 0usize;
        let mut work = SearchStats::new();
        for (q, (got, want)) in out.answers.iter().zip(&reference).enumerate() {
            assert_identical(
                got.neighbors(),
                want.neighbors(),
                &format!("{label} threads={threads} q={q}"),
            );
            prop_assert_eq!(
                got.work(),
                want.work(),
                "{} threads={} q={}: per-query work diverged",
                label,
                threads,
                q
            );
            members += want.neighbors().len();
            work.absorb(&want.work());
        }
        // Merged stats are summed in query order: deterministic at any
        // worker count and equal to the sequential fold.
        prop_assert_eq!(out.stats.queries, reference.len(), "{}", label);
        prop_assert_eq!(out.stats.result_members, members, "{}", label);
        prop_assert_eq!(out.stats.search, work, "{} threads={}", label, threads);
    }
    reference
}

/// One filter-set member of the literal reference: `(id, d(q,·), W, accepted)`.
struct LiteralMember {
    id: PointId,
    dist: f64,
    witnesses: usize,
    accepted: bool,
}

/// Algorithm 1 read literally, as the differential reference for the
/// engine: the same cursor stream, termination tests and refinement, but a
/// witness pass that evaluates the full [`Metric::dist`] of every pair row
/// by row, increments both witness counters by the definition (no pruning,
/// no skipping), and then sweeps the whole filter set for lazy accepts
/// (Assertion 2). `witness_pairs` adds `|F|` per retrieval (the paper's
/// `(s choose 2)` model) and `witness_dist_comps` counts the pairs whose
/// distance can still change a decision: `x` open (not accepted, `W(x) <
/// k`) or `W(v) < k` at the time the pair is reached.
fn literal_rdt<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
) -> RknnAnswer
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let k = params.k;
    let metric = index.metric();
    let n = index.num_points() - usize::from(exclude.is_some());
    let mut t = params.t;
    let mut cap = params.rank_cap(n);
    let mut scratch = CursorScratch::new();
    let mut cursor = match schedule {
        TSchedule::Fixed => index.cursor_bounded(q, exclude, cap, &mut scratch),
        TSchedule::Adaptive { .. } => index.cursor_with(q, exclude, &mut scratch),
    };
    let mut test_armed = matches!(schedule, TSchedule::Fixed);
    let (mut sum_ln_d, mut pos_count) = (0.0f64, 0usize);
    let mut filter: Vec<LiteralMember> = Vec::new();
    let (mut s, mut excluded, mut lazy_accepts) = (0usize, 0usize, 0usize);
    let (mut witness_pairs, mut witness_dist_comps) = (0u64, 0u64);
    let mut omega = f64::INFINITY;
    let mut termination = Termination::Exhausted;
    while let Some(v) = cursor.next() {
        s += 1;
        if let TSchedule::Adaptive { safety } = schedule {
            if v.dist > 0.0 {
                sum_ln_d += v.dist.ln();
                pos_count += 1;
            }
            if pos_count >= k.max(8) {
                let denom = pos_count as f64 * v.dist.ln() - sum_ln_d;
                if denom > 0.0 {
                    let new_t = (safety * (pos_count as f64 / denom)).max(params.t);
                    if new_t.is_finite() && new_t > 0.0 {
                        t = new_t;
                        cap = RdtParams::new(k, t).rank_cap(n);
                        test_armed = true;
                    }
                }
            }
        }
        let mut w_v = 0usize;
        if variant != RdtVariant::NoWitness {
            witness_pairs += filter.len() as u64;
            for x in filter.iter_mut() {
                if (!x.accepted && x.witnesses < k) || w_v < k {
                    witness_dist_comps += 1;
                }
                let d_vx = metric.dist(index.point(v.id), index.point(x.id));
                if d_vx < x.dist {
                    x.witnesses += 1;
                }
                if d_vx < v.dist {
                    w_v += 1;
                }
            }
            for x in filter.iter_mut() {
                if !x.accepted && x.witnesses < k && v.dist >= 2.0 * x.dist {
                    x.accepted = true;
                    lazy_accepts += 1;
                }
            }
        }
        if variant == RdtVariant::Plus && w_v >= k {
            excluded += 1;
        } else {
            filter.push(LiteralMember {
                id: v.id,
                dist: v.dist,
                witnesses: w_v,
                accepted: false,
            });
        }
        if test_armed && s > k && v.dist > 0.0 {
            let denom = (s as f64 / k as f64).powf(1.0 / t) - 1.0;
            if denom > 0.0 {
                omega = omega.min(v.dist / denom);
            }
        }
        if v.dist > omega {
            termination = Termination::Omega;
            break;
        }
        if test_armed && s >= cap {
            termination = if s >= n {
                Termination::Exhausted
            } else {
                Termination::RankCap
            };
            break;
        }
    }
    let mut search = cursor.stats();
    drop(cursor);

    let mut result = Vec::new();
    let (mut lazy_rejects, mut verified, mut verified_accepted) = (0usize, 0usize, 0usize);
    for x in &filter {
        if x.accepted {
            result.push(Neighbor::new(x.id, x.dist));
        } else if x.witnesses >= k {
            lazy_rejects += 1;
        } else {
            verified += 1;
            let mut fwd = index.cursor_bounded(index.point(x.id), Some(x.id), k, &mut scratch);
            let mut dk = f64::INFINITY;
            for _ in 0..k {
                match fwd.next() {
                    Some(nb) => dk = nb.dist,
                    None => {
                        dk = f64::INFINITY;
                        break;
                    }
                }
            }
            search.absorb(&fwd.stats());
            if dk >= x.dist {
                verified_accepted += 1;
                result.push(Neighbor::new(x.id, x.dist));
            }
        }
    }
    rknn::core::neighbor::sort_neighbors(&mut result);
    RknnAnswer {
        result,
        stats: RdtQueryStats {
            retrieved: s,
            filter_set_size: filter.len(),
            excluded,
            lazy_accepts,
            lazy_rejects,
            verified,
            verified_accepted,
            witness_pairs,
            witness_dist_comps,
            omega,
            termination,
            search,
        },
    }
}

/// Runs the engine (one reused scratch, no `d_k` cache) and the literal
/// reference from every point of `index` and from one external location,
/// under every variant and both scale schedules, demanding equal ids,
/// equal distance bits and equal whole [`RdtQueryStats`].
fn assert_engine_matches_literal<I>(index: &I, params: RdtParams, safety: f64, label: &str)
where
    I: KnnIndex<Euclidean>,
{
    let mut scratch = QueryScratch::new(index.dim());
    let external: Vec<f64> = vec![1.25; index.dim()];
    let mut queries: Vec<(Vec<f64>, Option<PointId>)> = (0..index.num_points())
        .map(|q| (index.point(q).to_vec(), Some(q)))
        .collect();
    queries.push((external, None));
    for variant in [RdtVariant::Plain, RdtVariant::Plus, RdtVariant::NoWitness] {
        for schedule in [TSchedule::Fixed, TSchedule::Adaptive { safety }] {
            for (qp, exclude) in &queries {
                let what = format!("{label} {variant:?} {schedule:?} q={exclude:?}");
                let got = run_query_full(
                    index,
                    qp,
                    *exclude,
                    params,
                    variant,
                    schedule,
                    &mut scratch,
                    None,
                );
                let want = literal_rdt(index, qp, *exclude, params, variant, schedule);
                assert_identical(&got.result, &want.result, &what);
                prop_assert_eq!(got.stats, want.stats, "{}: stats diverged", what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance property 1: all exact methods agree byte-identically.
    #[test]
    fn exact_methods_return_byte_identical_rknn_sets(
        levels in proptest::collection::vec(0u8..9, 24..72),
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let ds = grid_dataset(&levels, dim);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let queries: Vec<usize> = (0..ds.len()).collect();

        // The reference: naive, one verification per point.
        let naive = NaiveRknn::new(k);
        let reference = run_algorithm_batch(&naive, &idx, &queries, 2);

        // TPL.
        let mut tpl = TplAlgorithm::new(ds.clone(), Euclidean, k);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut tpl, &idx);
        let tpl_out = run_algorithm_batch(&tpl, &idx, &queries, 2);

        // MRkNNCoP with k strictly below k_max (the supported regime).
        let mut cop = MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k + 2);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut cop, &idx);
        let cop_out = run_algorithm_batch(&cop, &idx, &queries, 2);

        // RdNN-Tree, welded to this k.
        let mut rdnn = RdnnAlgorithm::new(ds.clone(), Euclidean, k);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut rdnn, &idx);
        let rdnn_out = run_algorithm_batch(&rdnn, &idx, &queries, 2);

        // RDT at an exhaustive scale parameter (rank cap covers the whole
        // dataset, so Theorem 1 exactness applies: complete censuses make
        // every lazy accept/reject sound).
        let mut rdt = RdtAlgorithm::new(RdtParams::new(k, 40.0));
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut rdt, &idx);
        let rdt_out = run_algorithm_batch(&rdt, &idx, &queries, 2);
        let mut plus = RdtAlgorithm::plus(RdtParams::new(k, 40.0));
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut plus, &idx);
        let plus_out = run_algorithm_batch(&plus, &idx, &queries, 2);

        let metric = Euclidean;
        for (q, want) in reference.answers.iter().enumerate() {
            assert_identical(tpl_out.answers[q].neighbors(), want.neighbors(),
                &format!("TPL q={q}"));
            assert_identical(cop_out.answers[q].neighbors(), want.neighbors(),
                &format!("MRkNNCoP q={q}"));
            assert_identical(rdnn_out.answers[q].neighbors(), want.neighbors(),
                &format!("RdNN q={q}"));
            assert_identical(rdt_out.answers[q].neighbors(), want.neighbors(),
                &format!("RDT q={q}"));

            // RDT+: full recall with bit-identical distances on every true
            // member; extras must be genuine false positives (true witness
            // census ≥ k over the whole dataset).
            let got = plus_out.answers[q].neighbors();
            for t in want.neighbors() {
                let m = got.iter().find(|n| n.id == t.id);
                prop_assert!(m.is_some(), "RDT+ q={} missed true member {}", q, t.id);
                prop_assert_eq!(m.unwrap().dist.to_bits(), t.dist.to_bits(),
                    "RDT+ q={} distance diverged on {}", q, t.id);
            }
            for n in got {
                if want.neighbors().iter().any(|t| t.id == n.id) {
                    continue;
                }
                let census = (0..ds.len())
                    .filter(|&y| y != n.id && y != q)
                    .filter(|&y| metric.dist(ds.point(n.id), ds.point(y)) < n.dist)
                    .count();
                prop_assert!(census >= k,
                    "RDT+ q={} reported {} which is a true member (census {})",
                    q, n.id, census);
            }
        }
    }

    /// Acceptance property 2: the generic batch driver is an exact,
    /// deterministic parallelization of the sequential per-query loop for
    /// every method.
    #[test]
    fn batch_driver_matches_sequential_loop_for_every_method(
        levels in proptest::collection::vec(0u8..9, 24..60),
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let ds = grid_dataset(&levels, dim);
        let idx = LinearScan::build(ds.clone(), Euclidean);

        assert_batch_matches_sequential(&NaiveRknn::new(k), &idx, "naive");
        assert_batch_matches_sequential(&Sft::new(k, 3.0), &idx, "SFT");

        let mut tpl = TplAlgorithm::new(ds.clone(), Euclidean, k);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut tpl, &idx);
        assert_batch_matches_sequential(&tpl, &idx, "TPL");

        let mut cop = MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k + 1);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut cop, &idx);
        assert_batch_matches_sequential(&cop, &idx, "MRkNNCoP");

        let mut rdnn = RdnnAlgorithm::new(ds.clone(), Euclidean, k);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut rdnn, &idx);
        assert_batch_matches_sequential(&rdnn, &idx, "RdNN");

        // RDT with the shared d_k cache disabled, so per-query work
        // counters are scheduling-independent and must match exactly; the
        // RDT-specific termination certificates must survive the driver
        // unchanged too.
        let mut rdt = RdtAlgorithm::plus(RdtParams::new(k, 4.0)).with_dk_reuse(false);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut rdt, &idx);
        let rdt_ref = assert_batch_matches_sequential(&rdt, &idx, "RDT+");
        let queries: Vec<usize> = (0..idx.num_points()).collect();
        let out = run_algorithm_batch(&rdt, &idx, &queries, 3);
        for (got, want) in out.answers.iter().zip(&rdt_ref) {
            prop_assert_eq!(got.stats, want.stats, "RDT+ full per-query stats diverged");
        }
    }

    /// The whole RDT engine on the scan's SIMD tile fast path vs the
    /// per-point fallback (forced via a tombstone in the dynamic pool):
    /// byte-identical answers and identical full per-query statistics —
    /// retrieval counts, witness pairs and distance evaluations,
    /// termination certificates — for RDT and RDT+ on every query.
    #[test]
    fn rdt_engine_is_identical_on_tile_and_fallback_scans(
        levels in proptest::collection::vec(0u8..9, 24..80),
        dim in 1usize..4,
        k in 1usize..4,
        plus_sel in 0usize..2,
    ) {
        let ds = grid_dataset(&levels, dim);
        let tile = LinearScan::build(ds.clone(), Euclidean);
        let mut fallback = LinearScan::build(ds.clone(), Euclidean);
        let tomb = fallback.insert(&vec![0.25; dim]).expect("insert");
        prop_assert!(fallback.remove(tomb));
        prop_assert!(tile.base_rows().is_some());
        prop_assert!(fallback.base_rows().is_none());

        let params = RdtParams::new(k, 4.0);
        let make = |plus: bool| {
            if plus {
                RdtAlgorithm::plus(params)
            } else {
                RdtAlgorithm::new(params)
            }
            .with_dk_reuse(false)
        };
        let mut algo = make(plus_sel == 1);
        let mut algo2 = make(plus_sel == 1);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo, &tile);
        RknnAlgorithm::<_, LinearScan<Euclidean>>::prepare(&mut algo2, &fallback);
        let queries: Vec<usize> = (0..ds.len()).collect();
        let a = run_algorithm_batch(&algo, &tile, &queries, 1);
        let b = run_algorithm_batch(&algo2, &fallback, &queries, 1);
        for (q, (x, y)) in a.answers.iter().zip(&b.answers).enumerate() {
            assert_identical(x.neighbors(), y.neighbors(), &format!("q={q}"));
            prop_assert_eq!(x.stats, y.stats, "per-query stats diverged at q={}", q);
        }
    }

    /// The engine against the literal Algorithm 1 reference on the
    /// tie-heavy grid plus a pile of zero-distance duplicates, over the
    /// scan, cover tree and vp-tree: identical answers (ids and distance
    /// bits) and identical whole per-query statistics. Dimensions up to 19
    /// make witness-pass evaluations cross the kernel's 8-coordinate
    /// abandonment cadence.
    #[test]
    fn rdt_engine_matches_literal_algorithm_one(
        (dim, levels) in (1usize..20).prop_flat_map(|dim| {
            (Just(dim), proptest::collection::vec(0u8..9, dim * 16..dim * 48))
        }),
        pile in 0usize..7,
        k in 1usize..5,
        t in 1.0f64..5.0,
        safety in 1.0f64..3.0,
    ) {
        let grid = grid_dataset(&levels, dim);
        let mut rows: Vec<Vec<f64>> = (0..grid.len()).map(|i| grid.point(i).to_vec()).collect();
        let dup = rows[0].clone();
        rows.extend(std::iter::repeat_n(dup, pile));
        let ds = Dataset::from_rows(&rows).expect("grid rows").into_shared();
        let params = RdtParams::new(k, t);
        let scan = LinearScan::build(ds.clone(), Euclidean);
        assert_engine_matches_literal(&scan, params, safety, "scan");
        let cover = CoverTree::build(ds.clone(), Euclidean);
        assert_engine_matches_literal(&cover, params, safety, "cover");
        let vp = VpTree::build(ds, Euclidean);
        assert_engine_matches_literal(&vp, params, safety, "vp");
    }
}
