//! The shared filter–refinement engine behind RDT and RDT+ (Algorithm 1).
//!
//! The engine follows the paper's listing line by line:
//!
//! 1. **Filter phase** (lines 2–24): an expanding incremental NN search from
//!    the query. Each newly retrieved point `v` exchanges witness updates
//!    with every point of the filter set `F`, may trigger lazy accepts
//!    (Assertion 2), joins `F` (unless excluded by the RDT+ criterion), and
//!    tightens the termination bound
//!    `ω ← min(ω, d(q,v) / ((s/k)^{1/t} − 1))` for ranks `s > k`. The loop
//!    stops when `d(q,v) > ω`, when `s ≥ min(n, ⌊2^t·k⌋)`, or when the
//!    index is exhausted.
//! 2. **Refinement phase** (lines 25–32): every unresolved candidate with
//!    fewer than `k` witnesses is verified by a forward kNN query
//!    (`d_k(v) ≥ d(q,v)`); candidates with `W ≥ k` are lazily rejected
//!    (Assertion 1) at zero additional cost.
//!
//! **Witness-counter erratum.** The published listing increments `W(v)` under
//! the condition `d(q,x) > d(v,x)` and `W(x)` under `d(q,v) > d(v,x)`, which
//! contradicts the paper's own definition `W(x) = |{y ∈ F : d(x,y) <
//! d(x,q)}|` (and would break Assertions 1–2). We implement the definition:
//! `d(v,x) < d(q,x)` makes `v` a witness *of x*, and `d(v,x) < d(q,v)` makes
//! `x` a witness *of v*. The README's `## Conventions` records the same
//! reading.
//!
//! **Rank under ties.** The listing sets `s ← ρ_S(q, v)`, which assigns the
//! maximum rank to distance ties; a cursor cannot look ahead, so we use the
//! retrieval count. The two differ only on exact ties, a measure-zero event
//! for continuous data.

use crate::answer::{RdtQueryStats, RknnAnswer, Termination};
use crate::params::RdtParams;
use rknn_core::{
    CancelToken, Cancelled, CursorScratch, FilterCandidate, Metric, Neighbor, PointId,
    QueryScratch, SearchStats,
};
use rknn_index::KnnIndex;

/// The largest witness-pass tile block, in filter rows. While a retrieved
/// point still needs witnesses the pass streams filter rows through
/// [`Metric::dist_tile`] in blocks of `WITNESS_TILE / 4`, then twice that,
/// then `WITNESS_TILE` rows each: the census of `v` usually completes
/// within the first few rows, so small first blocks bound the rows
/// evaluated past that crossing, and later blocks grow to amortize the
/// per-block dispatch and bound transform. Also the retrieval cadence of
/// the filter phase's cancellation checkpoint.
const WITNESS_TILE: usize = 32;

/// The verification threshold `d_k(v)`: the distance from `v` to its k-th
/// nearest other point, `+∞` when fewer than `k` exist.
///
/// Runs through [`KnnIndex::cursor_bounded`] with the caller's scratch, so
/// every substrate — tree or scan — answers the forward query
/// allocation-amortized and threshold-pruned instead of through the boxed
/// default `knn` path.
fn dk_via_cursor<M, I>(
    index: &I,
    id: PointId,
    k: usize,
    scratch: &mut CursorScratch,
    stats: &mut SearchStats,
) -> f64
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let mut cursor = index.cursor_bounded(index.point(id), Some(id), k, scratch);
    let mut dk = f64::INFINITY;
    let mut got = 0usize;
    while got < k {
        match cursor.next() {
            Some(n) => {
                dk = n.dist;
                got += 1;
            }
            None => break,
        }
    }
    stats.absorb(&cursor.stats());
    if got < k {
        f64::INFINITY
    } else {
        dk
    }
}

/// Which flavor of the engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdtVariant {
    /// Algorithm 1 as published.
    Plain,
    /// With the §4.3 candidate-set reduction.
    Plus,
    /// Ablation: witness maintenance disabled — every candidate that
    /// survives the filter phase is verified explicitly. Isolates the
    /// contribution of lazy acceptance/rejection (§7.2/§8.2).
    NoWitness,
}

/// Runs the filter–refinement query.
///
/// `exclude` is the query's own id when `q ∈ S` (self-excluding convention);
/// `plus` enables the RDT+ candidate-set reduction of §4.3.
pub fn run_query<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    plus: bool,
) -> RknnAnswer
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    run_query_variant(
        index,
        q,
        exclude,
        params,
        if plus {
            RdtVariant::Plus
        } else {
            RdtVariant::Plain
        },
    )
}

/// How the scale parameter evolves during one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TSchedule {
    /// The fixed `t` of [`RdtParams`] (Algorithm 1 as published).
    Fixed,
    /// §9's future-work idea: re-estimate the local intrinsic
    /// dimensionality from the expanding neighborhood after every retrieval
    /// (an online Hill/MLE estimate over the observed distances) and use
    /// `t = safety · estimate`, clamped to `[params.t, ∞)` — the configured
    /// `t` acts as the floor. Larger safety factors push toward exactness;
    /// the Hill estimate tracks the local ID that MaxGED upper-bounds.
    Adaptive {
        /// Multiplier on the online estimate.
        safety: f64,
    },
}

/// Runs the filter–refinement query with an explicit [`RdtVariant`].
pub fn run_query_variant<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
) -> RknnAnswer
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    run_query_scheduled(index, q, exclude, params, variant, TSchedule::Fixed)
}

/// Runs the filter–refinement query with an explicit variant and
/// scale-parameter schedule, allocating fresh working memory.
///
/// Batch callers that answer many queries should allocate one
/// [`QueryScratch`] per worker and call [`run_query_with`] instead; this
/// wrapper exists for one-off queries and produces byte-identical answers.
pub fn run_query_scheduled<M, I>(
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
    let mut scratch = QueryScratch::new(index.dim().max(1));
    run_query_with(index, q, exclude, params, variant, schedule, &mut scratch)
}

/// A lazily filled, lock-free shared cache of verification thresholds
/// `d_k(·)`.
///
/// The refinement phase accepts an unresolved candidate `v` exactly when
/// `d_k(v) >= d(q, v)` — and `d_k(v)` does not depend on the query. In an
/// all-points batch the same point is verified from many different
/// queries, so recomputing its forward kNN each time is pure waste; all
/// workers of a batch share one `DkCache` (it only needs `&self`), compute
/// each threshold at most once-ish, and reuse the exact same
/// floating-point value afterwards. Acceptance decisions (and hence result
/// sets and terminations) are identical to the uncached engine; only the
/// *work counters* of queries that hit the cache shrink, which is the
/// point.
///
/// Slots are plain atomics with relaxed ordering: two workers racing on
/// the same unset slot both compute the identical deterministic `d_k` and
/// store the identical bits, so the race is benign — it can only duplicate
/// work, never change a value. Per-query work counters under a shared
/// cache therefore depend on scheduling; results never do.
#[derive(Debug)]
pub struct DkCache {
    k: usize,
    /// Bit patterns of the cached `d_k` values; [`DkCache::UNSET`] marks a
    /// slot not computed yet (a real `d_k` is never NaN — coordinates are
    /// finite — though it may be `+∞` when fewer than `k` other points
    /// exist).
    vals: Vec<std::sync::atomic::AtomicU64>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl DkCache {
    /// Sentinel bit pattern for "not computed yet": a NaN payload no
    /// arithmetic result ever carries.
    const UNSET: u64 = u64::MAX;

    /// An empty cache for rank `k`, pre-sized for `n` point ids.
    pub fn new(k: usize, n: usize) -> Self {
        let mut vals = Vec::with_capacity(n);
        vals.resize_with(n, || std::sync::atomic::AtomicU64::new(Self::UNSET));
        DkCache {
            k,
            vals,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The rank this cache's thresholds were computed at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `(hits, misses)` so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Number of slots currently holding a computed threshold.
    pub fn filled(&self) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        self.vals
            .iter()
            .filter(|s| s.load(Relaxed) != Self::UNSET)
            .count()
    }

    /// A copy for carrying the warm cache into a successor instance: same
    /// `k`, every computed threshold copied bit-for-bit, hit/miss counters
    /// zeroed. `&self` suffices — slots are read with the same relaxed
    /// loads queries use, so a copy taken while readers are still filling
    /// slots simply captures "whatever was computed so far"; every captured
    /// bit pattern is a value a fresh computation would also produce.
    pub fn warm_copy(&self) -> DkCache {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        DkCache {
            k: self.k,
            vals: self
                .vals
                .iter()
                .map(|s| AtomicU64::new(s.load(Relaxed)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns `d_k(id)`, computing it with one bounded forward cursor over
    /// the caller's scratch on a cache miss (`stats` absorbs the miss's
    /// index work). Ids beyond the cache's pre-sized range (points inserted
    /// after cache construction) are computed but not cached.
    pub fn dk_or_compute<M, I>(
        &self,
        index: &I,
        id: PointId,
        scratch: &mut CursorScratch,
        stats: &mut SearchStats,
    ) -> f64
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(slot) = self.vals.get(id) {
            let bits = slot.load(Relaxed);
            if bits != Self::UNSET {
                self.hits.fetch_add(1, Relaxed);
                return f64::from_bits(bits);
            }
        }
        let dk = dk_via_cursor(index, id, self.k, scratch, stats);
        debug_assert!(dk.to_bits() != Self::UNSET);
        if let Some(slot) = self.vals.get(id) {
            slot.store(dk.to_bits(), Relaxed);
        }
        self.misses.fetch_add(1, Relaxed);
        dk
    }

    /// Extends the cached id range to `n` slots (new slots unset), so
    /// points inserted after construction get cached thresholds too.
    /// `&mut self`: maintenance runs between batches, never concurrently
    /// with queries.
    pub fn grow(&mut self, n: usize) {
        if n > self.vals.len() {
            self.vals
                .resize_with(n, || std::sync::atomic::AtomicU64::new(Self::UNSET));
        }
    }

    /// Localized invalidation after inserting or deleting point `p`: evicts
    /// exactly the slots whose cached ball contains `p`, plus `p`'s own,
    /// and returns how many were evicted.
    ///
    /// Soundness in both directions: an insert of `p` lowers `d_k(x)` only
    /// if `d(x, p) < d_k(x)`; a delete of `p` raises `d_k(x)` only if `p`
    /// was among `x`'s `k` nearest, i.e. `d(x, p) <= d_k(x)` against the
    /// still-cached pre-delete threshold. Evicting on `d(x, p) <= d_k(x)`
    /// therefore covers every slot either update can change (a `+∞`
    /// threshold always evicts — fewer than `k` neighbors existed, so any
    /// insert can finish the rank). Every slot evaluation runs through
    /// [`Metric::dist_le`], abandoning against the cached threshold, and is
    /// charged to `stats` — this is the per-update maintenance cost the
    /// dynamic experiments report.
    pub fn invalidate_near<M, I>(&mut self, index: &I, p: PointId, stats: &mut SearchStats) -> usize
    where
        M: Metric,
        I: KnnIndex<M> + ?Sized,
    {
        let metric = index.metric();
        let pc = index.point(p);
        let mut evicted = 0usize;
        for (x, slot) in self.vals.iter_mut().enumerate() {
            let bits = *slot.get_mut();
            if bits == Self::UNSET {
                continue;
            }
            if x == p {
                *slot.get_mut() = Self::UNSET;
                evicted += 1;
                continue;
            }
            stats.count_dist();
            if metric
                .dist_le(index.point(x), pc, f64::from_bits(bits))
                .is_some()
            {
                *slot.get_mut() = Self::UNSET;
                evicted += 1;
            }
        }
        evicted
    }
}

/// Runs the filter–refinement query against caller-owned working memory.
///
/// `scratch` supplies the cursor buffer, the filter-set bookkeeping vector,
/// and the candidate coordinate tile; all three are cleared on entry and
/// keep their capacity afterwards, so a worker reuses one scratch for every
/// query it executes. Results, terminations, and counters are identical to
/// [`run_query_scheduled`] — reuse changes where buffers live, never what
/// is computed.
///
/// The witness pass costs what it evaluates, not `|F|` per retrieval. A
/// retrieved point `v` streams filter rows through [`Metric::dist_tile`]
/// at radius `d(q, v)` — the larger of each pair's two radii, since the
/// cursor yields `d(q, x) <= d(q, v)` — only until its own census reaches
/// `k`; after that it visits only the members whose census is still open,
/// through [`Metric::dist_lt`] at radius `d(q, x)`, and lazy accepts
/// advance a monotone frontier over the distance-sorted filter set. Each
/// evaluation abandons its accumulation once it provably exceeds the
/// radius. `witness_pairs` still adds `|F|` per retrieval (the paper's
/// `(s choose 2)` cost model, not a count of loop iterations) and
/// `witness_dist_comps` counts the pairs evaluated — exactly those with
/// `x` open or `W(v) < k` — an abandoned evaluation counting as one.
///
/// The witness pass, like the traversal feeding it, evaluates every pair
/// through the one metric instance, so it runs in whatever kernel tier
/// that metric resolves to ([`rknn_core::KernelTier`]): cursor distances,
/// witness comparisons, and the verification kNN all agree within the
/// tier, and under the fast tier answer *sets* on tie-free inputs match
/// the exact tier while distances may differ by bounded ulps.
pub fn run_query_with<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    scratch: &mut QueryScratch,
) -> RknnAnswer
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    run_query_full(index, q, exclude, params, variant, schedule, scratch, None)
}

/// The fully parameterized engine entry point: caller-owned scratch plus an
/// optional [`DkCache`] of verification thresholds.
///
/// With a cache, queries whose refinement phase re-verifies an
/// already-known point skip the forward kNN query and reuse the exact
/// threshold value, so their `verified` counter is unchanged but their
/// index work shrinks. Without one (`None`), behavior and counters match
/// [`run_query_with`] exactly.
///
/// # Panics
///
/// Panics if a supplied cache was built for a different rank than
/// `params.k`.
#[allow(clippy::too_many_arguments)] // the batch driver is the only caller with all knobs
pub fn run_query_full<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    scratch: &mut QueryScratch,
    dk_cache: Option<&DkCache>,
) -> RknnAnswer
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    let never = CancelToken::never();
    match run_query_interruptible(
        index, q, exclude, params, variant, schedule, scratch, dk_cache, &never,
    ) {
        Ok(answer) => answer,
        Err(Cancelled) => unreachable!("a never-token cannot cancel"),
    }
}

/// [`run_query_full`] with a cooperative [`CancelToken`], checked at
/// block granularity: once per `WITNESS_TILE` (32) retrievals during the
/// filter phase and before each forward-kNN verification during
/// refinement — the two places where a query spends unbounded time. A
/// query whose token never trips is byte-identical (results, counters,
/// terminations) to the uncancellable entry points; a tripped token
/// returns [`Cancelled`] within one block of work and leaves only the
/// caller's reusable scratch behind (cleared on the next query).
///
/// This is the serving engine's deadline/cancellation hook: a wedged or
/// past-deadline query releases its worker instead of holding it to
/// completion.
///
/// # Panics
///
/// Panics if a supplied cache was built for a different rank than
/// `params.k`.
#[allow(clippy::too_many_arguments)] // the serving engine is the only caller with all knobs
pub fn run_query_interruptible<M, I>(
    index: &I,
    q: &[f64],
    exclude: Option<PointId>,
    params: RdtParams,
    variant: RdtVariant,
    schedule: TSchedule,
    scratch: &mut QueryScratch,
    dk_cache: Option<&DkCache>,
    cancel: &CancelToken,
) -> Result<RknnAnswer, Cancelled>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
{
    if let Some(cache) = dk_cache {
        assert_eq!(cache.k(), params.k, "DkCache rank mismatch");
    }
    let plus = variant == RdtVariant::Plus;
    let witnesses_enabled = variant != RdtVariant::NoWitness;
    let k = params.k;
    let mut t = params.t;
    let metric = index.metric();
    let n = index
        .num_points()
        .saturating_sub(usize::from(exclude.is_some()));
    let mut cap = params.rank_cap(n);

    let mut omega = f64::INFINITY;
    let QueryScratch {
        cursor: cursor_scratch,
        filter,
        tile,
        wtile,
        open,
    } = scratch;
    filter.clear();
    open.clear();
    tile.reset(index.dim().max(1));
    wtile
        .bounds
        .resize(wtile.bounds.len().max(WITNESS_TILE), 0.0);
    wtile.out.resize(wtile.out.len().max(WITNESS_TILE), 0.0);
    // Filter members `..frontier` are past the lazy-accept frontier
    // `2·d(q, x) <= d(q, v)`: each is accepted or has W(x) >= k.
    let mut frontier = 0usize;
    let mut excluded = 0usize;
    let mut lazy_accepts = 0usize;
    let mut witness_pairs = 0u64;
    let mut witness_dist_comps = 0u64;
    let mut s = 0usize;
    let mut termination = Termination::Exhausted;

    // Under a fixed scale parameter the filter phase never drains past the
    // rank cap, so the substrate may prune its stream to the cap-nearest
    // (the adaptive schedule can raise the cap mid-query and needs the
    // unbounded stream).
    let mut cursor = match schedule {
        TSchedule::Fixed => index.cursor_bounded(q, exclude, cap, cursor_scratch),
        TSchedule::Adaptive { .. } => index.cursor_with(q, exclude, cursor_scratch),
    };
    let mut inv_t = 1.0 / t;
    let kf = k as f64;
    // Online Hill state for TSchedule::Adaptive: with s observed distances
    // d_1..d_s (ascending), the MLE is -s / Σ ln(d_i / d_s)
    // = s / (s·ln d_s − Σ ln d_i); both terms update in O(1).
    let mut sum_ln_d = 0.0f64;
    let mut pos_count = 0usize;
    // In adaptive mode the dimensional test stays disarmed until the online
    // estimate has stabilized, so bounds computed from the floor t cannot
    // terminate the search prematurely.
    let mut test_armed = matches!(schedule, TSchedule::Fixed);

    if cancel.is_cancelled() {
        return Err(Cancelled);
    }

    // (An explicit loop rather than `while let`: the else-branch documents
    // the exhaustion case.)
    #[allow(clippy::while_let_loop)]
    loop {
        let Some(v) = cursor.next() else {
            // Index exhausted: s = n, every point was examined.
            break;
        };
        s += 1;
        // Cancellation checkpoint at tile-block granularity: one check per
        // WITNESS_TILE retrievals bounds the post-cancel overrun to a block
        // while keeping the checkpoint off the per-row hot path.
        if s.is_multiple_of(WITNESS_TILE) && cancel.is_cancelled() {
            return Err(Cancelled);
        }
        if let TSchedule::Adaptive { safety } = schedule {
            if v.dist > 0.0 {
                sum_ln_d += v.dist.ln();
                pos_count += 1;
            }
            // Re-estimate once a minimal neighborhood has been observed.
            if pos_count >= k.max(8) {
                let denom = pos_count as f64 * v.dist.ln() - sum_ln_d;
                if denom > 0.0 {
                    let hill = pos_count as f64 / denom;
                    let new_t = (safety * hill).max(params.t);
                    if new_t.is_finite() && new_t > 0.0 {
                        t = new_t;
                        inv_t = 1.0 / t;
                        cap = RdtParams::new(k, t).rank_cap(n);
                        test_armed = true;
                    }
                }
            }
        }
        let v_point = index.point(v.id);
        // Witness pass against the filter set (lines 8–19). Every filter
        // member is one maintenance pair (`witness_pairs`, the (s choose 2)
        // cost the paper bounds), but witness counts beyond k never
        // influence a decision, so a pair's distance is evaluated only while
        // at least one side is undecided — x open (not accepted, W(x) < k)
        // or w_v < k (`witness_dist_comps`) — and the pass visits only
        // those pairs, in three parts:
        //
        // 1. While w_v < k every pair is evaluated at the radius d(q, v)
        //    (the farther of its two, as F is sorted by d(q, ·)), so members
        //    stream in filter order through `Metric::dist_tile` at that
        //    bound in blocks of 8, 16, then WITNESS_TILE rows, stopping at
        //    the row where w_v reaches k (the crossing).
        // 2. Past the crossing only open members can change: the ascending
        //    `open` list holds exactly those, and each one past the
        //    crossing gets `dist_lt` at its own radius d(q, x) (or the
        //    value its row already has in the last fetched block).
        // 3. Lazy accept (Assertion 2, line 16) once the search has passed
        //    2·d(q, x): since F is sorted, that holds for a prefix of F
        //    that only grows, so `frontier` advances over it and every open
        //    member it has passed is accepted — after v's own witness
        //    update, as in the listing.
        //
        // The list is compacted in the same sweep. Pruned evaluations only
        // withhold distances at or beyond every open radius, which decide
        // each comparison negatively anyway, and admitted values are
        // bit-identical across the tile and one-to-one kernels, so
        // decisions, counters and results match the row-by-row listing.
        let mut w_v = 0usize;
        if witnesses_enabled {
            debug_assert!(
                filter.last().is_none_or(|x| x.dist <= v.dist),
                "cursor distances must be nondecreasing"
            );
            witness_pairs += filter.len() as u64;
            let stride = tile.stride();
            let mut next = 0usize;
            let mut block = 0usize..0usize;
            let mut rows = WITNESS_TILE / 4;
            if !filter.is_empty() {
                wtile.set_query(v_point);
            }
            while w_v < k && next < filter.len() {
                let end = (next + rows).min(filter.len());
                let m = end - next;
                wtile.bounds[..m].fill(v.dist);
                metric.dist_tile(
                    &wtile.qpad,
                    &tile.padded()[next * stride..end * stride],
                    stride,
                    tile.dim(),
                    &wtile.bounds[..m],
                    &mut wtile.out[..m],
                );
                block = next..end;
                for (x, &d_vx) in filter[block.clone()].iter_mut().zip(&wtile.out[..m]) {
                    next += 1;
                    witness_dist_comps += 1;
                    // A pruned row is NaN and fails both comparisons.
                    if !x.accepted && x.witnesses < k && d_vx < x.dist {
                        x.witnesses += 1; // v is a witness of x.
                    }
                    if d_vx < v.dist {
                        w_v += 1; // x is a witness of v.
                        if w_v == k {
                            break;
                        }
                    }
                }
                rows = (2 * rows).min(WITNESS_TILE);
            }
            while frontier < filter.len() && v.dist >= 2.0 * filter[frontier].dist {
                frontier += 1;
            }
            open.retain(|&i| {
                let i = i as usize;
                let x = &mut filter[i];
                if x.accepted || x.witnesses >= k {
                    return false;
                }
                if i >= next {
                    witness_dist_comps += 1;
                    let witnessed = if block.contains(&i) {
                        wtile.out[i - block.start] < x.dist
                    } else {
                        metric.dist_lt(v_point, tile.row(i), x.dist).is_some()
                    };
                    if witnessed {
                        x.witnesses += 1; // v is a witness of x.
                        if x.witnesses >= k {
                            return false;
                        }
                    }
                }
                if i < frontier {
                    x.accepted = true;
                    lazy_accepts += 1;
                    return false;
                }
                true
            });
        }
        // RDT+ candidate-set reduction (§4.3): drop v if its first witness
        // pass already disqualified it. (The first k retrieved points can
        // never reach k witnesses here, so the paper's "not applied to the
        // first k candidates" proviso is satisfied automatically.)
        if plus && w_v >= k {
            excluded += 1;
        } else {
            if witnesses_enabled && w_v < k {
                open.push(u32::try_from(filter.len()).expect("filter index fits u32"));
            }
            filter.push(FilterCandidate {
                id: v.id,
                dist: v.dist,
                witnesses: w_v,
                accepted: false,
            });
            tile.push(v_point);
        }
        // Dimensional test update (Theorem 1, lines 21–23).
        if test_armed && s > k && v.dist > 0.0 {
            let denom = (s as f64 / kf).powf(inv_t) - 1.0;
            if denom > 0.0 {
                let bound = v.dist / denom;
                if bound < omega {
                    omega = bound;
                }
            }
        }
        // Loop exit tests (line 24). The rank cap applies once the
        // dimensional test is armed: under the adaptive schedule the floor
        // t's cap must not truncate the search before the online estimate
        // has stabilized (degenerate data with zero distances never arms
        // it and is scanned fully).
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

    // Refinement phase (lines 25–32).
    let mut result: Vec<Neighbor> = Vec::new();
    let mut lazy_rejects = 0usize;
    let mut verified = 0usize;
    let mut verified_accepted = 0usize;
    let mut verify_stats = SearchStats::new();
    for cand in filter.iter() {
        if cand.accepted {
            result.push(Neighbor::new(cand.id, cand.dist));
            continue;
        }
        if cand.witnesses >= k {
            lazy_rejects += 1; // Assertion 1: cannot be a reverse neighbor.
            continue;
        }
        // Each verification is one bounded forward-kNN query — the
        // refinement-phase block — so the checkpoint sits in front of it.
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        verified += 1;
        // The filter-phase cursor released `cursor_scratch` above, so the
        // verification queries reuse the same buffers on any substrate.
        let dk = match dk_cache {
            Some(cache) => cache.dk_or_compute(index, cand.id, cursor_scratch, &mut verify_stats),
            None => dk_via_cursor(index, cand.id, k, cursor_scratch, &mut verify_stats),
        };
        if dk >= cand.dist {
            verified_accepted += 1;
            result.push(Neighbor::new(cand.id, cand.dist));
        }
    }
    search.absorb(&verify_stats);
    rknn_core::neighbor::sort_neighbors(&mut result);

    Ok(RknnAnswer {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Dataset, Euclidean, SearchStats};
    use rknn_index::LinearScan;
    use std::sync::Arc;
    use std::time::Duration;

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn candidate_accounting_partitions_retrieved() {
        let ds = uniform(400, 2, 50);
        let idx = LinearScan::build(ds, Euclidean);
        for plus in [false, true] {
            let ans = run_query(&idx, idx.point(3), Some(3), RdtParams::new(5, 3.0), plus);
            let st = &ans.stats;
            assert_eq!(
                st.verified + st.lazy_accepts + st.lazy_rejects + st.excluded,
                st.retrieved,
                "plus={plus}"
            );
            assert_eq!(st.filter_set_size + st.excluded, st.retrieved);
        }
    }

    #[test]
    fn huge_t_gives_exact_result() {
        // t far above MaxGED ⇒ Theorem 1 exactness.
        let ds = uniform(300, 3, 51);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        for q in [0usize, 100, 299] {
            let ans = run_query(&idx, idx.point(q), Some(q), RdtParams::new(4, 50.0), false);
            let mut st = SearchStats::new();
            let truth = bf.rknn(q, 4, &mut st);
            assert_eq!(
                ans.ids(),
                truth.iter().map(|n| n.id).collect::<Vec<_>>(),
                "q={q}"
            );
        }
    }

    #[test]
    fn plus_has_full_recall_at_exhaustive_t() {
        // RDT+ may lose *precision* (lazy accepts act on witness counts
        // undercounted by exclusions), but it can never lose a true member
        // once the filter phase retrieves everything: exclusions and lazy
        // rejects both require k genuine witnesses, and verification is
        // exact.
        let ds = uniform(250, 2, 52);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let ans = run_query(&idx, idx.point(7), Some(7), RdtParams::new(3, 40.0), true);
        let mut st = SearchStats::new();
        let truth: Vec<_> = bf.rknn(7, 3, &mut st).iter().map(|n| n.id).collect();
        let got: std::collections::HashSet<_> = ans.ids().into_iter().collect();
        for id in &truth {
            assert!(got.contains(id), "RDT+ missed true member {id}");
        }
    }

    #[test]
    fn small_t_terminates_early() {
        let ds = uniform(2000, 2, 53);
        let idx = LinearScan::build(ds, Euclidean);
        let ans = run_query(&idx, idx.point(0), Some(0), RdtParams::new(10, 1.0), false);
        assert!(ans.stats.retrieved <= 20, "rank cap 2^1·10 = 20");
        assert_ne!(ans.stats.termination, Termination::Exhausted);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let ds = uniform(12, 2, 54);
        let idx = LinearScan::build(ds, Euclidean);
        let ans = run_query(&idx, idx.point(0), Some(0), RdtParams::new(50, 5.0), false);
        assert_eq!(
            ans.result.len(),
            11,
            "all other points are trivially reverse neighbors"
        );
        assert_eq!(ans.stats.termination, Termination::Exhausted);
    }

    #[test]
    fn duplicate_points_do_not_divide_by_zero() {
        let mut rows = vec![vec![0.0, 0.0]; 30];
        rows.extend((0..30).map(|i| vec![i as f64 + 1.0, 0.0]));
        let ds = Dataset::from_rows(&rows).unwrap().into_shared();
        let idx = LinearScan::build(ds, Euclidean);
        // Query at the duplicate pile: first 29 retrieved distances are 0.
        let ans = run_query(&idx, idx.point(0), Some(0), RdtParams::new(3, 2.0), false);
        assert!(ans.stats.omega.is_finite() || ans.stats.retrieved <= 12);
        // All co-located duplicates are mutual reverse neighbors.
        assert!(ans.result.iter().filter(|n| n.dist == 0.0).count() > 0);
    }

    #[test]
    fn no_witness_ablation_matches_results_but_verifies_more() {
        let ds = uniform(500, 3, 56);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(5, 30.0);
        let with = run_query_variant(&idx, idx.point(9), Some(9), params, RdtVariant::Plain);
        let without = run_query_variant(&idx, idx.point(9), Some(9), params, RdtVariant::NoWitness);
        assert_eq!(with.ids(), without.ids(), "same exact result set");
        assert!(
            without.stats.verified > with.stats.verified,
            "disabling witnesses forces more explicit verifications: {} vs {}",
            without.stats.verified,
            with.stats.verified
        );
        assert_eq!(without.stats.witness_pairs, 0);
        assert_eq!(without.stats.witness_dist_comps, 0);
        assert_eq!(without.stats.lazy_accepts, 0);
        assert_eq!(without.stats.lazy_rejects, 0);
    }

    #[test]
    fn erratum_swapped_witness_lines_would_break_assertion_one() {
        // The erratum in the module docs: the published listing credits the
        // witness to the
        // wrong counter. Simulate both readings over a real retrieval
        // sequence and compare against ground-truth censuses: the corrected
        // reading reproduces them; the literal listing does not, so lazy
        // rejection (Assertion 1) would discard true reverse neighbors.
        let ds = uniform(150, 2, 58);
        let q = 0usize;
        let m = Euclidean;
        let qp = ds.point(q).to_vec();
        let mut stream: Vec<(usize, f64)> = (1..ds.len())
            .map(|i| (i, m.dist(ds.point(i), &qp)))
            .collect();
        stream.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let simulate = |swapped: bool| -> Vec<usize> {
            let mut f: Vec<(usize, f64, usize)> = Vec::new(); // (id, dist, W)
            for &(v, dv) in &stream {
                let mut w_v = 0usize;
                for x in f.iter_mut() {
                    let d_vx = m.dist(ds.point(v), ds.point(x.0));
                    // Condition A (line 10): d(q,x) > d(v,x).
                    if d_vx < x.1 {
                        if swapped {
                            w_v += 1; // literal listing: increment W(v)
                        } else {
                            x.2 += 1; // definition: v witnesses x
                        }
                    }
                    // Condition B (line 13): d(q,v) > d(v,x).
                    if d_vx < dv {
                        if swapped {
                            x.2 += 1; // literal listing: increment W(x)
                        } else {
                            w_v += 1; // definition: x witnesses v
                        }
                    }
                }
                f.push((v, dv, w_v));
            }
            f.into_iter().map(|(_, _, w)| w).collect()
        };

        // True censuses over the retrieved prefix of each candidate.
        let truth: Vec<usize> = stream
            .iter()
            .map(|&(x, dxq)| {
                stream
                    .iter()
                    .filter(|&&(y, _)| y != x)
                    .filter(|&&(y, _)| m.dist(ds.point(x), ds.point(y)) < dxq)
                    .count()
            })
            .collect();
        let correct = simulate(false);
        let swapped = simulate(true);
        // The corrected reading never overcounts the census (it sees only
        // discovered points), so W(x) <= truth and Assertion 1 stays sound.
        for (w, t) in correct.iter().zip(&truth) {
            assert!(w <= t, "corrected reading overcounted: {w} > {t}");
        }
        // The literal listing overcounts for some candidate — it would
        // reject points whose true census is below k.
        let overcounts = swapped.iter().zip(&truth).filter(|(w, t)| w > t).count();
        assert!(
            overcounts > 0,
            "the swapped listing should overcount witnesses somewhere"
        );
    }

    #[test]
    fn witness_shortcut_preserves_decisions() {
        // The engine skips distance computations for decided pairs; the
        // *decisions* must match a literal re-count: every lazily rejected
        // candidate truly has ≥ k witnesses among the retrieved set, every
        // lazily accepted one has < k witnesses in its complete census.
        let ds = uniform(400, 2, 57);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let k = 5;
        let ans = run_query(
            &idx,
            idx.point(11),
            Some(11),
            RdtParams::new(k, 60.0),
            false,
        );
        // Re-derive censuses by brute force over the whole dataset (the
        // filter phase retrieved everything at t = 60).
        let metric = Euclidean;
        let truth_census = |x: usize| -> usize {
            let dxq = metric.dist(ds.point(x), ds.point(11));
            (0..ds.len())
                .filter(|&y| y != x && y != 11)
                .filter(|&y| metric.dist(ds.point(x), ds.point(y)) < dxq)
                .count()
        };
        let accepted: std::collections::HashSet<_> = ans.ids().into_iter().collect();
        let mut checked = 0;
        for x in 0..ds.len() {
            if x == 11 {
                continue;
            }
            let census = truth_census(x);
            if accepted.contains(&x) {
                assert!(census < k, "accepted {x} has census {census} >= k");
            } else {
                assert!(census >= k, "rejected {x} has census {census} < k");
            }
            checked += 1;
        }
        assert_eq!(checked, ds.len() - 1);
    }

    #[test]
    fn cancellation_aborts_and_absence_changes_nothing() {
        let ds = uniform(600, 3, 59);
        let idx = LinearScan::build(ds, Euclidean);
        let params = RdtParams::new(5, 30.0);
        let mut scratch = QueryScratch::new(3);
        // A pre-tripped token aborts before any work.
        let tripped = CancelToken::new();
        tripped.cancel();
        let got = run_query_interruptible(
            &idx,
            idx.point(4),
            Some(4),
            params,
            RdtVariant::Plain,
            TSchedule::Fixed,
            &mut scratch,
            None,
            &tripped,
        );
        assert_eq!(got.unwrap_err(), Cancelled);
        // An untripped token is byte-identical to the uncancellable path,
        // including all work counters — the checkpoints only read.
        let live = CancelToken::with_deadline(std::time::Instant::now() + Duration::from_secs(60));
        let with_token = run_query_interruptible(
            &idx,
            idx.point(4),
            Some(4),
            params,
            RdtVariant::Plain,
            TSchedule::Fixed,
            &mut scratch,
            None,
            &live,
        )
        .unwrap();
        let plain = run_query(&idx, idx.point(4), Some(4), params, false);
        assert_eq!(with_token.ids(), plain.ids());
        assert_eq!(with_token.stats, plain.stats);
        let bits: Vec<u64> = with_token.result.iter().map(|n| n.dist.to_bits()).collect();
        let want: Vec<u64> = plain.result.iter().map(|n| n.dist.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn external_query_location() {
        let ds = uniform(200, 2, 55);
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let q = vec![5.0, 5.0];
        let ans = run_query(&idx, &q, None, RdtParams::new(5, 40.0), false);
        let mut st = SearchStats::new();
        let truth = bf.rknn_external(&q, 5, &mut st);
        assert_eq!(ans.ids(), truth.iter().map(|n| n.id).collect::<Vec<_>>());
    }
}
