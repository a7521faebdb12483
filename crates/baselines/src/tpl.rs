//! TPL — the filter–refinement method of Tao, Papadias & Lian \[43\],
//! in the "k-trim" flavor the paper benchmarks.
//!
//! A single best-first traversal of an R-tree generates candidates in
//! ascending distance from the query while *trimming* entries dominated by
//! already-found candidates:
//!
//! * a **point** `p` is pruned when `k` candidates are strictly closer to
//!   `p` than the query is (it lies on the far side of `k` perpendicular
//!   bisectors);
//! * a **node** is pruned when, for `k` candidates `c`,
//!   `maxdist(N, c) < mindist(N, q)` — the conservative min/max-distance
//!   variant of bisector trimming used by the incremental extensions of TPL
//!   (\[30\]).
//!
//! Surviving candidates are verified exactly with count range queries. The
//! method needs no precomputation beyond the R-tree itself — the cheapest
//! setup in the study — but "the performance of the pruning procedure
//! rapidly diminishes as either the neighborhood rank k or the data
//! dimensionality grows" (§2.2), which our high-dimensional experiments
//! reproduce.

use crate::common::verify_rknn;
use rknn_core::bestfirst::Popped;
use rknn_core::{CursorScratch, Dataset, Metric, Neighbor, PointId, SearchStats};
use rknn_index::{KnnIndex, RTree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker working memory for [`Tpl::query_with`]: the cursor scratch
/// (whose best-first queue doubles as TPL's node heap) plus the candidate
/// buffer, reused across queries.
#[derive(Debug, Clone, Default)]
pub struct TplScratch {
    /// Cursor storage; its [`rknn_core::TreeScratch`] queue carries the
    /// generation traversal, and the refinement verification cursors reuse
    /// the same buffers.
    pub cursor: CursorScratch,
    /// Surviving candidates of the generation phase.
    pub candidates: Vec<Neighbor>,
}

impl TplScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        TplScratch::default()
    }
}

/// The TPL method over an STR-packed R-tree.
#[derive(Debug)]
pub struct Tpl<M: Metric> {
    tree: RTree<M>,
    build_time: Duration,
}

impl<M: Metric + Clone> Tpl<M> {
    /// Builds the R-tree substrate (the only setup TPL needs).
    pub fn build(ds: Arc<Dataset>, metric: M) -> Self {
        let start = Instant::now();
        let tree = RTree::build(ds, metric);
        Tpl {
            tree,
            build_time: start.elapsed(),
        }
    }

    /// Wall-clock tree construction time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The underlying R-tree.
    pub fn forward_index(&self) -> &RTree<M> {
        &self.tree
    }

    /// Exact reverse-kNN of dataset point `q`, allocating fresh working
    /// memory. Batch callers should hold one [`TplScratch`] per worker and
    /// use [`Tpl::query_with`].
    pub fn query(&self, q: PointId, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.query_with(q, k, &mut TplScratch::new(), stats)
    }

    /// Exact reverse-kNN of dataset point `q` against caller-owned working
    /// memory.
    pub fn query_with(
        &self,
        q: PointId,
        k: usize,
        scratch: &mut TplScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let qp = self.tree.point(q).to_vec();
        self.query_inner(&qp, Some(q), k, scratch, stats)
    }

    /// Exact reverse-kNN of an arbitrary location.
    pub fn query_at(&self, q: &[f64], k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.query_inner(q, None, k, &mut TplScratch::new(), stats)
    }

    fn query_inner(
        &self,
        q: &[f64],
        exclude: Option<PointId>,
        k: usize,
        scratch: &mut TplScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        assert!(k >= 1, "k must be positive");
        let metric = self.tree.metric();
        let TplScratch { cursor, candidates } = scratch;
        candidates.clear();
        // Best-first traversal by mindist so candidates arrive roughly in
        // ascending distance, maximizing trimming power. The queue is the
        // scratch's reusable best-first heap (released again before the
        // refinement phase opens verification cursors on the same scratch).
        let queue = &mut cursor.tree.queue;
        queue.clear();
        let root = self.tree.root_id();
        queue.push_node(root, self.tree.min_dist(q, self.tree.node_mbr(root)), 0.0);
        stats.count_push();
        while let Some(Popped::Node { id: node, .. }) = queue.pop() {
            stats.count_node();
            // Node trimming: count candidates that dominate the whole MBR.
            let mbr = self.tree.node_mbr(node);
            let min_q = self.tree.min_dist(q, mbr);
            let mut dominators = 0usize;
            for c in candidates.iter() {
                if self.tree.max_dist(self.tree.point(c.id), mbr) < min_q {
                    dominators += 1;
                    if dominators >= k {
                        break;
                    }
                }
            }
            if dominators >= k {
                continue;
            }
            match self.tree.node_children(node) {
                Some(children) => {
                    for &c in children {
                        let lb = self.tree.min_dist(q, self.tree.node_mbr(c));
                        queue.push_node(c, lb, 0.0);
                        stats.count_push();
                    }
                }
                None => {
                    for &p in self.tree.node_entries(node).unwrap() {
                        if Some(p) == exclude {
                            continue;
                        }
                        stats.count_dist();
                        let dpq = metric.dist(self.tree.point(p), q);
                        // Point trimming: k candidates strictly closer to p
                        // than q is ⇒ p cannot be a reverse neighbor. Each
                        // bisector distance only matters below d(p, q), so
                        // its accumulation is abandoned there.
                        let mut closer = 0usize;
                        for c in candidates.iter() {
                            stats.count_dist();
                            if metric
                                .dist_lt(self.tree.point(p), self.tree.point(c.id), dpq)
                                .is_some()
                            {
                                closer += 1;
                                if closer >= k {
                                    break;
                                }
                            }
                        }
                        if closer < k {
                            candidates.push(Neighbor::new(p, dpq));
                        }
                    }
                }
            }
        }
        // Refinement: exact verification against the tree through the
        // bounded, scratch-reusing cursor.
        let mut out = Vec::new();
        for cand in candidates.iter() {
            if verify_rknn(&self.tree, cand.id, cand.dist, k, cursor, stats) {
                out.push(*cand);
            }
        }
        rknn_core::neighbor::sort_neighbors(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{BruteForce, Euclidean};

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn exact_against_brute_force() {
        let ds = uniform(250, 2, 140);
        let tpl = Tpl::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        for k in [1usize, 4, 12] {
            for q in [0usize, 125, 249] {
                let got: Vec<_> = tpl.query(q, k, &mut st).iter().map(|n| n.id).collect();
                let want: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|n| n.id).collect();
                assert_eq!(got, want, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn exact_in_higher_dimensions_too() {
        // Trimming degrades in high dimensions but must stay exact.
        let ds = uniform(150, 12, 141);
        let tpl = Tpl::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        for q in [3usize, 77] {
            let got: Vec<_> = tpl.query(q, 5, &mut st).iter().map(|n| n.id).collect();
            let want: Vec<_> = bf.rknn(q, 5, &mut st).iter().map(|n| n.id).collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn external_queries() {
        let ds = uniform(180, 2, 142);
        let tpl = Tpl::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        let q = vec![5.0, 5.0];
        let got: Vec<_> = tpl.query_at(&q, 2, &mut st).iter().map(|n| n.id).collect();
        let want: Vec<_> = bf
            .rknn_external(&q, 2, &mut st)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn build_time_is_recorded() {
        let ds = uniform(100, 2, 143);
        let tpl = Tpl::build(ds, Euclidean);
        assert!(tpl.build_time() > Duration::ZERO);
    }
}
