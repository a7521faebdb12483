//! The brute-force oracle every run is checked against, outside any timed
//! region.
//!
//! `x ∈ RkNN(q, k)` iff `x ≠ q` and `d(x, q) ≤ d_k(x)` (self-excluding,
//! as everywhere in the workspace). The oracle keeps, for every live point,
//! its `keep ≥ k` nearest live neighbours, first computed with
//! [`rknn_core::BruteForce`] and then maintained exactly through each churn
//! batch, so `d_k` of any epoch is known without an O(n²) pass per epoch. A
//! query's exact answer is then one scan of the live points.

use rknn_core::{BruteForce, Dataset, Euclidean, Metric, Neighbor, PointId, SearchStats};
use rknn_rdt::RknnAnswer;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Extra neighbours kept beyond `k`, so that removals rarely force a rescan.
const SLACK: usize = 6;

/// One change to the point set, in the order it was applied.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// A point with this id was inserted at these coordinates.
    Insert(PointId, Vec<f64>),
    /// The point with this id was removed.
    Remove(PointId),
}

/// The exact RkNN oracle over an evolving point set.
#[derive(Debug)]
pub struct Oracle {
    k: usize,
    keep: usize,
    dim: usize,
    metric: Euclidean,
    /// Coordinates of every id ever seen (removed ones stay addressable).
    coords: Vec<f64>,
    alive: Vec<bool>,
    /// Per point: its nearest live other points, ascending by distance,
    /// at most `keep` long. Every live point not listed is at least as far
    /// as the last listed one, unless `complete` says the list holds all.
    lists: Vec<Vec<(f64, PointId)>>,
    complete: Vec<bool>,
    truth: HashMap<PointId, Vec<PointId>>,
}

impl Oracle {
    /// Builds the oracle over `ds` with brute-force kNN lists, on `threads`
    /// threads.
    pub fn new(ds: &Arc<Dataset>, k: usize, threads: usize) -> Self {
        let n = ds.len();
        let keep = k + SLACK;
        let metric = Euclidean::exact();
        let brute = BruteForce::new(Arc::clone(ds), metric);
        let mut lists: Vec<Vec<(f64, PointId)>> = vec![Vec::new(); n];
        let chunk = n.div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            for (c, slice) in lists.chunks_mut(chunk).enumerate() {
                let brute = &brute;
                scope.spawn(move || {
                    let mut stats = SearchStats::new();
                    for (off, list) in slice.iter_mut().enumerate() {
                        let x = c * chunk + off;
                        *list = brute
                            .knn(brute.dataset().point(x), keep, Some(x), &mut stats)
                            .into_iter()
                            .map(|nb| (nb.dist, nb.id))
                            .collect();
                    }
                });
            }
        });
        let mut coords = Vec::with_capacity(n * ds.dim());
        for (_, p) in ds.iter() {
            coords.extend_from_slice(p);
        }
        Oracle {
            k,
            keep,
            dim: ds.dim(),
            metric,
            coords,
            alive: vec![true; n],
            lists,
            complete: vec![n - 1 <= keep; n],
            truth: HashMap::new(),
        }
    }

    fn point(&self, id: PointId) -> &[f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    fn dist(&self, a: PointId, b: PointId) -> f64 {
        self.metric.dist(self.point(a), self.point(b))
    }

    /// Recomputes `x`'s list from every live point.
    fn rescan(&mut self, x: PointId) {
        let mut all: Vec<(f64, PointId)> = (0..self.alive.len())
            .filter(|&y| y != x && self.alive[y])
            .map(|y| (self.dist(x, y), y))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.complete[x] = all.len() <= self.keep;
        all.truncate(self.keep);
        self.lists[x] = all;
    }

    /// Folds one churn batch into the point set.
    pub fn apply(&mut self, changes: &[Change]) {
        self.truth.clear();
        for change in changes {
            match change {
                Change::Insert(id, coords) => self.insert(*id, coords),
                Change::Remove(id) => self.remove(*id),
            }
        }
    }

    fn insert(&mut self, p: PointId, coords: &[f64]) {
        assert_eq!(p, self.alive.len(), "inserted ids are appended in order");
        assert_eq!(
            coords.len(),
            self.dim,
            "inserted point has the set's dimension"
        );
        self.coords.extend_from_slice(coords);
        self.alive.push(true);
        self.lists.push(Vec::new());
        self.complete.push(false);
        for x in 0..p {
            if !self.alive[x] {
                continue;
            }
            let d = self.dist(x, p);
            let list = &mut self.lists[x];
            let admit = self.complete[x] || list.last().is_none_or(|&(last, _)| d < last);
            if admit {
                let at = list.partition_point(|&(e, _)| e <= d);
                list.insert(at, (d, p));
                if list.len() > self.keep {
                    list.truncate(self.keep);
                    self.complete[x] = false;
                }
            }
        }
        self.rescan(p);
    }

    fn remove(&mut self, p: PointId) {
        assert!(self.alive[p], "removed id {p} is live");
        self.alive[p] = false;
        self.lists[p].clear();
        for x in 0..self.alive.len() {
            if !self.alive[x] {
                continue;
            }
            let list = &mut self.lists[x];
            if let Some(at) = list.iter().position(|&(_, id)| id == p) {
                list.remove(at);
                if !self.complete[x] && list.len() < self.k {
                    self.rescan(x);
                }
            }
        }
    }

    /// `d_k(x)` in the current point set; `+∞` with fewer than `k` others.
    pub fn dk(&self, x: PointId) -> f64 {
        self.lists[x]
            .get(self.k - 1)
            .map_or(f64::INFINITY, |&(d, _)| d)
    }

    /// Whether `id` is a live point.
    pub fn is_live(&self, id: PointId) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    /// The exact RkNN ids of dataset point `q`, ascending by id.
    pub fn truth(&mut self, q: PointId) -> &[PointId] {
        if !self.truth.contains_key(&q) {
            let answer: Vec<PointId> = (0..self.alive.len())
                .filter(|&x| x != q && self.alive[x] && self.dist(x, q) <= self.dk(x))
                .collect();
            self.truth.insert(q, answer);
        }
        &self.truth[&q]
    }

    /// Checks one answer for dataset point `q` and folds it into `verdict`.
    pub fn check(&mut self, q: PointId, answer: &[Neighbor], verdict: &mut Verdict) {
        verdict.answers += 1;
        let mut seen = HashSet::with_capacity(answer.len());
        for nb in answer {
            if !seen.insert(nb.id) {
                verdict.duplicates += 1;
                continue;
            }
            if !self.is_live(nb.id) || nb.id == q {
                verdict.false_positives += 1;
                continue;
            }
            if self.dist(nb.id, q).to_bits() != nb.dist.to_bits() {
                verdict.dist_mismatches += 1;
            }
        }
        let truth = self.truth(q);
        let hits = truth.iter().filter(|id| seen.contains(id)).count() as u64;
        verdict.truth_members += truth.len() as u64;
        verdict.found_members += hits;
        let valid = seen
            .iter()
            .filter(|&&id| id != q && self.is_live(id))
            .count() as u64;
        verdict.false_positives += valid - hits;
    }
}

/// Aggregate outcome of checking answers against the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    pub answers: u64,
    pub false_positives: u64,
    pub dist_mismatches: u64,
    pub duplicates: u64,
    pub truth_members: u64,
    pub found_members: u64,
}

impl Verdict {
    /// No false positive, no duplicate, every distance bit-identical.
    pub fn exact_where_answered(&self) -> bool {
        self.false_positives == 0 && self.dist_mismatches == 0 && self.duplicates == 0
    }

    /// Fraction of the exact members returned (`1` when there were none).
    pub fn recall(&self) -> f64 {
        if self.truth_members == 0 {
            1.0
        } else {
            self.found_members as f64 / self.truth_members as f64
        }
    }
}

/// A 64-bit FNV-1a hash over every answer's length and `(id, distance
/// bits)` pairs, in order: two runs with equal hashes gave identical
/// answers. It allocates nothing, so comparing passes adds nothing to the
/// measured heap.
pub fn answer_hash(answers: &[RknnAnswer]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for a in answers {
        mix(a.result.len() as u64);
        for n in &a.result {
            mix(n.id as u64);
            mix(n.dist.to_bits());
        }
    }
    h
}

/// Whether every accepted ticket resolved exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TicketVerdict {
    /// Accepted requests that never resolved.
    pub lost: u64,
    /// Requests that resolved more than once.
    pub duplicated: u64,
    /// Resolutions for requests that were never accepted.
    pub unknown: u64,
}

impl TicketVerdict {
    pub fn ok(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.unknown == 0
    }
}

/// Matches accepted request ids against the ids their outcomes carried.
pub fn check_tickets(accepted: &[u64], resolved: &[u64]) -> TicketVerdict {
    let mut count: HashMap<u64, u64> = accepted.iter().map(|&id| (id, 0)).collect();
    let mut verdict = TicketVerdict::default();
    for id in resolved {
        match count.get_mut(id) {
            Some(c) => {
                *c += 1;
                if *c == 2 {
                    verdict.duplicated += 1;
                }
            }
            None => verdict.unknown += 1,
        }
    }
    verdict.lost = count.values().filter(|&&c| c == 0).count() as u64;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, seed: u64) -> Arc<Dataset> {
        rknn_data::gaussian_blobs(n, 3, 3, 0.5, seed).into_shared()
    }

    fn brute_truth(ds: &Arc<Dataset>, q: PointId, k: usize) -> Vec<PointId> {
        let bf = BruteForce::new(Arc::clone(ds), Euclidean::exact());
        let mut ids: Vec<PointId> = bf
            .rknn(q, k, &mut SearchStats::new())
            .iter()
            .map(|nb| nb.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn static_truth_matches_brute_force() {
        let ds = blobs(120, 4);
        let mut oracle = Oracle::new(&ds, 4, 2);
        for q in 0..ds.len() {
            assert_eq!(oracle.truth(q), brute_truth(&ds, q, 4).as_slice(), "q={q}");
        }
    }

    #[test]
    fn churned_truth_matches_a_rebuilt_brute_force() {
        let ds = blobs(90, 5);
        let extra = blobs(30, 6);
        let k = 3;
        let mut oracle = Oracle::new(&ds, k, 1);
        let mut rows: Vec<Option<Vec<f64>>> = ds.iter().map(|(_, p)| Some(p.to_vec())).collect();
        let mut rng = crate::stats::SplitMix::new(11);
        for batch in 0..6 {
            let mut changes = Vec::new();
            for i in 0..5 {
                let id = rows.len();
                let p = extra.point(batch * 5 + i).to_vec();
                rows.push(Some(p.clone()));
                changes.push(Change::Insert(id, p));
                // Remove enough around one point to force list rescans.
                let victim = loop {
                    let v = rng.below(rows.len());
                    if rows[v].is_some() {
                        break v;
                    }
                };
                rows[victim] = None;
                changes.push(Change::Remove(victim));
            }
            oracle.apply(&changes);
            let live: Vec<PointId> = (0..rows.len()).filter(|&i| rows[i].is_some()).collect();
            let sub = Dataset::from_rows(
                &live
                    .iter()
                    .map(|&i| rows[i].clone().unwrap())
                    .collect::<Vec<_>>(),
            )
            .unwrap()
            .into_shared();
            for (j, &q) in live.iter().enumerate() {
                let mut want: Vec<PointId> = brute_truth(&sub, j, k)
                    .into_iter()
                    .map(|s| live[s])
                    .collect();
                want.sort_unstable();
                assert_eq!(oracle.truth(q), want.as_slice(), "batch {batch} q={q}");
            }
        }
    }

    #[test]
    fn rejects_a_planted_false_positive_and_a_wrong_distance() {
        let ds = blobs(80, 7);
        let mut oracle = Oracle::new(&ds, 4, 1);
        let q = 3;
        let exact: Vec<Neighbor> = oracle
            .truth(q)
            .to_vec()
            .into_iter()
            .map(|x| Neighbor::new(x, Euclidean::exact().dist(ds.point(x), ds.point(q))))
            .collect();
        let mut v = Verdict::default();
        oracle.check(q, &exact, &mut v);
        assert!(v.exact_where_answered());
        assert_eq!(v.recall(), 1.0);

        let outsider = (0..80)
            .find(|x| *x != q && !oracle.truth(q).contains(x))
            .unwrap();
        let mut planted = exact.clone();
        planted.push(Neighbor::new(
            outsider,
            Euclidean::exact().dist(ds.point(outsider), ds.point(q)),
        ));
        let mut v = Verdict::default();
        oracle.check(q, &planted, &mut v);
        assert_eq!(v.false_positives, 1);
        assert!(!v.exact_where_answered());

        let mut skewed = exact.clone();
        skewed[0].dist = f64::from_bits(skewed[0].dist.to_bits() + 1);
        let mut v = Verdict::default();
        oracle.check(q, &skewed, &mut v);
        assert_eq!(v.dist_mismatches, 1);

        let mut v = Verdict::default();
        oracle.check(q, &exact[1..], &mut v);
        assert!(v.exact_where_answered());
        assert!(v.recall() < 1.0);
    }

    #[test]
    fn rejects_a_planted_missing_ticket() {
        assert!(check_tickets(&[1, 2, 3], &[3, 1, 2]).ok());
        let lost = check_tickets(&[1, 2, 3], &[3, 1]);
        assert_eq!(lost.lost, 1);
        assert!(!lost.ok());
        let dup = check_tickets(&[1, 2], &[1, 2, 2]);
        assert_eq!(dup.duplicated, 1);
        assert!(!check_tickets(&[1], &[1, 9]).ok());
    }
}
