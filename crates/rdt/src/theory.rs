//! Executable forms of the paper's theoretical statements (§5).
//!
//! These helpers exist so tests and experiments can *check* the theory
//! against observed behavior rather than assume it:
//!
//! * [`reverse_rank_bound`] — Lemma 1: if `t ≥ MaxGED(S, k)` then the
//!   forward rank of any reverse neighbor satisfies
//!   `ρ(x, v) ≤ 2^t · ρ(v, x)`;
//! * [`guarantee_radius`] — Theorem 1: every reverse k-nearest neighbor
//!   missed by Algorithm 1 lies farther from the query than
//!   `d_{k+1}(q) / ((s/k)^{1/t} − 1)`;
//! * [`exactness_threshold`] — the MaxGED value above which Theorem 1
//!   promises an exact result. Because this workspace uses self-excluding
//!   ranks (README `## Conventions`) while the paper's ball cardinalities include the
//!   center, thresholds can differ by one rank unit; callers wanting a hard
//!   guarantee should add a small safety margin (the integration tests use
//!   `+0.5`).

use rknn_core::{Dataset, Metric};
use rknn_lid::max_ged;

/// Lemma 1's bound on the forward rank of a reverse neighbor:
/// `ρ(x, v) ≤ 2^t · ρ(v, x)`.
///
/// Returns the right-hand side.
pub fn reverse_rank_bound(t: f64, reverse_rank: usize) -> f64 {
    (2.0f64).powf(t) * reverse_rank as f64
}

/// Theorem 1's miss-distance guarantee: any reverse k-nearest neighbor not
/// reported by the algorithm has distance to the query strictly greater
/// than `d_ref / ((s/k)^{1/t} − 1)`, where `d_ref` is the (k+1)-NN distance
/// of the query and `s ≥ k+1` the number of objects discovered.
///
/// Returns `+∞` when the denominator degenerates (`s ≤ k`), meaning the
/// search cannot have missed anything yet.
pub fn guarantee_radius(d_ref: f64, s: usize, k: usize, t: f64) -> f64 {
    if s <= k || d_ref <= 0.0 {
        return f64::INFINITY;
    }
    let denom = (s as f64 / k as f64).powf(1.0 / t) - 1.0;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        d_ref / denom
    }
}

/// The scale-parameter threshold above which Theorem 1 guarantees an exact
/// query result for queries drawn from the dataset: `MaxGED(S, k)`.
///
/// Exact enumeration — `O(n² log n)` — intended for validation-scale sets.
pub fn exactness_threshold(ds: &Dataset, metric: &dyn Metric, k: usize) -> f64 {
    max_ged(ds, metric, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::rank::{ball_count, rank};
    use rknn_core::{Dataset, Euclidean};

    fn uniform(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn reverse_rank_bound_shape() {
        assert_eq!(reverse_rank_bound(1.0, 4), 8.0);
        assert_eq!(reverse_rank_bound(3.0, 2), 16.0);
    }

    #[test]
    fn guarantee_radius_monotone_in_t() {
        // Larger t ⇒ larger guaranteed radius ⇒ stronger result quality.
        let mut prev = 0.0;
        for t in [1.0, 2.0, 4.0, 8.0] {
            let r = guarantee_radius(1.0, 100, 10, t);
            assert!(r > prev, "t={t}");
            prev = r;
        }
        assert_eq!(guarantee_radius(1.0, 5, 10, 2.0), f64::INFINITY);
        assert_eq!(guarantee_radius(0.0, 100, 10, 2.0), f64::INFINITY);
    }

    #[test]
    fn lemma1_proof_chain_holds_empirically() {
        // Recompute the proof's own quantity: for every ordered pair (x, v),
        // t_pair = log2(|B(v, 2d)| / |B(v, d)|) with inclusive ball counts;
        // with t = max over pairs, verify ρ(x,v) ≤ 2^t · ρ(v,x).
        let ds = uniform(60, 2, 90);
        let m = Euclidean;
        let mut t_max: f64 = 0.0;
        for (v, vp) in ds.iter() {
            for (x, xp) in ds.iter() {
                if v == x {
                    continue;
                }
                let d = m.dist(vp, xp);
                if d <= 0.0 {
                    continue;
                }
                let inner = ball_count(&ds, &m, vp, d, false, None) as f64;
                let outer = ball_count(&ds, &m, vp, 2.0 * d, false, None) as f64;
                t_max = t_max.max((outer / inner).log2());
            }
        }
        for (v, vp) in ds.iter() {
            for (x, xp) in ds.iter() {
                if v == x {
                    continue;
                }
                let fwd = rank(&ds, &m, xp, v, None) as f64;
                let rev = rank(&ds, &m, vp, x, None) as f64;
                assert!(
                    fwd <= reverse_rank_bound(t_max, rev as usize) + 1e-9,
                    "Lemma 1 violated: ρ(x,v)={fwd} > 2^{t_max}·{rev}"
                );
            }
        }
    }

    #[test]
    fn exactness_threshold_is_positive_on_generic_data() {
        // MaxGED is "extremely conservative and loose" (§6): near-tied
        // distances d_s ≈ d_k with s > k blow the ratio up, so the value on
        // random data is large — but it must be finite and positive.
        let ds = uniform(80, 2, 91);
        let t = exactness_threshold(&ds, &Euclidean, 3);
        assert!(t > 0.5 && t.is_finite(), "got {t}");
    }
}
