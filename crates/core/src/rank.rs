//! Rank and ball-cardinality primitives (§3.1 of the paper).
//!
//! * `ball_count(S, q, r)` is `|B≤_S(q, r)|` restricted to points other than
//!   the query itself;
//! * `rank(S, q, x)` is `ρ_S(q, x)` under the self-excluding, maximum-rank
//!   tie convention of the crate's `# Conventions`;
//! * `dk(S, x, k)` is the distance from `x` to its k-th nearest *other*
//!   point.
//!
//! These functions are exact (linear scans) and serve as ground truth; index
//! structures provide the fast paths.

use crate::dataset::Dataset;
use crate::float::sort_f64;
use crate::metric::Metric;
use crate::neighbor::PointId;

/// Number of points of `ds` (excluding `exclude`) within distance `r` of `q`
/// — the cardinality `|B≤_S(q, r)|` under the self-excluding convention.
///
/// `strict` selects the open ball (`d < r`) instead of the closed ball.
pub fn ball_count<M: Metric>(
    ds: &Dataset,
    metric: &M,
    q: &[f64],
    r: f64,
    strict: bool,
    exclude: Option<PointId>,
) -> usize {
    let mut count = 0;
    for (id, p) in ds.iter() {
        if Some(id) == exclude {
            continue;
        }
        let d = metric.dist(q, p);
        if (strict && d < r) || (!strict && d <= r) {
            count += 1;
        }
    }
    count
}

/// The rank `ρ_S(q, x)` of dataset point `x` with respect to location `q`:
/// the number of points (excluding `exclude`) within the closed ball of
/// radius `d(q, x)`. Ties receive the maximum rank, as in the paper.
///
/// # Panics
///
/// Panics if `x` is out of range.
pub fn rank<M: Metric>(
    ds: &Dataset,
    metric: &M,
    q: &[f64],
    x: PointId,
    exclude: Option<PointId>,
) -> usize {
    let r = metric.dist(q, ds.point(x));
    ball_count(ds, metric, q, r, false, exclude)
}

/// The k-NN distance `d_k(x)` of dataset point `x`: the k-th smallest
/// distance from `x` to the *other* points of `ds`.
///
/// Returns `None` when fewer than `k` other points exist.
pub fn dk<M: Metric>(ds: &Dataset, metric: &M, x: PointId, k: usize) -> Option<f64> {
    dk_from(ds, metric, ds.point(x), k, Some(x))
}

/// The k-NN distance of an arbitrary location `q` with respect to `ds`,
/// excluding `exclude` from the neighborhood.
pub fn dk_from<M: Metric>(
    ds: &Dataset,
    metric: &M,
    q: &[f64],
    k: usize,
    exclude: Option<PointId>,
) -> Option<f64> {
    let available = ds.len() - usize::from(exclude.map(|e| e < ds.len()).unwrap_or(false));
    if k == 0 || k > available {
        return None;
    }
    let mut dists: Vec<f64> = Vec::with_capacity(available);
    for (id, p) in ds.iter() {
        if Some(id) == exclude {
            continue;
        }
        dists.push(metric.dist(q, p));
    }
    sort_f64(&mut dists);
    Some(dists[k - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;
    use proptest::prelude::*;

    fn line_dataset() -> Dataset {
        // Points at x = 0, 1, 2, 3, 4 on a line.
        Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap()
    }

    #[test]
    fn ball_count_closed_and_open() {
        let ds = line_dataset();
        let m = Euclidean;
        // From the point at 0: distances 0,1,2,3,4 (self excluded below).
        assert_eq!(ball_count(&ds, &m, &[0.0], 2.0, false, Some(0)), 2);
        assert_eq!(ball_count(&ds, &m, &[0.0], 2.0, true, Some(0)), 1);
        // Without exclusion the center counts.
        assert_eq!(ball_count(&ds, &m, &[0.0], 2.0, false, None), 3);
    }

    #[test]
    fn rank_assigns_max_on_ties() {
        // q at 2; points 1 and 3 are both at distance 1 → each has rank 2.
        let ds = line_dataset();
        let m = Euclidean;
        assert_eq!(rank(&ds, &m, &[2.0], 1, Some(2)), 2);
        assert_eq!(rank(&ds, &m, &[2.0], 3, Some(2)), 2);
        assert_eq!(rank(&ds, &m, &[2.0], 0, Some(2)), 4);
    }

    #[test]
    fn dk_is_kth_other_distance() {
        let ds = line_dataset();
        let m = Euclidean;
        assert_eq!(dk(&ds, &m, 0, 1), Some(1.0));
        assert_eq!(dk(&ds, &m, 0, 4), Some(4.0));
        assert_eq!(dk(&ds, &m, 0, 5), None, "only 4 other points exist");
        assert_eq!(dk(&ds, &m, 2, 2), Some(1.0), "ties at distance 1");
        assert_eq!(dk(&ds, &m, 2, 0), None);
    }

    #[test]
    fn dk_from_external_query() {
        let ds = line_dataset();
        let m = Euclidean;
        assert_eq!(dk_from(&ds, &m, &[2.5], 1, None), Some(0.5));
        assert_eq!(dk_from(&ds, &m, &[2.5], 2, None), Some(0.5));
        assert_eq!(dk_from(&ds, &m, &[2.5], 3, None), Some(1.5));
    }

    proptest! {
        #[test]
        fn rank_of_kth_neighbor_at_least_k(
            pts in proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, 2), 3..20),
            qi in 0usize..20,
        ) {
            let ds = Dataset::from_rows(&pts).unwrap();
            let qi = qi % ds.len();
            let m = Euclidean;
            let k = 1 + qi % (ds.len() - 1);
            if let Some(d) = dk(&ds, &m, qi, k) {
                // At least k other points lie within d_k.
                let c = ball_count(&ds, &m, ds.point(qi), d, false, Some(qi));
                prop_assert!(c >= k);
                // And fewer than k lie strictly inside.
                let open = ball_count(&ds, &m, ds.point(qi), d, true, Some(qi));
                prop_assert!(open < k || open < c);
            }
        }
    }
}
