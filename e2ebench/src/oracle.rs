//! Reference k-NN computed apart from the program: f64 brute force under
//! L1 and L2 with the documented `(distance, id)` tie-break, recall@k, and
//! the comparison rule the workloads apply to the program's replies.

/// The two measures the workloads serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    L1,
    L2,
}

/// Exact distance in f64.
pub fn distance(m: Metric, a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match m {
        Metric::L1 => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .sum(),
        Metric::L2 => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt(),
    }
}

/// `(distance, id)` ascending: the order every index and the router promise.
pub fn order(a: &(u64, f64), b: &(u64, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// The `k` nearest rows of the row-major matrix `rows` (ids are row
/// positions), as `(id, distance)` in `(distance, id)` order.
pub fn knn(m: Metric, query: &[f32], rows: &[f32], k: usize) -> Vec<(u64, f64)> {
    let dim = query.len();
    let mut top = TopK::new(k);
    for (id, row) in rows.chunks_exact(dim).enumerate() {
        top.offer(id as u64, distance(m, query, row));
    }
    top.into_sorted()
}

/// A bounded best-`k` set under `(distance, id)` order; rows may be
/// offered one at a time, so a caller can grow the corpus prefix by prefix.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    items: Vec<(u64, f64)>,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    pub fn offer(&mut self, id: u64, d: f64) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k {
            let worst = self.items.last().expect("k > 0");
            if order(&(id, d), worst) != std::cmp::Ordering::Less {
                return;
            }
            self.items.pop();
        }
        let at = self
            .items
            .partition_point(|x| order(x, &(id, d)) == std::cmp::Ordering::Less);
        self.items.insert(at, (id, d));
    }

    pub fn sorted(&self) -> &[(u64, f64)] {
        &self.items
    }

    pub fn into_sorted(self) -> Vec<(u64, f64)> {
        self.items
    }
}

/// Share of `truth` ids that `got` contains.
pub fn recall_at_k(got: &[u64], truth: &[u64]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = truth.iter().filter(|t| got.contains(t)).count();
    hit as f64 / truth.len() as f64
}

/// Whether an f32 distance the program computed agrees with the f64
/// reference. f32 accumulation over a few hundred terms stays well inside
/// this band; a wrong row or a wrong measure lands far outside it.
pub fn close(got: f32, want: f64) -> bool {
    (got as f64 - want).abs() <= 1e-5 * want.abs().max(1.0)
}

/// Check that `reply` is sorted by `(distance, id)` with distinct ids.
pub fn check_order(reply: &[(u64, f32)]) -> Result<(), String> {
    for w in reply.windows(2) {
        let ((ia, da), (ib, db)) = (w[0], w[1]);
        if da > db || (da == db && ia >= ib) {
            return Err(format!(
                "hits out of (distance, id) order: ({ia}, {da}) before ({ib}, {db})"
            ));
        }
    }
    Ok(())
}

/// Check an exact k-NN reply against the oracle's answer `truth`.
///
/// The reply must hold as many hits as the truth, in `(distance, id)`
/// order, each hit's distance must match the reference distance of its
/// own id (`true_dist`), and position by position the distances must
/// match the truth's. Ids may therefore differ from the truth's only
/// where reference distances are within rounding of each other.
pub fn check_exact(
    reply: &[(u64, f32)],
    truth: &[(u64, f64)],
    true_dist: impl Fn(u64) -> Option<f64>,
) -> Result<(), String> {
    if reply.len() != truth.len() {
        return Err(format!(
            "{} hits, reference has {}",
            reply.len(),
            truth.len()
        ));
    }
    check_order(reply)?;
    for (pos, (&(id, d), &(tid, td))) in reply.iter().zip(truth).enumerate() {
        let own = true_dist(id).ok_or_else(|| format!("hit id {id} is not a row"))?;
        if !close(d, own) {
            return Err(format!(
                "hit {pos}: id {id} distance {d} but its reference distance is {own}"
            ));
        }
        if !close(d, td) {
            return Err(format!(
                "hit {pos}: id {id} at {d}, reference has id {tid} at {td}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Corners of the unit square plus an exact duplicate of row 1.
    const ROWS: [f32; 10] = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0];

    #[test]
    fn distances_match_hand_computation() {
        assert_eq!(distance(Metric::L1, &[0.0, 0.0], &[3.0, -4.0]), 7.0);
        assert_eq!(distance(Metric::L2, &[0.0, 0.0], &[3.0, -4.0]), 5.0);
        assert_eq!(distance(Metric::L1, &[1.5], &[1.5]), 0.0);
    }

    #[test]
    fn knn_breaks_exact_ties_by_id() {
        // From the origin under L1: ids 1, 2 and 4 all sit at 1.
        let got = knn(Metric::L1, &[0.0, 0.0], &ROWS, 3);
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 1.0)]);
        let got = knn(Metric::L1, &[0.0, 0.0], &ROWS, 5);
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 1.0), (4, 1.0), (3, 2.0)]);
        // From (1, 0): the duplicates 1 and 4 tie at 0.
        let got = knn(Metric::L2, &[1.0, 0.0], &ROWS, 2);
        assert_eq!(got, vec![(1, 0.0), (4, 0.0)]);
    }

    #[test]
    fn knn_with_k_above_rows_returns_all() {
        let got = knn(Metric::L2, &[1.0, 1.0], &ROWS, 9);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], (3, 0.0));
        assert_eq!(got[4], (0, 2f64.sqrt()));
    }

    #[test]
    fn topk_grows_prefix_by_prefix() {
        let mut top = TopK::new(2);
        top.offer(0, 2.0);
        top.offer(1, 1.0);
        assert_eq!(top.sorted(), &[(1, 1.0), (0, 2.0)]);
        top.offer(2, 1.0);
        assert_eq!(top.sorted(), &[(1, 1.0), (2, 1.0)]);
        // A later id tying the worst kept distance does not displace it.
        top.offer(3, 1.0);
        assert_eq!(top.sorted(), &[(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn recall_counts_shared_ids() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall_at_k(&[3, 2, 9], &[1, 2, 3]), 2.0 / 3.0);
        assert_eq!(recall_at_k(&[], &[1, 2]), 0.0);
        assert_eq!(recall_at_k(&[5], &[]), 1.0);
    }

    #[test]
    fn exact_check_accepts_the_reference_and_rejects_faults() {
        let truth = knn(Metric::L1, &[0.0, 0.0], &ROWS, 3);
        let own = |id: u64| {
            let row = &ROWS[id as usize * 2..id as usize * 2 + 2];
            Some(distance(Metric::L1, &[0.0, 0.0], row))
        };
        let good = [(0, 0.0f32), (1, 1.0), (2, 1.0)];
        assert!(check_exact(&good, &truth, own).is_ok());
        // Another member of the exact tie at the boundary is as good.
        let tie = [(0, 0.0f32), (1, 1.0), (4, 1.0)];
        assert!(check_exact(&tie, &truth, own).is_ok());
        // Equal distances with ids descending break the tie rule.
        let swapped = [(0, 0.0f32), (2, 1.0), (1, 1.0)];
        assert!(check_exact(&swapped, &truth, own).is_err());
        // A farther row in place of a nearer one.
        let wrong = [(0, 0.0f32), (1, 1.0), (3, 2.0)];
        assert!(check_exact(&wrong, &truth, own).is_err());
        // A right id reported at a wrong distance.
        let lying = [(0, 0.0f32), (1, 1.0), (3, 1.0)];
        assert!(check_exact(&lying, &truth, own).is_err());
        // Short replies and repeated ids.
        assert!(check_exact(&good[..2], &truth, own).is_err());
        let dup = [(0, 0.0f32), (1, 1.0), (1, 1.0)];
        assert!(check_exact(&dup, &truth, own).is_err());
    }

    #[test]
    fn exact_check_tolerates_near_tie_rounding_only() {
        let truth = vec![(7, 1.0), (3, 1.000_000_1)];
        let own = |id: u64| match id {
            7 => Some(1.0),
            3 => Some(1.000_000_1),
            _ => None,
        };
        // f32 rounding may order a near-tie either way.
        assert!(check_exact(&[(3, 1.0f32), (7, 1.0000001)], &truth, own).is_ok());
        assert!(check_exact(&[(9, 1.0f32), (7, 1.0000001)], &truth, own).is_err());
    }
}
