//! Error correction (paper §3.7/§3.8).
//!
//! When a layer's key vector fails validation, the learning attack's
//! *confidence levels* (`|multiplier|`) guide a bounded search: bits are
//! flipped in ascending confidence order, first one at a time (Hamming
//! distance 1), then in pairs, and so on — each candidate re-validated —
//! until a key vector passes.
//!
//! The enumeration here is pure and deterministic; the decryptor consumes
//! it in waves of a fixed width (a constant beside its wave loop, not a
//! setting), validating every member of a wave and committing the
//! earliest `Pass` in candidate order, so the search outcome does not
//! depend on how many worker threads evaluate a wave (DESIGN.md §3e).

use std::collections::HashSet;

/// Enumerates candidate flip sets in the paper's order: increasing Hamming
/// distance; within a distance, increasing total confidence of the flipped
/// bits. Only the `window` least-confident bits participate, and at most
/// `max_per_hd` candidates are emitted per distance.
///
/// Returns index sets into `confidences`.
///
/// ```
/// let cands = relock_attack::correction_candidates(&[0.9, 0.1, 0.5], 3, 2, 10);
/// assert_eq!(cands[0], vec![1]);        // least confident bit first
/// assert_eq!(cands[1], vec![2]);
/// assert_eq!(cands[2], vec![0]);
/// assert_eq!(cands[3], vec![1, 2]);     // then pairs by confidence sum
/// ```
pub fn correction_candidates(
    confidences: &[f64],
    window: usize,
    max_hamming: usize,
    max_per_hd: usize,
) -> Vec<Vec<usize>> {
    let n = confidences.len();
    // The `window` least-confident bit indices, ascending by confidence.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        confidences[a]
            .partial_cmp(&confidences[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(window.min(n));

    let mut out = Vec::new();
    for hd in 1..=max_hamming.min(order.len()) {
        let mut combos: Vec<Vec<usize>> = Vec::new();
        combinations(&order, hd, &mut Vec::new(), &mut combos);
        combos.sort_by(|a, b| {
            let sa: f64 = a.iter().map(|&i| confidences[i]).sum();
            let sb: f64 = b.iter().map(|&i| confidences[i]).sum();
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        });
        combos.truncate(max_per_hd);
        out.extend(combos);
    }
    out
}

/// Layers of at most this many bits end their correction plan with every
/// flip set the capped search left out, so the search completes paper
/// Theorem 4's enumeration (at most `2^|K_i|` candidates) instead of
/// giving up.
pub(crate) const EXHAUSTIVE_BITS: usize = 10;

/// The full candidate list the decryptor's error correction walks: the
/// confidence-ordered Hamming search of [`correction_candidates`] with the
/// layer-complement "mirror" candidates spliced in right after the single
/// flips. The learning attack's characteristic failure mode is a mirror
/// optimum — most of the layer inverted, with later layers compensating —
/// so the complement (and its 1-neighbourhood) is tried early. On layers
/// of at most ten bits, every remaining flip set follows, in the same
/// Hamming-then-confidence order, so the search ends only after all
/// `2^|K_i| − 1` flips (paper Theorem 4); the capped plan before them is
/// unchanged.
///
/// A pure function of its inputs: a resumed attack regenerates the
/// identical list and skips the candidates a pre-crash segment already
/// tried.
pub fn correction_plan(
    confidences: &[f64],
    window: usize,
    max_hamming: usize,
    max_per_hd: usize,
) -> Vec<Vec<usize>> {
    let n_bits = confidences.len();
    let mut candidates = correction_candidates(confidences, window, max_hamming, max_per_hd);
    let insert_at = n_bits.min(candidates.len());
    let complement: Vec<usize> = (0..n_bits).collect();
    let mut mirrors = vec![complement.clone()];
    for skip in 0..n_bits {
        mirrors.push(complement.iter().copied().filter(|&i| i != skip).collect());
    }
    for (offset, m) in mirrors.into_iter().enumerate() {
        if !m.is_empty() {
            candidates.insert((insert_at + offset).min(candidates.len()), m);
        }
    }
    if n_bits <= EXHAUSTIVE_BITS {
        let sorted = |c: &[usize]| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        };
        let planned: HashSet<Vec<usize>> = candidates.iter().map(|c| sorted(c)).collect();
        let rest = correction_candidates(confidences, n_bits, n_bits, usize::MAX);
        candidates.extend(rest.into_iter().filter(|c| !planned.contains(&sorted(c))));
    }
    candidates
}

fn combinations(pool: &[usize], k: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if k == 0 {
        out.push(prefix.clone());
        return;
    }
    if pool.len() < k {
        return;
    }
    // Include pool[0] or not.
    prefix.push(pool[0]);
    combinations(&pool[1..], k - 1, prefix, out);
    prefix.pop();
    combinations(&pool[1..], k, prefix, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd1_candidates_in_confidence_order() {
        let c = [0.8, 0.2, 0.4, 0.99];
        let cands = correction_candidates(&c, 4, 1, 10);
        assert_eq!(cands, vec![vec![1], vec![2], vec![0], vec![3]]);
    }

    #[test]
    fn hd2_sorted_by_confidence_sum() {
        let c = [0.9, 0.1, 0.2];
        let cands = correction_candidates(&c, 3, 2, 100);
        // hd=1: [1], [2], [0]; hd=2 best pair is {1,2}.
        assert_eq!(cands[3], vec![1, 2]);
        assert_eq!(cands.len(), 3 + 3);
    }

    #[test]
    fn caps_apply() {
        let c = [0.5; 10];
        let cands = correction_candidates(&c, 6, 3, 7);
        // ≤ 7 per Hamming distance, window of 6 bits.
        let hd1 = cands.iter().filter(|v| v.len() == 1).count();
        let hd2 = cands.iter().filter(|v| v.len() == 2).count();
        let hd3 = cands.iter().filter(|v| v.len() == 3).count();
        assert_eq!(hd1, 6);
        assert_eq!(hd2, 7);
        assert_eq!(hd3, 7);
        assert!(cands.iter().all(|v| v.iter().all(|&i| i < 10)));
    }

    #[test]
    fn no_duplicate_candidates() {
        let c = [0.1, 0.2, 0.3, 0.4, 0.5];
        let cands = correction_candidates(&c, 5, 3, 1000);
        let set: std::collections::HashSet<Vec<usize>> = cands
            .iter()
            .map(|v| {
                let mut s = v.clone();
                s.sort_unstable();
                s
            })
            .collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        assert!(correction_candidates(&[], 4, 2, 10).is_empty());
    }

    #[test]
    fn plan_inserts_mirrors_after_single_flips() {
        let c = [0.8, 0.2, 0.4];
        let plan = correction_plan(&c, 3, 2, 100);
        // Single flips first (confidence order), then the complement and
        // its 1-neighbourhood, then the pairs.
        assert_eq!(plan[0], vec![1]);
        assert_eq!(plan[1], vec![2]);
        assert_eq!(plan[2], vec![0]);
        assert_eq!(plan[3], vec![0, 1, 2]);
        assert_eq!(plan[4], vec![1, 2]); // complement minus bit 0
        assert!(plan.len() > 6);
    }

    #[test]
    fn small_layer_plans_enumerate_every_flip_set_after_the_capped_prefix() {
        let c = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
        let capped = correction_candidates(&c, 4, 2, 3);
        let plan = correction_plan(&c, 4, 2, 3);
        // The capped search (3 singles, 3 pairs) and the 7 mirrors come
        // first ...
        assert_eq!(&plan[..6], &capped[..]);
        assert_eq!(plan[6], vec![0, 1, 2, 3, 4, 5]);
        // ... then every other flip set in Hamming order: all 2^6 − 1 once.
        assert!(plan[13..].windows(2).all(|w| w[0].len() <= w[1].len()));
        assert_eq!(plan.len(), (1 << c.len()) - 1);
        let set: HashSet<Vec<usize>> = plan
            .iter()
            .map(|v| {
                let mut s = v.clone();
                s.sort_unstable();
                s
            })
            .collect();
        assert_eq!(set.len(), plan.len());
        // A layer over the bound keeps the capped plan and its mirrors.
        let big = [0.5; EXHAUSTIVE_BITS + 1];
        assert_eq!(
            correction_plan(&big, 4, 2, 3).len(),
            correction_candidates(&big, 4, 2, 3).len() + EXHAUSTIVE_BITS + 2
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let c = [0.3, 0.9, 0.1, 0.5, 0.2];
        assert_eq!(correction_plan(&c, 4, 3, 8), correction_plan(&c, 4, 3, 8));
    }
}
