//! Attack on the §3.9(b) variant: key bits that flip the sign of single
//! weight-matrix elements instead of pre-activations.
//!
//! As the paper observes, modifying an element of `A_j` only moves the
//! hyperplane `h_{i,j}` of that one neuron. The attack therefore tests, for
//! every affected neuron and every hypothesis of its bits, whether the
//! *white-box-predicted* hyperplane location is matched by a real oracle
//! kink: the hypothesis whose predicted hyperplane the oracle confirms is
//! the committed one. Bits sharing a neuron (same weight row) are jointly
//! enumerated, since they shape a single hyperplane together.

use crate::config::AttackConfig;
use crate::critical::search_critical_point_with;
use crate::validate::{oracle_kink_at, WITNESS_ATTEMPTS};
use relock_graph::{Graph, KeyAssignment, KeySlot, NodeId, Op, Workspace};
use relock_locking::{Key, Oracle};
use relock_tensor::rng::Prng;
use std::collections::BTreeMap;

/// Outcome of the weight-lock attack.
#[derive(Debug, Clone)]
pub struct WeightLockReport {
    /// The extracted key.
    pub key: Key,
    /// Oracle queries spent.
    pub queries: u64,
    /// Neurons whose bits could not be confirmed by any hypothesis (their
    /// bits are left at 0).
    pub unresolved_neurons: usize,
}

/// Decrypts a network protected by §3.9(b) weight-element sign locks.
///
/// Works layer by layer in topological order (earlier layers' bits shape
/// later layers' input geometry). Within a layer, each affected neuron's
/// bits are recovered by hypothesis testing at white-box hyperplane
/// witnesses.
pub fn weight_lock_attack(
    g: &Graph,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> WeightLockReport {
    let start_queries = oracle.query_count();
    let mut ka = KeyAssignment::all_zero_bits(g.key_slot_count());
    let mut unresolved = 0usize;
    // One workspace for every hypothesis' witness searches and probes.
    let mut ws = Workspace::new();

    // Group slots by (linear node, weight row): one hyperplane per group.
    let mut groups: BTreeMap<(NodeId, usize), Vec<KeySlot>> = BTreeMap::new();
    for (i, node) in g.nodes().iter().enumerate() {
        if let Op::Linear { weight_locks, .. } = &node.op {
            for l in weight_locks {
                groups.entry((NodeId(i), l.row)).or_default().push(l.slot);
            }
        }
    }

    for ((node, row), slots) in groups {
        let n_bits = slots.len();
        assert!(n_bits <= 16, "too many locks on one neuron");
        let mut committed: Option<u32> = None;
        'combos: for combo in 0..(1u32 << n_bits) {
            // Hypothesize this combination of the row's bits.
            for (bi, slot) in slots.iter().enumerate() {
                ka.set_bit(*slot, combo >> bi & 1 == 1);
            }
            // Find the hypothesized hyperplane and ask the oracle whether a
            // kink really lives there. One refuting witness kills the
            // hypothesis; acceptance wants two independent confirmations
            // (one chance-crossing of an unrelated oracle hyperplane must
            // not carry the vote).
            let mut confirms = 0usize;
            let mut probes = 0usize;
            for _ in 0..(2 * WITNESS_ATTEMPTS) {
                let Some(cp) = search_critical_point_with(g, &mut ws, &ka, node, row, cfg, rng)
                else {
                    break;
                };
                match oracle_kink_at(g, &mut ws, &ka, oracle, &cp.x, &cp.crossing_dir, cfg, rng) {
                    Ok(Some(true)) => {
                        confirms += 1;
                        probes += 1;
                        if confirms >= 2 {
                            committed = Some(combo);
                            break 'combos;
                        }
                    }
                    Ok(Some(false)) => continue 'combos,
                    Ok(None) => {} // not observable here; retry another region
                    // Starved oracle: stop probing this hypothesis; the
                    // group resolves with whatever evidence exists so far.
                    Err(_) => break,
                }
            }
            // A single confirmation with no refutation still beats nothing
            // if the group would otherwise stay unresolved.
            if confirms == 1 && probes == 1 && committed.is_none() {
                committed = Some(combo);
            }
        }
        match committed {
            Some(combo) => {
                for (bi, slot) in slots.iter().enumerate() {
                    ka.set_bit(*slot, combo >> bi & 1 == 1);
                }
            }
            None => {
                unresolved += 1;
                for slot in &slots {
                    ka.set_bit(*slot, false);
                }
            }
        }
    }

    WeightLockReport {
        key: Key::from_bits(ka.to_bits()),
        queries: oracle.query_count() - start_queries,
        unresolved_neurons: unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::CountingOracle;
    use relock_nn::{build_mlp_weight_locked, MlpSpec};

    #[test]
    fn recovers_weight_lock_key_of_untrained_mlp() {
        let mut rng = Prng::seed_from_u64(150);
        let model = build_mlp_weight_locked(
            &MlpSpec {
                input: 12,
                hidden: vec![8, 6],
                classes: 4,
            },
            6,
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let report = weight_lock_attack(
            model.white_box(),
            &oracle,
            &AttackConfig::fast(),
            &mut Prng::seed_from_u64(151),
        );
        assert_eq!(
            report.key.fidelity(model.true_key()),
            1.0,
            "recovered {} vs {} (unresolved {})",
            report.key,
            model.true_key(),
            report.unresolved_neurons
        );
    }
}
