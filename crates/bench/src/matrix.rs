//! The lock-variant × attack evaluation matrix.
//!
//! Crosses the four locking schemes (`sign`, `scale`, and the trigger
//! schemes `sar`/`antisat`) with three attacks of decreasing oracle
//! access:
//!
//! * `decrypt` — the oracle-guided attack: the per-site decryption
//!   pipeline (Algorithm 2) on unit locks, and the sampling attack
//!   (random probes + greedy bit-flip climb) on trigger locks, whose
//!   point-corruption geometry defeats per-site critical-point probing;
//! * `wstats` — the oracle-less weight-statistics classifier (SAIL
//!   lineage): trained on attacker-built same-variant victims, zero
//!   oracle queries;
//! * `neuroevo` — the oracle-less neuroevolutionary key search
//!   (genetic climb on the white-box's softmax confidence), zero
//!   oracle queries.
//!
//! Every cell reports **key-recovery accuracy** (bit fidelity against
//! the victim's true key) as a `key_acc` entry named
//! `matrix_<variant>_<attack>`, plus the exact oracle-query count. All
//! three attacks are deterministic at fixed seeds, so the diff gate
//! compares both the fidelity and the query count bit-for-bit.
//!
//! The expected shape of the table is the point: the decryption attack
//! is exact on `sign`/`scale` and collapses to near-chance on the
//! trigger schemes (the probes almost surely miss the corrupted
//! subspace, so the agreement landscape is flat — DESIGN.md §3h), while
//! the oracle-less baselines hover at chance everywhere on these
//! victims (the comparator slots of trigger locks are weightless, and
//! unit-lock keys are not readable from weight statistics alone).

use crate::report::BenchEntry;
use crate::{attack_config, Arch, Scale};
use relock_attack::{
    neuroevolution_key_search, sampling_key_search, weight_stats_attack, Decryptor,
};
use relock_data::{mnist_like, Dataset};
use relock_locking::{CountingOracle, Key, LockSpec, LockVariant, LockedModel};
use relock_nn::{build_mlp, MlpSpec, Trainer};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;

/// Key size of every matrix victim.
pub const MATRIX_BITS: usize = 8;

/// The four locking schemes of the matrix, in report order.
pub const MATRIX_VARIANTS: [LockVariant; 4] = [
    LockVariant::Sign,
    LockVariant::Scale(0.25),
    LockVariant::SarTrigger,
    LockVariant::AntiSatTrigger,
];

/// The short spelling used in entry names (`matrix_<this>_<attack>`).
pub fn variant_slug(v: LockVariant) -> &'static str {
    match v {
        LockVariant::Sign => "sign",
        LockVariant::Scale(_) => "scale",
        LockVariant::SarTrigger => "sar",
        LockVariant::AntiSatTrigger => "antisat",
    }
}

/// The attack names of the matrix, in report order.
pub const MATRIX_ATTACKS: [&str; 3] = ["decrypt", "wstats", "neuroevo"];

/// One measured cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Locking scheme of the victim.
    pub variant: LockVariant,
    /// Attack name (one of [`MATRIX_ATTACKS`]).
    pub attack: &'static str,
    /// Key-recovery accuracy: bit fidelity against the true key.
    pub fidelity: f64,
    /// Exact underlying oracle queries (0 for the oracle-less attacks).
    pub queries: u64,
    /// Wall-clock milliseconds of the attack (victim prep excluded).
    pub ms: f64,
}

/// Builds and briefly trains one matrix victim: a small MLP so the full
/// 4×3 grid stays in bench territory. Training matters for the matrix's
/// honesty — it couples the weights to the key, which is exactly the
/// signal the weight-statistics classifier claims to read.
fn matrix_victim(variant: LockVariant, seed: u64) -> (LockedModel, Dataset) {
    let mut rng = Prng::seed_from_u64(seed);
    let data = mnist_like(&mut rng, 240, 80, 16);
    let spec = MlpSpec {
        input: 16,
        hidden: vec![12, 8],
        classes: 10,
    };
    let mut model = build_mlp(
        &spec,
        LockSpec::with_variant(MATRIX_BITS, variant),
        &mut rng,
    )
    .expect("matrix spec fits");
    let trainer = Trainer {
        lr: 5e-3,
        epochs: 6,
        batch_size: 16,
    };
    trainer.fit(&mut model, &data, &mut rng);
    (model, data)
}

/// Runs the oracle-guided cell: the decryption pipeline on unit locks,
/// the sampling attack on trigger locks (mirroring the CLI and campaign
/// dispatch). Returns `(recovered_key, underlying_queries)`.
fn oracle_guided(victim: &LockedModel, variant: LockVariant, seed: u64) -> (Key, u64) {
    let mut cfg = attack_config(Arch::Mlp, Scale::Fast);
    cfg.threads = 1;
    cfg.variant = variant;
    let oracle = CountingOracle::new(victim);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let mut rng = Prng::seed_from_u64(seed);
    if cfg.variant.is_trigger() {
        let report = sampling_key_search(victim.white_box(), &broker, &cfg, &mut rng);
        (report.key, report.queries)
    } else {
        let report = Decryptor::new(cfg)
            .run_brokered(victim.white_box(), &broker, &mut rng)
            .expect("continue_on_failure keeps the run alive");
        (report.key, report.queries)
    }
}

/// Runs the whole 4×3 grid. Deterministic: victims, training models and
/// attack seeds are all fixed.
pub fn run_matrix() -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(MATRIX_VARIANTS.len() * MATRIX_ATTACKS.len());
    for (vi, &variant) in MATRIX_VARIANTS.iter().enumerate() {
        let seed = 9000 + 101 * vi as u64;
        let (victim, _data) = matrix_victim(variant, seed);
        let truth = victim.true_key();

        // Attacker-built training victims for the weight-statistics
        // classifier: same scheme, same architecture, keys known.
        let train_a = matrix_victim(variant, seed + 1).0;
        let train_b = matrix_victim(variant, seed + 2).0;
        let training = [
            (train_a.white_box(), train_a.true_key()),
            (train_b.white_box(), train_b.true_key()),
        ];

        for attack in MATRIX_ATTACKS {
            let t = std::time::Instant::now();
            let (key, queries) = match attack {
                "decrypt" => oracle_guided(&victim, variant, seed + 3),
                "wstats" => {
                    let cfg = attack_config(Arch::Mlp, Scale::Fast);
                    let r = weight_stats_attack(victim.white_box(), &training, cfg.learning.epochs);
                    (r.key, r.queries)
                }
                "neuroevo" => {
                    let mut rng = Prng::seed_from_u64(seed + 4);
                    let r = neuroevolution_key_search(victim.white_box(), &mut rng);
                    (r.key, r.queries)
                }
                other => unreachable!("unknown matrix attack {other}"),
            };
            cells.push(MatrixCell {
                variant,
                attack,
                fidelity: key.fidelity(truth),
                queries,
                ms: t.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    cells
}

/// Converts the grid into `BENCH.json` entries: unit `key_acc` (higher
/// is better), the fidelity as the median, the exact query count, and
/// the full variant spelling in the schema-v5 `lock_variant` field.
pub fn matrix_entries() -> Vec<BenchEntry> {
    run_matrix()
        .into_iter()
        .map(|c| BenchEntry {
            name: format!("matrix_{}_{}", variant_slug(c.variant), c.attack),
            unit: "key_acc".to_string(),
            median: c.fidelity,
            spread: 0.0,
            repeats: 1,
            queries: Some(c.queries),
            cache_hit_rate: None,
            evictions: None,
            backend: None,
            lock_variant: Some(c.variant.to_string()),
        })
        .collect()
}

/// Prints the matrix as a table (the human-facing view the README
/// section is generated from).
pub fn print_matrix(cells: &[MatrixCell]) {
    println!("Lock-variant × attack matrix (key-recovery accuracy, {MATRIX_BITS}-bit keys).\n");
    println!(
        "{:<12}{:>12} {:>10} {:>10} {:>10}",
        "variant", "attack", "key_acc", "queries", "time(ms)"
    );
    for c in cells {
        println!(
            "{:<12}{:>12} {:>9.1}% {:>10} {:>10.1}",
            variant_slug(c.variant),
            c.attack,
            100.0 * c.fidelity,
            c.queries,
            c.ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_and_names_cover_the_grid() {
        let mut seen = std::collections::HashSet::new();
        for v in MATRIX_VARIANTS {
            for a in MATRIX_ATTACKS {
                assert!(seen.insert(format!("matrix_{}_{a}", variant_slug(v))));
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn victims_are_reproducible() {
        let (a, _) = matrix_victim(LockVariant::SarTrigger, 9202);
        let (b, _) = matrix_victim(LockVariant::SarTrigger, 9202);
        assert_eq!(a.true_key(), b.true_key());
    }
}
