//! Experiment harness for the paper's evaluation section.
//!
//! This crate regenerates, at a configurable scale:
//!
//! - **Table 1** — original/baseline accuracy and {accuracy, fidelity,
//!   time, #queries} for the monolithic learning-based attack vs. the DNN
//!   decryption attack, across MLP / LeNet / ResNet / V-Transformer and
//!   three key sizes each;
//! - **Figure 3** — the per-procedure execution-time breakdown of the
//!   decryption attack.
//!
//! Scales (env `RELOCK_SCALE`):
//!
//! - `fast` (default) — victims sized to finish the full grid in minutes on
//!   a single laptop core;
//! - `paper` — the paper-shaped geometries (784-dim MLP, 28×28 LeNet,
//!   deeper ResNet/ViT, key sizes up to 196). Expect a long run.
//!
//! Filter the grid with `RELOCK_ARCHS=mlp,lenet` and
//! `RELOCK_KEYS=small,medium,large`.

use relock_attack::{
    AttackConfig, Decryptor, LearningConfig, MonolithicAttack, MonolithicConfig,
    QueryStatsSnapshot, TimingBreakdown,
};
use relock_data::{cifar_like, mnist_like, Dataset};
use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
use relock_nn::{
    build_lenet, build_mlp, build_resnet, build_vit, LenetSpec, MlpSpec, ResnetSpec, Trainer,
    VitSpec,
};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;
use std::time::Instant;

pub mod analyze;
pub mod campaign;
pub mod matrix;
pub mod report;

/// The four victim architectures of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Multilayer perceptron (contractive).
    Mlp,
    /// LeNet-5 ReLU variant.
    Lenet,
    /// Residual network.
    Resnet,
    /// ReLU Vision Transformer.
    Vit,
}

impl Arch {
    /// All architectures in Table 1 order.
    pub const ALL: [Arch; 4] = [Arch::Mlp, Arch::Lenet, Arch::Resnet, Arch::Vit];

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Mlp => "MLP",
            Arch::Lenet => "LeNet",
            Arch::Resnet => "ResNet",
            Arch::Vit => "V-Transformer",
        }
    }

    /// The synthetic stand-in dataset's name.
    pub fn dataset_name(self) -> &'static str {
        match self {
            Arch::Mlp | Arch::Lenet => "MNIST-like",
            Arch::Resnet | Arch::Vit => "CIFAR-like",
        }
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-single-core grid (default).
    Fast,
    /// Paper-shaped geometries.
    Paper,
}

impl Scale {
    /// Reads `RELOCK_SCALE` (`fast`/`paper`), defaulting to fast.
    pub fn from_env() -> Self {
        match std::env::var("RELOCK_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Fast,
        }
    }
}

/// The three key sizes evaluated per architecture (Table 1's rows).
pub fn key_sizes(arch: Arch, scale: Scale) -> [usize; 3] {
    match (scale, arch) {
        (Scale::Fast, Arch::Mlp) => [8, 16, 32],
        (Scale::Fast, Arch::Lenet) => [8, 16, 24],
        (Scale::Fast, Arch::Resnet) => [8, 16, 24],
        (Scale::Fast, Arch::Vit) => [16, 32, 48],
        (Scale::Paper, Arch::Mlp | Arch::Lenet) => [32, 64, 128],
        (Scale::Paper, Arch::Resnet | Arch::Vit) => [64, 128, 196],
    }
}

/// A trained, locked victim bundled with its task.
#[derive(Debug)]
pub struct Prepared {
    /// The trained locked model (holds the secret key).
    pub model: LockedModel,
    /// Its classification task.
    pub data: Dataset,
    /// Test accuracy under the true key (Table 1 "Original Accuracy").
    pub original_accuracy: f64,
}

/// Builds and trains a victim.
///
/// # Panics
///
/// Panics if the architecture cannot hold `key_bits` (the harness key
/// sizes are chosen to fit).
pub fn prepare(arch: Arch, key_bits: usize, scale: Scale, seed: u64) -> Prepared {
    let mut rng = Prng::seed_from_u64(seed);
    let (model, data, trainer) = match (scale, arch) {
        (Scale::Fast, Arch::Mlp) => {
            let data = mnist_like(&mut rng, 500, 200, 48);
            let spec = MlpSpec {
                input: 48,
                hidden: vec![32, 16],
                classes: 10,
            };
            let model = build_mlp(&spec, LockSpec::evenly(key_bits), &mut rng).expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 5e-3,
                    epochs: 14,
                    batch_size: 32,
                },
            )
        }
        (Scale::Paper, Arch::Mlp) => {
            let data = mnist_like(&mut rng, 2000, 500, 784);
            let model = build_mlp(&MlpSpec::default(), LockSpec::evenly(key_bits), &mut rng)
                .expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 3e-3,
                    epochs: 12,
                    batch_size: 32,
                },
            )
        }
        (Scale::Fast, Arch::Lenet) => {
            let data = cifar_like(&mut rng, 400, 150, 1, 12, 12);
            let spec = LenetSpec {
                in_channels: 1,
                h: 12,
                w: 12,
                c1: 6,
                c2: 10,
                fc1: 24,
                fc2: 16,
                classes: 10,
            };
            let model =
                build_lenet(&spec, LockSpec::evenly(key_bits), &mut rng).expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 5e-3,
                    epochs: 12,
                    batch_size: 32,
                },
            )
        }
        (Scale::Paper, Arch::Lenet) => {
            let data = cifar_like(&mut rng, 1500, 400, 1, 28, 28);
            let model = build_lenet(&LenetSpec::default(), LockSpec::evenly(key_bits), &mut rng)
                .expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 3e-3,
                    epochs: 10,
                    batch_size: 32,
                },
            )
        }
        (Scale::Fast, Arch::Resnet) => {
            let data = cifar_like(&mut rng, 350, 120, 3, 12, 12);
            let spec = ResnetSpec {
                in_channels: 3,
                h: 12,
                w: 12,
                stem: 8,
                stages: vec![
                    relock_nn::StageSpec {
                        channels: 8,
                        blocks: 1,
                        stride: 1,
                    },
                    relock_nn::StageSpec {
                        channels: 16,
                        blocks: 1,
                        stride: 2,
                    },
                ],
                classes: 10,
            };
            let model =
                build_resnet(&spec, LockSpec::evenly(key_bits), &mut rng).expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 5e-3,
                    epochs: 10,
                    batch_size: 32,
                },
            )
        }
        (Scale::Paper, Arch::Resnet) => {
            let data = cifar_like(&mut rng, 1000, 300, 3, 16, 16);
            let model = build_resnet(&ResnetSpec::default(), LockSpec::evenly(key_bits), &mut rng)
                .expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 3e-3,
                    epochs: 10,
                    batch_size: 32,
                },
            )
        }
        (Scale::Fast, Arch::Vit) => {
            let data = cifar_like(&mut rng, 400, 150, 3, 8, 8);
            let spec = VitSpec {
                in_channels: 3,
                h: 8,
                w: 8,
                patch: 4,
                embed: 16,
                heads: 2,
                blocks: 2,
                mlp_hidden: 32,
                classes: 10,
            };
            let model = build_vit(&spec, LockSpec::evenly(key_bits), &mut rng).expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 3e-3,
                    epochs: 16,
                    batch_size: 32,
                },
            )
        }
        (Scale::Paper, Arch::Vit) => {
            let data = cifar_like(&mut rng, 1000, 300, 3, 16, 16);
            let model = build_vit(&VitSpec::default(), LockSpec::evenly(key_bits), &mut rng)
                .expect("spec fits");
            (
                model,
                data,
                Trainer {
                    lr: 3e-3,
                    epochs: 12,
                    batch_size: 32,
                },
            )
        }
    };
    let mut model = model;
    trainer.fit(&mut model, &data, &mut rng);
    let original_accuracy = model.accuracy(data.test.inputs(), data.test.labels());
    Prepared {
        model,
        data,
        original_accuracy,
    }
}

/// Table 1's baseline accuracy: mean test accuracy over `n` uniformly
/// random (almost surely incorrect) keys — the paper uses 16.
pub fn baseline_accuracy(p: &Prepared, n: usize, rng: &mut Prng) -> f64 {
    let bits = p.model.true_key().len();
    let mut sum = 0.0;
    for _ in 0..n {
        let k = Key::random(bits, rng);
        sum += p
            .model
            .accuracy_with(p.data.test.inputs(), p.data.test.labels(), &k);
    }
    sum / n as f64
}

/// One attack's Table 1 cells.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Test accuracy of the model under the extracted key.
    pub accuracy: f64,
    /// Fraction of exactly recovered key bits.
    pub fidelity: f64,
    /// Wall-clock seconds.
    pub time_s: f64,
    /// Underlying oracle queries spent (cache hits are free — see the
    /// `relock-serve` query accounting semantics).
    pub queries: u64,
    /// Fraction of requested rows the broker served from its memo cache.
    pub cache_hit_rate: f64,
}

/// The attack configuration used for an architecture at a scale.
pub fn attack_config(arch: Arch, scale: Scale) -> AttackConfig {
    let mut cfg = AttackConfig {
        continue_on_failure: true,
        ..AttackConfig::default()
    };
    // The synthetic tasks put hyperplanes within a few units of the origin.
    cfg.input_scale = 3.0;
    if scale == Scale::Fast {
        cfg.learning = LearningConfig {
            samples: 160,
            batch: 16,
            epochs: 80,
            lr: 0.08,
            confidence: 0.95,
            patience: 15,
        };
        cfg.validation_neurons = 12;
        cfg.max_hamming = 5;
        cfg.max_candidates_per_hd = 40;
        cfg.correction_window = 24;
    }
    // Smooth attention needs a slightly larger probe so kinks dominate the
    // curvature floor even for weakly coupled neurons.
    if arch == Arch::Vit {
        cfg.probe_delta = 1e-4;
    }
    cfg
}

/// The monolithic baseline's configuration.
pub fn monolithic_config(scale: Scale) -> MonolithicConfig {
    match scale {
        Scale::Fast => MonolithicConfig {
            learning: LearningConfig {
                samples: 200,
                batch: 25,
                epochs: 50,
                lr: 0.08,
                confidence: 0.95,
                patience: 10,
            },
            input_scale: 3.0,
        },
        Scale::Paper => MonolithicConfig::default(),
    }
}

/// Runs the §4.3 monolithic learning-based attack and fills its row.
pub fn run_monolithic(p: &Prepared, scale: Scale, seed: u64) -> AttackRow {
    let oracle = CountingOracle::new(&p.model);
    let mut rng = Prng::seed_from_u64(seed);
    let report =
        MonolithicAttack::new(monolithic_config(scale)).run(p.model.white_box(), &oracle, &mut rng);
    AttackRow {
        accuracy: p
            .model
            .accuracy_with(p.data.test.inputs(), p.data.test.labels(), &report.key),
        fidelity: report.key.fidelity(p.model.true_key()),
        time_s: report.elapsed.as_secs_f64(),
        queries: report.queries,
        cache_hit_rate: report.stats.cache_hit_rate(),
    }
}

/// Runs the full DNN decryption attack (Algorithm 2) and fills its row,
/// also returning the Figure 3 timing breakdown and the broker's query
/// accounting (underlying queries, cache effectiveness, batch shapes).
pub fn run_decryption(
    p: &Prepared,
    arch: Arch,
    scale: Scale,
    seed: u64,
) -> (AttackRow, TimingBreakdown, QueryStatsSnapshot) {
    let oracle = CountingOracle::new(&p.model);
    let mut rng = Prng::seed_from_u64(seed);
    let cfg = attack_config(arch, scale);
    let broker = Broker::with_config(
        &oracle,
        BrokerConfig {
            max_queries: cfg.query_budget,
            ..BrokerConfig::default()
        },
    );
    let start = Instant::now();
    let report = Decryptor::new(cfg)
        .run_brokered(p.model.white_box(), &broker, &mut rng)
        .expect("continue_on_failure keeps the run alive");
    let elapsed = start.elapsed().as_secs_f64();
    (
        AttackRow {
            accuracy: p.model.accuracy_with(
                p.data.test.inputs(),
                p.data.test.labels(),
                &report.key,
            ),
            fidelity: report.fidelity(p.model.true_key()),
            time_s: elapsed,
            queries: report.queries,
            cache_hit_rate: report.stats.cache_hit_rate(),
        },
        report.timing,
        report.stats,
    )
}

/// Worker threads of the compute kernels: the machine's available
/// parallelism ([`relock_tensor::compute::max_threads`]). `report` records
/// it in the `threads` field of `BENCH.json` so perf numbers carry their
/// machine context.
pub fn bench_threads() -> usize {
    relock_tensor::compute::max_threads()
}

/// Env-driven architecture filter (`RELOCK_ARCHS=mlp,resnet`).
pub fn arch_filter() -> Vec<Arch> {
    match std::env::var("RELOCK_ARCHS") {
        Ok(s) => {
            let wanted: Vec<String> = s.split(',').map(|w| w.trim().to_lowercase()).collect();
            Arch::ALL
                .into_iter()
                .filter(|a| {
                    wanted
                        .iter()
                        .any(|w| a.name().to_lowercase().starts_with(w.as_str()))
                })
                .collect()
        }
        Err(_) => Arch::ALL.to_vec(),
    }
}

/// Env-driven key-size filter (`RELOCK_KEYS=small,large` picks the 1st and
/// 3rd of each architecture's sizes).
pub fn key_filter() -> Vec<usize> {
    match std::env::var("RELOCK_KEYS") {
        Ok(s) => s
            .split(',')
            .filter_map(|w| match w.trim() {
                "small" => Some(0),
                "medium" => Some(1),
                "large" => Some(2),
                _ => None,
            })
            .collect(),
        Err(_) => vec![0, 1, 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sizes_fit_their_architectures() {
        for scale in [Scale::Fast, Scale::Paper] {
            for arch in Arch::ALL {
                for &bits in &key_sizes(arch, scale) {
                    assert!(bits > 0);
                }
            }
        }
    }

    #[test]
    fn prepare_trains_a_usable_mlp_victim() {
        // The largest fast-scale key: a wrong key must hurt noticeably
        // (with few bits the baseline stays high — the paper observes the
        // same under-locking effect on its large models).
        let p = prepare(Arch::Mlp, 32, Scale::Fast, 1);
        assert!(
            p.original_accuracy > 0.85,
            "victim accuracy {}",
            p.original_accuracy
        );
        let mut rng = Prng::seed_from_u64(2);
        let baseline = baseline_accuracy(&p, 4, &mut rng);
        assert!(
            baseline < p.original_accuracy - 0.15,
            "baseline {baseline} vs original {}",
            p.original_accuracy
        );
    }

    #[test]
    fn arch_names_match_the_paper() {
        assert_eq!(Arch::Vit.name(), "V-Transformer");
        assert_eq!(Arch::Mlp.dataset_name(), "MNIST-like");
        assert_eq!(Arch::Resnet.dataset_name(), "CIFAR-like");
    }
}

/// One fully-populated row of Table 1 plus its Figure 3 breakdown.
#[derive(Debug)]
pub struct Table1Row {
    /// Architecture.
    pub arch: Arch,
    /// Key size in bits.
    pub key_bits: usize,
    /// Test accuracy under the true key.
    pub original: f64,
    /// Mean test accuracy over 16 random incorrect keys.
    pub baseline: f64,
    /// The §4.3 monolithic learning-based attack (if run).
    pub monolithic: Option<AttackRow>,
    /// The DNN decryption attack (Algorithm 2).
    pub decryption: AttackRow,
    /// Figure 3 per-procedure timing of the decryption attack.
    pub timing: TimingBreakdown,
    /// Query-broker accounting of the decryption attack (underlying
    /// queries, cache hits, batch-size histogram, oracle latency).
    pub stats: QueryStatsSnapshot,
}

/// Runs the experiment grid, honouring the `RELOCK_ARCHS` / `RELOCK_KEYS`
/// filters. Progress goes to stderr.
pub fn run_grid(scale: Scale, with_monolithic: bool) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let keys_wanted = key_filter();
    for arch in arch_filter() {
        let sizes = key_sizes(arch, scale);
        for (ki, &bits) in sizes.iter().enumerate() {
            if !keys_wanted.contains(&ki) {
                continue;
            }
            let seed = 1000 + 17 * ki as u64 + 1301 * arch as u64;
            eprintln!("[grid] {} {bits}-bit: training victim…", arch.name());
            let p = prepare(arch, bits, scale, seed);
            let mut rng = Prng::seed_from_u64(seed + 1);
            let baseline = baseline_accuracy(&p, 16, &mut rng);
            let monolithic = if with_monolithic {
                eprintln!(
                    "[grid] {} {bits}-bit: monolithic learning attack…",
                    arch.name()
                );
                Some(run_monolithic(&p, scale, seed + 2))
            } else {
                None
            };
            eprintln!("[grid] {} {bits}-bit: DNN decryption attack…", arch.name());
            let (decryption, timing, stats) = run_decryption(&p, arch, scale, seed + 3);
            eprintln!(
                "[grid] {} {bits}-bit done: fidelity {:.3} in {:.1}s / {} underlying queries ({:.1}% cache hits)",
                arch.name(),
                decryption.fidelity,
                decryption.time_s,
                decryption.queries,
                100.0 * decryption.cache_hit_rate,
            );
            rows.push(Table1Row {
                arch,
                key_bits: bits,
                original: p.original_accuracy,
                baseline,
                monolithic,
                decryption,
                timing,
                stats,
            });
        }
    }
    rows
}

/// Prints the paper-style Table 1.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table 1: Experiment results of attacks against logic locking on DNNs.");
    println!("(synthetic stand-in datasets; scaled victims — see DESIGN.md §2)\n");
    println!(
        "{:<22}{:>6} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} {:>9}",
        "DNN (Dataset)",
        "Key",
        "Orig",
        "Base",
        "Mono Acc",
        "Mono Fid",
        "Mono t(s)",
        "Mono #Q",
        "Dec Acc",
        "Dec Fid",
        "Dec t(s)",
        "Dec #Q",
        "Dec Hit%"
    );
    for r in rows {
        let label = format!("{} ({})", r.arch.name(), r.arch.dataset_name());
        let (ma, mf, mt, mq) = match &r.monolithic {
            Some(m) => (
                format!("{:.1}%", 100.0 * m.accuracy),
                format!("{:.1}%", 100.0 * m.fidelity),
                format!("{:.2}", m.time_s),
                format!("{}", m.queries),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<22}{:>6} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} {:>9}",
            label,
            r.key_bits,
            format!("{:.1}%", 100.0 * r.original),
            format!("{:.1}%", 100.0 * r.baseline),
            ma,
            mf,
            mt,
            mq,
            format!("{:.1}%", 100.0 * r.decryption.accuracy),
            format!("{:.1}%", 100.0 * r.decryption.fidelity),
            format!("{:.2}", r.decryption.time_s),
            format!("{}", r.decryption.queries),
            format!("{:.1}%", 100.0 * r.decryption.cache_hit_rate),
        );
    }
}

/// Prints the broker's serving metrics for each decryption run — the
/// observability companion to Table 1's `#Q` column (cache hits are free;
/// `#Q` counts underlying oracle rows only).
pub fn print_broker_stats(rows: &[Table1Row]) {
    println!("Query-broker accounting (relock-serve) per decryption run.\n");
    for r in rows {
        println!("{} {}-bit:", r.arch.name(), r.key_bits);
        print!("{}", r.stats);
        println!();
    }
}

/// Prints the paper-style Figure 3 (per-procedure time breakdown).
pub fn print_fig3(rows: &[Table1Row]) {
    use relock_attack::Procedure;
    println!("Figure 3: Breakdown of execution time among procedures.\n");
    println!(
        "{:<22}{:>6} {:>22} {:>18} {:>24} {:>18}",
        "DNN",
        "Key",
        "key_bit_inference",
        "learning_attack",
        "key_vector_validation",
        "error_correction"
    );
    for r in rows {
        println!(
            "{:<22}{:>6} {:>21.1}% {:>17.1}% {:>23.1}% {:>17.1}%",
            r.arch.name(),
            r.key_bits,
            100.0 * r.timing.fraction(Procedure::KeyBitInference),
            100.0 * r.timing.fraction(Procedure::LearningAttack),
            100.0 * r.timing.fraction(Procedure::KeyVectorValidation),
            100.0 * r.timing.fraction(Procedure::ErrorCorrection),
        );
    }
}

/// Writes Table 1 rows as CSV (one line per row, stable column order) —
/// the machine-readable artifact next to the pretty printer.
pub fn table1_csv(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "arch,dataset,key_bits,original_acc,baseline_acc,mono_acc,mono_fidelity,mono_time_s,mono_queries,dec_acc,dec_fidelity,dec_time_s,dec_queries,dec_cache_hit_rate\n",
    );
    for r in rows {
        let (ma, mf, mt, mq) = match &r.monolithic {
            Some(m) => (
                format!("{:.4}", m.accuracy),
                format!("{:.4}", m.fidelity),
                format!("{:.3}", m.time_s),
                m.queries.to_string(),
            ),
            None => (String::new(), String::new(), String::new(), String::new()),
        };
        writeln!(
            out,
            "{},{},{},{:.4},{:.4},{},{},{},{},{:.4},{:.4},{:.3},{},{:.4}",
            r.arch.name(),
            r.arch.dataset_name(),
            r.key_bits,
            r.original,
            r.baseline,
            ma,
            mf,
            mt,
            mq,
            r.decryption.accuracy,
            r.decryption.fidelity,
            r.decryption.time_s,
            r.decryption.queries,
            r.decryption.cache_hit_rate
        )
        .expect("string write");
    }
    out
}

/// Writes Figure 3 fractions as CSV.
pub fn fig3_csv(rows: &[Table1Row]) -> String {
    use relock_attack::Procedure;
    use std::fmt::Write as _;
    let mut out = String::from(
        "arch,key_bits,key_bit_inference,learning_attack,key_vector_validation,error_correction\n",
    );
    for r in rows {
        writeln!(
            out,
            "{},{},{:.4},{:.4},{:.4},{:.4}",
            r.arch.name(),
            r.key_bits,
            r.timing.fraction(Procedure::KeyBitInference),
            r.timing.fraction(Procedure::LearningAttack),
            r.timing.fraction(Procedure::KeyVectorValidation),
            r.timing.fraction(Procedure::ErrorCorrection),
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use relock_attack::TimingBreakdown;

    fn row() -> Table1Row {
        Table1Row {
            arch: Arch::Mlp,
            key_bits: 8,
            original: 0.95,
            baseline: 0.3,
            monolithic: Some(AttackRow {
                accuracy: 0.94,
                fidelity: 1.0,
                time_s: 1.5,
                queries: 200,
                cache_hit_rate: 0.0,
            }),
            decryption: AttackRow {
                accuracy: 0.95,
                fidelity: 1.0,
                time_s: 0.2,
                queries: 260,
                cache_hit_rate: 0.25,
            },
            timing: TimingBreakdown::new(),
            stats: QueryStatsSnapshot::default(),
        }
    }

    #[test]
    fn table1_csv_has_header_and_rows() {
        let csv = table1_csv(&[row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("arch,dataset,key_bits"));
        assert!(lines[1].starts_with("MLP,MNIST-like,8,0.9500,0.3000"));
    }

    #[test]
    fn fig3_csv_fractions_are_finite() {
        let csv = fig3_csv(&[row()]);
        let data_line = csv.lines().nth(1).expect("data row");
        for field in data_line.split(',').skip(2) {
            let v: f64 = field.parse().expect("numeric fraction");
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn missing_monolithic_leaves_fields_empty() {
        let mut r = row();
        r.monolithic = None;
        let csv = table1_csv(&[r]);
        assert!(csv.lines().nth(1).expect("row").contains(",,,,"));
    }
}
