//! Kill-and-resume soak bench: runs the decryption attack under a
//! crash-only chaos schedule, resuming from checkpoints until it
//! completes, and verifies the recovered key is bit-identical to an
//! uninterrupted run. Exits non-zero on any divergence — CI runs this as
//! the `chaos-soak` job with fixed seeds, fully offline.
//!
//! ```text
//! soak [mlp|lenet|resnet|vit] [key_bits] [prep_seed] [attack_seed] [kills]
//! ```

use relock_attack::{AttackState, DecryptionReport, Decryptor, MemoryCheckpointSink};
use relock_bench::{attack_config, prepare, Arch, Scale};
use relock_locking::CountingOracle;
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle};
use relock_tensor::rng::Prng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let arch = match std::env::args().nth(1).as_deref() {
        Some("lenet") => Arch::Lenet,
        Some("resnet") => Arch::Resnet,
        Some("vit") => Arch::Vit,
        _ => Arch::Mlp,
    };
    let bits: usize = arg_or(2, 16);
    let prep_seed: u64 = arg_or(3, 42);
    let attack_seed: u64 = arg_or(4, 43);
    let kills: u64 = arg_or(5, 3);

    let scale = Scale::from_env();
    let p = prepare(arch, bits, scale, prep_seed);
    let cfg = attack_config(arch, scale);
    let decryptor = Decryptor::new(cfg);
    let g = p.model.white_box();

    // Uninterrupted reference.
    let clean_oracle = CountingOracle::new(&p.model);
    let broker = Broker::with_config(&clean_oracle, BrokerConfig::default());
    let t0 = Instant::now();
    let reference = decryptor
        .run_brokered(g, &broker, &mut Prng::seed_from_u64(attack_seed))
        .expect("reference run");
    println!(
        "{}-{bits}: reference fidelity={:.3} rows={} in {:.1}s",
        arch.name(),
        reference.fidelity(p.model.true_key()),
        reference.queries,
        t0.elapsed().as_secs_f64()
    );

    // Crash points spread over the reference traffic.
    let crash_at: Vec<u64> = (1..=kills)
        .map(|k| reference.queries * k / (kills + 1))
        .collect();
    println!("scheduled kills at cumulative rows {crash_at:?}");
    let chaos = ChaosOracle::new(
        CountingOracle::new(&p.model),
        ChaosConfig::crash_only(prep_seed, crash_at),
    );
    let sink = MemoryCheckpointSink::new();
    let t1 = Instant::now();
    // The scheduled panics are the point of the exercise — keep them quiet.
    std::panic::set_hook(Box::new(|_| {}));
    let soaked: DecryptionReport = loop {
        let broker = Broker::with_config(&chaos, BrokerConfig::default());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(attack_seed);
            decryptor.resume(g, &broker, &mut rng, &sink)
        }));
        match attempt {
            Ok(Ok((report, _status))) => break report,
            Ok(Err(e)) => {
                eprintln!("FAIL: attack error during soak: {e}");
                return ExitCode::FAILURE;
            }
            Err(payload) => match payload.downcast::<ChaosCrash>() {
                Ok(crash) => {
                    let phase = sink
                        .contents()
                        .and_then(|b| AttackState::decode(&b).ok())
                        .map(|st| format!("layer {} / {}", st.layer_index, st.phase_name()))
                        .unwrap_or_else(|| "no checkpoint yet".to_string());
                    println!("killed at {} rows; checkpoint: {phase}", crash.at_rows);
                }
                Err(_) => {
                    eprintln!("FAIL: non-chaos panic during soak");
                    return ExitCode::FAILURE;
                }
            },
        }
    };
    let _ = std::panic::take_hook();
    println!(
        "soaked run: {} kills survived, fidelity={:.3} rows={} in {:.1}s",
        chaos.counters().crashes,
        soaked.fidelity(p.model.true_key()),
        soaked.queries,
        t1.elapsed().as_secs_f64()
    );

    if soaked.key != reference.key {
        eprintln!(
            "FAIL: resumed key diverged\n  reference {}\n  soaked    {}",
            reference.key, soaked.key
        );
        return ExitCode::FAILURE;
    }
    if chaos.counters().crashes == 0 {
        eprintln!("FAIL: no scheduled kill fired — soak proved nothing");
        return ExitCode::FAILURE;
    }
    println!("OK: bit-identical key after kill-and-resume");
    ExitCode::SUCCESS
}

fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
