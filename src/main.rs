//! `relock` — command-line front end for the workspace.
//!
//! ```text
//! relock lock    --arch mlp --bits 16 --out victim.rlk [--seed N] [--no-train]
//!                [--variant sign|scale:<f>|sar|antisat] [--precision f64|f32]
//! relock inspect victim.rlk
//! relock attack  victim.rlk [--monolithic] [--seed N] [--fast] [--budget N]
//!                [--threads N] [--workers N] [--adaptive]
//!                [--trace events.jsonl] [--stats-json stats.json]
//!                [--variant sign|scale:<f>|sar|antisat] [--precision f64|f32]
//!                [--checkpoint state.rlcp [--checkpoint-every N] [--resume]]
//! relock serve   [--listen tcp:127.0.0.1:7433] [--workers N] [--cache-mb N]
//!                [--max-campaigns N]
//! relock submit  victim.rlk [--listen A] [--tenant T] [--seed N] [--weight N]
//!                [--budget N] [--threads N] [--full] [--monolithic] [--adaptive]
//!                [--variant sign|scale:<f>|sar|antisat]
//! relock status  [id] [--listen A]
//! relock pause   <id> [--listen A]     relock resume <id> [--listen A]
//! relock cancel  <id> [--listen A]     relock shutdown [--listen A]
//! ```
//!
//! `lock` plays the IP owner: builds one of the four §4.2 victims, embeds
//! a random key, (optionally) trains the network as a function of that
//! key, and writes the model file. `attack` plays the adversary: it reads
//! the model file, treats the embedded key purely as the *hardware oracle*
//! (never looking at it except to score fidelity at the end), and runs the
//! DNN decryption attack or the monolithic baseline.
//!
//! `--variant` picks the locking scheme on both sides: `sign` (the paper's
//! multiplicative ±1 lock, default), `scale:<f>` (keyed scaling), and the
//! trigger schemes `sar`/`antisat` (SARLock/Anti-SAT analogues, wired for
//! the mlp and lenet victims). Trigger locks corrupt only a tiny input
//! subspace, so `attack` dispatches them to the sampling attack — a batch
//! of random probes plus a greedy bit-flip climb — instead of the per-site
//! decryption pipeline; see DESIGN.md §3h for why that sampling degrades.
//!
//! `attack --workers N` shards the per-site and per-candidate phases
//! across N local worker *processes* under the supervised coordinator of
//! `relock-dist` (DESIGN.md §4b): heartbeat-monitored workers are
//! respawned with seeded backoff when they die, and the result is
//! bit-identical to the single-process run. The coordinator respawns the
//! CLI itself with the hidden `dist-worker <socket>` subcommand.
//!
//! `serve` starts the resident campaign daemon; `submit`/`status`/`pause`/
//! `resume`/`cancel` speak its wire protocol (DESIGN.md §4). The daemon
//! hosts many concurrent campaigns over one shared query cache with
//! fair-share scheduling across tenants.
//!
//! The gemm kernels follow the CPU: the AVX-512 backend where the CPU has
//! it, the scalar reference elsewhere, bit-identical either way (DESIGN.md
//! §3g). `--precision f32` opts the *training* matrix products into single
//! precision — the monolithic attack's learning loop and `lock`'s trainer;
//! the decryption attack's algebraic core always runs f64.

use relock::prelude::*;
use relock_attack::LearningConfig;
use relock_campaign::{CampaignHub, Client, Request, ServerHandle};
use relock_trace::json::Value;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

/// Default daemon address shared by `serve` and every client subcommand.
const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:7433";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  relock lock    --arch <mlp|lenet|resnet|vit> --bits <n> --out <file> [--seed <n>] [--no-train]\n                 [--variant <sign|scale:<f>|sar|antisat>] [--precision <f64|f32>]\n  relock inspect <file>\n  relock attack  <file> [--monolithic] [--seed <n>] [--fast] [--budget <n>] [--threads <n>]\n                 [--workers <n>] [--adaptive] [--trace <file>] [--stats-json <file>]\n                 [--variant <sign|scale:<f>|sar|antisat>] [--precision <f64|f32>]\n                 [--checkpoint <file> [--checkpoint-every <rows>] [--resume]]\n  relock serve   [--listen <addr>] [--workers <n>] [--cache-mb <n>] [--max-campaigns <n>]\n  relock submit  <file> [--listen <addr>] [--tenant <name>] [--seed <n>] [--weight <n>]\n                 [--budget <n>] [--threads <n>] [--full] [--monolithic] [--adaptive]\n                 [--variant <sign|scale:<f>|sar|antisat>]\n  relock status  [id] [--listen <addr>]\n  relock pause   <id> [--listen <addr>]\n  relock resume  <id> [--listen <addr>]\n  relock cancel  <id> [--listen <addr>]\n  relock shutdown [--listen <addr>]\n\n  <addr> is tcp:HOST:PORT or a unix socket path (default {DEFAULT_LISTEN})\n  attack --workers <n> runs the sharded phases across <n> supervised worker processes\n  attack --adaptive tunes wave width and dispatch sharding online (bit-identical; DESIGN.md \u{a7}3i)\n  attack --stats-json <file> writes the final QueryStatsSnapshot for `report --analyze`\n  trigger variants (sar/antisat) run the sampling attack: no --workers/--checkpoint"
    );
    ExitCode::from(2)
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flag(name).and_then(|v| v.as_deref())
    }

    fn u64_value(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("--{name} expects a number")),
        }
    }
}

/// Parses `--variant <sign|scale:<factor>|sar|antisat>` (default sign).
fn variant_flag(args: &Args) -> Result<LockVariant, String> {
    match args.flag("variant") {
        None => Ok(LockVariant::Sign),
        Some(v) => {
            let name = v
                .as_deref()
                .ok_or("--variant expects sign, scale:<factor>, sar or antisat")?;
            name.parse::<LockVariant>()
                .map_err(|e| format!("--variant: {e}"))
        }
    }
}

/// Parses `--precision <f64|f32>` (default f64).
fn precision_flag(args: &Args) -> Result<relock_tensor::Precision, String> {
    match args.flag("precision") {
        None => Ok(relock_tensor::Precision::F64),
        Some(v) => {
            let name = v.as_deref().ok_or("--precision expects f64 or f32")?;
            relock_tensor::Precision::parse(name)
                .ok_or_else(|| format!("--precision: unknown precision '{name}' (f64|f32)"))
        }
    }
}

fn build_victim(
    arch: &str,
    bits: usize,
    variant: LockVariant,
    rng: &mut Prng,
) -> Result<(LockedModel, Dataset), String> {
    if variant.is_trigger() && !matches!(arch, "mlp" | "lenet") {
        return Err(format!(
            "trigger variants (sar/antisat) are wired for mlp and lenet, not '{arch}'"
        ));
    }
    let out = match arch {
        "mlp" => {
            let data = mnist_like(rng, 600, 200, 48);
            let m = build_mlp(
                &MlpSpec {
                    input: 48,
                    hidden: vec![32, 16],
                    classes: 10,
                },
                LockSpec::with_variant(bits, variant),
                rng,
            )
            .map_err(|e| e.to_string())?;
            (m, data)
        }
        "lenet" => {
            let data = cifar_like(rng, 400, 150, 1, 12, 12);
            let m = build_lenet(
                &LenetSpec {
                    in_channels: 1,
                    h: 12,
                    w: 12,
                    c1: 6,
                    c2: 10,
                    fc1: 24,
                    fc2: 16,
                    classes: 10,
                },
                LockSpec::with_variant(bits, variant),
                rng,
            )
            .map_err(|e| e.to_string())?;
            (m, data)
        }
        "resnet" => {
            let data = cifar_like(rng, 350, 120, 3, 12, 12);
            let m = build_resnet(
                &ResnetSpec {
                    in_channels: 3,
                    h: 12,
                    w: 12,
                    stem: 8,
                    stages: vec![
                        relock::nn::StageSpec {
                            channels: 8,
                            blocks: 1,
                            stride: 1,
                        },
                        relock::nn::StageSpec {
                            channels: 16,
                            blocks: 1,
                            stride: 2,
                        },
                    ],
                    classes: 10,
                },
                LockSpec::with_variant(bits, variant),
                rng,
            )
            .map_err(|e| e.to_string())?;
            (m, data)
        }
        "vit" => {
            let data = cifar_like(rng, 400, 150, 3, 8, 8);
            let m = build_vit(
                &VitSpec {
                    in_channels: 3,
                    h: 8,
                    w: 8,
                    patch: 4,
                    embed: 16,
                    heads: 2,
                    blocks: 2,
                    mlp_hidden: 32,
                    classes: 10,
                },
                LockSpec::with_variant(bits, variant),
                rng,
            )
            .map_err(|e| e.to_string())?;
            (m, data)
        }
        other => return Err(format!("unknown architecture '{other}'")),
    };
    Ok(out)
}

fn cmd_lock(args: &Args) -> Result<(), String> {
    let arch = args.value("arch").ok_or("--arch is required")?.to_string();
    let bits = args.u64_value("bits", 16)? as usize;
    let out_path = args.value("out").ok_or("--out is required")?.to_string();
    let seed = args.u64_value("seed", 42)?;
    let variant = variant_flag(args)?;
    let mut rng = Prng::seed_from_u64(seed);
    let (mut model, data) = build_victim(&arch, bits, variant, &mut rng)?;
    if args.flag("no-train").is_none() {
        let trainer = Trainer {
            precision: precision_flag(args)?,
            ..Trainer::default()
        };
        let summary = trainer.fit(&mut model, &data, &mut rng);
        println!(
            "trained {arch} ({bits}-bit key): test accuracy {:.1}%",
            100.0 * summary.final_test_accuracy
        );
    } else {
        println!("built untrained {arch} ({bits}-bit key)");
    }
    let file = File::create(&out_path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    model.save(&mut w).map_err(|e| e.to_string())?;
    println!("wrote {out_path}");
    Ok(())
}

fn load_model(path: &str) -> Result<LockedModel, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = BufReader::new(file);
    LockedModel::load(&mut r).map_err(|e| e.to_string())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("inspect needs a model file")?;
    let model = load_model(path)?;
    let g = model.white_box();
    println!("model: {path}");
    println!("  input  : {} features", g.input_size());
    println!("  output : {} logits", g.output_size());
    println!("  nodes  : {}", g.nodes().len());
    println!("  params : {}", g.param_count());
    println!("  key    : {} bits", g.key_slot_count());
    let sites = g.lock_sites();
    let mut by_node: Vec<(NodeId, usize)> = Vec::new();
    for s in &sites {
        match by_node.last_mut() {
            Some((n, c)) if *n == s.keyed_node => *c += 1,
            _ => by_node.push((s.keyed_node, 1)),
        }
    }
    for (node, count) in by_node {
        println!(
            "  layer {node}: {count} protected unit(s), layout {:?}",
            sites
                .iter()
                .find(|s| s.keyed_node == node)
                .map(|s| (s.layout.n_units, s.layout.unit_len))
                .unwrap_or((0, 0))
        );
    }
    let wl = g.weight_lock_slots();
    if !wl.is_empty() {
        println!("  weight-element locks: {}", wl.len());
    }
    Ok(())
}

/// Wraps the attack with the flight recorder when `--trace <file>` is
/// given: every structured event of the run (layer/wave/worker spans,
/// broker per-scope counters, gemm and checkpoint counters) drains to the
/// file as JSONL, even when the attack itself fails.
fn cmd_attack(args: &Args) -> Result<(), String> {
    let trace_path = match args.flag("trace") {
        None => None,
        Some(Some(path)) => Some(path.clone()),
        Some(None) => return Err("--trace expects a file path".into()),
    };
    let Some(trace_path) = trace_path else {
        return run_attack(args);
    };
    let flight = std::sync::Arc::new(relock_trace::FlightRecorder::new());
    let result = relock_trace::with_recorder(flight.clone(), || run_attack(args));
    flight
        .write_jsonl(std::path::Path::new(&trace_path))
        .map_err(|e| format!("{trace_path}: {e}"))?;
    println!("wrote {} trace events to {trace_path}", flight.len());
    result
}

/// `--stats-json <file>`: persists the run's final [`QueryStatsSnapshot`]
/// as pretty JSON, the accounting sidecar `report --analyze` reconciles a
/// `--trace` capture against.
///
/// [`QueryStatsSnapshot`]: relock_attack::QueryStatsSnapshot
fn write_stats_json(path: &str, snap: &relock_attack::QueryStatsSnapshot) -> Result<(), String> {
    let text = snap.to_json_value().to_pretty() + "\n";
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote query accounting to {path}");
    Ok(())
}

fn run_attack(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("attack needs a model file")?;
    let seed = args.u64_value("seed", 7)?;
    let workers = args.u64_value("workers", 1)? as usize;
    if workers == 0 {
        return Err("--workers expects a count >= 1".into());
    }
    let stats_json = match args.flag("stats-json") {
        None => None,
        Some(Some(p)) => Some(p.clone()),
        Some(None) => return Err("--stats-json expects a file path".into()),
    };
    let model = load_model(path)?;
    let oracle = CountingOracle::new(&model);
    let mut rng = Prng::seed_from_u64(seed);
    let precision = precision_flag(args)?;
    if args.flag("monolithic").is_some() {
        if workers > 1 {
            return Err("--workers applies to the decryption attack, not --monolithic".into());
        }
        let report = MonolithicAttack::new(MonolithicConfig {
            learning: LearningConfig {
                samples: 300,
                precision,
                ..LearningConfig::default()
            },
            input_scale: 3.0,
        })
        .run(model.white_box(), &oracle, &mut rng);
        println!("monolithic learning attack:");
        println!("  extracted key: {}", report.key);
        println!(
            "  fidelity {:.1}%   queries {}   time {:.2}s",
            100.0 * report.key.fidelity(model.true_key()),
            report.queries,
            report.elapsed.as_secs_f64()
        );
        if let Some(p) = &stats_json {
            write_stats_json(p, &report.stats)?;
        }
        return Ok(());
    }
    let mut cfg = if args.flag("fast").is_some() {
        AttackConfig::fast()
    } else {
        AttackConfig::default()
    };
    cfg.continue_on_failure = true;
    // Only the learning sub-procedure honours the precision; the algebraic
    // core of the decryption attack always runs f64.
    cfg.learning.precision = precision;
    cfg.variant = variant_flag(args)?;
    cfg.adaptive = args.flag("adaptive").is_some();
    let threads = args.u64_value("threads", cfg.threads as u64)? as usize;
    if threads == 0 {
        return Err("--threads expects a count >= 1".into());
    }
    cfg.threads = threads;
    cfg.query_budget = match args.value("budget") {
        Some(s) => Some(s.parse().map_err(|_| "--budget expects a number")?),
        None => match args.flag("budget") {
            Some(_) => return Err("--budget expects a number".into()),
            None => None,
        },
    };
    let checkpoint = args.value("checkpoint").map(str::to_string);
    if checkpoint.is_none() {
        if args.flag("checkpoint").is_some() {
            return Err("--checkpoint expects a file path".into());
        }
        if args.flag("resume").is_some() || args.flag("checkpoint-every").is_some() {
            return Err("--resume/--checkpoint-every require --checkpoint <file>".into());
        }
    }
    let every = args.u64_value("checkpoint-every", 0)?;

    // Trigger locks (sar/antisat) defeat the per-site algebraic localisation
    // the decryption attack is built on, so they dispatch to the sampling
    // attack: one batch of random oracle probes and a greedy bit-flip climb
    // on output agreement. It runs as a single in-process segment.
    if cfg.variant.is_trigger() {
        if workers > 1 {
            return Err("--workers is not supported for trigger variants (sar/antisat)".into());
        }
        if checkpoint.is_some() {
            return Err("--checkpoint is not supported for trigger variants (sar/antisat)".into());
        }
        let broker = Broker::with_config(
            &oracle,
            BrokerConfig {
                max_queries: cfg.query_budget,
                ..BrokerConfig::default()
            },
        );
        let start = std::time::Instant::now();
        let report = sampling_key_search(
            model.white_box(),
            &broker,
            &SamplingConfig::from_attack(&cfg),
            &mut rng,
        );
        println!("sampling key search ({} lock):", cfg.variant);
        println!("  extracted key: {}", report.key);
        println!(
            "  fidelity {:.1}%   agreement {:.1}%   queries {}   time {:.2}s",
            100.0 * report.key.fidelity(model.true_key()),
            100.0 * report.agreement,
            report.queries,
            start.elapsed().as_secs_f64()
        );
        print!("{}", broker.stats().snapshot());
        if let Some(p) = &stats_json {
            write_stats_json(p, &broker.stats().snapshot())?;
        }
        return Ok(());
    }

    // With `--workers N` (N > 1) the sharded phases run across supervised
    // worker processes: the coordinator re-invokes this binary with the
    // hidden `dist-worker` subcommand and proxies all oracle traffic, so
    // the result is bit-identical to the single-process run.
    let coordinator = if workers > 1 {
        let program = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let absolute = std::fs::canonicalize(path).map_err(|e| format!("{path}: {e}"))?;
        let mut opts = relock_dist::DistOptions::new(program);
        opts.workers = workers;
        opts.worker_args = vec!["dist-worker".to_string()];
        Some(relock_dist::DistCoordinator::new(absolute, opts).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let start = std::time::Instant::now();
    let decryptor = Decryptor::new(cfg);
    let broker = Broker::with_config(
        &oracle,
        BrokerConfig {
            max_queries: decryptor.config().query_budget,
            ..BrokerConfig::default()
        },
    );
    let report = match &checkpoint {
        None => match &coordinator {
            None => decryptor
                .run_brokered(model.white_box(), &broker, &mut rng)
                .map_err(|e| e.to_string())?,
            Some(coord) => decryptor
                .run_brokered_with(model.white_box(), &broker, &mut rng, coord)
                .map_err(|e| e.to_string())?,
        },
        Some(path) => {
            let sink = FileCheckpointSink::new(path);
            let policy = CheckpointPolicy::every_queries(every);
            if args.flag("resume").is_some() {
                let (report, status) = match &coordinator {
                    None => decryptor
                        .resume(model.white_box(), &broker, &mut rng, &sink, policy)
                        .map_err(|e| e.to_string())?,
                    Some(coord) => decryptor
                        .resume_with(model.white_box(), &broker, &mut rng, &sink, policy, coord)
                        .map_err(|e| e.to_string())?,
                };
                match &status {
                    ResumeStatus::Fresh => println!("no checkpoint at {path}; starting fresh"),
                    ResumeStatus::FellBack { reason } => {
                        println!("checkpoint unusable ({reason}); starting fresh");
                    }
                    ResumeStatus::Resumed { layer, phase } => {
                        println!("resumed from {path} at layer {layer} ({phase})");
                    }
                }
                report
            } else {
                match &coordinator {
                    None => decryptor
                        .run_with_checkpoints(model.white_box(), &broker, &mut rng, &sink, policy)
                        .map_err(|e| e.to_string())?,
                    Some(coord) => decryptor
                        .run_checkpointed_with(
                            model.white_box(),
                            &broker,
                            &mut rng,
                            &sink,
                            policy,
                            coord,
                        )
                        .map_err(|e| e.to_string())?,
                }
            }
        }
    };
    if let Some(coord) = &coordinator {
        let d = coord.report();
        match &d.fell_back {
            Some(reason) => println!(
                "distributed: {} workers, {} respawns, {} lease expiries — FELL BACK in-process ({reason})",
                d.workers, d.respawns, d.lease_expiries
            ),
            None => println!(
                "distributed: {} workers, {} respawns, {} lease expiries, {} rows proxied",
                d.workers, d.respawns, d.lease_expiries, d.routed_rows
            ),
        }
    }
    println!("DNN decryption attack:");
    println!("  extracted key: {}", report.key);
    println!(
        "  fidelity {:.1}%   queries {}   time {:.2}s   validated {}",
        100.0 * report.fidelity(model.true_key()),
        report.queries,
        start.elapsed().as_secs_f64(),
        report.fully_validated()
    );
    for p in Procedure::ALL {
        println!(
            "  {:<24}{:>8.3}s ({:>5.1}%)",
            p.to_string(),
            report.timing.of(p).as_secs_f64(),
            100.0 * report.timing.fraction(p)
        );
    }
    print!("{}", report.stats);
    if let Some(p) = &stats_json {
        write_stats_json(p, &report.stats)?;
    }
    Ok(())
}

/// Starts the resident campaign daemon and blocks until a client sends
/// `shutdown`.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = args.value("listen").unwrap_or(DEFAULT_LISTEN).to_string();
    let workers = args.u64_value("workers", 4)? as usize;
    let cache_mb = args.u64_value("cache-mb", 64)?;
    let cap = if cache_mb == 0 {
        None
    } else {
        Some((cache_mb as usize) << 20)
    };
    let max_live = args.u64_value("max-campaigns", 64)? as usize;
    let hub = CampaignHub::with_admission_cap(workers, cap, Some(max_live));
    let server = ServerHandle::spawn(hub, &listen).map_err(|e| format!("{listen}: {e}"))?;
    match cap {
        Some(bytes) => println!(
            "campaign daemon on {} ({workers} slots, {} MiB shared cache)",
            server.addr(),
            bytes >> 20
        ),
        None => println!(
            "campaign daemon on {} ({workers} slots, unbounded shared cache)",
            server.addr()
        ),
    }
    server.join();
    println!("campaign daemon stopped");
    Ok(())
}

fn connect(args: &Args) -> Result<Client, String> {
    let addr = args.value("listen").unwrap_or(DEFAULT_LISTEN);
    Client::connect(addr).map_err(|e| format!("{addr}: {e} (is `relock serve` running?)"))
}

fn positional_id(args: &Args, what: &str) -> Result<u64, String> {
    args.positional
        .first()
        .ok_or(format!("{what} needs a campaign id"))?
        .parse()
        .map_err(|_| "campaign ids are numbers".to_string())
}

fn print_campaign(c: &Value) {
    let field_str = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("-").to_string();
    let field_u64 = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
    println!(
        "campaign {} [{}]  tenant {}  queries {}  hits {}  layer {} ({})  segments {}",
        field_u64("id"),
        field_str("state"),
        field_str("tenant"),
        field_u64("queries"),
        field_u64("cache_hits"),
        field_u64("layer"),
        field_str("phase"),
        field_u64("segments"),
    );
    if let Some(key) = c.get("key").and_then(Value::as_str) {
        println!(
            "  key: {key}  validated: {}",
            c.get("validated").and_then(Value::as_bool).unwrap_or(false)
        );
    }
    if let Some(error) = c.get("error").and_then(Value::as_str) {
        println!("  error: {error}");
    }
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("submit needs a model file")?;
    let absolute = std::fs::canonicalize(path).map_err(|e| format!("{path}: {e}"))?;
    let mut client = connect(args)?;
    let response = client.call_ok(&Request::Submit {
        model_path: absolute.display().to_string(),
        tenant: args.value("tenant").unwrap_or("default").to_string(),
        seed: args.u64_value("seed", 7)?,
        weight: args.u64_value("weight", 1)?,
        budget: match args.value("budget") {
            Some(s) => Some(s.parse().map_err(|_| "--budget expects a number")?),
            None => None,
        },
        threads: args.u64_value("threads", 1)?,
        fast: args.flag("full").is_none(),
        monolithic: args.flag("monolithic").is_some(),
        variant: variant_flag(args)?.to_string(),
        adaptive: args.flag("adaptive").is_some(),
        checkpoint: None,
    })?;
    let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
    println!("submitted campaign {id}");
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    match args.positional.first() {
        Some(raw) => {
            let id = raw.parse().map_err(|_| "campaign ids are numbers")?;
            let response = client.call_ok(&Request::Status { id })?;
            let campaign = response
                .get("campaign")
                .ok_or("malformed status response")?;
            print_campaign(campaign);
        }
        None => {
            let response = client.call_ok(&Request::List)?;
            let campaigns = response
                .get("campaigns")
                .and_then(Value::as_arr)
                .ok_or("malformed list response")?;
            if campaigns.is_empty() {
                println!("no campaigns");
            }
            for c in campaigns {
                print_campaign(c);
            }
            let stats = client.call_ok(&Request::Stats)?;
            if let Some(cache) = stats.get("cache") {
                println!(
                    "shared cache: {} rows / {} B resident, {} evicted",
                    cache.get("rows").and_then(Value::as_u64).unwrap_or(0),
                    cache.get("bytes").and_then(Value::as_u64).unwrap_or(0),
                    cache.get("evicted").and_then(Value::as_u64).unwrap_or(0),
                );
            }
        }
    }
    Ok(())
}

fn cmd_lifecycle(args: &Args, verb: &str) -> Result<(), String> {
    let id = positional_id(args, verb)?;
    let request = match verb {
        "pause" => Request::Pause { id },
        "resume" => Request::Resume { id },
        _ => Request::Cancel { id },
    };
    connect(args)?.call_ok(&request)?;
    println!("{verb} acknowledged for campaign {id}");
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), String> {
    connect(args)?.call_ok(&Request::Shutdown)?;
    println!("daemon shutting down");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    // Hidden: the coordinator of `attack --workers N` respawns this
    // binary as `relock dist-worker <socket>` for each worker process.
    if cmd == "dist-worker" {
        return match raw.get(1) {
            Some(socket) => match relock_dist::worker_main(socket) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("dist-worker: {e}");
                    ExitCode::FAILURE
                }
            },
            None => usage(),
        };
    }
    let args = Args::parse(&raw[1..]);
    let result = match cmd.as_str() {
        "lock" => cmd_lock(&args),
        "inspect" => cmd_inspect(&args),
        "attack" => cmd_attack(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        "pause" | "resume" | "cancel" => cmd_lifecycle(&args, cmd.as_str()),
        "shutdown" => cmd_shutdown(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
