//! `relock` — command-line front end for the workspace.
//!
//! ```text
//! relock lock    --arch mlp --bits 16 --out victim.rlk [--seed N] [--no-train]
//!                [--variant sign|scale:<f>|sar|antisat]
//! relock inspect victim.rlk
//! relock attack  victim.rlk [--monolithic] [--seed N] [--fast] [--budget N]
//!                [--threads N] [--trace events.jsonl] [--stats-json stats.json]
//!                [--variant sign|scale:<f>|sar|antisat]
//!                [--checkpoint state.rlcp [--resume]]
//! relock serve   [--listen tcp:127.0.0.1:7433] [--workers N] [--cache-mb N]
//!                [--max-campaigns N]
//! relock submit  victim.rlk [--listen A] [--tenant T] [--seed N] [--weight N]
//!                [--budget N] [--full] [--monolithic]
//!                [--variant sign|scale:<f>|sar|antisat]
//! relock status  [id] [--listen A]
//! relock pause   <id> [--listen A]     relock resume <id> [--listen A]
//! relock cancel  <id> [--listen A]     relock shutdown [--listen A]
//! ```
//!
//! Each subcommand accepts exactly the flags its usage line lists; any
//! other flag (a typo such as `--seeed`) exits 2 with the usage text
//! instead of silently running on defaults. Every subcommand writes its
//! output through one fallible writer, so a reader that goes away early
//! (`relock inspect victim.rlk | head -1`) ends the run quietly with exit 0.
//! Errors and the usage text go to stderr; a closed stderr loses them but
//! never changes the exit code.
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
//! `attack --threads N` shards the per-site and per-candidate phases
//! across N threads of this process (DESIGN.md §3e); keys, query counts
//! and checkpoint frames are bit-identical at every thread count.
//! `attack --checkpoint <file>` persists the attack's state at every phase
//! cut, and `--resume` continues from the file.
//!
//! `serve` starts the resident campaign daemon; `submit`/`status`/`pause`/
//! `resume`/`cancel` speak its wire protocol (DESIGN.md §4). The daemon
//! hosts many concurrent campaigns over one shared query cache with
//! fair-share scheduling across tenants. `serve --workers N` is its slot
//! count: at most N campaigns compute at once, each on one thread, and a
//! campaign waiting on its oracle holds no slot.
//!
//! Everything computes in f64. The gemm kernels follow the CPU: the
//! AVX-512 backend where the CPU has it, the scalar reference elsewhere,
//! bit-identical either way (DESIGN.md §3g).

use relock::prelude::*;
use relock_campaign::{CampaignHub, Client, Request, ServerHandle};
use relock_trace::json::Value;
use relock_trace::FlightRecorder;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Default daemon address shared by `serve` and every client subcommand.
const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:7433";

/// The usage text. It doubles as the flag whitelist: see [`known_flags`].
fn usage_text() -> String {
    format!(
        "usage:\n  relock lock    --arch <mlp|lenet|resnet|vit> --bits <n> --out <file> [--seed <n>] [--no-train]\n                 [--variant <sign|scale:<f>|sar|antisat>]\n  relock inspect <file>\n  relock attack  <file> [--monolithic] [--seed <n>] [--fast] [--budget <n>] [--threads <n>]\n                 [--trace <file>] [--stats-json <file>]\n                 [--variant <sign|scale:<f>|sar|antisat>]\n                 [--checkpoint <file> [--resume]]\n  relock serve   [--listen <addr>] [--workers <n>] [--cache-mb <n>] [--max-campaigns <n>]\n  relock submit  <file> [--listen <addr>] [--tenant <name>] [--seed <n>] [--weight <n>]\n                 [--budget <n>] [--full] [--monolithic]\n                 [--variant <sign|scale:<f>|sar|antisat>]\n  relock status  [id] [--listen <addr>]\n  relock pause   <id> [--listen <addr>]\n  relock resume  <id> [--listen <addr>]\n  relock cancel  <id> [--listen <addr>]\n  relock shutdown [--listen <addr>]\n\n  <addr> is tcp:HOST:PORT or a unix socket path (default {DEFAULT_LISTEN})\n  attack --stats-json <file> writes the final QueryStatsSnapshot for `report --analyze`\n  trigger variants (sar/antisat) run the sampling attack: no --checkpoint"
    )
}

fn usage() -> ExitCode {
    // Here and below, a closed stderr loses the text, never the exit code.
    let _ = writeln!(std::io::stderr(), "{}", usage_text());
    ExitCode::from(2)
}

/// The flags the usage lines of `relock <cmd>` list, or `None` when `cmd`
/// is not a subcommand. Reading them off the usage text keeps the check
/// and the help from drifting apart; the notes after the blank line are
/// not usage lines.
fn known_flags(cmd: &str) -> Option<Vec<String>> {
    let text = usage_text();
    let mut flags: Option<Vec<String>> = None;
    let mut in_cmd = false;
    for line in text.lines().map(str::trim_start) {
        if line.is_empty() {
            break;
        }
        if let Some(rest) = line.strip_prefix("relock ") {
            in_cmd = rest.split_whitespace().next() == Some(cmd);
        }
        if in_cmd {
            let names = line.split("--").skip(1).map(|t| {
                t.chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '-')
                    .collect::<String>()
            });
            flags.get_or_insert_with(Vec::new).extend(names);
        }
    }
    flags
}

/// Why a subcommand stopped: a message for the user, or a failed write to
/// stdout. Every other I/O error is turned into a message where it
/// happens, so `Stdout` means the output stream itself failed.
enum CliError {
    Msg(String),
    Stdout(std::io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Msg(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Msg(msg.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Stdout(e)
    }
}

/// What a subcommand returns; it writes its output to the `out` it is
/// given.
type CmdResult = Result<(), CliError>;

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

fn cmd_lock(args: &Args, out: &mut dyn Write) -> CmdResult {
    let arch = args.value("arch").ok_or("--arch is required")?.to_string();
    let bits = args.u64_value("bits", 16)? as usize;
    let out_path = args.value("out").ok_or("--out is required")?.to_string();
    let seed = args.u64_value("seed", 42)?;
    let variant = variant_flag(args)?;
    let mut rng = Prng::seed_from_u64(seed);
    let (mut model, data) = build_victim(&arch, bits, variant, &mut rng)?;
    if args.flag("no-train").is_none() {
        let summary = Trainer::default().fit(&mut model, &data, &mut rng);
        writeln!(
            out,
            "trained {arch} ({bits}-bit key): test accuracy {:.1}%",
            100.0 * summary.final_test_accuracy
        )?;
    } else {
        writeln!(out, "built untrained {arch} ({bits}-bit key)")?;
    }
    let file = File::create(&out_path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    model.save(&mut w).map_err(|e| e.to_string())?;
    writeln!(out, "wrote {out_path}")?;
    Ok(())
}

fn load_model(path: &str) -> Result<LockedModel, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = BufReader::new(file);
    LockedModel::load(&mut r).map_err(|e| e.to_string())
}

fn cmd_inspect(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or("inspect needs a model file")?;
    let model = load_model(path)?;
    let g = model.white_box();
    writeln!(out, "model: {path}")?;
    writeln!(out, "  input  : {} features", g.input_size())?;
    writeln!(out, "  output : {} logits", g.output_size())?;
    writeln!(out, "  nodes  : {}", g.nodes().len())?;
    writeln!(out, "  params : {}", g.param_count())?;
    writeln!(out, "  key    : {} bits", g.key_slot_count())?;
    let sites = g.lock_sites();
    let mut by_node: Vec<(NodeId, usize)> = Vec::new();
    for s in &sites {
        match by_node.last_mut() {
            Some((n, c)) if *n == s.keyed_node => *c += 1,
            _ => by_node.push((s.keyed_node, 1)),
        }
    }
    for (node, count) in by_node {
        writeln!(
            out,
            "  layer {node}: {count} protected unit(s), layout {:?}",
            sites
                .iter()
                .find(|s| s.keyed_node == node)
                .map(|s| (s.layout.n_units, s.layout.unit_len))
                .unwrap_or((0, 0))
        )?;
    }
    let wl = g.weight_lock_slots();
    if !wl.is_empty() {
        writeln!(out, "  weight-element locks: {}", wl.len())?;
    }
    Ok(())
}

/// Runs the attack, recording it when `--trace <file>` is given: the run's
/// broker carries a fresh flight recorder, and its events (`broker.batch`,
/// `attack.layer` and `attack.wave` spans; the scoped broker counters,
/// `chaos.injected` and `checkpoint.write`) drain to the file as JSONL,
/// even when the attack itself fails.
fn cmd_attack(args: &Args, out: &mut dyn Write) -> CmdResult {
    let trace_path = match args.flag("trace") {
        None => None,
        Some(Some(path)) => Some(path.clone()),
        Some(None) => return Err("--trace expects a file path".into()),
    };
    let Some(trace_path) = trace_path else {
        return run_attack(args, None, out);
    };
    let flight = Arc::new(FlightRecorder::new());
    let result = run_attack(args, Some(&flight), out);
    flight
        .write_jsonl(std::path::Path::new(&trace_path))
        .map_err(|e| format!("{trace_path}: {e}"))?;
    writeln!(out, "wrote {} trace events to {trace_path}", flight.len())?;
    result
}

/// `--stats-json <file>`: persists the run's final [`QueryStatsSnapshot`]
/// as pretty JSON, the accounting sidecar `report --analyze` reconciles a
/// `--trace` capture against.
///
/// [`QueryStatsSnapshot`]: relock_attack::QueryStatsSnapshot
fn write_stats_json(
    path: &str,
    snap: &relock_attack::QueryStatsSnapshot,
    out: &mut dyn Write,
) -> CmdResult {
    let text = snap.to_json_value().to_pretty() + "\n";
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "wrote query accounting to {path}")?;
    Ok(())
}

fn run_attack(args: &Args, trace: Option<&Arc<FlightRecorder>>, out: &mut dyn Write) -> CmdResult {
    let path = args.positional.first().ok_or("attack needs a model file")?;
    let seed = args.u64_value("seed", 7)?;
    let stats_json = match args.flag("stats-json") {
        None => None,
        Some(Some(p)) => Some(p.clone()),
        Some(None) => return Err("--stats-json expects a file path".into()),
    };
    let model = load_model(path)?;
    let oracle = CountingOracle::new(&model);
    // Every path routes its traffic through one broker, which carries the
    // run's recorder under `--trace`.
    let brokered = |config: BrokerConfig| {
        let broker = Broker::with_config(&oracle, config);
        match trace {
            Some(flight) => broker.with_trace(Arc::clone(flight)),
            None => broker,
        }
    };
    let mut rng = Prng::seed_from_u64(seed);
    if args.flag("monolithic").is_some() {
        let report = MonolithicAttack::new(LearningConfig {
            samples: 300,
            ..LearningConfig::default()
        })
        .run_brokered(
            model.white_box(),
            &brokered(BrokerConfig::default()),
            &mut rng,
        );
        writeln!(out, "monolithic learning attack:")?;
        writeln!(out, "  extracted key: {}", report.key)?;
        writeln!(
            out,
            "  fidelity {:.1}%   queries {}   time {:.2}s",
            100.0 * report.key.fidelity(model.true_key()),
            report.queries,
            report.elapsed.as_secs_f64()
        )?;
        if let Some(p) = &stats_json {
            write_stats_json(p, &report.stats, out)?;
        }
        return Ok(());
    }
    let mut cfg = if args.flag("fast").is_some() {
        AttackConfig::fast()
    } else {
        AttackConfig::default()
    };
    cfg.continue_on_failure = true;
    cfg.variant = variant_flag(args)?;
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
        if args.flag("resume").is_some() {
            return Err("--resume requires --checkpoint <file>".into());
        }
    }

    // Trigger locks (sar/antisat) defeat the per-site algebraic localisation
    // the decryption attack is built on, so they dispatch to the sampling
    // attack: one batch of random oracle probes and a greedy bit-flip climb
    // on output agreement. It runs as a single in-process segment.
    if cfg.variant.is_trigger() {
        if checkpoint.is_some() {
            return Err("--checkpoint is not supported for trigger variants (sar/antisat)".into());
        }
        let broker = brokered(BrokerConfig {
            max_queries: cfg.query_budget,
            ..BrokerConfig::default()
        });
        let start = std::time::Instant::now();
        let report = sampling_key_search(model.white_box(), &broker, &cfg, &mut rng);
        writeln!(out, "sampling key search ({} lock):", cfg.variant)?;
        writeln!(out, "  extracted key: {}", report.key)?;
        writeln!(
            out,
            "  fidelity {:.1}%   agreement {:.1}%   queries {}   time {:.2}s",
            100.0 * report.key.fidelity(model.true_key()),
            100.0 * report.agreement,
            report.queries,
            start.elapsed().as_secs_f64()
        )?;
        write!(out, "{}", broker.stats().snapshot())?;
        if let Some(p) = &stats_json {
            write_stats_json(p, &broker.stats().snapshot(), out)?;
        }
        return Ok(());
    }

    let start = std::time::Instant::now();
    let decryptor = Decryptor::new(cfg);
    let broker = brokered(BrokerConfig {
        max_queries: decryptor.config().query_budget,
        ..BrokerConfig::default()
    });
    let report = match &checkpoint {
        None => decryptor
            .run_brokered(model.white_box(), &broker, &mut rng)
            .map_err(|e| e.to_string())?,
        Some(path) => {
            let sink = FileCheckpointSink::new(path);
            if args.flag("resume").is_some() {
                let (report, status) = decryptor
                    .resume(model.white_box(), &broker, &mut rng, &sink)
                    .map_err(|e| e.to_string())?;
                match &status {
                    ResumeStatus::Fresh => {
                        writeln!(out, "no checkpoint at {path}; starting fresh")?
                    }
                    ResumeStatus::FellBack { reason } => {
                        writeln!(out, "checkpoint unusable ({reason}); starting fresh")?;
                    }
                    ResumeStatus::Resumed { layer, phase } => {
                        writeln!(out, "resumed from {path} at layer {layer} ({phase})")?;
                    }
                }
                report
            } else {
                decryptor
                    .run_with_checkpoints(model.white_box(), &broker, &mut rng, &sink)
                    .map_err(|e| e.to_string())?
            }
        }
    };
    writeln!(out, "DNN decryption attack:")?;
    writeln!(out, "  extracted key: {}", report.key)?;
    writeln!(
        out,
        "  fidelity {:.1}%   queries {}   time {:.2}s   validated {}",
        100.0 * report.fidelity(model.true_key()),
        report.queries,
        start.elapsed().as_secs_f64(),
        report.fully_validated()
    )?;
    for p in Procedure::ALL {
        writeln!(
            out,
            "  {:<24}{:>8.3}s ({:>5.1}%)",
            p.to_string(),
            report.timing.of(p).as_secs_f64(),
            100.0 * report.timing.fraction(p)
        )?;
    }
    write!(out, "{}", report.stats)?;
    if let Some(p) = &stats_json {
        write_stats_json(p, &report.stats, out)?;
    }
    Ok(())
}

/// Starts the resident campaign daemon and blocks until a client sends
/// `shutdown`. `--workers` sets the hub's slots, which bound campaigns
/// computing at once; campaigns waiting on their oracles hold none.
fn cmd_serve(args: &Args, out: &mut dyn Write) -> CmdResult {
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
        Some(bytes) => writeln!(
            out,
            "campaign daemon on {} ({workers} slots, {} MiB shared cache)",
            server.addr(),
            bytes >> 20
        )?,
        None => writeln!(
            out,
            "campaign daemon on {} ({workers} slots, unbounded shared cache)",
            server.addr()
        )?,
    }
    server.join();
    writeln!(out, "campaign daemon stopped")?;
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

fn print_campaign(out: &mut dyn Write, c: &Value) -> std::io::Result<()> {
    let field_str = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("-").to_string();
    let field_u64 = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
    writeln!(
        out,
        "campaign {} [{}]  tenant {}  queries {}  hits {}  layer {} ({})  segments {}",
        field_u64("id"),
        field_str("state"),
        field_str("tenant"),
        field_u64("queries"),
        field_u64("cache_hits"),
        field_u64("layer"),
        field_str("phase"),
        field_u64("segments"),
    )?;
    if let Some(key) = c.get("key").and_then(Value::as_str) {
        writeln!(
            out,
            "  key: {key}  validated: {}",
            c.get("validated").and_then(Value::as_bool).unwrap_or(false)
        )?;
    }
    if let Some(error) = c.get("error").and_then(Value::as_str) {
        writeln!(out, "  error: {error}")?;
    }
    Ok(())
}

fn cmd_submit(args: &Args, out: &mut dyn Write) -> CmdResult {
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
        fast: args.flag("full").is_none(),
        monolithic: args.flag("monolithic").is_some(),
        variant: variant_flag(args)?.to_string(),
        checkpoint: None,
    })?;
    let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
    writeln!(out, "submitted campaign {id}")?;
    Ok(())
}

fn cmd_status(args: &Args, out: &mut dyn Write) -> CmdResult {
    let mut client = connect(args)?;
    match args.positional.first() {
        Some(raw) => {
            let id = raw.parse().map_err(|_| "campaign ids are numbers")?;
            let response = client.call_ok(&Request::Status { id })?;
            let campaign = response
                .get("campaign")
                .ok_or("malformed status response")?;
            print_campaign(out, campaign)?;
        }
        None => {
            let response = client.call_ok(&Request::List)?;
            let campaigns = response
                .get("campaigns")
                .and_then(Value::as_arr)
                .ok_or("malformed list response")?;
            if campaigns.is_empty() {
                writeln!(out, "no campaigns")?;
            }
            for c in campaigns {
                print_campaign(out, c)?;
            }
            let stats = client.call_ok(&Request::Stats)?;
            if let Some(cache) = stats.get("cache") {
                writeln!(
                    out,
                    "shared cache: {} rows / {} B resident, {} evicted",
                    cache.get("rows").and_then(Value::as_u64).unwrap_or(0),
                    cache.get("bytes").and_then(Value::as_u64).unwrap_or(0),
                    cache.get("evicted").and_then(Value::as_u64).unwrap_or(0),
                )?;
            }
        }
    }
    Ok(())
}

fn cmd_lifecycle(args: &Args, verb: &str, out: &mut dyn Write) -> CmdResult {
    let id = positional_id(args, verb)?;
    let request = match verb {
        "pause" => Request::Pause { id },
        "resume" => Request::Resume { id },
        _ => Request::Cancel { id },
    };
    connect(args)?.call_ok(&request)?;
    writeln!(out, "{verb} acknowledged for campaign {id}")?;
    Ok(())
}

fn cmd_shutdown(args: &Args, out: &mut dyn Write) -> CmdResult {
    connect(args)?.call_ok(&Request::Shutdown)?;
    writeln!(out, "daemon shutting down")?;
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let Some(known) = known_flags(&cmd) else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    if let Some((name, _)) = args.flags.iter().find(|(n, _)| !known.contains(n)) {
        let _ = writeln!(
            std::io::stderr(),
            "error: unknown flag --{name} for `relock {cmd}`"
        );
        return usage();
    }
    let mut stdout = std::io::stdout();
    let out: &mut dyn Write = &mut stdout;
    let result = match cmd.as_str() {
        "lock" => cmd_lock(&args, out),
        "inspect" => cmd_inspect(&args, out),
        "attack" => cmd_attack(&args, out),
        "serve" => cmd_serve(&args, out),
        "submit" => cmd_submit(&args, out),
        "status" => cmd_status(&args, out),
        "pause" | "resume" | "cancel" => cmd_lifecycle(&args, cmd.as_str(), out),
        "shutdown" => cmd_shutdown(&args, out),
        _ => return usage(),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away: nothing is left to tell it.
        Err(CliError::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) => {
            let _ = writeln!(std::io::stderr(), "error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Msg(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            ExitCode::FAILURE
        }
    }
}
