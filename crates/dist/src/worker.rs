//! The worker-process side of the distributed executor.
//!
//! A worker is a plain child process holding one Unix-socket connection
//! back to its coordinator. It owns a full white-box copy of the victim
//! (loaded from the `model_path` in the init frame — the graph is public
//! knowledge, only the *oracle* is scarce) and computes one work item at a
//! time:
//!
//! - an `infer` item is the white-box half of one Algorithm-1 round for
//!   one site: from the site's stream snapshot and attempts left, it
//!   computes the 3-row probe (or ⊥) and returns it with the advanced
//!   stream and attempts. It never queries the oracle — the coordinator
//!   sends every site's probe of the round as one batch;
//! - a `validate` item is a whole §3.8 correction-candidate validation.
//!   Every oracle query it issues is proxied back over the same socket
//!   ([`WireOracle`]).
//!
//! Either way all traffic funnels through the coordinator's single
//! broker — the memoization/accounting invariant the determinism argument
//! in DESIGN.md §4b rests on.
//!
//! Liveness is proven by a side thread emitting `hb` frames at a quarter
//! of the coordinator's read deadline; any frame (heartbeat, query,
//! result) resets the deadline on the other side. The init frame may also
//! carry **chaos directives** (`stall_after`, `truncate_after`) that make
//! this incarnation misbehave on purpose — the process-level half of the
//! `ChaosOracle` harness.

use crate::proto::{
    decode_bits, decode_config, decode_f64s, decode_oracle_error, decode_rng, decode_target,
    encode_f64s, encode_rng, field_str, field_u64, verdict_str,
};
use relock_attack::{key_vector_validation_checked_with, site_probe_with, SiteCursor};
use relock_campaign::{read_frame, write_frame, ProtoError};
use relock_graph::{KeyAssignment, KeySlot, LockSite, Workspace};
use relock_locking::{LockedModel, Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use relock_trace::json::Value;
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Grabs a mutex even when a sibling thread died holding it — the worker
/// is a disposable process, so a poisoned lock is not worth dying over.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An [`Oracle`] whose query surface is the coordinator socket: each
/// batch becomes a `q` frame, and the answer arrives as `qok` (hex f64
/// rows) or `qerr` (a transported [`OracleError`]).
struct WireOracle {
    reader: Arc<Mutex<UnixStream>>,
    writer: Arc<Mutex<UnixStream>>,
    input_dim: usize,
    output_dim: usize,
    rows: AtomicU64,
}

impl WireOracle {
    fn link_lost(why: impl std::fmt::Display) -> OracleError {
        OracleError::Backend {
            message: format!("coordinator link lost: {why}"),
            attempts: 1,
        }
    }
}

impl Oracle for WireOracle {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.try_query_batch(x)
            .expect("oracle failed; budget-aware callers use try_query_batch")
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let rows = if x.rank() == 2 { x.dims()[0] } else { 1 };
        let doc = Value::Obj(vec![
            ("t".into(), Value::str("q")),
            ("rows".into(), Value::num_u64(rows as u64)),
            ("x".into(), Value::str(encode_f64s(x.as_slice()))),
        ]);
        write_frame(&mut &*lock(&self.writer), &doc).map_err(Self::link_lost)?;
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        // The reply is the next q-transaction frame; the coordinator never
        // initiates traffic mid-item, so whatever arrives here is ours.
        let r = lock(&self.reader);
        match read_frame(&mut &*r) {
            Ok(Some(v)) => match v.get("t").and_then(Value::as_str) {
                Some("qok") => {
                    let rows = field_u64(&v, "rows")
                        .map_err(|e| Self::link_lost(format!("bad qok frame: {e}")))?
                        as usize;
                    let data = decode_f64s(
                        field_str(&v, "y")
                            .map_err(|e| Self::link_lost(format!("bad qok frame: {e}")))?,
                    )
                    .map_err(|e| Self::link_lost(format!("bad qok payload: {e}")))?;
                    if rows == 0 || !data.len().is_multiple_of(rows) {
                        return Err(Self::link_lost("qok payload does not tile into rows"));
                    }
                    let cols = data.len() / rows;
                    Ok(Tensor::from_vec(data, [rows, cols]))
                }
                Some("qerr") => Err(v
                    .get("err")
                    .map(|e| {
                        decode_oracle_error(e)
                            .unwrap_or_else(|why| Self::link_lost(format!("bad qerr frame: {why}")))
                    })
                    .unwrap_or_else(|| Self::link_lost("qerr frame without err"))),
                other => Err(Self::link_lost(format!(
                    "unexpected frame {other:?} inside a query transaction"
                ))),
            },
            Ok(None) => Err(Self::link_lost("EOF")),
            Err(e) => Err(Self::link_lost(e)),
        }
    }

    fn query_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }
}

/// Runs the worker protocol over the socket at `socket_path` until the
/// coordinator says `bye` or the connection drops. This is the entire
/// body of the `dist_worker` binary (and of the CLI's hidden
/// `dist-worker` subcommand).
///
/// # Errors
///
/// Returns a description of the first protocol or I/O failure. A clean
/// `bye`/EOF is `Ok`.
pub fn worker_main(socket_path: &str) -> Result<(), String> {
    let sock = UnixStream::connect(socket_path).map_err(|e| format!("{socket_path}: {e}"))?;
    let reader = Arc::new(Mutex::new(
        sock.try_clone().map_err(|e| format!("clone socket: {e}"))?,
    ));
    let writer = Arc::new(Mutex::new(sock));

    // ---- Init: model, config, heartbeat cadence, chaos directives. ----
    let init = match read_frame(&mut &*lock(&reader)) {
        Ok(Some(v)) => v,
        Ok(None) => return Ok(()), // coordinator gone before init: nothing to do
        Err(e) => return Err(format!("reading init frame: {e}")),
    };
    if init.get("t").and_then(Value::as_str) != Some("init") {
        return Err("first frame is not init".into());
    }
    let model_path = field_str(&init, "model_path").map_err(|e| e.to_string())?;
    let cfg = decode_config(
        init.get("cfg")
            .ok_or_else(|| "init frame without cfg".to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let heartbeat = Duration::from_nanos(field_u64(&init, "hb_nanos").map_err(|e| e.to_string())?);
    let stall_after = init.get("stall_after").and_then(Value::as_u64);
    let truncate_after = init.get("truncate_after").and_then(Value::as_u64);

    let file = std::fs::File::open(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let model = LockedModel::load(&mut std::io::BufReader::new(file))
        .map_err(|e| format!("{model_path}: {e}"))?;
    let g = model.white_box();
    let n_slots = g.key_slot_count();
    let site_of_slot: HashMap<usize, LockSite> = g
        .lock_sites()
        .into_iter()
        .map(|s| (s.slot.index(), s))
        .collect();

    let oracle = WireOracle {
        reader: reader.clone(),
        writer: writer.clone(),
        input_dim: g.input_size(),
        output_dim: g.output_size(),
        rows: AtomicU64::new(0),
    };

    write_frame(
        &mut &*lock(&writer),
        &Value::Obj(vec![("t".into(), Value::str("ready"))]),
    )
    .map_err(|e| format!("sending ready: {e}"))?;

    // ---- Heartbeat thread: 4 beats per coordinator deadline. ----
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_handle = {
        let writer = writer.clone();
        let stop = hb_stop.clone();
        let interval = (heartbeat / 4).max(Duration::from_millis(1));
        std::thread::spawn(move || {
            let beat = Value::Obj(vec![("t".into(), Value::str("hb"))]);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if write_frame(&mut &*lock(&writer), &beat).is_err() {
                    break; // coordinator gone; the main loop will notice too
                }
            }
        })
    };

    // ---- Item loop. ----
    let mut ws = Workspace::new();
    let mut items_done: u64 = 0;
    let result = loop {
        let frame = match read_frame(&mut &*lock(&reader)) {
            Ok(Some(v)) => v,
            Ok(None) => break Ok(()), // clean EOF: coordinator closed us out
            Err(ProtoError::Io(e)) => break Err(format!("reading item frame: {e}")),
            Err(e) => break Err(format!("reading item frame: {e}")),
        };
        match frame.get("t").and_then(Value::as_str) {
            Some("bye") => break Ok(()),
            Some("hb") => continue, // tolerated, though the coordinator never beats
            Some("item") => {
                // Chaos directives fire on receipt of item `k`, exercising
                // exactly the failure the supervisor must absorb.
                if stall_after == Some(items_done) {
                    // Stalled heartbeat: the process stays alive but goes
                    // silent — only the coordinator's read deadline can
                    // tell this apart from a slow item.
                    hb_stop.store(true, Ordering::Relaxed);
                    let _ = hb_handle.join();
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                if truncate_after == Some(items_done) {
                    // Truncated frame: a length line promising bytes that
                    // never arrive, then a dead socket.
                    use std::io::Write;
                    let w = lock(&writer);
                    let _ = (&*w).write_all(b"999\n{\"t\":\"done\"");
                    let _ = (&*w).flush();
                    break Ok(());
                }
                let done = match run_item(&frame, g, n_slots, &site_of_slot, &oracle, &cfg, &mut ws)
                {
                    Ok(doc) => doc,
                    Err(e) => break Err(format!("work item failed: {e}")),
                };
                if let Err(e) = write_frame(&mut &*lock(&writer), &done) {
                    break Err(format!("sending result: {e}"));
                }
                items_done += 1;
            }
            other => break Err(format!("unexpected frame {other:?} between items")),
        }
    };
    hb_stop.store(true, Ordering::Relaxed);
    result
}

/// Decodes, computes, and encodes one work item.
fn run_item(
    frame: &Value,
    g: &relock_graph::Graph,
    n_slots: usize,
    site_of_slot: &HashMap<usize, LockSite>,
    oracle: &dyn Oracle,
    cfg: &relock_attack::AttackConfig,
    ws: &mut Workspace,
) -> Result<Value, ProtoError> {
    let job = field_u64(frame, "job")?;
    let mut ka = KeyAssignment::all_zero_bits(n_slots);
    let bits = decode_bits(field_str(frame, "ka")?)?;
    if bits.len() != n_slots {
        return Err(crate::proto::malformed(format!(
            "assignment carries {} bits, graph has {n_slots} slots",
            bits.len()
        )));
    }
    for (i, &b) in bits.iter().enumerate() {
        ka.set_bit(KeySlot(i), b);
    }
    let mut rng = Prng::from_state(decode_rng(
        frame
            .get("rng")
            .ok_or_else(|| crate::proto::malformed("item without rng"))?,
    )?);
    let mut fields = vec![
        ("t".to_string(), Value::str("done")),
        ("job".to_string(), Value::num_u64(job)),
    ];
    match field_str(frame, "kind")? {
        "infer" => {
            let slot = field_u64(frame, "slot")? as usize;
            let site = site_of_slot.get(&slot).ok_or_else(|| {
                crate::proto::malformed(format!("slot {slot} is not a lock site"))
            })?;
            let mut cursor = SiteCursor {
                rng,
                attempts: field_u64(frame, "attempts")? as usize,
            };
            let probe = site_probe_with(g, ws, &ka, site, cfg, &mut cursor);
            let rows = probe.as_ref().map_or(0, |x| x.dims()[0]);
            fields.push(("rows".to_string(), Value::num_u64(rows as u64)));
            fields.push((
                "probe".to_string(),
                match &probe {
                    Some(x) => Value::str(encode_f64s(x.as_slice())),
                    None => Value::Null,
                },
            ));
            fields.push(("rng".to_string(), encode_rng(&cursor.rng.state())));
            fields.push((
                "attempts".to_string(),
                Value::num_u64(cursor.attempts as u64),
            ));
        }
        "validate" => {
            let target = frame.get("target").and_then(|t| match t {
                Value::Null => None,
                t => Some(decode_target(t)),
            });
            let target = match target {
                Some(Ok(t)) => Some(t),
                Some(Err(e)) => return Err(e),
                None => None,
            };
            match key_vector_validation_checked_with(
                g,
                ws,
                &ka,
                target.as_ref(),
                oracle,
                cfg,
                &mut rng,
            ) {
                Ok(v) => fields.push(("verdict".to_string(), Value::str(verdict_str(v)))),
                Err(e) => fields.push(("err".to_string(), crate::proto::encode_oracle_error(&e))),
            }
        }
        other => {
            return Err(crate::proto::malformed(format!(
                "unknown item kind {other:?}"
            )))
        }
    }
    Ok(Value::Obj(fields))
}
