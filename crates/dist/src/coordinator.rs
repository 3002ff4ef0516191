//! The supervising coordinator: a multi-process [`PhaseExecutor`].
//!
//! [`DistCoordinator`] implements the executor seam of the Algorithm-2
//! driver (`Decryptor::run_brokered_with` / `resume_with`) by sharding
//! each sharded phase — per-site Algorithm-1 inference and §3.8
//! correction-wave validation — across local **worker processes** talking
//! the length-prefixed JSON frame protocol of `crates/campaign` over a
//! Unix socket.
//!
//! ## Determinism (DESIGN.md §4b)
//!
//! The driver forks one PRNG stream per item in canonical order and
//! merges results by index, so scheduling freedom cannot perturb the
//! outcome; the coordinator ships each item's stream snapshot in the item
//! frame and commits results into index-addressed slots. Inference runs
//! the shared `infer_rounds` loop: workers compute each round's probes,
//! and the coordinator sends them to the broker as one batch in site
//! order, exactly as the in-process executor does. Every validation
//! oracle query is proxied back here and answered from the driver's
//! single broker, so memoization totals are sums over the same request
//! multiset no matter which process asked — 1 process and N processes are
//! byte-for-byte identical, keys, query counts, broker batches, and
//! checkpoint frames included.
//!
//! ## Supervision
//!
//! - **Leases + heartbeats**: a popped work item is leased to the worker
//!   it was sent to. The socket's read deadline is the heartbeat deadline
//!   (workers beat at deadline/4; any frame proves liveness), so a silent
//!   worker — killed, stalled, or writing garbage — expires its lease:
//!   the item returns to the queue front and the process is discarded.
//! - **At-most-once commit**: result slots commit first-write-wins;
//!   duplicate late results are discarded deterministically (counted in
//!   [`DistReport::duplicate_discards`], never merged twice).
//! - **Respawn backoff**: replacement workers start after a bounded
//!   exponential backoff with seeded decorrelating jitter (the
//!   [`RetryPolicy`] schedule, salted by worker index).
//! - **Circuit breaker**: once total respawns exceed the budget the
//!   coordinator stops supervising and computes the remaining items
//!   in-process — the run *degrades* to the `LocalExecutor` semantics
//!   (`ResumeStatus::FellBack`-style, never a panic) and the reason is
//!   reported in [`DistReport::fell_back`].

use crate::proto::{
    decode_f64s, decode_oracle_error, decode_rng, encode_bits, encode_config, encode_f64s,
    encode_oracle_error, encode_rng, encode_target, field_str, field_u64, malformed, parse_verdict,
};
use relock_attack::{
    infer_rounds, key_vector_validation_checked_with, site_probe_with, AttackConfig, InferredBits,
    PhaseExecutor, ProbeStep, SiteCursor, ValidationTarget, ValidationVerdict,
};
use relock_campaign::{read_frame, write_frame, ProtoError};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, Workspace, WorkspacePool};
use relock_locking::{Oracle, OracleError};
use relock_serve::RetryPolicy;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use relock_trace::json::Value;
use std::collections::VecDeque;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default jitter stream key for respawn backoff.
const DEFAULT_RESPAWN_SEED: u64 = 0xd157_ba5e_0ff5_e7ed;

/// Grabs a mutex even if a handler thread panicked while holding it (a
/// `ChaosOracle` crash unwinding through a handler must not wedge the
/// coordinator's teardown).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-level fault injection, the process half of the chaos harness:
/// deterministic deaths the supervisor must absorb without changing the
/// recovered key.
#[derive(Debug, Clone, Default)]
pub struct DistChaos {
    /// Cumulative *routed* row counts (see [`DistReport::routed_rows`])
    /// at which the worker handing over the rows is killed (`SIGKILL`)
    /// before they reach the broker — the moral equivalent of `kill -9`
    /// mid-query. Sorted and deduplicated on coordinator construction;
    /// each point fires once.
    pub kill_at_rows: Vec<u64>,
    /// `(worker, items)`: that worker's **first** incarnation goes silent
    /// (heartbeats stop, no reply) upon receiving its `items+1`-th item.
    /// Respawned incarnations behave.
    pub stall_after_items: Option<(usize, u64)>,
    /// `(worker, items)`: that worker's first incarnation writes a
    /// truncated frame and exits upon receiving its `items+1`-th item.
    pub truncate_after_items: Option<(usize, u64)>,
}

/// Coordinator policy: how many workers, how to spawn them, and how hard
/// to try keeping them alive.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Worker processes (≥ 1; clamped up).
    pub workers: usize,
    /// Program to spawn for each worker (e.g. the `dist_worker` binary,
    /// or the `relock` CLI itself).
    pub worker_program: PathBuf,
    /// Arguments before the socket path (e.g. `["dist-worker"]` for the
    /// CLI's hidden subcommand).
    pub worker_args: Vec<String>,
    /// Heartbeat deadline: a worker silent for this long is dead. Workers
    /// beat at a quarter of it.
    pub heartbeat: Duration,
    /// Total respawns (across all workers) before the circuit breaker
    /// opens and the run falls back to in-process execution.
    pub respawn_budget: u32,
    /// Respawn backoff schedule; `backoff_for(incarnation, worker)` is
    /// slept before each replacement spawn. `max_attempts` is unused —
    /// [`DistOptions::respawn_budget`] bounds retries instead.
    pub backoff: RetryPolicy,
    /// Fault injection (off by default).
    pub chaos: DistChaos,
}

impl DistOptions {
    /// Defaults for `program`: one worker, 2 s heartbeat deadline, 8
    /// respawns, 10 ms seeded-jitter exponential backoff.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        DistOptions {
            workers: 1,
            worker_program: program.into(),
            worker_args: Vec::new(),
            heartbeat: Duration::from_secs(2),
            respawn_budget: 8,
            backoff: RetryPolicy {
                max_attempts: u32::MAX,
                base_backoff: Duration::from_millis(10),
                multiplier: 2,
                jitter_pct: 50,
                jitter_seed: DEFAULT_RESPAWN_SEED,
            },
            chaos: DistChaos::default(),
        }
    }
}

/// Supervision counters of one coordinator's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistReport {
    /// Configured worker processes.
    pub workers: usize,
    /// Replacement spawns performed.
    pub respawns: u64,
    /// Leases reclaimed from dead workers.
    pub lease_expiries: u64,
    /// Late duplicate results discarded by the at-most-once commit.
    pub duplicate_discards: u64,
    /// Total rows workers handed over for the broker (cache hits
    /// included): the 3-row Algorithm-1 probes `infer` items return plus
    /// the oracle batches `validate` items proxy. Re-executed items count
    /// again. The coordinate space of [`DistChaos::kill_at_rows`].
    pub routed_rows: u64,
    /// `Some(reason)` once the circuit breaker opened and the run
    /// completed in-process.
    pub fell_back: Option<String>,
}

/// A live worker: the child process and its accepted socket.
struct WorkerHandle {
    child: Child,
    sock: UnixStream,
}

/// Why a worker could not be (re)placed.
enum SpawnError {
    /// This attempt failed; the budget allows another (each failed
    /// attempt consumes an incarnation, so the budget bounds retries).
    Attempt,
    /// The respawn budget is exhausted — open the circuit breaker.
    Budget(String),
}

/// The multi-process executor. See the module docs for the protocol and
/// the supervision model; construction is cheap (workers spawn lazily on
/// the first sharded phase).
pub struct DistCoordinator {
    model_path: PathBuf,
    opts: DistOptions,
    listener: UnixListener,
    socket_path: PathBuf,
    /// Serializes spawn+accept pairs so an accepted connection is always
    /// the just-spawned child's.
    spawn_lock: Mutex<()>,
    slots: Vec<Mutex<Option<WorkerHandle>>>,
    /// Spawns performed per worker slot; incarnation 0 is the only one
    /// that receives chaos directives.
    incarnations: Vec<AtomicU64>,
    respawns: AtomicU64,
    lease_expiries: AtomicU64,
    duplicates: AtomicU64,
    fell_back: Mutex<Option<String>>,
    kill_points: Mutex<VecDeque<u64>>,
    routed_rows: AtomicU64,
    pool: WorkspacePool,
}

impl DistCoordinator {
    /// Binds the coordination socket. `model_path` must point at a
    /// `LockedModel::save` file — the worker's white-box transport.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the Unix socket cannot be created.
    pub fn new(model_path: impl Into<PathBuf>, opts: DistOptions) -> io::Result<DistCoordinator> {
        static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);
        let opts = DistOptions {
            workers: opts.workers.max(1),
            ..opts
        };
        let socket_path = std::env::temp_dir().join(format!(
            "relock-dist-{}-{}.sock",
            std::process::id(),
            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let mut kill_points = opts.chaos.kill_at_rows.clone();
        kill_points.sort_unstable();
        kill_points.dedup();
        let workers = opts.workers;
        Ok(DistCoordinator {
            model_path: model_path.into(),
            opts,
            listener,
            socket_path,
            spawn_lock: Mutex::new(()),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            incarnations: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            respawns: AtomicU64::new(0),
            lease_expiries: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            fell_back: Mutex::new(None),
            kill_points: Mutex::new(kill_points.into()),
            routed_rows: AtomicU64::new(0),
            pool: WorkspacePool::new(),
        })
    }

    /// Supervision counters so far.
    pub fn report(&self) -> DistReport {
        DistReport {
            workers: self.opts.workers,
            respawns: self.respawns.load(Ordering::Relaxed),
            lease_expiries: self.lease_expiries.load(Ordering::Relaxed),
            duplicate_discards: self.duplicates.load(Ordering::Relaxed),
            routed_rows: self.routed_rows.load(Ordering::Relaxed),
            fell_back: lock(&self.fell_back).clone(),
        }
    }

    fn fell_back_reason(&self) -> Option<String> {
        lock(&self.fell_back).clone()
    }

    /// Opens the circuit breaker (idempotent; first reason wins).
    fn trip_breaker(&self, reason: String) {
        let mut g = lock(&self.fell_back);
        if g.is_none() {
            relock_trace::counter("dist.fellback", 1);
            *g = Some(reason);
        }
    }

    /// Accepts the connection of a child spawned under `spawn_lock`.
    fn accept_within(&self, deadline: Duration) -> Result<UnixStream, String> {
        let until = Instant::now() + deadline;
        loop {
            match self.listener.accept() {
                Ok((sock, _)) => {
                    sock.set_nonblocking(false)
                        .map_err(|e| format!("worker socket: {e}"))?;
                    return Ok(sock);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= until {
                        return Err(format!("worker did not connect within {deadline:?}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
    }

    /// Spawns worker `w`, pairs its connection, sends init, awaits
    /// `ready`. Chaos directives apply to first incarnations only, so a
    /// respawned replacement behaves.
    fn spawn_worker(
        &self,
        w: usize,
        cfg: &AttackConfig,
        first_incarnation: bool,
    ) -> Result<WorkerHandle, String> {
        let _pairing = lock(&self.spawn_lock);
        let mut child = Command::new(&self.opts.worker_program)
            .args(&self.opts.worker_args)
            .arg(&self.socket_path)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.opts.worker_program.display()))?;
        let sock = match self.accept_within(Duration::from_secs(10)) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // The heartbeat deadline doubles as the read timeout: ANY frame —
        // beat, query, result — proves liveness and rearms it.
        if let Err(e) = sock.set_read_timeout(Some(self.opts.heartbeat)) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("worker socket: {e}"));
        }
        let mut init = vec![
            ("t".to_string(), Value::str("init")),
            (
                "model_path".to_string(),
                Value::str(self.model_path.display().to_string()),
            ),
            ("cfg".to_string(), encode_config(cfg)),
            (
                "hb_nanos".to_string(),
                Value::num_u64(self.opts.heartbeat.as_nanos() as u64),
            ),
        ];
        if first_incarnation {
            if let Some((cw, items)) = self.opts.chaos.stall_after_items {
                if cw == w {
                    init.push(("stall_after".to_string(), Value::num_u64(items)));
                }
            }
            if let Some((cw, items)) = self.opts.chaos.truncate_after_items {
                if cw == w {
                    init.push(("truncate_after".to_string(), Value::num_u64(items)));
                }
            }
        }
        let handshake = write_frame(&mut &sock, &Value::Obj(init)).map_err(|e| e.to_string());
        let handshake = handshake.and_then(|()| match read_frame(&mut &sock) {
            Ok(Some(v)) if v.get("t").and_then(Value::as_str) == Some("ready") => Ok(()),
            Ok(Some(v)) => Err(format!("expected ready, got {}", v.to_compact())),
            Ok(None) => Err("worker closed before ready".into()),
            Err(e) => Err(format!("waiting for ready: {e}")),
        });
        match handshake {
            Ok(()) => {
                relock_trace::counter("dist.worker", 1);
                Ok(WorkerHandle { child, sock })
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Places a worker in slot `w`, paying the respawn budget and the
    /// seeded-jitter backoff for every incarnation after the first.
    fn ensure_worker(&self, w: usize, cfg: &AttackConfig) -> Result<WorkerHandle, SpawnError> {
        let incarnation = self.incarnations[w].fetch_add(1, Ordering::Relaxed);
        if incarnation > 0 {
            let total = self.respawns.fetch_add(1, Ordering::Relaxed) + 1;
            if total > self.opts.respawn_budget as u64 {
                // Refused, not performed: keep the report's respawn count
                // honest.
                self.respawns.fetch_sub(1, Ordering::Relaxed);
                return Err(SpawnError::Budget(format!(
                    "respawn budget exhausted: worker {w} died with {} respawns already spent",
                    self.opts.respawn_budget
                )));
            }
            relock_trace::counter("dist.respawn", 1);
            let backoff = self
                .opts
                .backoff
                .backoff_for(incarnation.min(u32::MAX as u64) as u32, w as u64);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        self.spawn_worker(w, cfg, incarnation == 0)
            .map_err(|_| SpawnError::Attempt)
    }

    /// Counts `rows` a worker handed over for the broker and fires the
    /// chaos kill point they cross, if any. An `Err` expires the worker's
    /// lease before the rows reach the broker, so an injected `kill -9`
    /// leaves the broker's accounting untouched — the re-executed item
    /// hands over the same rows and the underlying totals match the clean
    /// run.
    fn route_rows(&self, rows: u64) -> Result<(), String> {
        let before = self.routed_rows.fetch_add(rows, Ordering::Relaxed);
        let after = before + rows;
        let mut kp = lock(&self.kill_points);
        if kp.front().is_some_and(|&p| p > before && p <= after) {
            kp.pop_front();
            return Err(format!("chaos: kill -9 at routed row {after}"));
        }
        Ok(())
    }

    /// Answers one proxied oracle query from the driver's broker.
    fn route_query(
        &self,
        sock: &UnixStream,
        frame: &Value,
        oracle: &dyn Oracle,
    ) -> Result<(), String> {
        let rows = field_u64(frame, "rows").map_err(|e| e.to_string())? as usize;
        let data = decode_f64s(field_str(frame, "x").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        if rows == 0 || !data.len().is_multiple_of(rows) {
            return Err("query payload does not tile into rows".into());
        }
        self.route_rows(rows as u64)?;
        let cols = data.len() / rows;
        let x = Tensor::from_vec(data, [rows, cols]);
        let reply = match oracle.try_query_batch(&x) {
            Ok(y) => {
                let y_rows = if y.rank() == 2 { y.dims()[0] } else { 1 };
                Value::Obj(vec![
                    ("t".into(), Value::str("qok")),
                    ("rows".into(), Value::num_u64(y_rows as u64)),
                    ("y".into(), Value::str(encode_f64s(y.as_slice()))),
                ])
            }
            Err(e) => Value::Obj(vec![
                ("t".into(), Value::str("qerr")),
                ("err".into(), encode_oracle_error(&e)),
            ]),
        };
        write_frame(&mut &*sock, &reply).map_err(|e| format!("answering query: {e}"))
    }

    /// Sends one leased item and serves the worker until its result
    /// frame. Any error — heartbeat deadline, EOF, malformed bytes, a
    /// chaos kill — means the lease expired.
    fn dispatch<T>(
        &self,
        handle: &mut WorkerHandle,
        index: usize,
        item: &Value,
        oracle: &dyn Oracle,
        decode: &(dyn Fn(usize, &Value) -> Result<T, ProtoError> + Sync),
    ) -> Result<T, String> {
        write_frame(&mut &handle.sock, item).map_err(|e| format!("sending item: {e}"))?;
        loop {
            match read_frame(&mut &handle.sock) {
                Ok(Some(v)) => match v.get("t").and_then(Value::as_str) {
                    Some("hb") => continue,
                    Some("q") => self.route_query(&handle.sock, &v, oracle)?,
                    Some("done") => {
                        if field_u64(&v, "job").ok() != Some(index as u64) {
                            return Err("result for a different job".into());
                        }
                        // An `infer` result carries its probe rows, bound
                        // for the round's broker batch.
                        self.route_rows(v.get("rows").and_then(Value::as_u64).unwrap_or(0))?;
                        return decode(index, &v).map_err(|e| format!("bad result: {e}"));
                    }
                    other => return Err(format!("unexpected frame {other:?}")),
                },
                Ok(None) => return Err("worker EOF".into()),
                // Read timeouts (missed heartbeat deadline) land here as
                // Io errors, truncated frames as Malformed.
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// One supervision thread per worker slot: pull a lease, keep the
    /// slot's process alive, commit at most once, reclaim on death.
    #[allow(clippy::too_many_arguments)]
    fn handler<T: Send>(
        &self,
        w: usize,
        cfg: &AttackConfig,
        oracle: &dyn Oracle,
        items: &[Value],
        decode: &(dyn Fn(usize, &Value) -> Result<T, ProtoError> + Sync),
        queue: &Mutex<VecDeque<usize>>,
        results: &Mutex<Vec<Option<T>>>,
        committed: &AtomicUsize,
        phase_panic: &Mutex<Option<Box<dyn std::any::Any + Send>>>,
    ) {
        let mut slot = lock(&self.slots[w]);
        let n = items.len();
        loop {
            if self.fell_back_reason().is_some() || lock(phase_panic).is_some() {
                return;
            }
            let Some(i) = lock(queue).pop_front() else {
                if committed.load(Ordering::Acquire) >= n {
                    return;
                }
                // Another worker holds the remaining leases; stay around
                // in case one dies and its item comes back.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            if slot.is_none() {
                match self.ensure_worker(w, cfg) {
                    Ok(h) => *slot = Some(h),
                    Err(SpawnError::Attempt) => {
                        lock(queue).push_front(i);
                        continue; // the budget pays for another attempt
                    }
                    Err(SpawnError::Budget(reason)) => {
                        lock(queue).push_front(i);
                        self.trip_breaker(reason);
                        return;
                    }
                }
            }
            let handle = slot.as_mut().expect("worker placed above");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.dispatch(handle, i, &items[i], oracle, decode)
            }));
            let outcome = match outcome {
                Ok(o) => o,
                Err(payload) => {
                    // The backend oracle panicked (e.g. an injected
                    // `ChaosCrash`). The phase cannot complete: park the
                    // payload so every handler stops and `run_phase`
                    // re-raises it after the scope joins, and discard the
                    // worker stuck mid-item.
                    if let Some(mut dead) = slot.take() {
                        let _ = dead.child.kill();
                        let _ = dead.child.wait();
                    }
                    lock(queue).push_front(i);
                    let mut g = lock(phase_panic);
                    if g.is_none() {
                        *g = Some(payload);
                    }
                    return;
                }
            };
            match outcome {
                Ok(v) => {
                    let mut res = lock(results);
                    if res[i].is_some() {
                        // A duplicate late result: the first commit won,
                        // deterministically.
                        self.duplicates.fetch_add(1, Ordering::Relaxed);
                    } else {
                        res[i] = Some(v);
                        committed.fetch_add(1, Ordering::Release);
                    }
                }
                Err(_why) => {
                    // Lease expired: reclaim the item, discard the process.
                    relock_trace::counter("dist.lease_expired", 1);
                    self.lease_expiries.fetch_add(1, Ordering::Relaxed);
                    let mut dead = slot.take().expect("worker placed above");
                    let _ = dead.child.kill();
                    let _ = dead.child.wait();
                    lock(queue).push_front(i);
                }
            }
        }
    }

    /// Runs one sharded phase: distribute `items` under supervision, then
    /// compute whatever is missing in-process (everything, if the breaker
    /// was already open; the stragglers, if it opened mid-phase).
    fn run_phase<T: Send>(
        &self,
        cfg: &AttackConfig,
        oracle: &dyn Oracle,
        items: &[Value],
        decode: &(dyn Fn(usize, &Value) -> Result<T, ProtoError> + Sync),
        fallback: &(dyn Fn(usize, &mut Workspace) -> T + Sync),
    ) -> Vec<T> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        if self.fell_back_reason().is_none() {
            let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
            let committed = AtomicUsize::new(0);
            let phase_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
            std::thread::scope(|scope| {
                for w in 0..self.opts.workers {
                    let (queue, results, committed) = (&queue, &results, &committed);
                    let phase_panic = &phase_panic;
                    scope.spawn(move || {
                        self.handler(
                            w,
                            cfg,
                            oracle,
                            items,
                            decode,
                            queue,
                            results,
                            committed,
                            phase_panic,
                        )
                    });
                }
            });
            let payload = lock(&phase_panic).take();
            if let Some(payload) = payload {
                std::panic::resume_unwind(payload);
            }
        }
        let slots = results.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut ws = None;
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(v) => v,
                None => {
                    let ws = ws.get_or_insert_with(|| self.pool.acquire());
                    fallback(i, ws)
                }
            })
            .collect()
    }
}

impl PhaseExecutor for DistCoordinator {
    /// Drives the shared `infer_rounds` loop, leasing each round's
    /// white-box half to the workers as one `infer` item per undecided
    /// site (stream snapshot and attempts in; probe rows, stream and
    /// attempts out). The coordinator itself sends the round's probes to
    /// the broker as one batch, so the broker sees exactly the in-process
    /// executor's requests.
    fn infer_sites(
        &self,
        g: &Graph,
        ka: &KeyAssignment,
        sites: &[LockSite],
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> InferredBits {
        let ka_bits = encode_bits(&ka.to_bits());
        let p = g.input_size();
        let mut cursors: Vec<SiteCursor> = rngs
            .iter()
            .map(|r| SiteCursor::new(r.clone(), cfg))
            .collect();
        infer_rounds(sites, &mut cursors, oracle, cfg, |round| {
            let items: Vec<Value> = round
                .iter()
                .enumerate()
                .map(|(j, (i, cursor))| {
                    Value::Obj(vec![
                        ("t".into(), Value::str("item")),
                        ("job".into(), Value::num_u64(j as u64)),
                        ("kind".into(), Value::str("infer")),
                        ("slot".into(), Value::num_u64(sites[*i].slot.index() as u64)),
                        ("ka".into(), Value::str(ka_bits.clone())),
                        ("rng".into(), encode_rng(&cursor.rng.state())),
                        ("attempts".into(), Value::num_u64(cursor.attempts as u64)),
                    ])
                })
                .collect();
            self.run_phase(
                cfg,
                oracle,
                &items,
                &|_j, doc| decode_probe_step(doc, p),
                &|j, ws| {
                    let (i, cursor) = &round[j];
                    let mut cursor = cursor.clone();
                    let probe = site_probe_with(g, ws, ka, &sites[*i], cfg, &mut cursor);
                    (probe, cursor)
                },
            )
        })
    }

    fn validate_wave(
        &self,
        g: &Graph,
        base: &KeyAssignment,
        layer_slots: &[KeySlot],
        wave: &[Vec<usize>],
        target: Option<&ValidationTarget>,
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> Vec<Result<ValidationVerdict, OracleError>> {
        let target_doc = target.map(encode_target).unwrap_or(Value::Null);
        // Flips are applied coordinator-side: the worker just validates a
        // complete trial assignment, keeping the item format phase-local.
        let trial_for = |i: usize| -> KeyAssignment {
            let mut trial = base.clone();
            for &flip in &wave[i] {
                let s = layer_slots[flip];
                let cur = trial.to_bits()[s.index()];
                trial.set_bit(s, !cur);
            }
            trial
        };
        let items: Vec<Value> = (0..wave.len())
            .map(|i| {
                Value::Obj(vec![
                    ("t".into(), Value::str("item")),
                    ("job".into(), Value::num_u64(i as u64)),
                    ("kind".into(), Value::str("validate")),
                    (
                        "ka".into(),
                        Value::str(encode_bits(&trial_for(i).to_bits())),
                    ),
                    ("target".into(), target_doc.clone()),
                    ("rng".into(), encode_rng(&rngs[i].state())),
                ])
            })
            .collect();
        self.run_phase(
            cfg,
            oracle,
            &items,
            &|_i, doc| {
                if let Some(v) = doc.get("verdict").and_then(Value::as_str) {
                    Ok(Ok(parse_verdict(v)?))
                } else if let Some(e) = doc.get("err") {
                    Ok(Err(decode_oracle_error(e)?))
                } else {
                    Err(malformed("done frame without verdict or err"))
                }
            },
            &|i, ws| {
                let trial = trial_for(i);
                let mut rng = rngs[i].clone();
                key_vector_validation_checked_with(g, ws, &trial, target, oracle, cfg, &mut rng)
            },
        )
    }
}

/// Decodes an `infer` item's `done` frame: the probe rows (`null` for ⊥),
/// the advanced stream, and the attempts left.
fn decode_probe_step(doc: &Value, input_dim: usize) -> Result<ProbeStep, ProtoError> {
    let probe = match doc.get("probe") {
        Some(Value::Null) => None,
        Some(Value::Str(hex)) => {
            let rows = field_u64(doc, "rows")? as usize;
            let data = decode_f64s(hex)?;
            if rows == 0 || data.len() != rows * input_dim {
                return Err(malformed("probe payload does not tile into input rows"));
            }
            Some(Tensor::from_vec(data, [rows, input_dim]))
        }
        _ => return Err(malformed("done frame without probe")),
    };
    let rng = Prng::from_state(decode_rng(
        doc.get("rng")
            .ok_or_else(|| malformed("done frame without rng"))?,
    )?);
    let attempts = field_u64(doc, "attempts")? as usize;
    Ok((probe, SiteCursor { rng, attempts }))
}

impl Drop for DistCoordinator {
    fn drop(&mut self) {
        let bye = Value::Obj(vec![("t".into(), Value::str("bye"))]);
        for slot in &self.slots {
            if let Some(mut h) = lock(slot).take() {
                let _ = write_frame(&mut &h.sock, &bye);
                let _ = h.child.kill();
                let _ = h.child.wait();
            }
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}
