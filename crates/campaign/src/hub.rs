//! Campaign lifecycle: submit / status / pause / resume / cancel over a
//! process-global query cache and a fair-share scheduler.
//!
//! A **campaign** is one long-running key-recovery attack hosted by the
//! daemon: a locked model, a seed, a tenant, a budget, and (optionally) a
//! chaos fault schedule. Each campaign runs on its own worker thread, but
//! all campaigns share two process-global resources:
//!
//! - the [`SharedCache`] — memo table + single-flight table, byte-capped,
//!   namespaced per model content hash so identical probes against the
//!   same victim hit across campaigns while different victims never
//!   collide;
//! - the [`FairScheduler`] — a bounded pool of run slots granted to
//!   tenants in proportion to their weight.
//!
//! A slot bounds how many campaigns *compute* at once, not how many are
//! in flight. Each campaign has one [`SlotLease`](crate::SlotLease), the
//! wait hook of its brokers and of its chaos device: its thread keeps the
//! slot while the attack computes and while the victim answers, gives it
//! back before each wait inside a brokered batch (an injected device
//! latency, another campaign's in-flight rows, a retry backoff) and takes
//! one again, through the stride scheduler, before the batch returns to
//! the attack. A campaign whose batches never wait never gives its slot
//! back mid-segment. A batch that has waited publishes its own rows
//! before it queues for a slot again, so nobody ever waits on a row whose
//! owner is queued for a slot: with any slot count, campaigns that wait on
//! each other's rows cannot deadlock.
//!
//! The lifecycle rides the checkpoint layer. A running campaign executes
//! in **segments**: each segment acquires a scheduler slot, builds a
//! fresh broker over the shared cache, and drives
//! `Decryptor::resume_session` with the campaign's halt flag as the pause
//! signal. Pausing therefore costs nothing beyond what checkpointing
//! already pays: a paused campaign *is* its last RLCP frame, which is why
//! [`CampaignHub::checkpoint_bytes`] + [`CampaignHub::submit_checkpointed`]
//! can migrate a half-finished campaign across a daemon restart and
//! resume it bit-identically (the core crate's PRNG-stream discipline
//! guarantees the recovered key matches an uninterrupted run).

use crate::sched::FairScheduler;
use relock_attack::{
    sampling_key_search, AttackConfig, AttackState, CheckpointSink, Decryptor,
    MemoryCheckpointSink, MonolithicAttack, MonolithicConfig, SamplingConfig, SessionOutcome,
};
use relock_locking::{CountingOracle, Key, LockVariant, LockedModel, Oracle, OracleError};
use relock_serve::{
    Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle, QueryStatsSnapshot, WaitHook,
};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// FNV-1a over the model's serialized bytes: the cache namespace. Content
/// hashing (not campaign id) is deliberate — two campaigns attacking the
/// same victim share cache entries, different victims cannot collide.
fn model_namespace(model: &LockedModel) -> u64 {
    let mut bytes = Vec::new();
    model
        .save(&mut bytes)
        .expect("serializing to a Vec cannot fail");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The oracle a campaign queries: the victim model, optionally behind a
/// deterministic chaos fault schedule.
#[derive(Debug)]
enum HostedOracle {
    Plain(CountingOracle),
    Chaos(ChaosOracle<CountingOracle>),
}

impl HostedOracle {
    /// `wait` hears of each injected latency (see
    /// [`ChaosOracle::with_wait_hook`]).
    fn new(model: &LockedModel, chaos: Option<ChaosConfig>, wait: Arc<dyn WaitHook>) -> Self {
        let counting = CountingOracle::new(model);
        match chaos {
            Some(cfg) => HostedOracle::Chaos(ChaosOracle::new(counting, cfg).with_wait_hook(wait)),
            None => HostedOracle::Plain(counting),
        }
    }

    fn crashes(&self) -> u64 {
        match self {
            HostedOracle::Plain(_) => 0,
            HostedOracle::Chaos(c) => c.counters().crashes,
        }
    }
}

impl Oracle for HostedOracle {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        match self {
            HostedOracle::Plain(o) => o.query_batch(x),
            HostedOracle::Chaos(o) => o.query_batch(x),
        }
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        match self {
            HostedOracle::Plain(o) => o.try_query_batch(x),
            HostedOracle::Chaos(o) => o.try_query_batch(x),
        }
    }

    fn query_count(&self) -> u64 {
        match self {
            HostedOracle::Plain(o) => o.query_count(),
            HostedOracle::Chaos(o) => o.query_count(),
        }
    }

    fn input_dim(&self) -> usize {
        match self {
            HostedOracle::Plain(o) => o.input_dim(),
            HostedOracle::Chaos(o) => o.input_dim(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            HostedOracle::Plain(o) => o.output_dim(),
            HostedOracle::Chaos(o) => o.output_dim(),
        }
    }

    fn remaining_budget(&self) -> Option<u64> {
        match self {
            HostedOracle::Plain(o) => o.remaining_budget(),
            HostedOracle::Chaos(o) => o.remaining_budget(),
        }
    }
}

/// How to run one campaign. Everything here is per-campaign; the cache
/// cap and slot count are hub-wide ([`CampaignHub::new`]).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Tenant the campaign bills its scheduler grants to.
    pub tenant: String,
    /// Attack PRNG seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Fair-share weight of the tenant (grants ∝ weight).
    pub weight: u64,
    /// Underlying-query budget for the whole campaign (`None` unlimited).
    pub query_budget: Option<u64>,
    /// Use the fast attack preset (small line/sample counts).
    pub fast: bool,
    /// Run the §4.3 monolithic learning baseline instead of Algorithm 2.
    /// Monolithic campaigns have no checkpoint cuts, so they cannot pause.
    pub monolithic: bool,
    /// Lock variant of the victim. Unit-lock variants run the algebraic
    /// Algorithm 2; trigger variants have no per-unit lock sites, so the
    /// hub dispatches them to the sampling key search, which runs as a
    /// single uninterruptible segment (like the monolithic baseline).
    pub variant: LockVariant,
    /// Deterministic fault schedule wrapped around the oracle.
    pub chaos: Option<ChaosConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            tenant: "default".to_string(),
            seed: 1,
            weight: 1,
            query_budget: None,
            fast: true,
            monolithic: false,
            variant: LockVariant::Sign,
            chaos: None,
        }
    }
}

/// Lifecycle states. `Queued → Running ⇄ Paused → Completed/Failed/
/// Cancelled`; the three right-most are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Submitted, not yet granted its first scheduler slot.
    Queued,
    /// A segment is executing: computing on a slot, waiting on the
    /// oracle, or waiting for a slot to compute again.
    Running,
    /// Held at a checkpoint cut; the sink holds the authoritative frame.
    Paused,
    /// The key was recovered; see [`CampaignView::key`].
    Completed,
    /// The attack errored (budget, backend, or panic).
    Failed,
    /// Cancelled by request.
    Cancelled,
}

impl CampaignState {
    /// Whether the campaign will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            CampaignState::Completed | CampaignState::Failed | CampaignState::Cancelled
        )
    }

    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Paused => "paused",
            CampaignState::Completed => "completed",
            CampaignState::Failed => "failed",
            CampaignState::Cancelled => "cancelled",
        }
    }
}

/// A status snapshot of one campaign. Progress fields update at segment
/// boundaries (completion, pause, crash-retry), not mid-segment.
#[derive(Debug, Clone)]
pub struct CampaignView {
    /// Hub-assigned campaign id.
    pub id: u64,
    /// Billing tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Cumulative underlying oracle queries (the paper's `#Q`).
    pub queries: u64,
    /// Cumulative requested rows (cache hits included).
    pub requested: u64,
    /// Rows served from the shared cache.
    pub cache_hits: u64,
    /// Locked-layer index being worked on.
    pub layer: usize,
    /// Phase name of the last checkpoint cut.
    pub phase: String,
    /// Segments executed so far (each starts with a slot grant).
    pub segments: u64,
    /// Injected chaos crashes absorbed so far.
    pub crashes: u64,
    /// The recovered key, once completed.
    pub key: Option<Key>,
    /// Whether every layer's key vector passed validation.
    pub validated: bool,
    /// Failure description, once failed.
    pub error: Option<String>,
}

/// Why a hub request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HubError {
    /// No campaign with that id.
    UnknownCampaign(u64),
    /// The campaign cannot honour the request in its current state.
    InvalidState(&'static str),
    /// A wait timed out before the campaign reached the awaited state.
    Timeout,
    /// The hub's admission cap is full: `live` non-terminal campaigns
    /// against a cap of `cap`. Submit again once one finishes — nothing
    /// about the rejected campaign was retained.
    Overloaded {
        /// Non-terminal campaigns at rejection time.
        live: usize,
        /// The configured admission cap.
        cap: usize,
    },
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownCampaign(id) => write!(f, "unknown campaign {id}"),
            HubError::InvalidState(why) => write!(f, "invalid state: {why}"),
            HubError::Timeout => write!(f, "timed out waiting for campaign state"),
            HubError::Overloaded { live, cap } => {
                write!(f, "hub overloaded: {live} live campaigns at cap {cap}")
            }
        }
    }
}

impl std::error::Error for HubError {}

/// Desired run/hold state, flipped by pause/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Desired {
    Run,
    Hold,
}

#[derive(Debug)]
struct CampaignHandle {
    tenant: String,
    monolithic: bool,
    /// Trigger-variant campaigns run the sampling search as one
    /// uninterruptible segment — no cuts, so no pause, like monolithic.
    trigger: bool,
    /// The pause flag handed to `resume_session`: raised to stop the
    /// in-flight segment at its next checkpoint cut.
    halt: AtomicBool,
    cancel: AtomicBool,
    gate: Mutex<Desired>,
    gate_cv: Condvar,
    view: Mutex<CampaignView>,
    view_cv: Condvar,
    /// The campaign's last RLCP frame.
    sink: MemoryCheckpointSink,
}

impl CampaignHandle {
    fn set_state(&self, state: CampaignState) {
        let mut view = self.view.lock().expect("campaign view poisoned");
        view.state = state;
        drop(view);
        self.view_cv.notify_all();
    }

    fn update_view(&self, f: impl FnOnce(&mut CampaignView)) {
        let mut view = self.view.lock().expect("campaign view poisoned");
        f(&mut view);
        drop(view);
        self.view_cv.notify_all();
    }
}

/// Aggregate occupancy of the process-global cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubCacheStats {
    /// Resident memoized rows.
    pub rows: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// Rows evicted since the hub started.
    pub evicted: u64,
}

/// The resident multi-tenant campaign host. See the module docs for the
/// execution model.
#[derive(Debug)]
pub struct CampaignHub {
    shared: relock_serve::SharedCache,
    sched: Arc<FairScheduler>,
    campaigns: Mutex<HashMap<u64, Arc<CampaignHandle>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    /// Admission cap: maximum non-terminal campaigns resident at once
    /// (`None` = unbounded, the library default). Each live campaign owns
    /// a worker thread, so an uncapped daemon exposed to the network
    /// grows threads without bound — the server always sets a cap.
    max_live: Option<usize>,
}

impl CampaignHub {
    /// A hub with `slots` concurrent run slots and a shared cache capped
    /// at `cache_byte_cap` bytes (`None` = unbounded). No admission cap;
    /// see [`CampaignHub::with_admission_cap`].
    pub fn new(slots: usize, cache_byte_cap: Option<usize>) -> Arc<CampaignHub> {
        Self::with_admission_cap(slots, cache_byte_cap, None)
    }

    /// Like [`CampaignHub::new`], additionally refusing new submissions
    /// with [`HubError::Overloaded`] while `max_live` campaigns are in a
    /// non-terminal state. Terminal campaigns stay queryable and never
    /// count against the cap.
    pub fn with_admission_cap(
        slots: usize,
        cache_byte_cap: Option<usize>,
        max_live: Option<usize>,
    ) -> Arc<CampaignHub> {
        let shared = match cache_byte_cap {
            Some(cap) => relock_serve::SharedCache::bounded(cap),
            None => relock_serve::SharedCache::unbounded(),
        };
        Arc::new(CampaignHub {
            shared,
            sched: FairScheduler::new(slots),
            campaigns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            max_live,
        })
    }

    /// Submits a campaign and returns its id. The campaign starts running
    /// as soon as the scheduler grants its tenant a slot.
    ///
    /// # Errors
    ///
    /// [`HubError::Overloaded`] when the admission cap is full.
    pub fn submit(&self, model: LockedModel, cfg: CampaignConfig) -> Result<u64, HubError> {
        self.launch(model, cfg, None)
    }

    /// Submits a campaign that resumes from a previously captured RLCP
    /// frame (see [`CampaignHub::checkpoint_bytes`]) — the migration path
    /// across a daemon restart. An incompatible or corrupt frame falls
    /// back to a fresh run, mirroring `Decryptor::resume`.
    ///
    /// # Errors
    ///
    /// [`HubError::Overloaded`] when the admission cap is full.
    pub fn submit_checkpointed(
        &self,
        model: LockedModel,
        cfg: CampaignConfig,
        checkpoint: Vec<u8>,
    ) -> Result<u64, HubError> {
        self.launch(model, cfg, Some(checkpoint))
    }

    /// Non-terminal campaigns currently resident.
    pub fn live_campaigns(&self) -> usize {
        self.campaigns
            .lock()
            .expect("campaign table poisoned")
            .values()
            .filter(|h| {
                !h.view
                    .lock()
                    .expect("campaign view poisoned")
                    .state
                    .is_terminal()
            })
            .count()
    }

    fn launch(
        &self,
        model: LockedModel,
        cfg: CampaignConfig,
        checkpoint: Option<Vec<u8>>,
    ) -> Result<u64, HubError> {
        if let Some(cap) = self.max_live {
            // Admission control *before* any per-campaign state exists:
            // a rejected submission leaves no handle, no thread, and no
            // scheduler weight behind. The count can race a concurrent
            // completion, in which case a submission is rejected a moment
            // longer than strictly necessary — never admitted over cap
            // beyond the submissions racing each other.
            let live = self.live_campaigns();
            if live >= cap {
                return Err(HubError::Overloaded { live, cap });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sched.set_weight(&cfg.tenant, cfg.weight);
        let sink = MemoryCheckpointSink::new();
        // Seed progress from the migrated frame so budgets keep charging
        // against the whole campaign, not just this daemon's share of it.
        let mut baseline = (0u64, 0usize, String::from("layer-start"));
        if let Some(bytes) = &checkpoint {
            let _ = sink.save(bytes);
            if let Ok(state) = AttackState::decode(bytes) {
                baseline = (
                    state.queries,
                    state.layer_index,
                    state.cut.phase_name().to_string(),
                );
            }
        }
        let handle = Arc::new(CampaignHandle {
            tenant: cfg.tenant.clone(),
            monolithic: cfg.monolithic,
            trigger: cfg.variant.is_trigger(),
            halt: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            gate: Mutex::new(Desired::Run),
            gate_cv: Condvar::new(),
            view: Mutex::new(CampaignView {
                id,
                tenant: cfg.tenant.clone(),
                state: CampaignState::Queued,
                queries: baseline.0,
                requested: 0,
                cache_hits: 0,
                layer: baseline.1,
                phase: baseline.2,
                segments: 0,
                crashes: 0,
                key: None,
                validated: false,
                error: None,
            }),
            view_cv: Condvar::new(),
            sink,
        });
        self.campaigns
            .lock()
            .expect("campaign table poisoned")
            .insert(id, Arc::clone(&handle));
        let shared = self.shared.clone();
        let sched = Arc::clone(&self.sched);
        let worker = std::thread::Builder::new()
            .name(format!("campaign-{id}"))
            .spawn(move || run_campaign(handle, model, cfg, shared, sched))
            .expect("spawning a campaign worker failed");
        self.workers
            .lock()
            .expect("worker table poisoned")
            .push(worker);
        Ok(id)
    }

    fn handle(&self, id: u64) -> Result<Arc<CampaignHandle>, HubError> {
        self.campaigns
            .lock()
            .expect("campaign table poisoned")
            .get(&id)
            .cloned()
            .ok_or(HubError::UnknownCampaign(id))
    }

    /// A status snapshot of campaign `id`.
    pub fn status(&self, id: u64) -> Result<CampaignView, HubError> {
        let h = self.handle(id)?;
        let view = h.view.lock().expect("campaign view poisoned").clone();
        Ok(view)
    }

    /// Snapshots of every campaign, ordered by id.
    pub fn list(&self) -> Vec<CampaignView> {
        let mut views: Vec<CampaignView> = self
            .campaigns
            .lock()
            .expect("campaign table poisoned")
            .values()
            .map(|h| h.view.lock().expect("campaign view poisoned").clone())
            .collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Requests a pause: the in-flight segment stops at its next
    /// checkpoint cut and the campaign holds until [`CampaignHub::resume`].
    /// A campaign that completes before reaching a cut stays completed.
    pub fn pause(&self, id: u64) -> Result<(), HubError> {
        let h = self.handle(id)?;
        if h.monolithic {
            return Err(HubError::InvalidState(
                "monolithic campaigns have no checkpoint cuts to pause at",
            ));
        }
        if h.trigger {
            return Err(HubError::InvalidState(
                "trigger-variant campaigns run a single sampling segment and cannot pause",
            ));
        }
        if self.status(id)?.state.is_terminal() {
            return Err(HubError::InvalidState("campaign already finished"));
        }
        *h.gate.lock().expect("campaign gate poisoned") = Desired::Hold;
        h.halt.store(true, Ordering::Relaxed);
        h.gate_cv.notify_all();
        Ok(())
    }

    /// Releases a paused (or pausing) campaign back into the run queue.
    pub fn resume(&self, id: u64) -> Result<(), HubError> {
        let h = self.handle(id)?;
        if self.status(id)?.state.is_terminal() {
            return Err(HubError::InvalidState("campaign already finished"));
        }
        h.halt.store(false, Ordering::Relaxed);
        *h.gate.lock().expect("campaign gate poisoned") = Desired::Run;
        h.gate_cv.notify_all();
        Ok(())
    }

    /// Cancels a campaign. Running segments stop at their next checkpoint
    /// cut (monolithic segments finish their single segment first).
    pub fn cancel(&self, id: u64) -> Result<(), HubError> {
        let h = self.handle(id)?;
        if self.status(id)?.state.is_terminal() {
            return Err(HubError::InvalidState("campaign already finished"));
        }
        h.cancel.store(true, Ordering::Relaxed);
        h.halt.store(true, Ordering::Relaxed);
        // Wake a held worker so it can observe the cancel.
        *h.gate.lock().expect("campaign gate poisoned") = Desired::Run;
        h.gate_cv.notify_all();
        Ok(())
    }

    /// The campaign's last RLCP frame (None before the first cut). Pair
    /// with [`CampaignHub::submit_checkpointed`] to migrate a paused
    /// campaign to another daemon instance.
    pub fn checkpoint_bytes(&self, id: u64) -> Result<Option<Vec<u8>>, HubError> {
        Ok(self.handle(id)?.sink.contents())
    }

    fn wait_where(
        &self,
        id: u64,
        timeout: Duration,
        pred: impl Fn(&CampaignView) -> bool,
    ) -> Result<CampaignView, HubError> {
        let h = self.handle(id)?;
        let deadline = Instant::now() + timeout;
        let mut view = h.view.lock().expect("campaign view poisoned");
        loop {
            if pred(&view) {
                return Ok(view.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(HubError::Timeout);
            }
            let (guard, _) = h
                .view_cv
                .wait_timeout(view, deadline - now)
                .expect("campaign view poisoned");
            view = guard;
        }
    }

    /// Blocks until the campaign reaches a terminal state.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Result<CampaignView, HubError> {
        self.wait_where(id, timeout, |v| v.state.is_terminal())
    }

    /// Blocks until the campaign is paused (terminal states also return,
    /// so a campaign that finished before its pause cut cannot hang the
    /// caller — inspect the returned state).
    pub fn wait_paused(&self, id: u64, timeout: Duration) -> Result<CampaignView, HubError> {
        self.wait_where(id, timeout, |v| {
            v.state == CampaignState::Paused || v.state.is_terminal()
        })
    }

    /// Occupancy and eviction counters of the process-global cache.
    pub fn cache_stats(&self) -> HubCacheStats {
        HubCacheStats {
            rows: self.shared.cached_rows(),
            bytes: self.shared.cached_bytes() as usize,
            evicted: self.shared.evicted_rows(),
        }
    }

    /// Cancels every live campaign and joins all worker threads.
    pub fn shutdown(&self) {
        let ids: Vec<u64> = self
            .campaigns
            .lock()
            .expect("campaign table poisoned")
            .keys()
            .copied()
            .collect();
        for id in ids {
            let _ = self.cancel(id);
        }
        self.join();
    }

    /// Joins all worker threads without cancelling (blocks until every
    /// campaign is terminal or paused-forever — use `shutdown` to force).
    pub fn join(&self) {
        let workers: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker table poisoned")
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// What one segment produced.
enum Segment {
    Done {
        key: Key,
        validated: bool,
        queries: u64,
        stats: QueryStatsSnapshot,
    },
    Paused {
        layer: usize,
        phase: &'static str,
        queries: u64,
        stats: QueryStatsSnapshot,
    },
    Fail(String),
}

/// The campaign worker: runs segments until terminal. See the module docs
/// for the gate/slot/segment structure.
fn run_campaign(
    handle: Arc<CampaignHandle>,
    model: LockedModel,
    cfg: CampaignConfig,
    shared: relock_serve::SharedCache,
    sched: Arc<FairScheduler>,
) {
    // The campaign's slot, owned by this thread: taken at the start of
    // each segment, given back at its end and across every wait inside.
    let lease = Arc::new(sched.lease(&handle.tenant));
    let oracle = HostedOracle::new(&model, cfg.chaos.clone(), lease.clone());
    let namespace = model_namespace(&model);
    let mut attack_cfg = if cfg.fast {
        AttackConfig::fast()
    } else {
        AttackConfig::default()
    };
    // One thread of compute per slot, whatever `RELOCK_THREADS` says.
    attack_cfg.threads = 1;
    attack_cfg.variant = cfg.variant;
    let decryptor = Decryptor::new(attack_cfg);
    let mut mono_cfg = MonolithicConfig::default();
    if cfg.fast {
        mono_cfg.learning.samples = 256;
    }
    loop {
        // Gate: hold while a pause is in force.
        {
            let mut desired = handle.gate.lock().expect("campaign gate poisoned");
            if *desired == Desired::Hold && !handle.cancel.load(Ordering::Relaxed) {
                handle.set_state(CampaignState::Paused);
                while *desired == Desired::Hold && !handle.cancel.load(Ordering::Relaxed) {
                    desired = handle
                        .gate_cv
                        .wait(desired)
                        .expect("campaign gate poisoned");
                }
            }
        }
        if handle.cancel.load(Ordering::Relaxed) {
            handle.set_state(CampaignState::Cancelled);
            return;
        }
        lease.enter();
        handle.halt.store(false, Ordering::Relaxed);
        // A pause/cancel that raced the slot grant: honour it before
        // spending any oracle traffic.
        if *handle.gate.lock().expect("campaign gate poisoned") == Desired::Hold
            || handle.cancel.load(Ordering::Relaxed)
        {
            lease.leave();
            continue;
        }
        handle.update_view(|v| {
            v.state = CampaignState::Running;
            v.segments += 1;
        });
        let spent = handle.view.lock().expect("campaign view poisoned").queries;
        let broker_cfg = BrokerConfig {
            max_queries: cfg.query_budget.map(|b| b.saturating_sub(spent)),
            ..BrokerConfig::default()
        };
        let broker =
            Broker::with_shared_cache(&oracle, broker_cfg, &shared, namespace, Some(lease.clone()));
        let segment = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(cfg.seed);
            if cfg.monolithic {
                let report =
                    MonolithicAttack::new(mono_cfg).run(model.white_box(), &broker, &mut rng);
                Segment::Done {
                    key: report.key,
                    validated: true,
                    queries: report.queries,
                    stats: report.stats,
                }
            } else if cfg.variant.is_trigger() {
                // Trigger locks expose no per-unit sites for Algorithm 2;
                // the sampling search is the oracle-guided attack of
                // record for them (DESIGN.md §3h). Single segment, not
                // validated: agreement on random probes is not evidence
                // of key correctness on a trigger lock.
                let report = sampling_key_search(
                    model.white_box(),
                    &broker,
                    &SamplingConfig::from_attack(&attack_cfg),
                    &mut rng,
                );
                Segment::Done {
                    key: report.key,
                    validated: false,
                    queries: report.queries,
                    stats: broker.stats().snapshot(),
                }
            } else {
                match decryptor.resume_session(
                    model.white_box(),
                    &broker,
                    &mut rng,
                    &handle.sink,
                    &handle.halt,
                ) {
                    Ok((SessionOutcome::Completed(report), _)) => Segment::Done {
                        validated: report.fully_validated(),
                        queries: report.queries,
                        key: report.key,
                        stats: report.stats,
                    },
                    Ok((SessionOutcome::Paused(p), _)) => Segment::Paused {
                        layer: p.layer,
                        phase: p.phase,
                        queries: p.queries,
                        stats: p.stats,
                    },
                    Err(e) => Segment::Fail(e.to_string()),
                }
            }
        }));
        lease.leave();
        let crashes = oracle.crashes();
        match segment {
            Ok(Segment::Done {
                key,
                validated,
                queries,
                stats,
            }) => {
                handle.update_view(|v| {
                    v.queries = queries;
                    v.requested = stats.requested;
                    v.cache_hits = stats.cache_hits;
                    v.crashes = crashes;
                    v.key = Some(key);
                    v.validated = validated;
                    v.state = CampaignState::Completed;
                });
                return;
            }
            Ok(Segment::Paused {
                layer,
                phase,
                queries,
                stats,
            }) => {
                handle.update_view(|v| {
                    v.queries = queries;
                    v.requested = stats.requested;
                    v.cache_hits = stats.cache_hits;
                    v.crashes = crashes;
                    v.layer = layer;
                    v.phase = phase.to_string();
                });
                // Loop: the gate at the top decides between holding
                // (pause) and immediately continuing (cancel, or a pause
                // that was already resumed).
            }
            Ok(Segment::Fail(message)) => {
                handle.update_view(|v| {
                    v.crashes = crashes;
                    v.error = Some(message);
                    v.state = CampaignState::Failed;
                });
                return;
            }
            Err(payload) => {
                if payload.downcast_ref::<ChaosCrash>().is_some() {
                    // Scheduled chaos death: the segment's checkpoint
                    // survives, so just run another segment.
                    handle.update_view(|v| v.crashes = crashes);
                    continue;
                }
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "campaign worker panicked".to_string());
                handle.update_view(|v| {
                    v.crashes = crashes;
                    v.error = Some(message);
                    v.state = CampaignState::Failed;
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::LockSpec;
    use relock_nn::{build_mlp, MlpSpec};

    fn tiny_model(seed: u64) -> LockedModel {
        let mut rng = Prng::seed_from_u64(seed);
        build_mlp(
            &MlpSpec {
                input: 5,
                hidden: vec![7],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .expect("tiny model builds")
    }

    fn reference_key(model: &LockedModel, seed: u64) -> Key {
        let oracle = CountingOracle::new(model);
        Decryptor::new(AttackConfig::fast())
            .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(seed))
            .expect("reference attack succeeds")
            .key
    }

    #[test]
    fn submitted_campaign_completes_with_the_reference_key() {
        let model = tiny_model(900);
        let expected = reference_key(&model, 31);
        let hub = CampaignHub::new(2, None);
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 31,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        let view = hub
            .wait_terminal(id, Duration::from_secs(60))
            .expect("campaign finishes");
        assert_eq!(view.state, CampaignState::Completed);
        assert_eq!(view.key.as_ref(), Some(&expected));
        assert!(view.validated);
        assert!(view.queries > 0);
    }

    #[test]
    fn two_campaigns_on_one_model_share_the_cache() {
        let model = tiny_model(901);
        let hub = CampaignHub::new(2, None);
        let cfg = CampaignConfig {
            seed: 77,
            ..CampaignConfig::default()
        };
        let a = hub.submit(model.clone(), cfg.clone()).unwrap();
        let b = hub.submit(model, cfg).unwrap();
        let va = hub.wait_terminal(a, Duration::from_secs(60)).unwrap();
        let vb = hub.wait_terminal(b, Duration::from_secs(60)).unwrap();
        assert_eq!(va.state, CampaignState::Completed);
        assert_eq!(vb.state, CampaignState::Completed);
        assert_eq!(va.key, vb.key);
        // Same seed + same model + shared namespace: one campaign's rows
        // serve the other from cache, so combined underlying traffic is
        // strictly below two cold runs.
        let total_underlying = va.queries + vb.queries;
        let total_hits = va.cache_hits + vb.cache_hits;
        assert!(
            total_hits > 0,
            "identical campaigns produced no cross-campaign hits"
        );
        assert!(total_underlying < 2 * va.queries.max(vb.queries) + 1);
        assert!(hub.cache_stats().rows > 0);
    }

    #[test]
    fn trigger_campaigns_run_one_sampling_segment_and_cannot_pause() {
        let model = {
            let mut rng = Prng::seed_from_u64(905);
            build_mlp(
                &MlpSpec {
                    input: 6,
                    hidden: vec![8],
                    classes: 3,
                },
                LockSpec::sar(4),
                &mut rng,
            )
            .expect("trigger model builds")
        };
        let hub = CampaignHub::new(1, None);
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 41,
                    variant: LockVariant::SarTrigger,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        // The sampling segment is uninterruptible, so pause is rejected
        // in *every* phase — before, during, and after the run.
        match hub.pause(id) {
            Err(HubError::InvalidState(_)) => {}
            other => panic!("trigger pause must be InvalidState, got {other:?}"),
        }
        let view = hub
            .wait_terminal(id, Duration::from_secs(60))
            .expect("campaign finishes");
        assert_eq!(view.state, CampaignState::Completed);
        assert!(!view.validated, "sampling segments are never validated");
        assert!(view.queries > 0);
        assert!(view.key.is_some());
        match hub.pause(id) {
            Err(HubError::InvalidState(_)) => {}
            other => panic!("post-completion trigger pause, got {other:?}"),
        }
    }

    #[test]
    fn pause_checkpoint_migrate_resume_recovers_the_identical_key() {
        let model = tiny_model(902);
        let expected = reference_key(&model, 55);
        let hub = CampaignHub::new(1, None);
        let id = hub
            .submit(
                model.clone(),
                CampaignConfig {
                    seed: 55,
                    // A permanent latency floor slows the campaign enough for
                    // the pause request to land before completion.
                    chaos: Some(ChaosConfig {
                        seed: 9,
                        latency_spike_rate: 1.0,
                        latency_spike: Duration::from_millis(2),
                        ..ChaosConfig::default()
                    }),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // The campaign may already be terminal; pause only if still live.
        let _ = hub.pause(id);
        let view = hub.wait_paused(id, Duration::from_secs(60)).unwrap();
        if view.state == CampaignState::Paused {
            let frame = hub
                .checkpoint_bytes(id)
                .unwrap()
                .expect("paused campaign has a frame");
            assert!(view.queries > 0);
            // "Daemon restart": a second hub, fresh cache, resumed from
            // the migrated frame.
            let hub2 = CampaignHub::new(1, None);
            let id2 = hub2
                .submit_checkpointed(
                    model,
                    CampaignConfig {
                        seed: 55,
                        ..CampaignConfig::default()
                    },
                    frame,
                )
                .unwrap();
            let done = hub2.wait_terminal(id2, Duration::from_secs(60)).unwrap();
            assert_eq!(done.state, CampaignState::Completed);
            assert_eq!(done.key.as_ref(), Some(&expected));
            hub.cancel(id).unwrap();
            hub.shutdown();
            hub2.shutdown();
        } else {
            // Too fast to pause: the completed key must still be right.
            assert_eq!(view.key.as_ref(), Some(&expected));
        }
    }

    #[test]
    fn cancel_stops_a_held_campaign() {
        let model = tiny_model(903);
        let hub = CampaignHub::new(1, None);
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 3,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        // Cancel can race completion on a tiny model; both ends are fine,
        // but the campaign must reach a terminal state promptly.
        let _ = hub.cancel(id);
        let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
        assert!(view.state.is_terminal());
        assert!(matches!(
            hub.cancel(id),
            Err(HubError::InvalidState(_)) | Ok(())
        ));
    }

    #[test]
    fn chaos_crashes_are_absorbed_by_resegmenting() {
        let model = tiny_model(904);
        let expected = reference_key(&model, 21);
        let hub = CampaignHub::new(1, None);
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 21,
                    chaos: Some(ChaosConfig::crash_only(5, vec![40, 90])),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
        assert_eq!(view.state, CampaignState::Completed);
        assert_eq!(view.key.as_ref(), Some(&expected));
        assert_eq!(view.crashes, 2, "both scheduled crashes fired");
        assert!(view.segments >= 3, "each crash costs a segment");
    }

    #[test]
    fn query_budget_bounds_underlying_traffic() {
        let model = tiny_model(905);
        let hub = CampaignHub::new(1, None);
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 11,
                    query_budget: Some(10),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
        // The attack degrades on exhaustion rather than erroring whenever
        // it already holds a key candidate, so either terminal state is
        // legitimate — but the budget itself is a hard ceiling.
        assert!(
            view.queries <= 10,
            "spent {} of a 10-row budget",
            view.queries
        );
        match view.state {
            CampaignState::Completed => {
                assert!(!view.validated, "10 queries cannot validate every layer")
            }
            CampaignState::Failed => {
                assert!(view.error.is_some(), "failure carries a message");
            }
            other => panic!("expected a terminal state, got {other:?}"),
        }
    }

    #[test]
    fn admission_cap_rejects_then_recovers() {
        let model = tiny_model(907);
        let hub = CampaignHub::with_admission_cap(1, None, Some(1));
        // A permanent latency floor keeps the first campaign live long
        // enough for the second submission to hit the cap.
        let id = hub
            .submit(
                model.clone(),
                CampaignConfig {
                    seed: 61,
                    chaos: Some(ChaosConfig {
                        seed: 3,
                        latency_spike_rate: 1.0,
                        latency_spike: Duration::from_millis(2),
                        ..ChaosConfig::default()
                    }),
                    ..CampaignConfig::default()
                },
            )
            .expect("first submission fits the cap");
        let err = hub
            .submit(
                model.clone(),
                CampaignConfig {
                    seed: 62,
                    ..CampaignConfig::default()
                },
            )
            .expect_err("cap of 1 with a live campaign must reject");
        assert_eq!(err, HubError::Overloaded { live: 1, cap: 1 });
        // The rejected submission left nothing behind, and capacity
        // returns once the live campaign is terminal.
        assert_eq!(hub.live_campaigns(), 1);
        hub.cancel(id).unwrap();
        hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
        let id2 = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 63,
                    ..CampaignConfig::default()
                },
            )
            .expect("capacity freed by the terminal campaign");
        let view = hub.wait_terminal(id2, Duration::from_secs(60)).unwrap();
        assert_eq!(view.state, CampaignState::Completed);
    }

    /// Every oracle call sleeps 20 ms: a campaign that mostly waits.
    fn slow_device() -> Option<ChaosConfig> {
        Some(ChaosConfig {
            seed: 5,
            latency_spike_rate: 1.0,
            latency_spike: Duration::from_millis(20),
            ..ChaosConfig::default()
        })
    }

    #[test]
    fn latency_bound_campaigns_overlap_on_one_slot() {
        // (victim, seed) pairs whose attacks make ~16 round trips each
        // (416 queries), so the 20 ms waits dominate their wall time.
        let runs = [(913, 3), (921, 3), (925, 1), (931, 1)];
        let models: Vec<LockedModel> = runs.iter().map(|&(v, _)| tiny_model(v)).collect();
        let cfg = |i: usize| CampaignConfig {
            seed: runs[i].1,
            chaos: slow_device(),
            ..CampaignConfig::default()
        };
        let expected: Vec<Key> = (0..4)
            .map(|i| reference_key(&models[i], runs[i].1))
            .collect();
        // Each campaign alone on a one-slot hub...
        let mut alone = Duration::ZERO;
        for (i, model) in models.iter().enumerate() {
            let hub = CampaignHub::new(1, None);
            let t = Instant::now();
            let id = hub.submit(model.clone(), cfg(i)).unwrap();
            let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
            alone = alone.max(t.elapsed());
            assert_eq!(view.key.as_ref(), Some(&expected[i]));
        }
        // ...and all four at once: they overlap their oracle waits.
        let hub = CampaignHub::new(1, None);
        let t = Instant::now();
        let ids: Vec<u64> = (0..4)
            .map(|i| hub.submit(models[i].clone(), cfg(i)).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
            assert_eq!(view.state, CampaignState::Completed);
            assert_eq!(view.key.as_ref(), Some(&expected[i]));
        }
        let makespan = t.elapsed();
        assert!(
            makespan < 2 * alone,
            "4 campaigns took {makespan:?} on one slot; the slowest alone took {alone:?}"
        );
    }

    #[test]
    fn campaigns_waiting_on_each_others_rows_do_not_deadlock_on_one_slot() {
        let model = tiny_model(915);
        let expected = reference_key(&model, 71);
        let hub = CampaignHub::new(1, None);
        let cfg = CampaignConfig {
            seed: 71,
            chaos: slow_device(),
            ..CampaignConfig::default()
        };
        let ids: Vec<u64> = (0..4)
            .map(|_| hub.submit(model.clone(), cfg.clone()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut hits = 0;
        for id in ids {
            let left = deadline.saturating_duration_since(Instant::now());
            let view = hub
                .wait_terminal(id, left)
                .expect("one-slot campaigns on one victim finish within 60 s");
            assert_eq!(view.state, CampaignState::Completed);
            assert_eq!(view.key.as_ref(), Some(&expected));
            hits += view.cache_hits;
        }
        assert!(hits > 0, "twins served none of each other's rows");
    }

    #[test]
    fn unknown_ids_and_monolithic_pause_are_rejected() {
        let model = tiny_model(906);
        let hub = CampaignHub::new(1, None);
        assert_eq!(hub.status(99).unwrap_err(), HubError::UnknownCampaign(99));
        let id = hub
            .submit(
                model,
                CampaignConfig {
                    seed: 13,
                    monolithic: true,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        assert!(matches!(hub.pause(id), Err(HubError::InvalidState(_))));
        let view = hub.wait_terminal(id, Duration::from_secs(60)).unwrap();
        assert_eq!(view.state, CampaignState::Completed);
        assert!(view.key.is_some());
    }
}
