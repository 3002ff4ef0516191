//! Crash-safe attack checkpointing.
//!
//! A multi-hour decryption run against real locked hardware dies to the
//! most mundane causes — OOM kills, preemption, a flaky USB link to the
//! board — and the paper's query budgets make "start over" expensive.
//! This module gives [`crate::Decryptor`] a durable snapshot it can
//! resume from *bit-identically*: the recovered/committed key bits so
//! far, the warm-start multipliers, the current layer and phase cut, the
//! exact PRNG state at that cut, and the accumulated timing and broker
//! accounting.
//!
//! [`AttackState`] is the decryptor's session itself, in the decryptor's
//! own types, and [`AttackState::encode`] / [`AttackState::decode`] are the
//! only code that maps it to integers.
//! A resumed run enters the same phase code as a fresh one, at the cut
//! its state holds.
//!
//! ## Consistent cuts
//!
//! Snapshots are only taken at **phase cuts** — points in Algorithm 2
//! where the attack's mutable state is fully described by the session
//! and the next action consumes the PRNG stream from a known position:
//!
//! - `LayerStart` — before a layer's algebraic pass (also written after
//!   every layer commit, with the *next* layer's index);
//! - `PostInfer` — after Algorithm 1, carrying its per-site outcomes;
//! - `PostLearn` — after the learning attack, **before** the validation
//!   target is drawn (target selection shuffles the PRNG, so the resumed
//!   run redraws it from the restored state and gets the same target);
//! - `Correcting` — before each error-correction candidate, carrying the
//!   *serialized* validation target (redrawing it mid-correction would
//!   diverge the stream) and the index of the next candidate to try.
//!
//! Because every oracle in the test rig is deterministic and the PRNG is
//! restored exactly, replaying from a cut is indistinguishable from never
//! having crashed: same key, same fidelity, same per-layer decisions.
//!
//! ## On-disk format
//!
//! A checkpoint is a single little-endian binary blob:
//!
//! ```text
//! magic "RLCP" | version u32 | payload_len u64 | payload | fnv1a64 u64
//! ```
//!
//! The trailing checksum covers everything before it, so truncation and
//! bit rot are both detected; [`AttackState::decode`] returns a typed
//! [`CheckpointError`] instead of panicking. `Decryptor::resume` then
//! checks that the decoded session fits the graph (key width, layers,
//! every slot, node and unit its cut names) and degrades any failure into
//! a fresh run. [`FileCheckpointSink`]
//! writes atomically (temp file + rename) so a crash *during* a save
//! leaves the previous checkpoint intact.

use crate::decrypt::LayerReport;
use crate::infer::InferredBits;
use crate::learning::LearnedMultipliers;
use crate::telemetry::{QueryStatsSnapshot, TimingBreakdown};
use crate::validate::ValidationTarget;
use relock_graph::{bounded_vec, KeyAssignment, KeySlot, NodeId, UnitLayout};
use relock_serve::{ScopeCounts, HISTOGRAM_BUCKETS};
use relock_tensor::rng::PrngState;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The four magic bytes opening every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RLCP";

/// Current checkpoint format version. Bumped on any layout change — or,
/// as for version 2, on a change to the driver's PRNG-stream discipline: a
/// version-1 `Correcting` cut could land on any candidate index, but the
/// sharded engine forks per-site/per-candidate streams and cuts only on
/// wave boundaries, so replaying an old snapshot would silently diverge.
/// Older or newer files are rejected with [`CheckpointError::Version`]
/// (and a resume falls back to a fresh run).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The sink's storage failed (message of the underlying I/O error).
    Io(String),
    /// The bytes failed structural validation: bad magic, truncation,
    /// checksum mismatch, or malformed payload.
    Corrupt(String),
    /// The format version does not match [`CHECKPOINT_VERSION`].
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The checkpoint is internally sound but does not fit the graph it
    /// is being resumed against (different key width, layer count, …).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Incompatible(msg) => write!(f, "incompatible checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Where checkpoints are persisted. `save` must be atomic with respect to
/// crashes: a reader must observe either the previous blob or the new one,
/// never a prefix.
pub trait CheckpointSink {
    /// Persists one encoded checkpoint, replacing any previous one.
    ///
    /// # Errors
    ///
    /// Propagates the sink's storage failure.
    fn save(&self, bytes: &[u8]) -> io::Result<()>;

    /// Loads the last persisted checkpoint, or `None` if none exists.
    ///
    /// # Errors
    ///
    /// Propagates the sink's storage failure.
    fn load(&self) -> io::Result<Option<Vec<u8>>>;
}

/// File-backed sink with atomic replace: the blob is written to
/// `<path>.tmp` and renamed over `<path>`, so a crash mid-save cannot
/// destroy the previous checkpoint. A missing file loads as `None`.
#[derive(Debug, Clone)]
pub struct FileCheckpointSink {
    path: PathBuf,
}

impl FileCheckpointSink {
    /// A sink persisting to `path` (parent directories are created on the
    /// first save).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointSink { path: path.into() }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &self.path)
    }

    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// In-memory sink for tests and soak harnesses. `set` lets a test plant a
/// corrupted blob; `saves` counts writes.
#[derive(Debug, Default)]
pub struct MemoryCheckpointSink {
    cell: Mutex<Option<Vec<u8>>>,
    saves: AtomicU64,
}

impl MemoryCheckpointSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemoryCheckpointSink::default()
    }

    /// The currently stored blob, if any.
    pub fn contents(&self) -> Option<Vec<u8>> {
        self.cell.lock().expect("sink poisoned").clone()
    }

    /// Replaces the stored blob (e.g. with deliberately damaged bytes).
    pub fn set(&self, bytes: Option<Vec<u8>>) {
        *self.cell.lock().expect("sink poisoned") = bytes;
    }

    /// Number of `save` calls so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for MemoryCheckpointSink {
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        *self.cell.lock().expect("sink poisoned") = Some(bytes.to_vec());
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.contents())
    }
}

/// How a `Decryptor::resume` call started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeStatus {
    /// The sink held no checkpoint — the run started fresh.
    Fresh,
    /// The sink held a checkpoint that could not be used (corrupt,
    /// truncated, wrong version, or incompatible with the graph) — the
    /// run started fresh rather than panicking.
    FellBack {
        /// Human-readable cause.
        reason: String,
    },
    /// The run continued from a checkpoint.
    Resumed {
        /// Zero-based index of the layer the checkpoint was taken in.
        layer: usize,
        /// The phase cut's name (`"layer-start"`, `"post-inference"`,
        /// `"post-learning"`, `"correcting"`).
        phase: &'static str,
    },
}

impl ResumeStatus {
    /// Whether a checkpoint was actually restored.
    pub fn resumed(&self) -> bool {
        matches!(self, ResumeStatus::Resumed { .. })
    }
}

/// The point inside a layer's Algorithm-2 pass where a snapshot was taken,
/// and the point a resumed run continues from: the decryptor runs a layer's
/// phases from whatever cut its state holds.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseCut {
    /// Before the layer's algebraic pass (or after the previous layer's
    /// commit, with `layer_index` pointing at the next layer).
    LayerStart,
    /// After Algorithm 1, with its per-site outcomes (`None` for ⊥) in site
    /// order. The state's key already holds the algebraic commits.
    PostInfer {
        /// Per-site inference outcomes in site order.
        inferred: InferredBits,
    },
    /// After the learning attack, before the validation target is drawn.
    /// The state's key and warm starts already hold the learned
    /// assignment.
    PostLearn {
        /// Slots Algorithm 1 left unresolved, in site order (the relearn
        /// remedy needs them).
        unresolved: Vec<KeySlot>,
        /// Per-slot confidence levels.
        confidences: BTreeMap<KeySlot, f64>,
    },
    /// Before error-correction candidate number `tried` (zero-based in
    /// the deterministic candidate plan). The state's key is the pre-flip
    /// candidate.
    Correcting {
        /// Per-slot confidence levels at correction entry.
        confidences: BTreeMap<KeySlot, f64>,
        /// Bits the layer report attributes to Algorithm 1.
        algebraic: usize,
        /// Bits the layer report attributes to the learning attack.
        learned: usize,
        /// Validation rounds spent before this candidate.
        rounds: usize,
        /// Index of the next candidate to try.
        tried: usize,
        /// The already-drawn validation target, carried verbatim: redrawing
        /// it on resume would consume the PRNG differently than the
        /// original run. `None` on the last layer, where validation
        /// compares outputs directly.
        target: Option<ValidationTarget>,
    },
}

impl PhaseCut {
    /// Stable human-readable name of the cut.
    pub fn phase_name(&self) -> &'static str {
        match self {
            PhaseCut::LayerStart => "layer-start",
            PhaseCut::PostInfer { .. } => "post-inference",
            PhaseCut::PostLearn { .. } => "post-learning",
            PhaseCut::Correcting { .. } => "correcting",
        }
    }
}

/// An attack session: everything needed to continue a decryption run from
/// a phase cut. `Decryptor` runs on this value directly, so a snapshot is
/// the session itself: a cut is written by setting [`AttackState::cut`]
/// and saving [`AttackState::encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttackState {
    /// Zero-based index of the layer being worked on (== the number of
    /// locked layers when the run had finished).
    pub layer_index: usize,
    /// Where inside the layer the session stands.
    pub cut: PhaseCut,
    /// The working key assignment (committed layers, algebraic commits,
    /// and provisional later-layer estimates alike); its length is the
    /// key width of the graph the session belongs to.
    pub key: KeyAssignment,
    /// Committed bits.
    pub committed: BTreeMap<KeySlot, bool>,
    /// The learning attack's warm-start multipliers.
    pub warm: LearnedMultipliers,
    /// Reports of fully committed layers, in processing order.
    pub reports: Vec<LayerReport>,
    /// Exact PRNG state at the cut.
    pub rng: PrngState,
    /// Accumulated per-procedure timing.
    pub timing: TimingBreakdown,
    /// Accumulated broker accounting up to the cut (all segments).
    pub stats: QueryStatsSnapshot,
    /// Underlying oracle queries spent up to the cut (all segments).
    pub queries: u64,
}

// --- little-endian primitive encoding -----------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// `None` ⇒ 0, `Some(false)` ⇒ 1, `Some(true)` ⇒ 2.
fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    out.push(match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// `len | (slot, value)*`, in slot order.
fn put_slot_map<T: Copy>(out: &mut Vec<u8>, map: &BTreeMap<KeySlot, T>, put: fn(&mut Vec<u8>, T)) {
    put_usize(out, map.len());
    for (slot, &v) in map {
        put_usize(out, slot.index());
        put(out, v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CheckpointError::Corrupt("truncated payload".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("index overflows usize".into()))
    }

    fn slot(&mut self) -> Result<KeySlot, CheckpointError> {
        Ok(KeySlot(self.usize()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            b => Err(CheckpointError::Corrupt(format!(
                "bad optional-bool byte {b}"
            ))),
        }
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("scope label is not UTF-8".into()))
    }

    /// A `len`-prefixed sequence. A forged length reserves no more than
    /// [`bounded_vec`]'s 2^20 items up front; the items themselves must
    /// then be present.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.usize()?;
        let mut out = bounded_vec(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A [`put_slot_map`] map. Slots must be strictly increasing, so every
    /// accepted map re-encodes to the bytes it came from.
    fn slot_map<T>(
        &mut self,
        value: impl Fn(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<BTreeMap<KeySlot, T>, CheckpointError> {
        let mut map = BTreeMap::new();
        for _ in 0..self.usize()? {
            let slot = self.slot()?;
            if map.last_key_value().is_some_and(|(&last, _)| last >= slot) {
                return Err(CheckpointError::Corrupt(format!(
                    "slot {slot} out of order"
                )));
            }
            map.insert(slot, value(self)?);
        }
        Ok(map)
    }

    fn done(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl AttackState {
    /// A fresh session over an `n_slots`-bit key whose random stream
    /// starts at `rng`: layer 0, nothing committed, nothing spent.
    pub(crate) fn fresh(n_slots: usize, rng: PrngState) -> Self {
        AttackState {
            layer_index: 0,
            cut: PhaseCut::LayerStart,
            key: KeyAssignment::all_zero_bits(n_slots),
            committed: BTreeMap::new(),
            warm: LearnedMultipliers::new(),
            reports: Vec::new(),
            rng,
            timing: TimingBreakdown::new(),
            stats: QueryStatsSnapshot::default(),
            queries: 0,
        }
    }

    /// Serializes the state into the framed `RLCP` format.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let bits = self.key.to_bits();
        put_usize(&mut p, bits.len());
        put_usize(&mut p, self.layer_index);
        put_usize(&mut p, bits.len());
        for &b in &bits {
            put_bool(&mut p, b);
        }
        put_slot_map(&mut p, &self.committed, put_bool);
        put_slot_map(&mut p, &self.warm, put_f64);
        put_usize(&mut p, self.reports.len());
        for r in &self.reports {
            put_usize(&mut p, r.keyed_node.index());
            for n in [
                r.bits,
                r.algebraic,
                r.learned,
                r.validation_rounds,
                r.corrected,
            ] {
                put_usize(&mut p, n);
            }
            put_bool(&mut p, r.validated);
        }
        for &w in &self.rng.s {
            put_u64(&mut p, w);
        }
        match self.rng.spare_normal {
            None => p.push(0),
            Some(v) => {
                p.push(1);
                put_f64(&mut p, v);
            }
        }
        for n in self.timing.as_nanos() {
            put_u64(&mut p, n);
        }
        put_u64(&mut p, self.stats.requested);
        put_u64(&mut p, self.stats.cache_hits);
        put_u64(&mut p, self.stats.underlying);
        put_u64(&mut p, self.stats.batches);
        put_u64(&mut p, self.stats.retries);
        put_u64(&mut p, self.stats.injected_faults);
        put_u64(&mut p, self.stats.oracle_time.as_nanos() as u64);
        for &n in &self.stats.histogram {
            put_u64(&mut p, n);
        }
        put_usize(&mut p, self.stats.per_scope.len());
        for (label, c) in &self.stats.per_scope {
            put_str(&mut p, label);
            put_u64(&mut p, c.requested);
            put_u64(&mut p, c.cache_hits);
            put_u64(&mut p, c.underlying);
        }
        put_u64(&mut p, self.queries);
        match &self.cut {
            PhaseCut::LayerStart => p.push(0),
            PhaseCut::PostInfer { inferred } => {
                p.push(1);
                put_usize(&mut p, inferred.len());
                for &(slot, b) in inferred {
                    put_usize(&mut p, slot.index());
                    put_opt_bool(&mut p, b);
                }
            }
            PhaseCut::PostLearn {
                unresolved,
                confidences,
            } => {
                p.push(2);
                put_usize(&mut p, unresolved.len());
                for slot in unresolved {
                    put_usize(&mut p, slot.index());
                }
                put_slot_map(&mut p, confidences, put_f64);
            }
            PhaseCut::Correcting {
                confidences,
                algebraic,
                learned,
                rounds,
                tried,
                target,
            } => {
                p.push(3);
                put_slot_map(&mut p, confidences, put_f64);
                for n in [*algebraic, *learned, *rounds, *tried] {
                    put_usize(&mut p, n);
                }
                match target {
                    None => p.push(0),
                    Some(t) => {
                        p.push(1);
                        put_usize(&mut p, t.surface_node.index());
                        let l = &t.layout;
                        for d in [l.n_units, l.unit_len, l.unit_stride, l.elem_stride] {
                            put_usize(&mut p, d);
                        }
                        put_usize(&mut p, t.units.len());
                        for &(u, slot) in &t.units {
                            put_usize(&mut p, u);
                            match slot {
                                None => p.push(0),
                                Some(s) => {
                                    p.push(1);
                                    put_usize(&mut p, s.index());
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(4 + 4 + 8 + p.len() + 8);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut out, CHECKPOINT_VERSION);
        put_u64(&mut out, p.len() as u64);
        out.extend_from_slice(&p);
        let sum = fnv1a64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses a framed checkpoint, validating magic, version, declared
    /// length, and checksum before touching the payload. Whether the state
    /// fits a graph is the resuming `Decryptor`'s check.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on any structural damage,
    /// [`CheckpointError::Version`] on a format-version mismatch.
    pub fn decode(bytes: &[u8]) -> Result<AttackState, CheckpointError> {
        const HEADER: usize = 4 + 4 + 8;
        if bytes.len() < HEADER + 8 {
            return Err(CheckpointError::Corrupt(format!(
                "{} bytes is shorter than the fixed framing",
                bytes.len()
            )));
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
        if fnv1a64(body) != stored_sum {
            return Err(CheckpointError::Corrupt("checksum mismatch".into()));
        }
        let mut r = Reader::new(&bytes[4..bytes.len() - 8]);
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let payload_len = r.usize()?;
        if payload_len != bytes.len() - HEADER - 8 {
            return Err(CheckpointError::Corrupt(format!(
                "declared payload length {payload_len} does not match {} actual bytes",
                bytes.len() - HEADER - 8
            )));
        }

        let n_slots = r.usize()?;
        let layer_index = r.usize()?;
        let bits = r.seq(Reader::bool)?;
        if bits.len() != n_slots {
            return Err(CheckpointError::Corrupt(format!(
                "key holds {} bits, the header says {n_slots}",
                bits.len()
            )));
        }
        let committed = r.slot_map(Reader::bool)?;
        let warm = r.slot_map(Reader::f64)?;
        let reports = r.seq(|r| {
            Ok(LayerReport {
                keyed_node: NodeId(r.usize()?),
                bits: r.usize()?,
                algebraic: r.usize()?,
                learned: r.usize()?,
                validation_rounds: r.usize()?,
                corrected: r.usize()?,
                validated: r.bool()?,
            })
        })?;
        let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let spare_normal = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            b => {
                return Err(CheckpointError::Corrupt(format!(
                    "bad spare-normal tag {b}"
                )))
            }
        };
        let rng = PrngState { s, spare_normal };
        let timing = TimingBreakdown::from_nanos([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let mut stats = QueryStatsSnapshot {
            requested: r.u64()?,
            cache_hits: r.u64()?,
            underlying: r.u64()?,
            batches: r.u64()?,
            retries: r.u64()?,
            injected_faults: r.u64()?,
            oracle_time: Duration::from_nanos(r.u64()?),
            ..QueryStatsSnapshot::default()
        };
        for i in 0..HISTOGRAM_BUCKETS {
            stats.histogram[i] = r.u64()?;
        }
        stats.per_scope = r.seq(|r| {
            Ok((
                r.str()?,
                ScopeCounts {
                    requested: r.u64()?,
                    cache_hits: r.u64()?,
                    underlying: r.u64()?,
                },
            ))
        })?;
        let queries = r.u64()?;
        let cut = match r.u8()? {
            0 => PhaseCut::LayerStart,
            1 => PhaseCut::PostInfer {
                inferred: r.seq(|r| Ok((r.slot()?, r.opt_bool()?)))?,
            },
            2 => PhaseCut::PostLearn {
                unresolved: r.seq(Reader::slot)?,
                confidences: r.slot_map(Reader::f64)?,
            },
            3 => {
                let confidences = r.slot_map(Reader::f64)?;
                let [algebraic, learned, rounds, tried] =
                    [r.usize()?, r.usize()?, r.usize()?, r.usize()?];
                let target = match r.u8()? {
                    0 => None,
                    1 => Some(ValidationTarget {
                        surface_node: NodeId(r.usize()?),
                        layout: UnitLayout {
                            n_units: r.usize()?,
                            unit_len: r.usize()?,
                            unit_stride: r.usize()?,
                            elem_stride: r.usize()?,
                        },
                        units: r.seq(|r| {
                            let unit = r.usize()?;
                            match r.u8()? {
                                0 => Ok((unit, None)),
                                1 => Ok((unit, Some(r.slot()?))),
                                b => {
                                    Err(CheckpointError::Corrupt(format!("bad unit-slot tag {b}")))
                                }
                            }
                        })?,
                    }),
                    b => return Err(CheckpointError::Corrupt(format!("bad target tag {b}"))),
                };
                PhaseCut::Correcting {
                    confidences,
                    algebraic,
                    learned,
                    rounds,
                    tried,
                    target,
                }
            }
            b => return Err(CheckpointError::Corrupt(format!("bad phase-cut tag {b}"))),
        };
        r.done()?;
        Ok(AttackState {
            layer_index,
            cut,
            key: KeyAssignment::from_bits(&bits),
            committed,
            warm,
            reports,
            rng,
            timing,
            stats,
            queries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(cut: PhaseCut) -> AttackState {
        AttackState {
            layer_index: 1,
            cut,
            key: KeyAssignment::from_bits(&[true, false, true, true, false, false]),
            committed: [(KeySlot(0), true), (KeySlot(1), false), (KeySlot(2), true)].into(),
            warm: [(KeySlot(3), -0.75), (KeySlot(4), 0.25), (KeySlot(5), 0.9)].into(),
            reports: vec![LayerReport {
                keyed_node: NodeId(2),
                bits: 3,
                algebraic: 2,
                learned: 1,
                validation_rounds: 1,
                corrected: 0,
                validated: true,
            }],
            rng: PrngState {
                s: [1, 2, 3, u64::MAX],
                spare_normal: Some(-0.5),
            },
            timing: TimingBreakdown::from_nanos([10, 20, 30, 40]),
            stats: QueryStatsSnapshot {
                requested: 100,
                cache_hits: 10,
                underlying: 90,
                batches: 7,
                retries: 1,
                injected_faults: 2,
                oracle_time: Duration::from_millis(12),
                histogram: [1, 0, 2, 0, 3, 0, 1, 0],
                per_scope: vec![(
                    "learning_attack".into(),
                    ScopeCounts {
                        requested: 100,
                        cache_hits: 10,
                        underlying: 90,
                    },
                )],
                // Cache occupancy/eviction gauges are live-process state,
                // not attack state: they are not serialized (keeping the
                // RLCP v2 byte format unchanged) and default to zero here.
                ..QueryStatsSnapshot::default()
            },
            queries: 90,
        }
    }

    fn all_cuts() -> Vec<PhaseCut> {
        let conf = |c: [f64; 3]| (3..6).map(KeySlot).zip(c).collect();
        vec![
            PhaseCut::LayerStart,
            PhaseCut::PostInfer {
                inferred: vec![
                    (KeySlot(3), Some(true)),
                    (KeySlot(4), None),
                    (KeySlot(5), Some(false)),
                ],
            },
            PhaseCut::PostLearn {
                unresolved: vec![KeySlot(4)],
                confidences: conf([1.0, 0.4, 1.0]),
            },
            PhaseCut::Correcting {
                confidences: conf([1.0, 0.4, 0.8]),
                algebraic: 2,
                learned: 1,
                rounds: 2,
                tried: 5,
                target: Some(ValidationTarget {
                    surface_node: NodeId(4),
                    layout: UnitLayout {
                        n_units: 3,
                        unit_len: 2,
                        unit_stride: 2,
                        elem_stride: 1,
                    },
                    units: vec![(0, Some(KeySlot(3))), (1, None), (2, Some(KeySlot(5)))],
                }),
            },
        ]
    }

    #[test]
    fn round_trips_every_cut_variant() {
        for cut in all_cuts() {
            let state = sample_state(cut);
            let back = AttackState::decode(&state.encode()).expect("decode");
            assert_eq!(back, state);
        }
    }

    #[test]
    fn flipped_byte_is_detected() {
        let state = sample_state(PhaseCut::LayerStart);
        let mut bytes = state.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match AttackState::decode(&bytes) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let state = sample_state(all_cuts().pop().unwrap());
        let bytes = state.encode();
        for cut_len in [0, 3, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    AttackState::decode(&bytes[..cut_len]),
                    Err(CheckpointError::Corrupt(_))
                ),
                "truncation to {cut_len} bytes not detected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let state = sample_state(PhaseCut::LayerStart);
        let mut bytes = state.encode();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the frame so only the version differs.
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            AttackState::decode(&bytes),
            Err(CheckpointError::Version { found: 99 })
        );
    }

    /// A map whose slots are not strictly increasing could not have come
    /// from `encode`; accepting it would decode to a state that re-encodes
    /// to other bytes.
    #[test]
    fn out_of_order_slot_map_is_corrupt() {
        let bytes = sample_state(PhaseCut::LayerStart).encode();
        let mut p = bytes[16..bytes.len() - 8].to_vec();
        // The committed map follows width, layer, and the 6 key bits.
        let committed = 8 + 8 + 8 + 6;
        assert_eq!(p[committed..committed + 8], 3u64.to_le_bytes());
        // Swap the first two entries' slots (0 and 1): slot order breaks.
        p[committed + 8] = 1;
        p[committed + 8 + 9] = 0;
        let mut bad = bytes[..16].to_vec();
        bad.extend_from_slice(&p);
        let sum = fnv1a64(&bad);
        put_u64(&mut bad, sum);
        match AttackState::decode(&bad) {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("out of order"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_sink_round_trips_and_survives_missing_file() {
        let dir = std::env::temp_dir().join(format!("relock-ckpt-{}", std::process::id()));
        let sink = FileCheckpointSink::new(dir.join("attack.ckpt"));
        assert_eq!(sink.load().unwrap(), None);
        let state = sample_state(PhaseCut::LayerStart);
        sink.save(&state.encode()).unwrap();
        let loaded = sink.load().unwrap().expect("saved");
        assert_eq!(AttackState::decode(&loaded).unwrap(), state);
        // Replacement keeps exactly one blob.
        let state2 = sample_state(all_cuts().pop().unwrap());
        sink.save(&state2.encode()).unwrap();
        let loaded = sink.load().unwrap().expect("saved");
        assert_eq!(AttackState::decode(&loaded).unwrap(), state2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_sink_counts_saves() {
        let sink = MemoryCheckpointSink::new();
        assert_eq!(sink.load().unwrap(), None);
        sink.save(b"one").unwrap();
        sink.save(b"two").unwrap();
        assert_eq!(sink.saves(), 2);
        assert_eq!(sink.contents().unwrap(), b"two");
        sink.set(None);
        assert_eq!(sink.load().unwrap(), None);
    }
}
