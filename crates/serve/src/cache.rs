//! Content-addressed memoization of oracle responses.
//!
//! The attack re-queries the same inputs heavily: validation's two-scale
//! kink test probes `x ± δu` and `x ± (δ/2)u` around the same witness for
//! several directions (re-reading `O(x)` each time), and error correction
//! re-validates many candidates against the same witness set. Keys are the
//! *bit-exact* `f64` input bytes, so a cache hit is guaranteed to be the
//! response the hardware would have produced — no tolerance, no false
//! sharing between nearby probes (`x + δu` and `x + (δ/2)u` differ in bits
//! and get distinct entries).
//!
//! For a one-shot attack the table is unbounded: the attack's working set
//! fits in memory and every hit is free budget. A long-lived process (the
//! campaign daemon) instead constructs the cache with a byte cap; each
//! shard then tracks recency and evicts least-recently-used rows once its
//! slice of the cap overflows. Eviction only ever costs extra underlying
//! queries — a missing row is re-dispatched, never mis-served — so the cap
//! trades memory for `#Q` without touching correctness.

use crate::flight::FlightTable;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards; a power of two so the shard
/// index is a cheap mask. Sharding keeps concurrent batches' insertions
/// from serializing on one lock.
const SHARDS: usize = 16;

/// Fixed per-entry bookkeeping estimate (map nodes, recency index, `Box`
/// headers) added to the payload bytes when charging an entry against the
/// byte cap.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Bit-exact row key: the `f64::to_bits` image of one input row, optionally
/// prefixed with a namespace word (see [`row_key_ns`]), and its fingerprint.
///
/// The fingerprint is hashed once, when the key is built; the shard index
/// and every map the key enters reuse it through [`Prehashed`], so a
/// brokered row costs one hash however many tables it passes. Equality
/// still compares every word, so two keys that share a fingerprint stay
/// distinct entries. Clones share the words.
#[derive(Debug, Clone)]
pub(crate) struct RowKey {
    fingerprint: u64,
    words: Arc<[u64]>,
}

impl RowKey {
    fn new(words: Arc<[u64]>) -> Self {
        let mut h = DefaultHasher::new();
        words.hash(&mut h);
        RowKey {
            fingerprint: h.finish(),
            words,
        }
    }

    /// The key words, for tests.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// A key with a chosen fingerprint, for collision tests.
    #[cfg(test)]
    pub(crate) fn with_fingerprint(row: &[f64], fingerprint: u64) -> Self {
        RowKey {
            fingerprint,
            words: row.iter().map(|v| v.to_bits()).collect(),
        }
    }
}

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint && self.words == other.words
    }
}

impl Eq for RowKey {}

impl Hash for RowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// The hasher of every map keyed by [`RowKey`]: it passes the key's
/// fingerprint through instead of hashing the words again. The value is
/// rotated so that a shard's keys, which share their low bits (the shard
/// index), still spread over the shard map's buckets.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0.rotate_right(SHARDS.trailing_zeros())
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a row key hashes as its fingerprint")
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }
}

/// A map keyed by [`RowKey`].
pub(crate) type RowMap<V> = HashMap<RowKey, V, BuildHasherDefault<Prehashed>>;

/// Builds the cache key of one input row with no namespace.
#[cfg(test)]
pub(crate) fn row_key(row: &[f64]) -> RowKey {
    row_key_ns(None, row)
}

/// Builds the cache key of one input row under an optional namespace.
///
/// A process-global cache is shared by brokers fronting *different* models;
/// identical input bytes then produce different outputs per model, so each
/// broker prepends its namespace word (derived from the model content) to
/// every key. `None` (private brokers) produces exactly the historical key
/// bytes.
pub(crate) fn row_key_ns(ns: Option<u64>, row: &[f64]) -> RowKey {
    RowKey::new(
        ns.into_iter()
            .chain(row.iter().map(|v| v.to_bits()))
            .collect(),
    )
}

fn shard_of(key: &RowKey) -> usize {
    (key.fingerprint as usize) & (SHARDS - 1)
}

fn entry_bytes(key: &RowKey, value: &[f64]) -> usize {
    (key.words.len() + value.len()) * 8 + ENTRY_OVERHEAD_BYTES
}

/// One shard: the map plus an LRU recency index. `tick` is a shard-local
/// monotone counter; `order` maps tick → key so the least-recently-used
/// entry is always `order`'s first element. Only populated (and paid for)
/// when the cache is bounded.
#[derive(Debug, Default)]
struct Shard {
    map: RowMap<ShardEntry>,
    order: BTreeMap<u64, RowKey>,
    bytes: usize,
    tick: u64,
}

#[derive(Debug)]
struct ShardEntry {
    value: Box<[f64]>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &RowKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(key) {
            self.order.remove(&entry.tick);
            entry.tick = tick;
            self.order.insert(tick, key.clone());
        }
    }
}

/// A sharded map from input-row bytes to the oracle's output row, with
/// optional byte-capped LRU eviction.
#[derive(Debug)]
pub(crate) struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte cap (`None` = unbounded).
    shard_cap: Option<usize>,
    evicted: AtomicU64,
}

impl MemoCache {
    /// An unbounded cache — the historical per-attack behaviour.
    pub(crate) fn new() -> Self {
        MemoCache::with_cap(None)
    }

    /// A cache that holds at most ~`byte_cap` bytes of entries (keys,
    /// values, and a fixed per-entry overhead estimate), evicting
    /// least-recently-used rows on overflow. The cap is split evenly across
    /// shards, so a pathological key distribution can evict slightly early.
    pub(crate) fn bounded(byte_cap: usize) -> Self {
        MemoCache::with_cap(Some(byte_cap.div_ceil(SHARDS).max(1)))
    }

    fn with_cap(shard_cap: Option<usize>) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap,
            evicted: AtomicU64::new(0),
        }
    }

    /// Looks up one row, refreshing its recency.
    pub(crate) fn get(&self, key: &RowKey) -> Option<Box<[f64]>> {
        let mut shard = self.shards[shard_of(key)]
            .lock()
            .expect("cache shard poisoned");
        let hit = shard.map.get(key).map(|e| e.value.clone());
        if hit.is_some() && self.shard_cap.is_some() {
            shard.touch(key);
        }
        hit
    }

    /// Inserts one row's response, evicting LRU entries if the shard's
    /// slice of the byte cap overflows. The just-inserted row is never
    /// evicted by its own insertion: single-flight waiters re-read the
    /// cache right after the owner publishes, and evicting the publication
    /// out from under them would turn every waiter into a redundant
    /// dispatch.
    pub(crate) fn insert(&self, key: RowKey, value: Box<[f64]>) {
        let shard_ix = shard_of(&key);
        let mut shard = self.shards[shard_ix].lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let key_words = key.words.len();
        let added = entry_bytes(&key, &value);
        // The recency index (and its key clones) is only paid for when a
        // byte cap can actually trigger eviction.
        let order_key = if self.shard_cap.is_some() {
            Some(key.clone())
        } else {
            None
        };
        if let Some(old) = shard.map.insert(key, ShardEntry { value, tick }) {
            shard.order.remove(&old.tick);
            shard.bytes -= (key_words + old.value.len()) * 8 + ENTRY_OVERHEAD_BYTES;
        }
        if let Some(order_key) = order_key {
            shard.order.insert(tick, order_key);
        }
        shard.bytes += added;

        let Some(cap) = self.shard_cap else { return };
        let mut evicted = 0u64;
        while shard.bytes > cap && shard.map.len() > 1 {
            let (&oldest_tick, _) = shard.order.iter().next().expect("order matches map");
            let oldest_key = shard.order.remove(&oldest_tick).expect("present");
            let entry = shard.map.remove(&oldest_key).expect("order matches map");
            shard.bytes -= entry_bytes(&oldest_key, &entry.value);
            evicted += 1;
        }
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Total memoized rows across shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Estimated resident bytes across shards (entries plus per-entry
    /// overhead; the number the byte cap is enforced against).
    pub(crate) fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes as u64)
            .sum()
    }

    /// Rows evicted since construction.
    pub(crate) fn evicted_rows(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// A process-global memo table + single-flight registry, shared by many
/// brokers.
///
/// One-shot brokers own a private cache; a long-lived daemon instead builds
/// one `SharedCache` and hands it to every campaign's broker via
/// [`Broker::with_shared_cache`](crate::Broker::with_shared_cache), so
/// identical query rows (same model, bit-exact same input bytes) are
/// answered once per *process* rather than once per campaign, and
/// concurrent campaigns' duplicate misses coalesce into one dispatch.
#[derive(Debug, Clone)]
pub struct SharedCache {
    pub(crate) cache: Arc<MemoCache>,
    pub(crate) flights: Arc<FlightTable>,
}

impl SharedCache {
    /// A shared cache with no byte cap.
    pub fn unbounded() -> Self {
        SharedCache {
            cache: Arc::new(MemoCache::new()),
            flights: Arc::new(FlightTable::new()),
        }
    }

    /// A shared cache holding at most ~`byte_cap` bytes, LRU-evicted.
    pub fn bounded(byte_cap: usize) -> Self {
        SharedCache {
            cache: Arc::new(MemoCache::bounded(byte_cap)),
            flights: Arc::new(FlightTable::new()),
        }
    }

    /// Rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.cache.len()
    }

    /// Estimated resident bytes.
    pub fn cached_bytes(&self) -> u64 {
        self.cache.bytes()
    }

    /// Rows evicted since construction.
    pub fn evicted_rows(&self) -> u64 {
        self.cache.evicted_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_keys_distinguish_close_probes() {
        let cache = MemoCache::new();
        let x = [0.1, 0.2];
        let x_eps = [0.1 + 1e-16, 0.2];
        assert_ne!(row_key(&x), row_key(&x_eps), "1 ulp apart ⇒ distinct keys");
        cache.insert(row_key(&x), vec![1.0].into());
        assert!(cache.get(&row_key(&x)).is_some());
        assert!(cache.get(&row_key(&x_eps)).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_zero_is_not_positive_zero() {
        // to_bits distinguishes ±0.0 — deliberate: the hardware sees
        // different input words on the wire.
        assert_ne!(row_key(&[0.0]), row_key(&[-0.0]));
    }

    #[test]
    fn fingerprint_is_the_sip_hash_of_the_words() {
        // Shard assignment (and so a capped cache's evictions) depends on
        // the fingerprint: it stays the SipHash of the boxed key words.
        let row = [0.5f64, -0.25, 3.0];
        let words: Box<[u64]> = row.iter().map(|v| v.to_bits()).collect();
        let mut h = DefaultHasher::new();
        words.hash(&mut h);
        assert_eq!(row_key(&row).fingerprint, h.finish());
        assert_eq!(
            shard_of(&row_key(&row)),
            (h.finish() as usize) & (SHARDS - 1)
        );
    }

    #[test]
    fn keys_sharing_a_fingerprint_stay_distinct_entries() {
        let a = RowKey::with_fingerprint(&[1.0, 2.0, 3.0], 0xfeed);
        let b = RowKey::with_fingerprint(&[1.0, 2.0, 4.0], 0xfeed);
        assert_ne!(a, b, "equality compares every word");
        for cache in [MemoCache::new(), MemoCache::bounded(1 << 20)] {
            cache.insert(a.clone(), vec![10.0].into());
            cache.insert(b.clone(), vec![20.0].into());
            assert_eq!(cache.len(), 2);
            assert_eq!(cache.get(&a).as_deref(), Some(&[10.0][..]));
            assert_eq!(cache.get(&b).as_deref(), Some(&[20.0][..]));
            assert!(cache
                .get(&RowKey::with_fingerprint(&[1.0, 2.0, 5.0], 0xfeed))
                .is_none());
        }
    }

    #[test]
    fn namespaced_keys_separate_identical_rows() {
        let row = [0.5, -0.25];
        assert_eq!(row_key_ns(None, &row), row_key(&row));
        let a = row_key_ns(Some(1), &row);
        let b = row_key_ns(Some(2), &row);
        assert_ne!(a, b);
        assert_eq!(
            a.words()[1..],
            *row_key(&row).words(),
            "payload bits are unchanged"
        );
    }

    /// Forces every key into one shard's cap by using a cache whose cap is
    /// tiny relative to entry size, then checks LRU order and counters.
    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        // Each entry: (1 key word + 1 value word) * 8 + 96 = 112 bytes.
        // Total cap 16 * 112 → per-shard cap 112: each shard holds one
        // entry at a time.
        let cache = MemoCache::bounded(16 * 112);
        let keys: Vec<RowKey> = (0..64).map(|i| row_key(&[i as f64])).collect();
        for key in &keys {
            cache.insert(key.clone(), vec![0.0].into());
        }
        assert!(cache.evicted_rows() > 0, "cap must have forced evictions");
        assert!(cache.len() <= SHARDS);
        assert!(cache.bytes() <= 16 * 112);
        // Each shard keeps exactly its most recent insertion.
        let survivors: usize = keys.iter().filter(|k| cache.get(k).is_some()).count();
        assert_eq!(survivors, cache.len());
        assert_eq!(
            cache.evicted_rows(),
            64 - cache.len() as u64,
            "every insert beyond capacity evicted exactly one row"
        );
    }

    #[test]
    fn get_refreshes_recency() {
        // One shard-sized cap; craft two keys in the same shard, touch the
        // older one, insert a third same-shard key, and require the
        // untouched middle key to be the victim.
        let cap_per_entry = 112; // as above
        let cache = MemoCache::bounded(16 * 2 * cap_per_entry); // 2 entries/shard
        let mut same_shard: Vec<RowKey> = Vec::new();
        let mut i = 0.0f64;
        let target = shard_of(&row_key(&[0.0]));
        while same_shard.len() < 3 {
            let k = row_key(&[i]);
            if shard_of(&k) == target {
                same_shard.push(k);
            }
            i += 1.0;
        }
        cache.insert(same_shard[0].clone(), vec![0.0].into());
        cache.insert(same_shard[1].clone(), vec![0.0].into());
        assert!(cache.get(&same_shard[0]).is_some()); // refresh the older key
        cache.insert(same_shard[2].clone(), vec![0.0].into());
        assert!(
            cache.get(&same_shard[0]).is_some(),
            "refreshed key survives"
        );
        assert!(cache.get(&same_shard[1]).is_none(), "stale key evicted");
        assert!(cache.get(&same_shard[2]).is_some());
    }

    #[test]
    fn single_oversized_entry_is_kept_until_displaced() {
        // An entry larger than the whole shard cap still serves (the
        // just-inserted row is never self-evicted) and is displaced by the
        // next insertion into its shard.
        let cache = MemoCache::bounded(16); // 1 byte per shard
        let k1 = row_key(&[1.0]);
        cache.insert(k1.clone(), vec![0.0; 8].into());
        assert!(cache.get(&k1).is_some());
        for j in 0..64 {
            cache.insert(row_key(&[100.0 + j as f64]), vec![0.0].into());
        }
        assert!(cache.get(&k1).is_none(), "displaced by later traffic");
    }
}
