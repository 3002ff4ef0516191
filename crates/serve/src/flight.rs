//! Single-flight coordination for concurrent identical cache misses.
//!
//! When the parallel attack shards a layer across workers, several workers
//! routinely miss the memo cache on the *same* input row at the same time
//! (e.g. the shared witness inputs of validation). Without coordination
//! each would dispatch its own underlying query, inflating the paper's
//! `#Q` metric relative to the sequential attack — and making query
//! accounting thread-count-dependent, which would break the determinism
//! contract of DESIGN.md §3e.
//!
//! A [`FlightTable`] fixes this: the first worker to miss a row **claims**
//! it and becomes the owner; everyone else missing the same row becomes a
//! waiter. The owner dispatches the row, publishes the response to the
//! memo cache, and *then* completes the flight; waiters wake, re-read the
//! cache, and account the row as a cache hit — exactly what a sequential
//! run would have recorded for the later of two identical queries. A new
//! owner re-reads the cache before it dispatches: a flight that completed
//! between its lookup and its claim has already published the row.
//!
//! **Failure path:** completion happens in the owner's [`FlightGuard`]
//! drop, so a budget refusal, backend error, or panic still releases
//! waiters; they find no cache entry and re-enter the claim race, where
//! one of them becomes the new owner. Ownership therefore never leaks.
//!
//! **No deadlock:** a broker round first dispatches and completes every
//! flight it owns, and only then waits on flights owned by others, so a
//! wait can never form a cycle with a flight the waiter is obligated to
//! complete.

use crate::cache::{RowKey, RowMap};
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight row: waiters block on the condvar until the owner's
/// guard marks it done.
#[derive(Debug, Default)]
pub(crate) struct FlightEntry {
    done: Mutex<bool>,
    signal: Condvar,
}

impl FlightEntry {
    /// Blocks until the owning worker completes (or abandons) the flight.
    /// On return the caller must re-check the memo cache: a completed
    /// flight guarantees a cache entry, an abandoned one does not.
    pub(crate) fn wait(&self) {
        let mut done = self.done.lock().expect("flight entry poisoned");
        while !*done {
            done = self.signal.wait(done).expect("flight entry poisoned");
        }
    }

    fn complete(&self) {
        *self.done.lock().expect("flight entry poisoned") = true;
        self.signal.notify_all();
    }
}

/// The outcome of claiming a missed row.
pub(crate) enum Claim {
    /// This worker owns the row: it must dispatch it, publish the result
    /// to the cache, then drop the guard.
    Owner(FlightGuard),
    /// Another worker owns the row: wait on the entry, then re-resolve.
    Waiter(Arc<FlightEntry>),
}

/// A registry of rows currently being dispatched by some worker.
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    inflight: Mutex<RowMap<Arc<FlightEntry>>>,
}

impl FlightTable {
    pub(crate) fn new() -> Self {
        FlightTable::default()
    }

    /// Claims a missed row: the first claimant becomes the owner, later
    /// claimants get the owner's entry to wait on.
    pub(crate) fn claim(self: &Arc<Self>, key: RowKey) -> Claim {
        let mut inflight = self.inflight.lock().expect("flight table poisoned");
        if let Some(entry) = inflight.get(&key) {
            return Claim::Waiter(Arc::clone(entry));
        }
        let entry = Arc::new(FlightEntry::default());
        inflight.insert(key.clone(), Arc::clone(&entry));
        Claim::Owner(FlightGuard {
            table: Arc::clone(self),
            key,
            entry,
        })
    }

    /// Rows currently owned by some worker (diagnostic; 0 when quiescent).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.inflight.lock().expect("flight table poisoned").len()
    }
}

/// Ownership of one in-flight row; completing (dropping) it deregisters
/// the row and wakes every waiter.
#[derive(Debug)]
pub(crate) struct FlightGuard {
    table: Arc<FlightTable>,
    key: RowKey,
    entry: Arc<FlightEntry>,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.table
            .inflight
            .lock()
            .expect("flight table poisoned")
            .remove(&self.key);
        self.entry.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::row_key;

    #[test]
    fn first_claim_owns_later_claims_wait() {
        let table = Arc::new(FlightTable::new());
        let key = row_key(&[1.0, 2.0]);
        let owner = match table.claim(key.clone()) {
            Claim::Owner(g) => g,
            Claim::Waiter(_) => panic!("first claim must own"),
        };
        assert_eq!(table.in_flight(), 1);
        let waiter = match table.claim(key.clone()) {
            Claim::Owner(_) => panic!("second claim must wait"),
            Claim::Waiter(e) => e,
        };
        drop(owner);
        waiter.wait(); // must not block: owner completed
        assert_eq!(table.in_flight(), 0);
        // After completion the key is claimable again (failed-owner path).
        assert!(matches!(table.claim(key), Claim::Owner(_)));
    }

    #[test]
    fn panicking_owner_still_releases_waiters() {
        // The guard completes in Drop, which runs during unwinding too: a
        // leader that panics mid-dispatch must not strand its waiters, and
        // the key must be re-claimable afterwards.
        let table = Arc::new(FlightTable::new());
        let key = row_key(&[9.0, -9.0]);
        std::thread::scope(|scope| {
            let owner_panics = {
                let table = Arc::clone(&table);
                let key = key.clone();
                scope.spawn(move || {
                    let _guard = match table.claim(key) {
                        Claim::Owner(g) => g,
                        Claim::Waiter(_) => panic!("first claim must own"),
                    };
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    std::panic::panic_any("scheduled leader death");
                })
            };
            // Give the owner time to claim, then wait on its flight.
            std::thread::sleep(std::time::Duration::from_millis(2));
            if let Claim::Waiter(e) = table.claim(key.clone()) {
                e.wait(); // released by the unwinding owner's guard drop
            }
            assert!(owner_panics.join().is_err(), "owner really panicked");
        });
        assert_eq!(table.in_flight(), 0);
        assert!(
            matches!(table.claim(key), Claim::Owner(_)),
            "key is claimable again after the owner's panic"
        );
    }

    #[test]
    fn waiters_are_released_across_threads() {
        let table = Arc::new(FlightTable::new());
        let key = row_key(&[3.5]);
        let owner = match table.claim(key.clone()) {
            Claim::Owner(g) => g,
            Claim::Waiter(_) => panic!("first claim must own"),
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let table = &table;
                    let key = key.clone();
                    scope.spawn(move || match table.claim(key) {
                        Claim::Owner(_) => panic!("owner is still alive"),
                        Claim::Waiter(e) => e.wait(),
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(10));
            drop(owner);
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(table.in_flight(), 0);
    }
}
