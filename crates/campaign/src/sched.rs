//! Fair-share admission across tenants: stride scheduling over a fixed
//! pool of run slots.
//!
//! The daemon hosts campaigns from several tenants but owns a bounded
//! worker pool. A slot bounds *compute*: a campaign holds one while its
//! attack computes and while its victim answers, and gives it back while
//! a brokered batch waits — on a device's injected latency, on another
//! campaign's in-flight rows, or in retry backoff (see [`SlotLease`]). So
//! at most `slots` campaigns compute at once while any number wait; the
//! one exception is a batch that has already waited, which finishes its
//! own rows before it queues for a slot again.
//!
//! Grants are weighted: each tenant carries a *stride* (`STRIDE / weight`)
//! and a *pass* value; whenever a slot frees up, the waiting tenant with
//! the smallest pass value is granted and its pass advances by its
//! stride. A campaign's first grant and every re-entry after a wait are
//! grants alike, so over any long window each tenant's share of compute
//! bursts converges to `weight / Σ weights` — classic stride scheduling,
//! which is deterministic given the arrival order (ties break on tenant
//! name), so the grant order is reproducible in tests.

use relock_serve::WaitHook;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};

/// Pass-value quantum; weights divide it, so larger weights advance the
/// pass more slowly and are granted more often.
const STRIDE: u64 = 1 << 20;

#[derive(Debug, Default)]
struct TenantState {
    weight: u64,
    pass: u64,
    waiting: usize,
    granted: u64,
}

#[derive(Debug, Default)]
struct SchedState {
    in_use: usize,
    tenants: BTreeMap<String, TenantState>,
}

impl SchedState {
    /// The waiting tenant with the smallest pass value (ties break on
    /// name via the BTreeMap's iteration order).
    fn next_tenant(&self) -> Option<&String> {
        self.tenants
            .iter()
            .filter(|(_, t)| t.waiting > 0)
            .min_by_key(|(_, t)| t.pass)
            .map(|(name, _)| name)
    }

    /// Charges one grant to `tenant`.
    fn charge(&mut self, tenant: &str) {
        let t = self.tenants.get_mut(tenant).expect("tenant registered");
        t.waiting -= 1;
        t.granted += 1;
        t.pass += STRIDE / t.weight.max(1);
        self.in_use += 1;
    }
}

/// A weighted fair scheduler handing out up to `slots` concurrent run
/// slots.
#[derive(Debug)]
pub struct FairScheduler {
    slots: usize,
    state: Mutex<SchedState>,
    grant: Condvar,
}

impl FairScheduler {
    /// A scheduler with `slots` concurrent slots (min 1).
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(FairScheduler {
            slots: slots.max(1),
            state: Mutex::new(SchedState::default()),
            grant: Condvar::new(),
        })
    }

    /// Registers `tenant` (or updates its weight). New tenants join at the
    /// current minimum pass so they neither starve nor monopolize.
    pub fn set_weight(&self, tenant: &str, weight: u64) {
        let mut state = self.state.lock().expect("scheduler poisoned");
        let joining_pass = state
            .tenants
            .values()
            .map(|t| t.pass)
            .min()
            .unwrap_or_default();
        let t = state.tenants.entry(tenant.to_string()).or_default();
        t.weight = weight.max(1);
        if t.granted == 0 && t.waiting == 0 {
            t.pass = joining_pass;
        }
    }

    /// A lease for `tenant`, owned by the calling thread and holding no
    /// slot yet: [`WaitHook::enter`] takes one. Unregistered tenants are
    /// registered with weight 1 at their first grant.
    pub fn lease(self: &Arc<Self>, tenant: &str) -> SlotLease {
        SlotLease {
            sched: Arc::clone(self),
            tenant: tenant.to_string(),
            owner: thread::current().id(),
            held: AtomicBool::new(false),
        }
    }

    /// Blocks until this tenant is granted a slot: a lease, owned by the
    /// calling thread, that holds it.
    pub fn acquire(self: &Arc<Self>, tenant: &str) -> SlotLease {
        let lease = self.lease(tenant);
        lease.enter();
        lease
    }

    /// Blocks until `tenant` is granted a slot and charges the grant.
    fn grant(&self, tenant: &str) {
        let mut state = self.state.lock().expect("scheduler poisoned");
        if !state.tenants.contains_key(tenant) {
            drop(state);
            self.set_weight(tenant, 1);
            state = self.state.lock().expect("scheduler poisoned");
        }
        state
            .tenants
            .get_mut(tenant)
            .expect("registered above")
            .waiting += 1;
        loop {
            if state.in_use < self.slots && state.next_tenant().map(String::as_str) == Some(tenant)
            {
                state.charge(tenant);
                if state.in_use < self.slots {
                    // Two releases can land before their waiters wake; a
                    // waiter that woke first, saw this tenant ahead of it
                    // and slept again would miss the slot still free.
                    self.grant.notify_all();
                }
                return;
            }
            state = self.grant.wait(state).expect("scheduler poisoned");
        }
    }

    /// Grants handed to `tenant` so far.
    pub fn granted(&self, tenant: &str) -> u64 {
        self.state
            .lock()
            .expect("scheduler poisoned")
            .tenants
            .get(tenant)
            .map(|t| t.granted)
            .unwrap_or(0)
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("scheduler poisoned");
        state.in_use -= 1;
        drop(state);
        // Waiters re-evaluate "am I the chosen tenant" themselves.
        self.grant.notify_all();
    }
}

/// A campaign's run slot: held while its thread computes, given back
/// while it waits.
///
/// The thread that made the lease owns it. Its [`WaitHook`] calls give
/// the slot back ([`WaitHook::leave`]) and take one again through the
/// same stride scheduler ([`WaitHook::enter`]); each is a no-op when the
/// lease is already in that state. The hub calls `enter` to start a
/// segment and `leave` to end it; as the hook of the segment's broker and
/// of its chaos device, the lease also hears of every wait inside a
/// batch and of every batch's return. Hook calls from any other thread (a
/// correction wave's workers) do nothing, so those run on the held slot.
///
/// Dropping the lease returns the slot only if it holds one. A panic in a
/// batch (a chaos crash) unwinds without `enter`, so a slot already given
/// back at a wait is neither leaked nor returned twice.
#[derive(Debug)]
pub struct SlotLease {
    sched: Arc<FairScheduler>,
    tenant: String,
    owner: ThreadId,
    /// Whether the lease holds a slot now. Only the owner thread reads or
    /// flips it (other threads' hook calls stop at the owner check), so
    /// `Relaxed` suffices: it publishes no other data.
    held: AtomicBool,
}

impl WaitHook for SlotLease {
    fn leave(&self) {
        if thread::current().id() == self.owner && self.held.swap(false, Ordering::Relaxed) {
            self.sched.release();
        }
    }

    fn enter(&self) {
        if thread::current().id() == self.owner && !self.held.load(Ordering::Relaxed) {
            self.sched.grant(&self.tenant);
            self.held.store(true, Ordering::Relaxed);
        }
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        if *self.held.get_mut() {
            self.sched.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the selection logic deterministically, without threads: all
    /// tenants permanently want a slot, one slot exists, and we record who
    /// gets each sequential grant.
    fn grant_sequence(weights: &[(&str, u64)], grants: usize) -> Vec<String> {
        let sched = FairScheduler::new(1);
        for &(name, w) in weights {
            sched.set_weight(name, w);
        }
        {
            let mut state = sched.state.lock().unwrap();
            for &(name, _) in weights {
                state.tenants.get_mut(name).unwrap().waiting = grants;
            }
        }
        let mut order = Vec::new();
        for _ in 0..grants {
            let mut state = sched.state.lock().unwrap();
            let who = state.next_tenant().expect("someone waits").clone();
            state.charge(&who);
            state.in_use -= 1; // immediately release for the next round
            order.push(who);
        }
        order
    }

    #[test]
    fn weighted_share_converges_to_weights() {
        let order = grant_sequence(&[("alice", 3), ("bob", 1)], 8);
        let alice = order.iter().filter(|n| *n == "alice").count();
        assert_eq!(alice, 6, "3:1 weights → 6:2 grants over 8, got {order:?}");
    }

    #[test]
    fn equal_weights_alternate_deterministically() {
        let order = grant_sequence(&[("a", 1), ("b", 1)], 6);
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn concurrent_acquire_respects_the_slot_cap() {
        let sched = FairScheduler::new(2);
        let running = std::sync::atomic::AtomicUsize::new(0);
        let peak = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let sched = Arc::clone(&sched);
                let running = &running;
                let peak = &peak;
                let tenant = if i % 2 == 0 { "even" } else { "odd" };
                scope.spawn(move || {
                    let _slot = sched.acquire(tenant);
                    let now = running.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                    peak.fetch_max(now, std::sync::atomic::Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(std::sync::atomic::Ordering::SeqCst) <= 2);
        assert_eq!(sched.granted("even") + sched.granted("odd"), 8);
    }

    fn in_use(sched: &FairScheduler) -> usize {
        sched.state.lock().unwrap().in_use
    }

    #[test]
    fn leases_cycling_leave_and_enter_never_exceed_the_slot_cap() {
        use std::sync::atomic::AtomicUsize;
        let sched = FairScheduler::new(2);
        let holders = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (sched, holders, peak) = (&sched, &holders, &peak);
                let tenant = if i % 2 == 0 { "even" } else { "odd" };
                scope.spawn(move || {
                    let lease = sched.acquire(tenant);
                    for _ in 0..50 {
                        let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        assert!(in_use(sched) <= 2);
                        std::thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                        lease.leave();
                        std::thread::yield_now();
                        lease.enter();
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "more than 2 holders at once"
        );
        assert_eq!(in_use(&sched), 0, "every lease returned its slot once");
        // 8 first grants plus one re-entry per cycle.
        assert_eq!(sched.granted("even") + sched.granted("odd"), 8 * 51);
    }

    fn waiting(sched: &FairScheduler, tenant: &str) -> usize {
        let state = sched.state.lock().unwrap();
        state.tenants.get(tenant).map_or(0, |t| t.waiting)
    }

    /// Two releases landing before their waiters wake leave a waiter of
    /// a later tenant asleep behind an earlier tenant's waiter that has
    /// not looked yet. A stand-in for that waiter ("a" counted as
    /// waiting, with no thread) makes the order deterministic: the grant
    /// to "a" that leaves a slot free must wake "b".
    #[test]
    fn a_grant_that_leaves_a_slot_free_wakes_the_tenant_behind_it() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let sched = FairScheduler::new(2);
        sched.set_weight("a", 1);
        sched.set_weight("b", 1);
        let stand_in = |delta: isize| {
            let mut state = sched.state.lock().unwrap();
            let a = state.tenants.get_mut("a").unwrap();
            a.waiting = a.waiting.checked_add_signed(delta).unwrap();
        };
        stand_in(1);
        let (granted_tx, granted) = channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _lease = sched.acquire("b");
                let _ = granted_tx.send(());
            });
            // Counted as waiting under the lock, "b" has looked, found
            // "a" ahead of it on equal passes, and sleeps.
            while waiting(&sched, "b") == 0 {
                std::thread::yield_now();
            }
            let a = sched.acquire("a");
            let woke = granted.recv_timeout(Duration::from_secs(5)).is_ok();
            // Retire the stand-in and wake "b" either way, so a failure
            // cannot hang the scope.
            stand_in(-1);
            sched.grant.notify_all();
            assert!(woke, "\"b\" slept while a slot was free");
            drop(a);
        });
        assert_eq!(in_use(&sched), 0);
    }

    #[test]
    fn another_threads_hook_calls_leave_the_slot_held() {
        let sched = FairScheduler::new(1);
        let lease = sched.acquire("t");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                lease.leave();
                assert_eq!(in_use(&sched), 1, "a worker thread does not yield");
                lease.enter();
            });
        });
        assert_eq!(in_use(&sched), 1);
        drop(lease);
        assert_eq!(in_use(&sched), 0);
    }

    #[test]
    fn a_panic_while_yielded_neither_leaks_nor_double_returns_the_slot() {
        let sched = FairScheduler::new(1);
        let mut other = None;
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let lease = sched.acquire("crashy");
            lease.leave();
            // Another campaign takes the slot the yielded lease gave back;
            // then the batch dies the way a chaos crash kills it.
            other = Some(sched.acquire("other"));
            std::panic::panic_any(relock_serve::ChaosCrash { at_rows: 1 });
        }));
        let payload = crashed.expect_err("the batch crashed");
        assert!(payload.downcast_ref::<relock_serve::ChaosCrash>().is_some());
        assert_eq!(in_use(&sched), 1, "the unwound lease kept its hands off");
        drop(other);
        assert_eq!(in_use(&sched), 0);
        // Nothing leaked: a one-slot scheduler grants the crashed tenant again.
        drop(sched.acquire("crashy"));
        assert_eq!(in_use(&sched), 0);
    }
}
