//! Query-budget enforcement.
//!
//! The paper scores attacks by oracle query complexity (Table 1's `#Q`
//! column). [`QueryBudget`] makes that limit first-class: every
//! *underlying* query must reserve budget before it is issued, cache hits
//! reserve nothing (they are free by the broker's accounting semantics),
//! and an exhausted budget surfaces as a typed
//! [`OracleError::BudgetExhausted`] the attack degrades on instead of
//! panicking.

use relock_locking::OracleError;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared, thread-safe query budget.
#[derive(Debug)]
pub struct QueryBudget {
    limit: Option<u64>,
    spent: AtomicU64,
}

impl QueryBudget {
    /// A budget of `limit` underlying rows (`None` = unlimited).
    pub fn new(limit: Option<u64>) -> Self {
        QueryBudget {
            limit,
            spent: AtomicU64::new(0),
        }
    }

    /// An unlimited budget.
    pub fn unlimited() -> Self {
        QueryBudget::new(None)
    }

    /// Underlying rows reserved so far.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Rows still affordable (`None` = unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.limit
            .map(|l| l.saturating_sub(self.spent.load(Ordering::Relaxed)))
    }

    /// Returns `rows` previously reserved queries to the budget. The broker
    /// refunds a reservation when the dispatch it paid for fails outright:
    /// rows the backend never answered must not count against `#Q`.
    /// Saturating, so a spurious refund can never underflow `spent`.
    pub fn refund(&self, rows: u64) {
        if rows == 0 {
            return;
        }
        let mut cur = self.spent.load(Ordering::Relaxed);
        loop {
            match self.spent.compare_exchange_weak(
                cur,
                cur.saturating_sub(rows),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically reserves `rows` underlying queries, or errors without
    /// reserving anything (all-or-nothing, so a partially affordable batch
    /// is never silently truncated — callers that can shrink their request
    /// consult [`QueryBudget::remaining`] first).
    pub fn try_reserve(&self, rows: u64) -> Result<(), OracleError> {
        let Some(limit) = self.limit else {
            self.spent.fetch_add(rows, Ordering::Relaxed);
            return Ok(());
        };
        // CAS loop: concurrent broker shards must not over-commit.
        let mut cur = self.spent.load(Ordering::Relaxed);
        loop {
            if cur.saturating_add(rows) > limit {
                return Err(OracleError::BudgetExhausted {
                    spent: cur,
                    budget: limit,
                    requested: rows,
                });
            }
            match self.spent.compare_exchange_weak(
                cur,
                cur + rows,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_reserves() {
        let b = QueryBudget::unlimited();
        b.try_reserve(1_000_000).unwrap();
        assert_eq!(b.spent(), 1_000_000);
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn reservation_is_all_or_nothing() {
        let b = QueryBudget::new(Some(10));
        b.try_reserve(7).unwrap();
        let err = b.try_reserve(4).unwrap_err();
        assert_eq!(
            err,
            OracleError::BudgetExhausted {
                spent: 7,
                budget: 10,
                requested: 4
            }
        );
        // The failed reservation charged nothing.
        assert_eq!(b.spent(), 7);
        b.try_reserve(3).unwrap();
        assert_eq!(b.remaining(), Some(0));
    }

    #[test]
    fn concurrent_reservations_never_over_commit() {
        let b = QueryBudget::new(Some(1000));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let _ = b.try_reserve(1);
                    }
                });
            }
        });
        assert_eq!(b.spent(), 1000);
        assert_eq!(b.remaining(), Some(0));
    }

    #[test]
    fn refund_returns_reserved_rows() {
        let b = QueryBudget::new(Some(10));
        b.try_reserve(8).unwrap();
        b.refund(5);
        assert_eq!(b.spent(), 3);
        assert_eq!(b.remaining(), Some(7));
        // Saturating: refunding more than was spent clamps at zero.
        b.refund(100);
        assert_eq!(b.spent(), 0);
        assert_eq!(b.remaining(), Some(10));
    }
}
