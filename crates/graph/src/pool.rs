//! A thread-safe pool of reusable [`Workspace`]s.
//!
//! The parallel attack phases (per-site key-bit inference, wave-based
//! error correction, concurrent oracle batches) each need a private
//! [`Workspace`] — the buffers inside one are not shareable across
//! threads — but creating a fresh workspace per task throws away exactly
//! the buffer reuse the planned execution engine exists for. A
//! [`WorkspacePool`] parks workspaces between tasks: a worker checks one
//! out, runs any number of passes, and returns it on drop, so the pool
//! grows to the peak number of *concurrent* workers and every buffer (and
//! cached effective weight) survives across waves, layers, and whole
//! attack phases.
//!
//! The pool's lock is held only for the check-out/check-in push/pop,
//! never across a graph pass, so contention is a few nanoseconds per
//! task, not per query.
//!
//! Workspace reuse across *different key assignments* is sound: the
//! effective-weight cache inside a workspace is keyed on the global
//! generation stamps of the graph's parameters and the key assignment
//! (see [`KeyAssignment::generation`](crate::KeyAssignment::generation)),
//! which never repeat across mutations, so a pooled workspace checked out
//! by a worker holding a different (or mutated) assignment rebuilds
//! exactly the entries that are actually stale.

use crate::plan::Workspace;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// A lock-guarded stash of idle [`Workspace`]s. See the module docs.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    idle: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created lazily on first check-out.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Checks a workspace out of the pool, creating a fresh one when every
    /// pooled workspace is in use. The guard returns it on drop.
    pub fn acquire(&self) -> PooledWorkspace<'_> {
        let ws = self
            .idle
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
        }
    }

    /// Workspaces currently parked (idle) in the pool. Once traffic
    /// quiesces this equals the peak number of concurrent holders.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("workspace pool poisoned").len()
    }

    fn release(&self, ws: Workspace) {
        self.idle.lock().expect("workspace pool poisoned").push(ws);
    }
}

/// A checked-out [`Workspace`]; derefs to the workspace and returns it to
/// its pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    ws: Option<Workspace>,
    pool: &'p WorkspacePool,
}

impl Deref for PooledWorkspace<'_> {
    type Target = Workspace;

    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.release(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_released_workspaces() {
        let pool = WorkspacePool::new();
        {
            let mut a = pool.acquire();
            a.ensure(4);
            assert_eq!(pool.idle_count(), 0, "checked out");
        }
        assert_eq!(pool.idle_count(), 1, "returned on drop");
        {
            let b = pool.acquire();
            // The recycled workspace still covers the 4 nodes `ensure`d
            // above — proof it is the same workspace, not a fresh one.
            assert_eq!(b.live.len(), 4);
            assert_eq!(pool.idle_count(), 0);
        }
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn pool_grows_to_peak_concurrency_only() {
        let pool = WorkspacePool::new();
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            let _c = pool.acquire();
        }
        assert_eq!(pool.idle_count(), 3);
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
        }
        assert_eq!(pool.idle_count(), 3, "no growth below the peak");
    }

    #[test]
    fn pooled_workspaces_serve_scoped_threads() {
        let pool = WorkspacePool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut ws = pool.acquire();
                    ws.ensure(8);
                });
            }
        });
        assert!(pool.idle_count() >= 1 && pool.idle_count() <= 4);
    }
}
