//! The span stack and the registry: a thread-local stack of open spans
//! over one global path-keyed map of counts.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::counters::OpCounts;
use crate::report::{ScopeRow, TraceReport};

struct Frame {
    id: u64,
    path: String,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, OpCounts>>> = OnceLock::new();

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, OpCounts>) -> R) -> R {
    let m = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    // A poisoned lock only means another thread panicked mid-update; the
    // counters themselves are always valid u64s, so keep going.
    let mut guard = match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// RAII scope guard: opening nests under the current thread's innermost
/// span, dropping closes it. See [`span`].
#[must_use = "a span is closed when dropped; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Span {
    id: u64,
    path: String,
}

impl Span {
    /// The full `/`-joined path of this span (stable for its lifetime).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Remove by identity, not by popping, so out-of-order drops
            // (e.g. two long-lived ArithCtx guards) stay well-formed.
            if let Some(pos) = s.iter().rposition(|f| f.id == self.id) {
                s.remove(pos);
            }
        });
    }
}

/// Opens a scope named `name` nested under the current thread's innermost
/// active span, and counts the entry (`calls += 1`) at the new path.
pub fn span(name: &str) -> Span {
    let id = NEXT_ID.with(|c| {
        let v = c.get().wrapping_add(1);
        c.set(v);
        v
    });
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let full = match s.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        s.push(Frame {
            id,
            path: full.clone(),
        });
        full
    });
    with_registry(|reg| {
        let c = reg.entry(path.clone()).or_default();
        c.calls = c.calls.saturating_add(1);
    });
    Span { id, path }
}

/// Applies `f` to the counters of the current thread's innermost active
/// span (or the `(root)` scope when none is open).
pub fn record<F: FnOnce(&mut OpCounts)>(f: F) {
    let path = STACK.with(|s| s.borrow().last().map(|fr| fr.path.clone()));
    let path = path.unwrap_or_else(|| String::from("(root)"));
    with_registry(|reg| f(reg.entry(path).or_default()));
}

/// Applies `f` to the counters at the absolute path `path`, ignoring the
/// span stack. Long-lived owners (`ArithCtx`) use this so their ops
/// attribute to the owner's scope even when called under other spans.
pub fn record_at<F: FnOnce(&mut OpCounts)>(path: &str, f: F) {
    with_registry(|reg| f(reg.entry(path.to_string()).or_default()));
}

/// Freezes the global registry into a sorted, deterministic report.
#[must_use]
pub fn snapshot() -> TraceReport {
    with_registry(|reg| TraceReport {
        scopes: reg
            .iter()
            .map(|(p, c)| ScopeRow {
                path: p.clone(),
                counts: *c,
            })
            .collect(),
    })
}

/// Clears every counter (report emitters use this between workloads).
pub fn reset() {
    with_registry(|reg| reg.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// The registry is process-global and tests run concurrently: tests
    /// that assert exact counts hold this shared, and tests that
    /// [`reset`] the registry hold it exclusively.
    static REGISTRY_TESTS: RwLock<()> = RwLock::new(());

    fn exact_counts() -> RwLockReadGuard<'static, ()> {
        REGISTRY_TESTS
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn clears_registry() -> RwLockWriteGuard<'static, ()> {
        REGISTRY_TESTS
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn counts_at(path: &str) -> OpCounts {
        snapshot().get(path).copied().unwrap_or_default()
    }

    #[test]
    fn spans_nest_and_records_attribute() {
        let _guard = exact_counts();
        let root = span("enabled-test-root");
        assert_eq!(root.path(), "enabled-test-root");
        {
            let child = span("child");
            assert_eq!(child.path(), "enabled-test-root/child");
            record(|c| c.muls = c.muls.saturating_add(7));
        }
        record(|c| c.adds = c.adds.saturating_add(3));
        record_at(root.path(), |c| c.divs = c.divs.saturating_add(1));
        drop(root);
        let rep = snapshot();
        let child = rep
            .get("enabled-test-root/child")
            .copied()
            .unwrap_or_default();
        assert_eq!(child.muls, 7);
        assert_eq!(child.calls, 1);
        let r = rep.get("enabled-test-root").copied().unwrap_or_default();
        assert_eq!(r.adds, 3);
        assert_eq!(r.divs, 1);
    }

    #[test]
    fn out_of_order_drop_keeps_stack_well_formed() {
        let a = span("ooo-a");
        let b = span("ooo-b");
        drop(a); // drops the *outer* guard first
        let c = span("ooo-c");
        // b is still innermost-surviving parent of c.
        assert_eq!(c.path(), "ooo-a/ooo-b/ooo-c");
        drop(b);
        drop(c);
        let d = span("ooo-d");
        assert_eq!(d.path(), "ooo-d");
    }

    #[test]
    fn reset_clears_scopes() {
        let _guard = clears_registry();
        record_at("reset-probe", |c| c.ops = 1);
        assert!(snapshot().get("reset-probe").is_some());
        reset();
        assert!(snapshot().get("reset-probe").is_none());
    }

    #[test]
    fn parallel_merge_is_order_independent() {
        let _guard = exact_counts();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span("enabled-par");
                    record(|c| c.ops = c.ops.saturating_add(10));
                });
            }
        });
        let c = counts_at("enabled-par");
        assert_eq!(c.calls, 4);
        assert_eq!(c.ops, 40);
    }

    #[test]
    fn record_at_sums_alternating_paths() {
        let _guard = exact_counts();
        for path in [
            "rec-alt-a",
            "rec-alt-b",
            "rec-alt-a",
            "rec-alt-a",
            "rec-alt-b",
        ] {
            record_at(path, |c| c.adds = c.adds.saturating_add(2));
        }
        assert_eq!(counts_at("rec-alt-a").adds, 6);
        assert_eq!(counts_at("rec-alt-b").adds, 4);
    }

    #[test]
    fn record_at_with_no_delta_still_creates_its_scope() {
        let _guard = exact_counts();
        record_at("rec-empty", |_| {});
        assert_eq!(snapshot().get("rec-empty"), Some(&OpCounts::default()));
    }

    #[test]
    fn record_at_on_a_scoped_worker_is_visible_after_the_scope() {
        let _guard = exact_counts();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // An owner span like an ArithCtx's: records target its
                    // path, and dropping it is the worker's last act.
                    let owner = span("rec-worker");
                    for _ in 0..100 {
                        record_at(owner.path(), |c| c.ops = c.ops.saturating_add(1));
                    }
                });
            }
        });
        let c = counts_at("rec-worker");
        assert_eq!(c.calls, 3);
        assert_eq!(c.ops, 300);
    }

    #[test]
    fn record_at_on_a_joined_thread_without_a_span_is_visible() {
        let _guard = exact_counts();
        std::thread::spawn(|| {
            record_at("rec-exit", |c| c.divs = c.divs.saturating_add(9));
        })
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(counts_at("rec-exit").divs, 9);
    }
}
