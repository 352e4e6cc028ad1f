//! Deterministic parallel fan-out helpers.
//!
//! The resilience analyses run several *independent* sweeps (Fig. 12's
//! Mastodon vs. Twitter attack, Fig. 13's four ranked/grouped orders,
//! random-baseline Monte-Carlo trials). These helpers run such independent
//! jobs on OS threads via `std::thread::scope`.
//!
//! The signatures intentionally mirror `rayon::join` / a slice `map`, so
//! swapping in rayon (unavailable in this offline build environment — see
//! the workspace manifest's vendor notes) is a mechanical change. Results
//! are returned **in input order** regardless of scheduling, so any
//! seed-derived output is reproducible run-over-run.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit thread-count override (0 = follow the machine), set by
/// [`set_thread_override`]. Bench bins use this to pin `--threads N`
/// runs; library code never writes it.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker-thread budget process-wide (`None` restores the
/// machine default). Intended for bench/CLI drivers that want to record
/// wall-clock at a pinned thread count; the engines' output is
/// bit-identical at any setting, so this only affects scheduling.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Run two closures, potentially in parallel, returning both results.
///
/// `b` runs on a spawned scoped thread while `a` runs on the caller's
/// thread, so the call adds at most one thread of overhead and never
/// deadlocks under nesting. With a [`thread_budget`] of 1 no thread is
/// spawned: `a` and then `b` run on the caller's thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if thread_budget() == 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        // Re-raise the worker's own panic payload so assertion messages
        // from fanned-out jobs survive the thread boundary.
        let rb = hb.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (ra, rb)
    })
}

/// Number of worker threads used by [`parallel_map`] and
/// [`parallel_map_with`]: the machine's available parallelism, unless
/// pinned via [`set_thread_override`].
pub fn thread_budget() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Map `f` over `items` on up to [`thread_budget`] threads, returning
/// results in input order (deterministic regardless of scheduling).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_budget().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Interleaved assignment balances heavy-tailed workloads better than
    // contiguous chunking; each worker writes into its own slot vector and
    // the slots are stitched back in input order afterwards.
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for slots in &mut per_worker {
        for (i, r) in slots.drain(..) {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// [`parallel_map`] with one caller-owned scratch per worker: worker `w`
/// gets exclusive `&mut` access to `scratches[w]` for the whole call, so
/// expensive working memory (e.g. a graph-sized union-find arena) is
/// allocated once and reused across every item that worker processes —
/// and across repeated calls.
///
/// At most `scratches.len()` workers run. Results are returned **in input
/// order**; each item's result must not depend on *which* scratch
/// processed it (the contract is that `f` fully re-initialises whatever
/// scratch state it reads), so output never depends on scheduling.
pub fn parallel_map_with<S, T, R, F>(scratches: &mut [S], items: &[T], f: F) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(!scratches.is_empty(), "need at least one scratch");
    let workers = scratches.len().min(items.len()).max(1);
    if workers <= 1 || items.len() <= 1 {
        let s = &mut scratches[0];
        return items.iter().map(|item| f(s, item)).collect();
    }
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = scratches[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, scratch)| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(scratch, item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for slots in &mut per_worker {
        for (i, r) in slots.drain(..) {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_nests() {
        let ((a, b), c) = join(|| join(|| 1, || 2), || 3);
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = parallel_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_with_reuses_scratches_in_order() {
        // Each worker's scratch accumulates privately; results come back
        // in input order regardless of the worker interleave.
        let items: Vec<u64> = (0..101).collect();
        for workers in [1usize, 2, 5] {
            let mut scratches = vec![0u64; workers];
            let out = parallel_map_with(&mut scratches, &items, |acc, &x| {
                *acc += 1;
                x * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
            // every item was processed exactly once, across all scratches
            assert_eq!(scratches.iter().sum::<u64>(), items.len() as u64);
        }
    }

    #[test]
    fn parallel_map_with_empty_items() {
        let mut scratches = vec![(); 3];
        let out: Vec<u32> = parallel_map_with(&mut scratches, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    /// Serialises the tests that set the process-wide override; each
    /// restores the default before releasing it.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn thread_override_round_trips() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(3));
        assert_eq!(thread_budget(), 3);
        set_thread_override(None);
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn join_stays_on_caller_thread_with_one_thread() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let caller = std::thread::current().id();
        let step = AtomicUsize::new(0);
        let on = || {
            (
                std::thread::current().id(),
                step.fetch_add(1, Ordering::SeqCst),
            )
        };
        set_thread_override(Some(1));
        let (a, b) = join(on, on);
        set_thread_override(Some(2));
        let (_, (spawned, _)) = join(|| (), on);
        set_thread_override(None);
        assert_eq!(
            (a, b),
            ((caller, 0), (caller, 1)),
            "a, then b, on the caller"
        );
        assert_ne!(spawned, caller);
    }
}
