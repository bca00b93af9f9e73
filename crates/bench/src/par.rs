//! Minimal thread-pool map for the sweep drivers.
//!
//! The build environment is offline, so `rayon` is unavailable; this module
//! provides the one primitive the sweep drivers need — an order-preserving
//! parallel map over independent work items — on top of
//! `std::thread::scope`. Each simulated platform is self-contained, so
//! fanning combinations out across OS threads is embarrassingly parallel.
//!
//! Work distribution is a single shared `AtomicUsize` cursor over a slot
//! vector: workers `fetch_add` the next index and write the result into
//! their own slot, so there is no per-item queue lock and no final sort.
//!
//! The worker count can be pinned with the `SVA_BENCH_THREADS` environment
//! variable (scaling measurements, CI determinism).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker-thread count for a map over `n` items: the `SVA_BENCH_THREADS`
/// override when set to a positive integer (allowed to exceed the hardware
/// parallelism — oversubscription is a legitimate measurement point),
/// otherwise `available_parallelism`; always clamped to `n` and at least 1.
pub fn worker_count(n: usize) -> usize {
    let configured = std::env::var("SVA_BENCH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    configured.min(n).max(1)
}

/// Maps `f` over `items` on [`worker_count`] worker threads, preserving
/// input order in the output.
///
/// Workers pull items off a shared atomic cursor, so uneven point costs
/// (e.g. a 4-cluster high-latency sweep point next to a tiny baseline
/// point) balance automatically.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count(items.len());
    par_map_with(items, workers, f)
}

/// [`par_map`] with an explicit worker count (clamped to the item count and
/// at least 1).
fn par_map_with<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // One slot per item: workers claim indexes off the cursor and write
    // results into their own slot — no shared queue lock, no final sort.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = slots[index]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each slot is claimed exactly once");
                let result = f(item);
                *results[index].lock().expect("result lock") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers joined")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn explicit_worker_counts_preserve_order() {
        for workers in [1usize, 2, 3, 8, 64] {
            let out = par_map_with((0..57).collect::<Vec<i32>>(), workers, |x| x * 3);
            assert_eq!(out, (0..57).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_is_clamped_to_items() {
        // Regardless of the environment, a map over 3 items never asks for
        // more than 3 workers (and never fewer than 1).
        let w = worker_count(3);
        assert!((1..=3).contains(&w));
        assert_eq!(worker_count(1), 1);
    }
}
