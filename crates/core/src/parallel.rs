//! Deterministic intra-stage parallelism.
//!
//! The stage loop is embarrassingly parallel *between* charges: once
//! the blocks of a draw have been fetched (serially, in canonical
//! order, so the simulated device clock and its jittered charges are
//! identical to a single-threaded run), decoding them — and likewise
//! merging the run pairs of a binary operator — is pure CPU work that
//! touches neither the clock, nor the tracer, nor the deadline. This
//! module fans exactly that pure work out across a scoped worker pool
//! and returns the results **in input order**, so the bytes the engine
//! produces are identical at any worker count.
//!
//! The split mirrors BlinkDB-style engines parallelizing the sample
//! scan: estimator math is order-sensitive only through *accounting*,
//! and all accounting stays on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use eram_storage::Mutex;

/// Applies `f` to every item, using up to `workers` scoped threads,
/// and returns the results in the items' original order.
///
/// With `workers <= 1` (or fewer than two items) the work runs inline
/// on the calling thread — no pool, no locks — which is also the
/// reference behavior the parallel path must reproduce bit-for-bit.
/// `f` receives `(index, item)` so callers can key per-item work
/// without capturing mutable state.
///
/// Items are dispensed through an atomic counter, so threads
/// self-balance across uneven item costs. The function itself must be
/// pure with respect to ordering: it may read shared state behind
/// `&`-references but must not make the *result* for item `i` depend
/// on whether item `j` ran first.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
pub fn map_ordered<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().take().expect("each index dispensed once");
                let out = f(i, item);
                *results[i].lock() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("scope joined all workers"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 8, 64] {
            let got = map_ordered(workers, items.clone(), |_, x| x * x);
            assert_eq!(got, expected, "order broken at workers={workers}");
        }
    }

    #[test]
    fn passes_the_item_index_through() {
        let got = map_ordered(4, vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(map_ordered(8, empty, |_, x: u32| x).is_empty());
        assert_eq!(map_ordered(8, vec![7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early items sleep longest, so a naive collect-in-completion
        // order would reverse the list.
        let got = map_ordered(4, (0..8u64).collect(), |_, x| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            x
        });
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shared_state_is_readable_from_workers() {
        let table: Vec<u64> = (0..100).map(|x| x * 10).collect();
        let got = map_ordered(4, vec![5usize, 50, 99], |_, i| table[i]);
        assert_eq!(got, vec![50, 500, 990]);
    }
}
