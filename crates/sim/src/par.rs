//! Deterministic parallel maps over slices.
//!
//! The helpers here are the workspace's only concurrency layer: plain
//! `std::thread::scope` fan-out with **order-stable** results, so every
//! pipeline stage produces byte-identical output at 1, 2 or N worker
//! threads.
//!
//! # Determinism by construction
//!
//! Each worker takes one contiguous index range ([`split_ranges`]) and
//! maps its items with a closure that is pure per item; the results
//! concatenate in range order. The output therefore equals a serial
//! loop at any worker count. The module has no reduction: a caller
//! folds the ordered results itself, left to right.
//!
//! # Thread-count knob
//!
//! The worker count resolves, in priority order, from
//! [`set_threads`] (in-process override, used by the determinism test
//! matrix), the `WTR_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// In-process thread-count override; `0` means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all subsequent parallel calls
/// in this process. `Some(n)` forces `n` (clamped to at least 1);
/// `None` clears the override, restoring `WTR_THREADS` / autodetection.
///
/// This exists mainly for tests that assert byte-identical output
/// across thread counts without respawning the process.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::SeqCst);
}

/// Resolves the effective worker-thread count.
///
/// Priority: [`set_threads`] override, then the `WTR_THREADS`
/// environment variable (parsed as a positive integer; invalid values
/// are ignored), then [`std::thread::available_parallelism`], falling
/// back to 1.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("WTR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimum number of items per [`par_map`] worker; below this,
/// parallel dispatch costs more than it saves.
const MIN_CHUNK: usize = 256;

/// Maps every item through `f`, preserving input order in the output.
///
/// Each worker takes at least `MIN_CHUNK` items, so inputs of fewer
/// than twice that run serially. The mapping closure must be pure with
/// respect to item position (which it sees only via the item itself),
/// so the output is identical to a serial map.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_split(items, MIN_CHUNK, f)
}

/// Splits `0..n` into at most `k` contiguous, non-empty, in-order
/// ranges whose union is `0..n`.
///
/// The boundaries are a pure function of `(n, k)`: range `w` is
/// `[w*per, min((w+1)*per, n))` with `per = n.div_ceil(k)` — the
/// contiguous assignment [`par_each`] and [`par_map`] use for their
/// workers, whose outputs concatenate in input order.
pub fn split_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.max(1);
    let per = n.div_ceil(k);
    let mut out = Vec::with_capacity(k.min(n));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + per).min(n);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Maps every item through `f` with **one work unit per item**,
/// preserving input order in the output.
///
/// Unlike [`par_map`], which gives each worker at least `MIN_CHUNK`
/// items, this spreads the items themselves across workers. Its caller
/// is the `WTRCAT` reader (`wtr_probes::io`), which decodes a window of
/// row groups at once: each "item" is already a whole chunk of records,
/// and the per-item cost is large enough to dwarf dispatch overhead.
pub fn par_each<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_split(items, 1, f)
}

/// The order-preserving map behind [`par_map`] and [`par_each`]: one
/// worker per `min_per_worker` items, up to [`threads`], each mapping
/// one [`split_ranges`] range. Joining the workers in spawn order
/// concatenates their outputs in input order.
fn map_split<T, U, F>(items: &[T], min_per_worker: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads().min(items.len() / min_per_worker);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = split_ranges(items.len(), workers)
            .into_iter()
            .map(|r| {
                let slice = &items[r];
                scope.spawn(move || slice.iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wtr-sim::par worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..10_000).collect();
        let mut outputs = Vec::new();
        for t in [1usize, 2, 8] {
            set_threads(Some(t));
            outputs.push(par_map(&items, |x| x * 3 + 1));
        }
        set_threads(None);
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert_eq!(outputs[0][7], 22);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(8));
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        let one = [9u8];
        assert_eq!(par_map(&one, |x| *x + 1), vec![10]);
        set_threads(None);
    }

    #[test]
    fn each_preserves_order_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..37).collect();
        let mut outputs = Vec::new();
        for t in [1usize, 2, 8, 64] {
            set_threads(Some(t));
            outputs.push(par_each(&items, |x| x * 2));
        }
        set_threads(None);
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
        assert_eq!(outputs[0][5], 10);
        let empty: Vec<u64> = Vec::new();
        set_threads(Some(4));
        assert!(par_each(&empty, |x| *x).is_empty());
        set_threads(None);
    }

    #[test]
    fn split_ranges_covers_input_in_order() {
        for n in [0usize, 1, 2, 5, 37, 400, 1_000] {
            for k in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(n, k);
                assert!(ranges.len() <= k, "n={n} k={k}: {} ranges", ranges.len());
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} k={k}: gap/overlap");
                    assert!(r.start < r.end, "n={n} k={k}: empty range");
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} k={k}: union must be 0..n");
            }
        }
        assert!(split_ranges(0, 4).is_empty());
        assert_eq!(split_ranges(10, 0), split_ranges(10, 1));
    }

    #[test]
    fn override_beats_env() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }
}
