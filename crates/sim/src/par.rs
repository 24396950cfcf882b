//! Deterministic parallel map-reduce over slices.
//!
//! The helpers here are the workspace's only concurrency layer: plain
//! `std::thread::scope` fan-out with **order-stable** merging, so every
//! pipeline stage produces byte-identical output at 1, 2 or N worker
//! threads.
//!
//! # Determinism by construction
//!
//! Work is split into fixed chunks whose size is a pure function of the
//! input length only (never of the thread count).
//! Each chunk is folded independently into a partial accumulator, and
//! the partials are merged **left to right in chunk-index order** — even
//! when running serially, the same chunk boundaries are used, so the
//! sequence of `fold`/`merge` calls (and thus any floating-point
//! rounding) is identical regardless of how many threads executed them.
//!
//! Consequently callers only need `merge` to be associative *in
//! structure*, not commutative: "first chunk wins" semantics (e.g. keep
//! the identity fields from the earliest event) survive parallel
//! execution unchanged.
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

/// Minimum number of items per chunk; below this, parallel dispatch
/// costs more than it saves.
const MIN_CHUNK: usize = 256;
/// Maximum number of chunks per call; bounds per-call bookkeeping.
const MAX_CHUNKS: usize = 64;

/// Chunk size used to shard `n` items.
///
/// This is a pure function of `n` **only** — never of the thread count —
/// which is the linchpin of the determinism guarantee: the partial
/// accumulators computed per chunk are identical no matter how many
/// threads the chunks were distributed over.
fn chunk_size(n: usize) -> usize {
    n.div_ceil(MAX_CHUNKS).max(MIN_CHUNK)
}

/// Maps every item through `f`, preserving input order in the output.
///
/// The mapping closure must be pure with respect to item position
/// (which it sees only via the item itself), so the concatenation of
/// per-chunk outputs is identical to a serial map.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunks = chunked_map(items, |chunk| chunk.iter().map(&f).collect::<Vec<U>>());
    let mut out = Vec::with_capacity(items.len());
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Splits `0..n` into at most `k` contiguous, non-empty, in-order
/// ranges whose union is `0..n`.
///
/// The boundaries are a pure function of `(n, k)`: range `w` is
/// `[w*per, min((w+1)*per, n))` with `per = n.div_ceil(k)` — the same
/// contiguous assignment [`par_each`] and [`par_map`] use for their
/// workers. This is the partitioning used by [`crate::shard`] to split
/// an agent population into per-shard event loops: contiguity preserves
/// the relative agent order inside every shard, which the shard-stable
/// dispatch order `(time, agent, seq)` relies on.
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
/// Unlike [`par_map`], which shards into chunks of at least `MIN_CHUNK`
/// items (and therefore runs serially for fewer than that), this
/// spreads the items themselves across workers in contiguous index
/// ranges. It exists for the streaming drivers in [`crate::stream`],
/// where each "item" is already a whole chunk of records and the
/// per-item cost is large enough to dwarf dispatch overhead.
///
/// Output order is the input order regardless of worker count: workers
/// return `(first_index, results)` pairs that are sorted back before
/// concatenation.
pub fn par_each<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let ranges = split_ranges(items.len(), workers);
    let f = &f;
    let mut indexed: Vec<(usize, Vec<U>)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for r in ranges {
            let lo = r.start;
            let slice = &items[r];
            handles.push(scope.spawn(move || (lo, slice.iter().map(f).collect::<Vec<U>>())));
        }
        for h in handles {
            indexed.push(h.join().expect("wtr-sim::par worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().flat_map(|(_, v)| v).collect()
}

/// Applies `f` to each fixed-size chunk of `items`, returning the
/// per-chunk results in chunk-index order.
///
/// This is the engine behind [`par_map`]: chunk boundaries are a pure
/// function of `items.len()`, and chunks are assigned to scoped worker
/// threads in contiguous runs.
/// Each worker returns `(chunk_index, result)` pairs which are sorted
/// back into chunk order before returning, so callers observe a
/// deterministic sequence regardless of scheduling.
fn chunked_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let size = chunk_size(items.len());
    let chunks: Vec<&[T]> = items.chunks(size).collect();
    let workers = threads().min(chunks.len());
    if workers <= 1 || chunks.len() <= 1 {
        return chunks.into_iter().map(&f).collect();
    }

    // Contiguous chunk-range per worker; ranges are a pure function of
    // (chunk count, worker count) so assignment is reproducible too.
    let ranges = split_ranges(chunks.len(), workers);
    let f = &f;
    let chunks = &chunks;
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for r in ranges {
            handles.push(
                scope.spawn(move || r.map(|i| (i, f(chunks[i]))).collect::<Vec<(usize, U)>>()),
            );
        }
        for h in handles {
            indexed.extend(h.join().expect("wtr-sim::par worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// Applies `f` to every item **in place**, splitting the slice into
/// contiguous per-worker ranges.
///
/// The mutation closure must be pure per item (no cross-item state), so
/// the final slice contents are identical to a serial `for` loop at any
/// worker count — this is the in-place sibling of [`par_each`], used by
/// bulk rewrite passes such as the catalog's APN-symbol remap.
pub fn par_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 || items.len() <= 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let ranges = split_ranges(items.len(), workers);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = items;
        for r in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            scope.spawn(move || {
                for item in head {
                    f(item);
                }
            });
        }
    });
}

/// Reduces `items` by merging adjacent pairs level by level — a balanced
/// binary tree over the input order — and returns the final value
/// (`None` for an empty input).
///
/// The tree shape is a pure function of `items.len()` (never of the
/// thread count): level `l` merges `(items[2i], items[2i+1])` with the
/// left operand always covering strictly earlier input than the right,
/// and an unpaired tail element passes through unchanged. `merge` may
/// therefore rely on left-covers-earlier ("first wins") semantics, like
/// [`par_map`]'s ordered results — but unlike the serial left fold
/// it is *regrouped*: `merge` must be associative for the result to
/// equal a left fold. Each level's pair merges run on scoped worker
/// threads, turning an O(k) serial merge tail into O(log k) levels.
pub fn tree_reduce<T, M>(items: Vec<T>, merge: M) -> Option<T>
where
    T: Send,
    M: Fn(T, T) -> T + Sync,
{
    let mut level = items;
    while level.len() > 1 {
        let mut pairs: Vec<(T, Option<T>)> = Vec::with_capacity(level.len().div_ceil(2));
        let mut iter = level.into_iter();
        while let Some(left) = iter.next() {
            pairs.push((left, iter.next()));
        }
        let workers = threads().min(pairs.len());
        let reduce_pair = |(left, right): (T, Option<T>)| match right {
            Some(right) => merge(left, right),
            None => left,
        };
        level = if workers <= 1 || pairs.len() <= 1 {
            pairs.into_iter().map(reduce_pair).collect()
        } else {
            let reduce_pair = &reduce_pair;
            let mut indexed: Vec<(usize, T)> = Vec::with_capacity(pairs.len());
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(pairs.len());
                for (i, pair) in pairs.into_iter().enumerate() {
                    handles.push(scope.spawn(move || (i, reduce_pair(pair))));
                }
                for h in handles {
                    indexed.push(h.join().expect("wtr-sim::par worker panicked"));
                }
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed.into_iter().map(|(_, v)| v).collect()
        };
    }
    level.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn chunk_size_is_pure_in_n() {
        assert_eq!(chunk_size(1), MIN_CHUNK);
        assert_eq!(chunk_size(MIN_CHUNK * MAX_CHUNKS), MIN_CHUNK);
        // Large inputs: at most MAX_CHUNKS chunks.
        let n: usize = 1_000_000;
        assert!(n.div_ceil(chunk_size(n)) <= MAX_CHUNKS);
    }

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
    fn reduce_is_bitwise_stable_for_floats() {
        let _g = LOCK.lock().unwrap();
        // Float addition is not associative, so a naive parallel sum
        // would drift with thread count. Fixed chunking + ordered merge
        // must keep the bits identical.
        let items: Vec<f64> = (0..50_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let sum = |t: usize| {
            set_threads(Some(t));
            let partials = chunked_map(&items, |chunk| chunk.iter().sum::<f64>());
            set_threads(None);
            partials.into_iter().fold(0.0f64, |a, b| a + b).to_bits()
        };
        let s1 = sum(1);
        assert_eq!(s1, sum(2));
        assert_eq!(s1, sum(8));
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
    fn each_mut_matches_serial_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let mut expected: Vec<u64> = (0..1_000).collect();
        for x in expected.iter_mut() {
            *x = *x * 7 + 3;
        }
        for t in [1usize, 2, 8, 64] {
            set_threads(Some(t));
            let mut items: Vec<u64> = (0..1_000).collect();
            par_each_mut(&mut items, |x| *x = *x * 7 + 3);
            assert_eq!(items, expected, "threads={t}");
        }
        set_threads(None);
        let mut empty: Vec<u64> = Vec::new();
        par_each_mut(&mut empty, |_| unreachable!());
    }

    #[test]
    fn tree_reduce_concatenation_preserves_order() {
        let _g = LOCK.lock().unwrap();
        // Concatenation is associative but not commutative: any reorder
        // or regrouping that broke left-covers-earlier would show up.
        for n in [0usize, 1, 2, 3, 5, 8, 13, 64, 65] {
            let items: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
            let expected: Option<Vec<u32>> = if n == 0 {
                None
            } else {
                Some((0..n as u32).collect())
            };
            for t in [1usize, 2, 8] {
                set_threads(Some(t));
                let got = tree_reduce(items.clone(), |mut a, b| {
                    a.extend(b);
                    a
                });
                assert_eq!(got, expected, "n={n} threads={t}");
            }
        }
        set_threads(None);
    }

    #[test]
    fn tree_reduce_first_occurrence_interning_matches_left_fold() {
        let _g = LOCK.lock().unwrap();
        // Models the APN-table merge: absorbing a table keeps the
        // left side's entries and appends the right side's new strings
        // in their order. Any ordered binary tree must reproduce the
        // serial left fold's first-occurrence order exactly.
        let tables: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i % 4, i, (i * 3) % 7, 2]).collect();
        let absorb = |mut left: Vec<u8>, right: Vec<u8>| {
            for s in right {
                if !left.contains(&s) {
                    left.push(s);
                }
            }
            left
        };
        let mut serial = tables[0].clone();
        for t in &tables[1..] {
            serial = absorb(serial, t.clone());
        }
        for t in [1usize, 2, 8] {
            set_threads(Some(t));
            assert_eq!(
                tree_reduce(tables.clone(), absorb).unwrap(),
                serial,
                "threads={t}"
            );
        }
        set_threads(None);
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
