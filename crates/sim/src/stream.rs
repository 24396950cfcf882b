//! Streaming catalog-pass core: chunked record streams and mergeable
//! chunk-fold sinks.
//!
//! At paper scale (~39.6M devices over 22 days, §4) the pass over a
//! catalog file may not materialize "all the rows". This module provides
//! the two abstractions that pass is built on instead:
//!
//! * [`RecordStream`] — a deterministic, *chunked* producer of records:
//!   the JSONL catalog reader and the chunk-at-a-time `WTRCAT` reader
//!   both present their output as a sequence of owned chunks, never as
//!   one giant `Vec`.
//! * [`ChunkFold`] — a sink that folds chunks into bounded state and can
//!   merge ("absorb") a sink built from a *later* part of the same
//!   stream, mirroring the intern table's `absorb` discipline. The
//!   device-summary fold and the per-day label shares implement it.
//!
//! The drivers ([`drive`], [`drive_iter`]) connect the two, and a pair
//! of sinks is itself a sink, so one pass over the stream feeds both the
//! summaries and the label shares with O(state + chunk) peak memory.
//!
//! # Determinism
//!
//! Byte-identical output at any thread count falls out of two rules:
//!
//! 1. **Every sink is exact under regrouping** (the [`ChunkFold`]
//!    contract), so where the chunks are cut decides how the work is
//!    split, never a result. The cuts are still a pure function of the
//!    stream content, never of the thread count.
//! 2. Each chunk folds into a fresh [`ChunkFold::zero`] accumulator;
//!    partials are **absorbed left-to-right in chunk order**, so
//!    "first-touch wins" semantics survive parallel execution.
//!
//! The window of chunks in flight ([`drive`] folds up to
//! [`crate::par::threads`] chunks concurrently) affects only *when*
//! partials are computed, never the absorb order.

use crate::par;

/// Records per chunk for iterator-backed streaming ([`drive_iter`]).
pub const STREAM_CHUNK: usize = 4096;

/// A sink that folds chunks of `T` records into bounded accumulator
/// state and can merge with a sink covering a later part of the stream.
///
/// The three methods mirror the intern table's chunk-merge discipline
/// (`ApnTable::absorb`):
///
/// * [`zero`](ChunkFold::zero) — a fresh accumulator with the same
///   *configuration* as `self` but no accumulated state (the
///   prototype pattern: config-bearing sinks copy their references).
/// * [`fold_chunk`](ChunkFold::fold_chunk) — folds one chunk of
///   records, in order, into `self`.
/// * [`absorb`](ChunkFold::absorb) — merges a sink built from a
///   **strictly later** slice of the same stream into `self`. Because
///   the drivers always absorb left-to-right in chunk order, an
///   implementation may rely on `self` holding the earlier records
///   ("first wins" is safe); it need not be commutative.
///
/// # Contract
///
/// Folding the concatenation of two chunks must equal folding them into
/// separate zeros and absorbing, exactly:
/// `fold(a ++ b) == fold(a).absorb(fold(b))`. Integer counters, set
/// unions, map-entry merges, "left wins" identities and samples reduced
/// in sorted order satisfy this. A floating-point sum does not, so a
/// sink must not regroup one: the device-summary fold, for example,
/// folds each device's rows in row order whatever the chunking.
pub trait ChunkFold<T>: Send + Sized {
    /// A fresh accumulator with `self`'s configuration and no state.
    fn zero(&self) -> Self;
    /// Folds one chunk of records (in stream order) into `self`.
    fn fold_chunk(&mut self, chunk: &[T]);
    /// Merges a sink built from a later slice of the stream into
    /// `self`.
    fn absorb(&mut self, later: Self);
}

/// Broadcast over a pair of sinks: one pass feeds both.
impl<T, A: ChunkFold<T>, B: ChunkFold<T>> ChunkFold<T> for (A, B) {
    fn zero(&self) -> Self {
        (self.0.zero(), self.1.zero())
    }

    fn fold_chunk(&mut self, chunk: &[T]) {
        self.0.fold_chunk(chunk);
        self.1.fold_chunk(chunk);
    }

    fn absorb(&mut self, later: Self) {
        self.0.absorb(later.0);
        self.1.absorb(later.1);
    }
}

/// A deterministic chunked producer of records.
///
/// `next_chunk` returns `Ok(Some(chunk))` until the stream is
/// exhausted, then `Ok(None)`; streams must be fused (keep returning
/// `None`) and should never return empty chunks (the drivers skip them
/// defensively). Chunk boundaries must be a pure function of the stream
/// *content* — never of the thread count — so that downstream folds are
/// byte-identical at any parallelism.
pub trait RecordStream {
    /// The record type produced.
    type Item: Send + Sync;
    /// The error type surfaced by the producer (I/O, parse, …).
    type Error;

    /// Produces the next chunk of records, `None` at end of stream.
    fn next_chunk(&mut self) -> Result<Option<Vec<Self::Item>>, Self::Error>;
}

/// Folds a window of chunks into `sink`: each chunk folds into a fresh
/// zero on a [`par::par_each`] worker, partials absorb left-to-right.
fn fold_window<T, F>(sink: &mut F, window: &[Vec<T>])
where
    T: Send + Sync,
    F: ChunkFold<T> + Sync,
{
    let partials = par::par_each(window, |chunk| {
        let mut z = sink.zero();
        z.fold_chunk(chunk);
        z
    });
    for p in partials {
        sink.absorb(p);
    }
}

/// Drives an iterator of owned records into `sink`, buffering
/// [`STREAM_CHUNK`] records at a time and folding up to [`par::threads`]
/// chunks concurrently. Returns the number of records consumed.
///
/// Peak memory is O([`STREAM_CHUNK`] × worker window + sink state) — the
/// iterator itself is never collected.
pub fn drive_iter<T, F, I>(sink: &mut F, items: I) -> u64
where
    T: Send + Sync,
    F: ChunkFold<T> + Sync,
    I: IntoIterator<Item = T>,
{
    let mut it = items.into_iter();
    let mut seen = 0u64;
    loop {
        let window_target = par::threads().max(1);
        let mut window: Vec<Vec<T>> = Vec::with_capacity(window_target);
        for _ in 0..window_target {
            let chunk: Vec<T> = it.by_ref().take(STREAM_CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            seen += chunk.len() as u64;
            window.push(chunk);
        }
        if window.is_empty() {
            return seen;
        }
        fold_window(sink, &window);
    }
}

/// Pulls `stream` to exhaustion, folding its chunks into `sink` with up
/// to [`par::threads`] chunks in flight. Returns the number of records
/// consumed, or the stream's error.
///
/// The window size affects only which chunks fold concurrently; fold
/// boundaries (the stream's chunking) and the absorb order (stream
/// order) are independent of it, so output is byte-identical at any
/// thread count.
pub fn drive<S, F>(stream: &mut S, sink: &mut F) -> Result<u64, S::Error>
where
    S: RecordStream,
    F: ChunkFold<S::Item> + Sync,
{
    let mut seen = 0u64;
    let mut done = false;
    while !done {
        let window_target = par::threads().max(1);
        let mut window: Vec<Vec<S::Item>> = Vec::with_capacity(window_target);
        while window.len() < window_target {
            match stream.next_chunk()? {
                None => {
                    done = true;
                    break;
                }
                Some(chunk) => {
                    if chunk.is_empty() {
                        continue;
                    }
                    seen += chunk.len() as u64;
                    window.push(chunk);
                }
            }
        }
        if !window.is_empty() {
            fold_window(sink, &window);
        }
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the global thread override (shared
    /// with `par`'s process-global knob).
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A sink recording (sum, first item, item count) — exercises both
    /// commutative (sum/count) and "first wins" (first item) merges.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Probe {
        sum: u64,
        first: Option<u64>,
        count: u64,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                sum: 0,
                first: None,
                count: 0,
            }
        }
    }

    impl ChunkFold<u64> for Probe {
        fn zero(&self) -> Self {
            Probe::new()
        }

        fn fold_chunk(&mut self, chunk: &[u64]) {
            for &x in chunk {
                self.sum += x;
                self.first.get_or_insert(x);
                self.count += 1;
            }
        }

        fn absorb(&mut self, later: Self) {
            self.sum += later.sum;
            self.first = self.first.or(later.first);
            self.count += later.count;
        }
    }

    struct StaticStream {
        chunks: Vec<Vec<u64>>,
        next: usize,
    }

    impl RecordStream for StaticStream {
        type Item = u64;
        type Error = std::convert::Infallible;

        fn next_chunk(&mut self) -> Result<Option<Vec<u64>>, Self::Error> {
            let i = self.next;
            self.next += 1;
            Ok(self.chunks.get(i).cloned())
        }
    }

    #[test]
    fn drive_iter_never_materializes_and_matches_slice() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let items: Vec<u64> = (0..10_000).collect();
        let mut reference = Probe::new();
        reference.fold_chunk(&items);
        for t in [1usize, 2, 8] {
            par::set_threads(Some(t));
            let mut sink = Probe::new();
            let n = drive_iter(&mut sink, items.iter().copied());
            assert_eq!(n, items.len() as u64);
            assert_eq!(sink, reference, "drive_iter at {t} threads");
        }
        par::set_threads(None);
    }

    #[test]
    fn drive_stream_handles_uneven_and_empty_chunks() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let chunks = vec![
            (0..100).collect::<Vec<u64>>(),
            Vec::new(),
            (100..101).collect(),
            (101..900).collect(),
        ];
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let mut reference = Probe::new();
        reference.fold_chunk(&all);
        for t in [1usize, 2, 8] {
            par::set_threads(Some(t));
            let mut stream = StaticStream {
                chunks: chunks.clone(),
                next: 0,
            };
            let mut sink = Probe::new();
            let n = drive(&mut stream, &mut sink).unwrap();
            assert_eq!(n, all.len() as u64);
            assert_eq!(sink, reference, "drive at {t} threads");
            assert_eq!(sink.first, Some(0), "first-touch survives parallel fold");
        }
        par::set_threads(None);
    }

    #[test]
    fn broadcast_pair_feeds_both_sinks() {
        let items: Vec<u64> = (1..=100).collect();
        let mut sink = (Probe::new(), Probe::new());
        drive_iter(&mut sink, items);
        assert_eq!(sink.0.sum, 5050);
        assert_eq!(sink.0, sink.1);
    }
}
