//! Chunked record streams: the shape of the bounded-memory pass over a
//! catalog file.
//!
//! At paper scale (~39.6M devices over 22 days, §4) the pass over a
//! catalog file may not materialize "all the rows". A [`RecordStream`]
//! hands them out as a sequence of owned chunks instead, never as one
//! giant `Vec`: the JSONL catalog reader and the chunk-at-a-time
//! `WTRCAT` reader both implement it. The consumer folds each chunk's
//! rows in order and drops the chunk, so peak memory is O(fold state +
//! chunk).

/// A deterministic chunked producer of records.
///
/// `next_chunk` returns `Ok(Some(chunk))` until the stream is
/// exhausted, then `Ok(None)`; streams must be fused (keep returning
/// `None`) and should never return empty chunks. Chunk boundaries must
/// be a pure function of the stream *content*, never of the thread
/// count.
pub trait RecordStream {
    /// The record type produced.
    type Item;
    /// The error type surfaced by the producer (I/O, parse, …).
    type Error;

    /// Produces the next chunk of records, `None` at end of stream.
    fn next_chunk(&mut self) -> Result<Option<Vec<Self::Item>>, Self::Error>;
}
