//! Calendar-queue event storage for the [`Scheduler`](crate::engine::Scheduler).
//!
//! A classical calendar queue (Brown 1988): a power-of-two ring of time
//! buckets, each `width` seconds wide. A wake-up at time `t` lands in
//! bucket `(t / width) % nbuckets` with an O(1) unsorted push; dispatch
//! rotates through bucket *windows* in time order, lazily sorting each
//! window's entries by the full `(time, agent, per-agent seq, tag)` key
//! the moment the window opens. Because every entry of window `W` is
//! dispatched — in full key order — before any entry of window `W' > W`,
//! and a wake-up scheduled *into* the open window splices into the sorted
//! run at its key position, the pop sequence is exactly the ascending key
//! order: bit-identical to a min-heap over the same keys, for every
//! bucket geometry. Geometry (bucket count, width) affects only cost,
//! never order — which is what lets the width change freely under load.
//!
//! ## Why this beats the heap on the dense horizon
//!
//! The paper's workload is tens of millions of devices emitting periodic
//! reports (PAPER.md §4), with firmware campaigns waking whole fleets in
//! the same second. A binary heap pays O(log n) four-field tuple
//! comparisons per push *and* per pop, maximal exactly in those
//! same-timestamp bursts (every sift-down compares equal times and falls
//! through to the tie-break fields). The calendar queue pays an O(1)
//! bucket push and an amortized O(1) pop: each window is sorted once,
//! contiguously (`sort_unstable` on a `Vec`, cache-friendly), and then
//! drained by `Vec::pop`. A same-second storm of B wake-ups costs one
//! B·log B sort instead of B heap-sifts through a queue of depth n ≥ B.
//!
//! ## Geometry
//!
//! * **Bucket count** is fixed for the queue's life: one bucket per
//!   agent, rounded up to a power of two
//!   ([`CalendarQueue::with_capacity`]). With windows steered toward
//!   [`TARGET_OCCUPANCY`] entries, one lap of the ring holds about 32
//!   wake-ups per bucket. Devices plan their day at midnight, so the
//!   pending set rises to about 49 wake-ups per agent and drains by the
//!   next midnight: 121,262 for 2,478 agents, whose 4,096 buckets hold
//!   131,072 per lap. A window's bucket partition therefore scans
//!   little beyond what it dispatches, even at the daily peak.
//! * **Width** starts horizon-spanning (`horizon / nbuckets`, so nothing
//!   wraps) and is then steered toward [`TARGET_OCCUPANCY`] entries per
//!   opening window by a two-sided controller fed by the observed
//!   inter-wake-up spacing: a window denser than [`DENSE_OCCUPANCY`]
//!   narrows to the measured ideal (`pending span / (len / target)`, at
//!   least halving) — but only when the running average since the last
//!   rebuild agrees density is persistent, because a lone clumped
//!   window is cheaper to sort as one oversized chunk than to re-bucket
//!   everything for — and a [`SPARSE_RUN_WIDEN`]-long run of windows
//!   sparser than [`SPARSE_OCCUPANCY`] widens back the same way (at
//!   least doubling). With the ring fixed, widening is what recovers
//!   when density falls after a narrowing: a narrow width over a long
//!   pending span would otherwise make every partition scan many laps.
//!   Width never drops below one second (`SimTime`'s resolution), so a
//!   true same-instant burst is sorted once and dispatched linearly,
//!   which is optimal anyway.
//!
//! Sparse stretches (a drained tail, a gap before the next campaign) are
//! crossed by scanning at most [`SCAN_WINDOWS`] windows and then jumping
//! straight to the earliest pending wake-up with one O(pending) sweep —
//! each sweep fast-forwards arbitrarily far, so it happens at most once
//! per occupied window, not per pop.
//!
//! All storage — the ring's bucket `Vec`s and the sorted `current` run —
//! is reused across rotations (`mem::take` + put-back, `Vec::pop`), so
//! the steady state allocates nothing.

use wtr_model::time::SimTime;

/// The scheduler's dispatch key: `(time, agent, per-agent seq, tag)`.
/// Strictly unique per wake-up (the per-agent seq increments on every
/// accepted `wake_at`), so the total order has no ties.
pub(crate) type Key = (SimTime, u32, u64, u32);

/// Floor for the ring size; keeps the modular arithmetic trivial and the
/// empty-queue footprint tiny.
const MIN_BUCKETS: usize = 16;
/// Ceiling for the ring size (2²⁰ buckets ≈ 8 MiB of headers); beyond
/// this, load factor grows but correctness is unaffected.
const MAX_BUCKETS: usize = 1 << 20;
/// Occupancy the width controller steers opening windows toward: big
/// enough that the per-window rotation machinery (take/partition/sort/
/// put-back) amortizes over a cache-friendly contiguous chunk, small
/// enough that the chunk sort stays cheap.
const TARGET_OCCUPANCY: usize = 32;
/// An opening window holding more entries than this (4× target) is a
/// narrowing *candidate* — it narrows only when density is persistent
/// (the running average since the last rebuild also exceeds 2× target),
/// because sorting one oversized contiguous chunk is far cheaper than
/// an O(pending) re-bucket of everything.
const DENSE_OCCUPANCY: usize = 128;
/// An opening window holding more entries than this narrows
/// unconditionally: a chunk this size costs more to sort repeatedly
/// than the rebuild that splits it.
const DENSE_HARD: usize = 4_096;
/// Windows that must have opened since the last rebuild before the
/// running-average density is trusted (keeps one post-rebuild clump
/// from immediately re-triggering).
const DENSITY_WARMUP: u64 = 8;
/// Opening windows at or below this occupancy (target/8) count toward
/// the widening trigger.
const SPARSE_OCCUPANCY: usize = 4;
/// Consecutive sparse windows before the width widens. Long enough that
/// a local lull doesn't thrash the geometry, short enough that a
/// mis-narrowed queue recovers after a few hundred pops.
const SPARSE_RUN_WIDEN: u32 = 32;
/// Empty windows scanned before giving up and jumping to the global
/// minimum directly.
const SCAN_WINDOWS: u64 = 64;

/// The bucketed event store. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// The ring; `buckets.len()` is a power of two.
    buckets: Vec<Vec<Key>>,
    /// `buckets.len() - 1`, for the modular index.
    mask: usize,
    /// Bucket width in seconds (≥ 1).
    width: u64,
    /// Absolute index (`t / width`) of the open window.
    win: u64,
    /// Exclusive end of the open window, in seconds.
    win_end: u64,
    /// Whether `win`/`win_end`/`current` describe an open window.
    window_open: bool,
    /// The open window's entries, sorted descending; popped from the end.
    current: Vec<Key>,
    /// Total pending entries (ring + `current`).
    len: usize,
    /// Consecutive opened windows at or below [`SPARSE_OCCUPANCY`].
    sparse_run: u32,
    /// Windows opened since the last rebuild (density denominator).
    win_opened: u64,
    /// Entries those windows held (density numerator).
    win_entries: u64,
}

impl CalendarQueue {
    /// A queue for `agents` agents over a run ending at `horizon`, with
    /// one bucket per agent rounded up to a power of two (4,096 buckets
    /// for 2,478 agents). The ring keeps this size for the queue's life;
    /// only the width adapts.
    pub(crate) fn with_capacity(agents: usize, horizon: SimTime) -> Self {
        let nbuckets = agents.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        // Horizon-spanning initial width: no wake-up can wrap the ring,
        // so the first rotations see one "year" only. The occupancy
        // feedback narrows from there if the horizon is dense.
        let width = (horizon.as_secs() / nbuckets as u64).max(1);
        CalendarQueue {
            buckets: vec![Vec::new(); nbuckets],
            mask: nbuckets - 1,
            width,
            win: 0,
            win_end: 0,
            window_open: false,
            current: Vec::new(),
            len: 0,
            sparse_run: 0,
            win_opened: 0,
            win_entries: 0,
        }
    }

    /// Pending entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_index(&self, secs: u64) -> usize {
        ((secs / self.width) as usize) & self.mask
    }

    /// O(1) push.
    #[inline]
    pub(crate) fn push(&mut self, key: Key) {
        self.len += 1;
        let secs = key.0.as_secs();
        if self.window_open && secs < self.win_end {
            // Scheduled into the instant being dispatched (`wake_at` with
            // `at` inside the open window): splice into the sorted run at
            // the key's position so it pops exactly where the heap would
            // have popped it. Keys are unique, so the position is exact.
            let pos = self.current.partition_point(|k| *k > key);
            self.current.insert(pos, key);
            return;
        }
        let idx = self.bucket_index(secs);
        self.buckets[idx].push(key);
    }

    /// Pops the globally minimal key, or `None` when empty. Amortized
    /// O(1): each entry is bucket-pushed once, moved into `current` once,
    /// sorted in one bounded-size chunk, and `Vec::pop`ped once.
    pub(crate) fn pop(&mut self) -> Option<Key> {
        loop {
            if let Some(key) = self.current.pop() {
                self.len -= 1;
                return Some(key);
            }
            if self.len == 0 {
                self.window_open = false;
                return None;
            }
            self.rotate();
        }
    }

    /// Advances to the next window with pending entries and loads it into
    /// `current` (sorted descending). May instead change geometry and
    /// leave `current` empty — the pop loop just comes back around.
    fn rotate(&mut self) {
        debug_assert!(self.len > 0, "rotate on an empty queue");
        let mut win = if self.window_open {
            self.win + 1
        } else {
            self.min_window()
        };
        let mut scanned = 0u64;
        loop {
            let idx = (win as usize) & self.mask;
            if !self.buckets[idx].is_empty() {
                let end = (win + 1).saturating_mul(self.width);
                // Partition this window's "year" out of the bucket; later
                // years stay. `take` + put-back keeps both allocations.
                let mut bucket = std::mem::take(&mut self.buckets[idx]);
                let mut i = 0;
                while i < bucket.len() {
                    if bucket[i].0.as_secs() < end {
                        self.current.push(bucket.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                self.buckets[idx] = bucket;
                if !self.current.is_empty() {
                    let occ = self.current.len();
                    self.win = win;
                    self.win_end = end;
                    self.window_open = true;
                    self.win_opened += 1;
                    self.win_entries += occ as u64;
                    if self.width > 1 && occ > DENSE_OCCUPANCY {
                        // Narrow only when density is persistent (or the
                        // chunk is outright huge): a lone clumped window
                        // is cheaper to sort as one oversized chunk than
                        // to pay an O(pending) re-bucket for.
                        let persistent = self.win_opened >= DENSITY_WARMUP
                            && self.win_entries / self.win_opened > 2 * TARGET_OCCUPANCY as u64;
                        if persistent || occ > DENSE_HARD {
                            let width = self.ideal_width().min(self.width / 2).max(1);
                            self.sparse_run = 0;
                            self.rebuild(width);
                            return;
                        }
                    }
                    if occ <= SPARSE_OCCUPANCY {
                        self.sparse_run += 1;
                        if self.sparse_run >= SPARSE_RUN_WIDEN
                            && self.len > 2 * TARGET_OCCUPANCY
                            && self.width < u64::MAX / 4
                        {
                            // A run of near-empty windows: the width is
                            // too narrow for the observed spacing (e.g.
                            // after an init burst narrowed it), so the
                            // per-window machinery is charging per entry.
                            // Re-widen to the measured ideal (at least
                            // doubling, so a clumpy distribution that
                            // fools the estimate still makes progress).
                            let width = self.ideal_width().max(self.width * 2);
                            self.sparse_run = 0;
                            self.rebuild(width);
                            return;
                        }
                    } else {
                        self.sparse_run = 0;
                    }
                    self.current.sort_unstable_by(|a, b| b.cmp(a));
                    return;
                }
            }
            win += 1;
            scanned += 1;
            if scanned >= SCAN_WINDOWS {
                // Sparse stretch: jump straight to the earliest pending
                // wake-up. One O(pending) sweep per occupied window at
                // worst, and it fast-forwards arbitrarily far.
                win = self.min_window();
                scanned = 0;
            }
        }
    }

    /// Width that would put the *average* opening window at
    /// [`TARGET_OCCUPANCY`] entries, measured from the span and count of
    /// everything pending: `span / (len / target)`. One O(pending)
    /// sweep, only ever called on the way into an O(pending) rebuild.
    fn ideal_width(&self) -> u64 {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for key in self.buckets.iter().flatten().chain(self.current.iter()) {
            let secs = key.0.as_secs();
            min = min.min(secs);
            max = max.max(secs);
        }
        let span = max.saturating_sub(min);
        let windows = (self.len / TARGET_OCCUPANCY).max(1) as u64;
        (span / windows).max(1)
    }

    /// Window index of the earliest pending wake-up (ring only; callers
    /// ensure `current` is empty). O(pending).
    fn min_window(&self) -> u64 {
        debug_assert!(self.current.is_empty());
        let min = self
            .buckets
            .iter()
            .flat_map(|b| b.iter())
            .map(|k| k.0.as_secs())
            .min()
            .expect("min_window on an empty queue");
        min / self.width
    }

    /// Re-buckets everything under a new width. Closes the open window —
    /// entries in `current` go back through the ring and will be picked
    /// up again by the next rotation, in the same total order (dispatch
    /// order is geometry-independent; see the module docs).
    fn rebuild(&mut self, width: u64) {
        self.win_opened = 0;
        self.win_entries = 0;
        let mut entries: Vec<Key> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        entries.append(&mut self.current);
        self.width = width;
        self.window_open = false;
        for key in entries {
            let idx = self.bucket_index(key.0.as_secs());
            self.buckets[idx].push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, agent: u32, seq: u64) -> Key {
        (SimTime::from_secs(t), agent, seq, 0)
    }

    fn drain(q: &mut CalendarQueue) -> Vec<Key> {
        let mut out = Vec::new();
        while let Some(k) = q.pop() {
            out.push(k);
        }
        out
    }

    #[test]
    fn pops_in_full_key_order() {
        let mut q = CalendarQueue::with_capacity(4, SimTime::from_secs(1_000));
        let mut keys = vec![
            key(500, 1, 1),
            key(500, 0, 1),
            key(3, 7, 1),
            key(999, 2, 1),
            key(500, 1, 2),
            key(0, 9, 1),
        ];
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }

    #[test]
    fn same_instant_burst_sorts_by_tiebreak() {
        let mut q = CalendarQueue::with_capacity(8, SimTime::from_secs(100));
        // A firmware-storm shape: everything at t=50, shuffled agents.
        let mut keys: Vec<Key> = (0..500u32).rev().map(|a| key(50, a, 1)).collect();
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }

    #[test]
    fn in_window_push_splices_at_key_position() {
        let mut q = CalendarQueue::with_capacity(4, SimTime::from_secs(1_000));
        for a in [3u32, 1, 2] {
            q.push(key(10, a, 1));
        }
        assert_eq!(q.pop(), Some(key(10, 1, 1)));
        // The window [.., ..) around t=10 is open; schedule into it at
        // the same instant with an agent id between the two pending ones.
        q.push(key(10, 2, 9));
        assert_eq!(q.pop(), Some(key(10, 2, 1)));
        assert_eq!(q.pop(), Some(key(10, 2, 9)));
        assert_eq!(q.pop(), Some(key(10, 3, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_entries_per_bucket_preserve_order() {
        let mut q = CalendarQueue::with_capacity(0, SimTime::from_secs(1 << 20));
        // Far more entries than MIN_BUCKETS: hundreds share each bucket
        // across many laps of the ring.
        let mut keys: Vec<Key> = (0..10_000u64).map(|i| key(i * 97 % 50_000, 5, i)).collect();
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }

    #[test]
    fn sparse_tail_scan_cap_and_min_jump_preserve_order() {
        let mut q = CalendarQueue::with_capacity(4_096, SimTime::from_secs(10_000_000));
        // Dense head, then a handful of stragglers millions of seconds
        // out: exercises the empty-window scan cap and the min-jump.
        let mut keys: Vec<Key> = (0..2_000u64).map(|i| key(i, 1, i)).collect();
        for j in 0..5u64 {
            keys.push(key(9_000_000 + j * 200_000, 2, j));
        }
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn ring_keeps_its_size_under_load() {
        let mut q = CalendarQueue::with_capacity(16, SimTime::from_secs(1 << 20));
        let nbuckets = q.buckets.len();
        assert_eq!(nbuckets, 16);
        // One agent's 10,000 wake-ups: 625 per bucket, far past any
        // load factor, and the ring still never resizes.
        let mut keys: Vec<Key> = (0..10_000u64).map(|i| key(i * 89 % 40_000, 3, i)).collect();
        for &k in &keys {
            q.push(k);
            assert_eq!(q.buckets.len(), nbuckets);
        }
        keys.sort_unstable();
        let mut popped = Vec::with_capacity(keys.len());
        while let Some(k) = q.pop() {
            assert_eq!(q.buckets.len(), nbuckets);
            popped.push(k);
        }
        assert_eq!(popped, keys);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::with_capacity(16, SimTime::from_secs(100_000));
        let mut h: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        // Deterministic pseudo-random interleaving of pushes and pops.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..5_000 {
            if step() % 3 != 0 {
                seq += 1;
                let t = now + step() % 10_000;
                let k = key(t, (step() % 50) as u32, seq);
                q.push(k);
                h.push(Reverse(k));
            } else {
                let a = q.pop();
                let b = h.pop().map(|Reverse(k)| k);
                assert_eq!(a, b);
                if let Some(k) = a {
                    now = k.0.as_secs();
                }
            }
        }
        while let Some(Reverse(k)) = h.pop() {
            assert_eq!(q.pop(), Some(k));
        }
        assert_eq!(q.pop(), None);
    }
}
