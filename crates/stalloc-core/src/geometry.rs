//! Geometric primitives for spatio-temporal planning.
//!
//! Planning places axis-aligned rectangles in the (time × address) plane:
//! a request occupying `[t0, t1)` in time and `[off, off+len)` in address
//! space. [`TimeSpacePacker`] answers "lowest conflict-free offset" queries
//! and is the engine behind HomoPhase packing and gap insertion. [`first_conflict`] is the one definition of "pairwise
//! conflict-free", behind [`Plan::validate`](crate::Plan::validate) and the
//! packer's own debug checks. [`IntervalSet`] tracks free address
//! intervals — one sorted run of `(start, len)`, edited in place — at
//! runtime, where it is the whole cost of the stomp guard and of a claim
//! (ARCHITECTURE.md, "Cost of a `malloc`/`free`"), and inside
//! [`LiveSweep`], the arrival-order sweep over the live set's free space
//! behind the first-fit refinement sweep and the `lookahead` strategy.
//! [`TimeAxis`] is the one rank rule for structures indexed by time.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::ops::ControlFlow;

pub use crate::conflict::first_conflict;
use crate::profiler::RequestEvent;

/// A placed request: a rectangle in the time × address plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rect {
    /// Inclusive start time.
    pub t0: u64,
    /// Exclusive end time.
    pub t1: u64,
    /// Address offset.
    pub off: u64,
    /// Address length.
    pub len: u64,
}

/// The window rule, stated once: a request allocated at tick `ts` and
/// freed at `te` occupies its bytes over `[ts, max(te, ts + 1))`, and this
/// is the window's exclusive end. Ticks are event indices, so a free at
/// tick `t` precedes an allocation at `t` (the end is exclusive); a
/// request whose free tick does not follow its allocation still holds its
/// bytes for that one tick. Callers reach it through
/// [`RequestEvent::window_end`](crate::RequestEvent::window_end) and
/// [`PlannedAlloc::window_end`](crate::PlannedAlloc::window_end).
pub fn window_end(ts: u64, te: u64) -> u64 {
    te.max(ts + 1)
}

impl Rect {
    /// Returns `true` if the two rectangles overlap in both time and space.
    pub fn conflicts(&self, other: &Rect) -> bool {
        self.t0 < other.t1
            && other.t0 < self.t1
            && self.off < other.off + other.len
            && other.off < self.off + self.len
    }
}

/// A profile's rank-compressed time axis: its distinct *start* ticks,
/// ascending. A tick `t` ranks as the number of start ticks before it,
/// so a window `[t0, t1)` becomes the ranks `[rank(t0), rank(t1))` of
/// the start ticks inside it, and two requests' windows overlap iff their
/// rank ranges intersect: the later start is itself a start tick.
///
/// Structures over time are indexed by rank, never by tick: tick values
/// come off the wire unvalidated and must not size an allocation.
#[derive(Debug, Clone)]
pub struct TimeAxis {
    starts: Vec<u64>,
}

// `#[inline]` throughout, so each caller compiles these in its own
// codegen unit as it did when the axis was private to `plan::global`.
// Called across units instead, the baseline pipeline's `plan_ms` on
// `dense-vpp` measured ~3 % slower (code placement under `lto = "thin"`,
// `codegen-units = 4`), though the calls are only a few per request.
impl TimeAxis {
    /// The axis of `reqs`' start ticks.
    #[inline]
    pub fn new(reqs: &[RequestEvent]) -> Self {
        let mut starts: Vec<u64> = reqs.iter().map(|r| r.ts).collect();
        starts.sort_unstable();
        starts.dedup();
        TimeAxis { starts }
    }

    /// How many ranks there are: the number of distinct start ticks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.starts.len()
    }

    /// How many start ticks precede `t`: the rank of `t` if it is one.
    #[inline]
    pub fn rank(&self, t: u64) -> usize {
        self.starts.partition_point(|&s| s < t)
    }
}

/// Rectangles per index chunk: small enough that an ordered insert is a
/// short `memmove`, large enough that a chunk summary prunes real work.
pub(crate) const CHUNK_CAP: usize = 64;

/// One run of the offset-ordered index with a summary of its members.
#[derive(Debug, Clone)]
struct Chunk {
    /// Members in ascending `off` order: never empty, at most
    /// [`CHUNK_CAP`].
    rects: Vec<Rect>,
    /// Minimum `t0` over the members.
    min_t0: u64,
    /// Maximum `t1` over the members.
    max_t1: u64,
    /// Maximum `off + len` over the members.
    max_end: u64,
}

impl Chunk {
    fn new(rects: Vec<Rect>) -> Self {
        let (min_t0, max_t1, max_end) = rects.iter().fold((u64::MAX, 0, 0), |(lo, hi, end), r| {
            (lo.min(r.t0), hi.max(r.t1), end.max(r.off + r.len))
        });
        Chunk {
            rects,
            min_t0,
            max_t1,
            max_end,
        }
    }

    /// Widens the summary to cover `r`.
    fn widen(&mut self, r: &Rect) {
        self.min_t0 = self.min_t0.min(r.t0);
        self.max_t1 = self.max_t1.max(r.t1);
        self.max_end = self.max_end.max(r.off + r.len);
    }

    fn first_off(&self) -> u64 {
        self.rects[0].off
    }

    /// `true` if no member can overlap the `[t0,t1)` time window.
    fn misses_window(&self, t0: u64, t1: u64) -> bool {
        self.max_t1 <= t0 || t1 <= self.min_t0
    }
}

/// Greedy first-fit packer over the time × address plane.
///
/// Placed rectangles live in one offset-ordered index: chunks of at most
/// 64 rects, sorted by `off` within and across chunks.
/// A query streams the rects overlapping its time window in ascending
/// offset order straight out of the index, skipping every chunk whose
/// summary rules it out. The order of equal-offset rects is unspecified
/// and never observable: every query folds them with `max`.
#[derive(Debug, Clone, Default)]
pub struct TimeSpacePacker {
    chunks: Vec<Chunk>,
    height: u64,
}

impl TimeSpacePacker {
    /// Creates an empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk constructor: one sort instead of `rects.len()` ordered
    /// inserts. The rects must be pairwise conflict-free (debug builds
    /// assert), exactly as if each had gone through [`Self::place_at`].
    pub fn from_rects(rects: Vec<Rect>) -> Self {
        let packer = Self::index_of(rects);
        debug_assert_eq!(
            first_conflict(packer.rects().copied()),
            None,
            "bulk-seeded rects conflict"
        );
        packer
    }

    /// [`Self::from_rects`] without its contract, for an index that is
    /// only asked gap queries: a sweep folds overlapping rects with `max`,
    /// so the rects may conflict, and one with `t1 <= t0` is simply in
    /// the way of the windows `(t0', t1')` with `t0' < t1 && t0 < t1'`.
    pub(crate) fn index_of(mut rects: Vec<Rect>) -> Self {
        // Stable on purpose. Results never depend on the order of
        // equal-offset rects, but the sweep's speed does: a tight plan
        // reuses each offset many times over, and kept in the caller's
        // (request = time) order those runs make the time-overlap test
        // predictable. At 2k rects a full sweep takes about 3 µs against
        // 5 µs after `sort_unstable_by_key`.
        rects.sort_by_key(|r| r.off);
        TimeSpacePacker {
            height: rects.iter().map(|r| r.off + r.len).max().unwrap_or(0),
            // Full chunks: the fewest allocations, for a packer that is
            // asked a few questions; an insert splits the chunk it lands
            // in. Each chunk owns its run, hence the one copy per run.
            chunks: rects
                .chunks(CHUNK_CAP)
                .map(|run| Chunk::new(run.to_vec()))
                .collect(),
        }
    }

    /// Current height: the maximum `off + len` over placed rectangles.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Placed rectangles in ascending offset order.
    pub fn rects(&self) -> impl Iterator<Item = &Rect> + Clone {
        self.chunks.iter().flat_map(|c| &c.rects)
    }

    /// The chunks that can hold a rect spatially overlapping `[off, end)`:
    /// those starting below `end` whose members reach above `off`.
    fn chunks_reaching(&self, off: u64, end: u64) -> impl Iterator<Item = &Chunk> {
        self.chunks
            .iter()
            .take_while(move |c| c.first_off() < end)
            .filter(move |c| c.max_end > off)
    }

    /// `true` if `rect` overlaps a placed rectangle in both time and space.
    fn conflicts_with(&self, rect: &Rect) -> bool {
        self.chunks_reaching(rect.off, rect.off + rect.len)
            .filter(|c| !c.misses_window(rect.t0, rect.t1))
            .any(|c| c.rects.iter().any(|r| r.conflicts(rect)))
    }

    /// Places a rectangle at an explicit position (no conflict checking in
    /// release builds; debug builds assert): a binary search for its chunk
    /// plus a shift of at most one chunk's rects.
    pub fn place_at(&mut self, rect: Rect) {
        debug_assert!(
            !self.conflicts_with(&rect),
            "rect {rect:?} conflicts with an existing placement"
        );
        self.height = self.height.max(rect.off + rect.len);
        if self.chunks.is_empty() {
            self.chunks.push(Chunk::new(vec![rect]));
            return;
        }
        // The last chunk starting at or below the offset (else the first).
        let mut ci = self
            .chunks
            .partition_point(|c| c.first_off() <= rect.off)
            .saturating_sub(1);
        if self.chunks[ci].rects.len() == CHUNK_CAP {
            let mut upper = Vec::with_capacity(CHUNK_CAP);
            upper.extend(self.chunks[ci].rects.drain(CHUNK_CAP / 2..));
            let lower = std::mem::take(&mut self.chunks[ci].rects);
            self.chunks[ci] = Chunk::new(lower);
            self.chunks.insert(ci + 1, Chunk::new(upper));
            if self.chunks[ci + 1].first_off() <= rect.off {
                ci += 1;
            }
        }
        let chunk = &mut self.chunks[ci];
        let at = chunk.rects.partition_point(|r| r.off <= rect.off);
        chunk.rects.insert(at, rect);
        chunk.widen(&rect);
    }

    /// The sweep behind every gap query. Streams the rects overlapping
    /// `[t0,t1)` in ascending offset order and calls `on_gap(offset,
    /// gap_len)` for each free gap of at least `len` bytes below the top
    /// of the occupied span. Breaks as soon as `on_gap` does; otherwise
    /// continues with the top of the occupied span — or, if the sweep
    /// passed `limit - len` first, with the position where it stopped
    /// (above every admissible offset already).
    fn sweep_gaps<B>(
        &self,
        t0: u64,
        t1: u64,
        len: u64,
        limit: u64,
        mut on_gap: impl FnMut(u64, u64) -> ControlFlow<B>,
    ) -> ControlFlow<B, u64> {
        debug_assert!(t0 < t1 && len > 0);
        let mut cursor = 0u64;
        for chunk in &self.chunks {
            if cursor + len > limit {
                break;
            }
            // A chunk wholly at or below the cursor can neither open a gap
            // nor raise the cursor.
            if chunk.max_end <= cursor || chunk.misses_window(t0, t1) {
                continue;
            }
            // `&`, not `&&`: in offset order time overlap is a coin flip, so
            // test it with one branch per rect, not two.
            for r in chunk.rects.iter().filter(|r| (r.t0 < t1) & (t0 < r.t1)) {
                if r.off > cursor && r.off - cursor >= len {
                    on_gap(cursor, r.off - cursor)?;
                }
                cursor = cursor.max(r.off + r.len);
            }
        }
        ControlFlow::Continue(cursor)
    }

    /// Finds the lowest offset `<= limit - len` where a `[t0,t1) x len`
    /// rectangle fits without conflicts. With `limit = u64::MAX` the packer
    /// may grow beyond its current height. Returns at the first gap that
    /// fits, without visiting the rects above it.
    pub fn find_first_fit(&self, t0: u64, t1: u64, len: u64, limit: u64) -> Option<u64> {
        // The sweep only moves up: if the first gap wide enough (or, with
        // none, the top) is above the limit, so is everything after it.
        let (ControlFlow::Break(off) | ControlFlow::Continue(off)) =
            self.sweep_gaps(t0, t1, len, limit, |off, _| ControlFlow::Break(off));
        (off + len <= limit).then_some(off)
    }

    /// Every free gap in the `[t0,t1)` time window that can hold `len`
    /// bytes, as `(offset, gap_len)` in ascending offset order. The last
    /// entry is always the top of the occupied span with `gap_len ==
    /// u64::MAX` (unbounded above). The list [`Self::find_best_fit`]
    /// chooses from.
    pub fn free_gaps(&self, t0: u64, t1: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let ControlFlow::Continue(top) = self.sweep_gaps(t0, t1, len, u64::MAX, |off, gap_len| {
            out.push((off, gap_len));
            ControlFlow::<Infallible>::Continue(())
        });
        out.push((top, u64::MAX));
        out
    }

    /// Finds the *tightest* gap `<= limit - len` where a `[t0,t1) x len`
    /// rectangle fits: [`best_fit_gap`] over [`Self::free_gaps`].
    pub fn find_best_fit(&self, t0: u64, t1: u64, len: u64, limit: u64) -> Option<u64> {
        best_fit_gap(&self.free_gaps(t0, t1, len), len, limit)
    }

    /// Convenience: first-fit place, growing the height if needed. Returns
    /// the chosen offset.
    pub fn pack(&mut self, t0: u64, t1: u64, len: u64) -> u64 {
        let off = self
            .find_first_fit(t0, t1, len, u64::MAX)
            .expect("unbounded fit always succeeds");
        self.place_at(Rect { t0, t1, off, len });
        off
    }
}

/// The arrival-order sweep over the free space of the *live* set.
///
/// A caller that places requests in non-decreasing start order knows that
/// every placement so far started at or before the request in hand, so a
/// placement is in its way iff it is still live at the request's start.
/// The sweep keeps only that: the free address space of the live
/// placements in an [`IntervalSet`], and a min-heap of `(free tick, off,
/// len)` that returns a placement's bytes when [`Self::advance_to`]
/// passes its free tick. Its [`Self::gaps`] are then exactly what
/// [`TimeSpacePacker::free_gaps`] would answer over every placement, at a
/// cost in the live set instead of in the pool.
#[derive(Debug, Clone)]
pub struct LiveSweep {
    free: IntervalSet,
    live: BinaryHeap<Reverse<(u64, u64, u64)>>,
    height: u64,
}

impl Default for LiveSweep {
    fn default() -> Self {
        LiveSweep {
            free: IntervalSet::full(u64::MAX),
            live: BinaryHeap::new(),
            height: 0,
        }
    }
}

impl LiveSweep {
    /// Creates a sweep with nothing placed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The maximum `off + len` over every placement so far, live or not.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Frees every placement whose free tick is at or before `ts` (the
    /// window end is exclusive), calling `on_free(t1, off, len)` for each
    /// in non-decreasing `t1` order. `ts` must not go backwards.
    pub fn advance_to(&mut self, ts: u64, mut on_free: impl FnMut(u64, u64, u64)) {
        while let Some(&Reverse((t1, off, len))) = self.live.peek() {
            if t1 > ts {
                break;
            }
            self.live.pop();
            // Panics on an overlap, so a broken sweep cannot go unnoticed.
            self.free.insert(off, len);
            on_free(t1, off, len);
        }
    }

    /// The lowest address above every live byte: the start of the free
    /// interval that reaches the end of the address space, or the end
    /// itself if a live placement does.
    fn top(&self) -> u64 {
        match self.free.runs.last() {
            Some(&(s, l)) if s + l == u64::MAX => s,
            _ => u64::MAX,
        }
    }

    /// Where `len` bytes can go, in ascending order: the start of every
    /// free interval below the top that holds at least `len` bytes, then
    /// the top — always a candidate, even where `len` bytes there would
    /// pass the end of the address space ([`Self::place`] refuses those).
    pub fn gaps(&self, len: u64) -> impl Iterator<Item = u64> + '_ {
        let top = self.top();
        self.free
            .iter()
            .filter(move |&(s, l)| s < top && l >= len)
            .map(|(s, _)| s)
            .chain(std::iter::once(top))
    }

    /// Claims `[off, off+len)` until free tick `t1`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not free, which includes a range reaching
    /// past the end of the address space.
    pub fn place(&mut self, off: u64, len: u64, t1: u64) {
        self.free.remove(off, len);
        // `remove` found the range inside the free set, so the end fits.
        self.height = self.height.max(off + len);
        self.live.push(Reverse((t1, off, len)));
    }
}

/// The one best-fit selection rule, over a [`TimeSpacePacker::free_gaps`]
/// list: among all interior gaps (bounded above by another placement in
/// the time window) where a `len`-byte placement at the gap's offset
/// ends `<= limit`, the one wasting the fewest bytes, ties broken by the
/// lowest offset. When no interior gap qualifies, falls back to the top
/// of the occupied span (under the same `limit`) — best-fit packers
/// should only grow the pool as a last resort. A placement that would
/// pass the end of the address space ends above every `limit`.
pub fn best_fit_gap(gaps: &[(u64, u64)], len: u64, limit: u64) -> Option<u64> {
    let fits = |off: u64| off.checked_add(len).is_some_and(|end| end <= limit);
    let (&(top, _), interior) = gaps.split_last()?;
    interior
        .iter()
        .filter(|&&(off, _)| fits(off))
        .min_by_key(|&&(off, gap_len)| (gap_len - len, off))
        .map(|&(off, _)| off)
        .or(fits(top).then_some(top))
}

/// A set of disjoint, coalesced address intervals.
///
/// Used by the runtime dynamic allocator to track the currently-free space
/// `A_a` inside the static pool (paper §6.2), and by [`LiveSweep`] for
/// the free space of the requests live at the sweep's tick.
///
/// One sorted run, edited in place. A tight plan leaves few holes — on
/// the benchmark's five jobs the runtime's free set never holds more
/// than 96 intervals (5 to 76 on average) while 114 to 1,295 tensors
/// are live — so every operation is one binary search, and the common
/// edits (a claim trims an interval's head or tail, a free extends a
/// neighbour) rewrite one element; only an interval that appears or
/// disappears shifts the run's tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// `(start, len)` in ascending `start` order: disjoint, non-adjacent,
    /// `len > 0`, and `start + len` representable.
    runs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding one interval `[0, len)`.
    pub fn full(len: u64) -> Self {
        let mut s = Self::new();
        s.insert(0, len);
        s
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|&(_, l)| l).sum()
    }

    /// Number of disjoint intervals.
    pub fn interval_count(&self) -> usize {
        self.runs.len()
    }

    /// Iterates `(start, len)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().copied()
    }

    /// Index of the first interval starting above `start`: the interval
    /// before it, if any, is the only one that can hold `start`.
    fn above(&self, start: u64) -> usize {
        self.runs.partition_point(|&(s, _)| s <= start)
    }

    /// Returns `true` if `[start, start+len)` is fully contained. A range
    /// reaching past the end of the address space never is.
    pub fn contains(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = start.checked_add(len) else {
            return false;
        };
        match self.above(start) {
            0 => false,
            i => {
                let (s, l) = self.runs[i - 1];
                end <= s + l
            }
        }
    }

    /// Returns `true` if `[start, start+len)` overlaps any interval.
    pub fn overlaps(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        // No interval holds the last address, so clamping a range that
        // reaches past it changes no answer.
        let end = start.saturating_add(len);
        let i = self.above(start);
        let below = i > 0 && {
            let (s, l) = self.runs[i - 1];
            s + l > start
        };
        below || self.runs.get(i).is_some_and(|&(s, _)| s < end)
    }

    /// Inserts `[start, start+len)`, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing interval (double free) or
    /// reaches past the end of the address space.
    pub fn insert(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let Some(end) = start.checked_add(len) else {
            panic!("interval overlap on insert: [{start}+{len}) wraps the address space");
        };
        let i = self.above(start);
        let joins_below = i > 0 && {
            let (s, l) = self.runs[i - 1];
            assert!(s + l <= start, "interval overlap on insert");
            s + l == start
        };
        let joins_above = self.runs.get(i).is_some_and(|&(s, _)| {
            assert!(s >= end, "interval overlap on insert");
            s == end
        });
        match (joins_below, joins_above) {
            (true, true) => {
                self.runs[i - 1].1 += len + self.runs[i].1;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 += len,
            (false, true) => self.runs[i] = (start, len + self.runs[i].1),
            (false, false) => self.runs.insert(i, (start, len)),
        }
    }

    /// Removes `[start, start+len)`, which must be fully contained.
    ///
    /// # Panics
    ///
    /// Panics if the range is not contained.
    pub fn remove(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let i = self
            .above(start)
            .checked_sub(1)
            .expect("remove from empty region");
        let (s, l) = self.runs[i];
        let end = start.checked_add(len).filter(|&end| end <= s + l);
        let Some(end) = end else {
            panic!("removed range [{start}+{len}) not contained in [{s}+{l})");
        };
        let tail = (end, s + l - end);
        match (start > s, tail.1 > 0) {
            (true, true) => {
                self.runs[i].1 = start - s;
                self.runs.insert(i + 1, tail);
            }
            (true, false) => self.runs[i].1 = start - s,
            (false, true) => self.runs[i] = tail,
            (false, false) => {
                self.runs.remove(i);
            }
        }
    }

    /// First-fit search within the set: the lowest interval of length
    /// `>= len`. Returns its start.
    pub fn first_fit(&self, len: u64) -> Option<u64> {
        self.iter().find(|&(_, l)| l >= len).map(|(s, _)| s)
    }

    /// Best-fit search over the intersection of this set with a sorted list
    /// of candidate intervals (the paper's `A_c = A_a ∩ A_i`, Eq. 7): the
    /// smallest piece of at least `len` bytes, the earliest candidate and
    /// then the lowest address among equals. Returns the piece's start.
    pub fn best_fit_within(&self, candidates: &[(u64, u64)], len: u64) -> Option<u64> {
        self.best_fit_within_counted(candidates, len).0
    }

    /// [`Self::best_fit_within`], also returning how many intervals of
    /// the run it looked at: per candidate, those reaching into it and at
    /// most one below.
    fn best_fit_within_counted(&self, candidates: &[(u64, u64)], len: u64) -> (Option<u64>, usize) {
        let mut best: Option<(u64, u64)> = None; // (piece_len, start)
        let mut visited = 0;
        for &(cs, cl) in candidates {
            // Clamped like `overlaps`: no interval holds the last address.
            let cend = cs.saturating_add(cl);
            // From the last interval starting at or below `cs` — the only
            // one below that can reach in — up to `cend`.
            let from = self.above(cs).saturating_sub(1);
            for &(s, l) in self.runs[from..].iter().take_while(|&&(s, _)| s < cend) {
                visited += 1;
                let ps = s.max(cs);
                let pe = (s + l).min(cend);
                if pe > ps && pe - ps >= len && best.is_none_or(|(bl, _)| pe - ps < bl) {
                    best = Some((pe - ps, ps));
                }
            }
        }
        (best.map(|(_, s)| s), visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The packer this module shipped before the offset-ordered index:
    /// rects in insertion order, and every query filters all of them,
    /// collects the survivors and sorts. Kept as the oracle the index is
    /// property-tested against, offset for offset.
    #[derive(Default)]
    struct ScanPacker {
        rects: Vec<Rect>,
        height: u64,
    }

    impl ScanPacker {
        fn conflicts_with(&self, rect: &Rect) -> bool {
            self.rects.iter().any(|r| r.conflicts(rect))
        }

        fn place_at(&mut self, rect: Rect) {
            assert!(!self.conflicts_with(&rect));
            self.height = self.height.max(rect.off + rect.len);
            self.rects.push(rect);
        }

        fn sorted_spans(&self, t0: u64, t1: u64) -> Vec<(u64, u64)> {
            let mut spans: Vec<(u64, u64)> = self
                .rects
                .iter()
                .filter(|r| r.t0 < t1 && t0 < r.t1)
                .map(|r| (r.off, r.off + r.len))
                .collect();
            spans.sort_unstable();
            spans
        }

        fn find_first_fit(&self, t0: u64, t1: u64, len: u64, limit: u64) -> Option<u64> {
            let mut cursor = 0u64;
            for (s, e) in self.sorted_spans(t0, t1) {
                if s > cursor && s - cursor >= len && cursor + len <= limit {
                    return Some(cursor);
                }
                cursor = cursor.max(e);
            }
            if cursor + len <= limit {
                Some(cursor)
            } else {
                None
            }
        }

        fn free_gaps(&self, t0: u64, t1: u64, len: u64) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            let mut cursor = 0u64;
            for (s, e) in self.sorted_spans(t0, t1) {
                if s > cursor && s - cursor >= len {
                    out.push((cursor, s - cursor));
                }
                cursor = cursor.max(e);
            }
            out.push((cursor, u64::MAX));
            out
        }

        fn find_best_fit(&self, t0: u64, t1: u64, len: u64, limit: u64) -> Option<u64> {
            let gaps = self.free_gaps(t0, t1, len);
            let best = gaps
                .iter()
                .filter(|&&(off, gap_len)| gap_len != u64::MAX && off + len <= limit)
                .min_by_key(|&&(off, gap_len)| (gap_len - len, off));
            if let Some(&(off, _)) = best {
                return Some(off);
            }
            let (top, _) = *gaps.last().expect("top gap always present");
            if top + len <= limit {
                Some(top)
            } else {
                None
            }
        }

        fn pack(&mut self, t0: u64, t1: u64, len: u64) -> u64 {
            let off = self.find_first_fit(t0, t1, len, u64::MAX).unwrap();
            self.place_at(Rect { t0, t1, off, len });
            off
        }
    }

    /// Ticks the equivalence streams draw windows from.
    const HORIZON: u64 = 40;

    /// One step of an equivalence stream, as plain integers so the
    /// vendored proptest can shrink it: `(kind, t0, dur, slot, len)`.
    /// `dur == 0` widens the window to the whole horizon.
    type Op = (u8, u64, u64, u64, u64);

    fn window(t0: u64, dur: u64) -> (u64, u64) {
        if dur == 0 {
            (0, HORIZON)
        } else {
            (t0, t0 + dur)
        }
    }

    /// Every limit worth asking about around `answer`: just below, at and
    /// just above the end of the answered placement, the packer's height,
    /// and none.
    fn limits_around(answer: Option<u64>, len: u64, height: u64) -> Vec<u64> {
        let mut limits = vec![0, len, height, u64::MAX];
        if let Some(off) = answer {
            limits.extend([off + len - 1, off + len, off + len + 1]);
        }
        limits
    }

    /// Applies one op to the oracle and to every packer under test and
    /// compares all return values.
    fn step(
        oracle: &mut ScanPacker,
        packers: &mut [TimeSpacePacker],
        op: Op,
    ) -> Result<(), String> {
        let (kind, t0, dur, slot, len) = op;
        let (t0, t1) = window(t0, dur);
        let len = len * 8;
        match kind {
            // place_at on a coarse offset grid: duplicate offsets under
            // disjoint windows, shared edges. Conflicting draws are skipped.
            0 => {
                let rect = Rect {
                    t0,
                    t1,
                    off: slot * 16,
                    len,
                };
                if !oracle.conflicts_with(&rect) {
                    oracle.place_at(rect);
                    for p in packers.iter_mut() {
                        prop_assert!(!p.conflicts_with(&rect));
                        p.place_at(rect);
                    }
                }
            }
            1 => {
                let want = oracle.pack(t0, t1, len);
                for p in packers.iter_mut() {
                    prop_assert_eq!(p.pack(t0, t1, len), want);
                }
            }
            2 => {
                let unbounded = oracle.find_first_fit(t0, t1, len, u64::MAX);
                for limit in limits_around(unbounded, len, oracle.height) {
                    let want = oracle.find_first_fit(t0, t1, len, limit);
                    for p in packers.iter() {
                        prop_assert_eq!(p.find_first_fit(t0, t1, len, limit), want);
                    }
                }
            }
            3 => {
                let want = oracle.free_gaps(t0, t1, len);
                for p in packers.iter() {
                    prop_assert_eq!(p.free_gaps(t0, t1, len), want.clone());
                }
            }
            _ => {
                let unbounded = oracle.find_best_fit(t0, t1, len, u64::MAX);
                for limit in limits_around(unbounded, len, oracle.height) {
                    let want = oracle.find_best_fit(t0, t1, len, limit);
                    for p in packers.iter() {
                        prop_assert_eq!(p.find_best_fit(t0, t1, len, limit), want);
                    }
                }
            }
        }
        for p in packers.iter() {
            prop_assert_eq!(p.height(), oracle.height);
        }
        Ok(())
    }

    /// The index holds exactly the oracle's rects, in ascending offset
    /// order, in chunks that respect the capacity and summary invariants.
    fn check_index(oracle: &ScanPacker, p: &TimeSpacePacker) -> Result<(), String> {
        let held: Vec<Rect> = p.rects().copied().collect();
        prop_assert!(held.windows(2).all(|w| w[0].off <= w[1].off));
        let key = |r: &Rect| (r.off, r.t0, r.t1, r.len);
        let mut held_sorted = held;
        held_sorted.sort_unstable_by_key(key);
        let mut want = oracle.rects.clone();
        want.sort_unstable_by_key(key);
        prop_assert_eq!(held_sorted, want);
        for c in &p.chunks {
            prop_assert!(!c.rects.is_empty() && c.rects.len() <= CHUNK_CAP);
            let fresh = Chunk::new(c.rects.clone());
            prop_assert_eq!(
                (c.min_t0, c.max_t1, c.max_end),
                (fresh.min_t0, fresh.max_t1, fresh.max_end)
            );
        }
        Ok(())
    }

    proptest! {
        /// The offset-ordered index answers every query exactly as the
        /// scan-and-sort packer did — built incrementally, and bulk-seeded
        /// with `from_rects` and then extended by the same stream.
        #[test]
        fn index_matches_scan_and_sort_reference(
            seeds in prop::collection::vec((0u64..HORIZON, 0u64..12, 1u64..9), 0..160),
            ops in prop::collection::vec(
                (0u8..5, 0u64..HORIZON, 0u64..12, 0u64..24, 1u64..9),
                1..120,
            ),
        ) {
            let mut oracle = ScanPacker::default();
            let mut incremental = TimeSpacePacker::new();
            for (t0, dur, len) in seeds {
                let (t0, t1) = window(t0, dur);
                let off = oracle.pack(t0, t1, len * 8);
                prop_assert_eq!(incremental.pack(t0, t1, len * 8), off);
            }
            let bulk = TimeSpacePacker::from_rects(oracle.rects.clone());
            let mut packers = [incremental, bulk];
            for op in ops {
                step(&mut oracle, &mut packers, op)?;
            }
            for p in &packers {
                check_index(&oracle, p)?;
            }
        }

        /// Long runs of one offset: more rects at offset 0 than a chunk
        /// holds (unit windows never conflict), so equal offsets straddle
        /// chunk boundaries and every insert lands in a run of ties.
        #[test]
        fn equal_offset_runs_split_chunks(
            run in 65u64..200,
            ops in prop::collection::vec(
                (1u8..5, 0u64..HORIZON, 0u64..12, 0u64..24, 1u64..9),
                1..60,
            ),
        ) {
            let mut oracle = ScanPacker::default();
            let mut incremental = TimeSpacePacker::new();
            // Odd ticks descending, then even ticks ascending: disjoint unit
            // windows, so nothing conflicts and every insert joins the run.
            let odd_down = (0..run).filter(|i| i % 2 == 1).rev();
            for i in odd_down.chain((0..run).filter(|i| i % 2 == 0)) {
                let rect = Rect { t0: HORIZON + i, t1: HORIZON + i + 1, off: 0, len: 8 + i % 3 };
                oracle.place_at(rect);
                incremental.place_at(rect);
            }
            prop_assert!(incremental.chunks.len() > 1, "the run must have split");
            let bulk = TimeSpacePacker::from_rects(oracle.rects.clone());
            let mut packers = [incremental, bulk];
            for op in ops {
                step(&mut oracle, &mut packers, op)?;
                // Queries inside the run's own ticks, where the ties live.
                let (_, t0, _, _, len) = op;
                step(&mut oracle, &mut packers, (2, HORIZON + t0, 3, 0, len))?;
                step(&mut oracle, &mut packers, (3, HORIZON + t0, 3, 0, len))?;
            }
            for p in &packers {
                check_index(&oracle, p)?;
            }
        }
    }

    #[test]
    fn best_fit_gap_is_the_rule_all_callers_share() {
        // Interior gaps (10, 40) and (60, 15), top at 100.
        let gaps = [(10, 40), (60, 15), (100, u64::MAX)];
        assert_eq!(best_fit_gap(&gaps, 12, u64::MAX), Some(60), "tightest");
        assert_eq!(
            best_fit_gap(&gaps, 12, 71),
            Some(10),
            "tightest under the limit"
        );
        assert_eq!(best_fit_gap(&gaps, 12, 21), None, "nothing under the limit");
        assert_eq!(
            best_fit_gap(&[(0, 20), (30, 20), (70, u64::MAX)], 5, u64::MAX),
            Some(0)
        );
        assert_eq!(
            best_fit_gap(&[(7, u64::MAX)], 5, u64::MAX),
            Some(7),
            "top only"
        );
        assert_eq!(best_fit_gap(&[(7, u64::MAX)], 5, 11), None);
        assert_eq!(best_fit_gap(&[], 5, u64::MAX), None);
        // A placement past the end of the address space fits no limit,
        // in debug and release builds alike.
        let top = u64::MAX - 4;
        assert_eq!(best_fit_gap(&[(top, u64::MAX)], 4, u64::MAX), Some(top));
        assert_eq!(best_fit_gap(&[(top, u64::MAX)], 5, u64::MAX), None);
    }

    #[test]
    fn rect_conflicts_requires_both_overlaps() {
        let a = Rect {
            t0: 0,
            t1: 10,
            off: 0,
            len: 100,
        };
        let time_only = Rect {
            t0: 5,
            t1: 15,
            off: 100,
            len: 50,
        };
        let space_only = Rect {
            t0: 10,
            t1: 20,
            off: 50,
            len: 50,
        };
        let both = Rect {
            t0: 9,
            t1: 11,
            off: 99,
            len: 2,
        };
        assert!(!a.conflicts(&time_only));
        assert!(!a.conflicts(&space_only));
        assert!(a.conflicts(&both));
        assert!(both.conflicts(&a));
    }

    #[test]
    fn packer_reuses_space_across_time() {
        let mut p = TimeSpacePacker::new();
        let o1 = p.pack(0, 10, 100);
        let o2 = p.pack(10, 20, 100); // disjoint time: same offset
        assert_eq!(o1, o2);
        assert_eq!(p.height(), 100);
        let o3 = p.pack(5, 15, 50); // overlaps both: stacked above
        assert_eq!(o3, 100);
        assert_eq!(p.height(), 150);
    }

    #[test]
    fn packer_fills_holes_first_fit() {
        let mut p = TimeSpacePacker::new();
        p.place_at(Rect {
            t0: 0,
            t1: 10,
            off: 0,
            len: 10,
        });
        p.place_at(Rect {
            t0: 0,
            t1: 10,
            off: 50,
            len: 10,
        });
        // A 40-byte request fits the hole at offset 10.
        assert_eq!(p.find_first_fit(0, 10, 40, u64::MAX), Some(10));
        // A 41-byte request does not; it goes above everything.
        assert_eq!(p.find_first_fit(0, 10, 41, u64::MAX), Some(60));
    }

    #[test]
    fn best_fit_prefers_tightest_gap() {
        let mut p = TimeSpacePacker::new();
        // Two gaps in the same window: [10, 50) (40 wide) and [60, 75)
        // (15 wide), then occupied up to 100.
        for (off, len) in [(0u64, 10u64), (50, 10), (75, 25)] {
            p.place_at(Rect {
                t0: 0,
                t1: 10,
                off,
                len,
            });
        }
        // First-fit takes the lower, looser gap; best-fit the tighter one.
        assert_eq!(p.find_first_fit(0, 10, 12, u64::MAX), Some(10));
        assert_eq!(p.find_best_fit(0, 10, 12, u64::MAX), Some(60));
        // An exact fit wins outright.
        assert_eq!(p.find_best_fit(0, 10, 15, u64::MAX), Some(60));
        // Nothing interior fits: fall back to the top.
        assert_eq!(p.find_best_fit(0, 10, 60, u64::MAX), Some(100));
        // A limit below the top gap rejects the fallback.
        assert_eq!(p.find_best_fit(0, 10, 60, 120), None);
        // Disjoint time window: offset 0 is the (only) candidate.
        assert_eq!(p.find_best_fit(20, 30, 12, u64::MAX), Some(0));
    }

    #[test]
    fn interval_set_insert_coalesces() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        s.insert(20, 10);
        assert_eq!(s.interval_count(), 2);
        s.insert(10, 10); // bridges
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.total(), 30);
        assert!(s.contains(0, 30));
        assert!(!s.contains(0, 31));
    }

    #[test]
    fn interval_set_remove_splits() {
        let mut s = IntervalSet::full(100);
        s.remove(40, 20);
        assert_eq!(s.interval_count(), 2);
        assert!(s.contains(0, 40));
        assert!(s.contains(60, 40));
        assert!(!s.contains(40, 1));
        s.insert(40, 20);
        assert_eq!(s.interval_count(), 1);
    }

    #[test]
    #[should_panic(expected = "interval overlap")]
    fn interval_set_rejects_double_insert() {
        let mut s = IntervalSet::full(100);
        s.insert(50, 10);
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn interval_set_rejects_bad_remove() {
        let mut s = IntervalSet::full(100);
        s.remove(40, 20);
        s.remove(35, 10); // straddles the hole
    }

    #[test]
    fn first_fit_picks_lowest() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        s.insert(200, 30);
        s.insert(300, 55);
        s.insert(400, 30);
        assert_eq!(s.first_fit(5), Some(0), "lowest start wins");
        assert_eq!(s.first_fit(30), Some(200), "exact fit, lower of two");
        assert_eq!(s.first_fit(31), Some(300), "not the tightest: the first");
        assert_eq!(s.first_fit(56), None);
        assert_eq!(IntervalSet::new().first_fit(1), None);
        assert_eq!(IntervalSet::full(u64::MAX).first_fit(u64::MAX), Some(0));
    }

    #[test]
    fn best_fit_within_intersects() {
        let mut a = IntervalSet::new();
        a.insert(0, 50);
        a.insert(100, 100);
        // Candidates restrict to [40, 160).
        let cands = vec![(40, 120)];
        // Pieces: [40,50) len 10 and [100,160) len 60.
        assert_eq!(a.best_fit_within(&cands, 5), Some(40));
        assert_eq!(a.best_fit_within(&cands, 20), Some(100));
        assert_eq!(a.best_fit_within(&cands, 61), None);
    }

    #[test]
    fn rect_touching_edges_do_not_conflict() {
        let a = Rect {
            t0: 0,
            t1: 10,
            off: 0,
            len: 100,
        };
        // Sharing a time edge ([0,10) then [10,20)) is not a conflict.
        let time_adjacent = Rect {
            t0: 10,
            t1: 20,
            off: 0,
            len: 100,
        };
        // Sharing a space edge ([0,100) then [100,200)) is not a conflict.
        let space_adjacent = Rect {
            t0: 0,
            t1: 10,
            off: 100,
            len: 100,
        };
        assert!(!a.conflicts(&time_adjacent));
        assert!(!time_adjacent.conflicts(&a));
        assert!(!a.conflicts(&space_adjacent));
        assert!(!space_adjacent.conflicts(&a));
        assert!(a.conflicts(&a), "a rect conflicts with itself");
    }

    #[test]
    fn packer_no_overlap_invariant_under_adversarial_sequence() {
        // Deterministic adversarial mix: identical windows, nested windows,
        // shared edges, and size-1 slivers. Whatever first-fit decides, no
        // two placements may overlap in both time and space.
        let mut p = TimeSpacePacker::new();
        let windows = [
            (0u64, 10u64),
            (0, 10),
            (5, 6),
            (9, 10),
            (0, 1),
            (3, 8),
            (7, 12),
            (10, 20),
            (0, 20),
            (19, 20),
        ];
        for (i, &(t0, t1)) in windows.iter().enumerate() {
            let len = 1 + ((i as u64 * 37) % 64) * 8;
            p.pack(t0, t1, len);
        }
        let rects: Vec<Rect> = p.rects().copied().collect();
        assert_eq!(rects.len(), windows.len());
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(
                    !rects[i].conflicts(&rects[j]),
                    "placements {i} and {j} overlap: {:?} vs {:?}",
                    rects[i],
                    rects[j]
                );
            }
        }
        // Height is tight: it equals the maximum extent of any placement.
        let max_extent = rects.iter().map(|r| r.off + r.len).max().unwrap();
        assert_eq!(p.height(), max_extent);
    }

    #[test]
    fn first_fit_respects_limit_exactly() {
        let mut p = TimeSpacePacker::new();
        p.pack(0, 10, 100);
        // A 50-byte rect in the same window needs [100, 150): allowed at
        // limit 150, rejected at 149.
        assert_eq!(p.find_first_fit(0, 10, 50, 150), Some(100));
        assert_eq!(p.find_first_fit(0, 10, 50, 149), None);
        // An empty packer still honours the limit from offset 0.
        let empty = TimeSpacePacker::new();
        assert_eq!(empty.find_first_fit(0, 1, 10, 10), Some(0));
        assert_eq!(empty.find_first_fit(0, 1, 10, 9), None);
    }

    #[test]
    fn overlaps_boundary_cases() {
        let mut s = IntervalSet::new();
        s.insert(10, 10); // [10, 20)
        assert!(!s.overlaps(0, 10), "range ending at interval start");
        assert!(!s.overlaps(20, 10), "range starting at interval end");
        assert!(s.overlaps(19, 1));
        assert!(s.overlaps(0, 11));
        assert!(s.overlaps(15, 100), "straddling the interval");
        assert!(!s.overlaps(15, 0), "zero-length never overlaps");
        assert!(s.contains(15, 0), "zero-length always contained");
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut s = IntervalSet::full(100);
        s.insert(200, 0);
        s.remove(50, 0);
        assert_eq!(s.total(), 100);
        assert_eq!(s.interval_count(), 1);
        assert_eq!(IntervalSet::full(0).total(), 0);
        assert_eq!(IntervalSet::full(0).interval_count(), 0);
    }

    #[test]
    fn remove_at_interval_edges_keeps_set_canonical() {
        // Removing a prefix, then a suffix, leaves exactly the middle —
        // with no empty intervals left behind.
        let mut s = IntervalSet::full(100);
        s.remove(0, 30);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(30, 70)]);
        s.remove(80, 20);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(30, 50)]);
        s.remove(30, 50);
        assert_eq!(s.interval_count(), 0);
        assert_eq!(s.total(), 0);
        // Rebuilding from fragments coalesces to one canonical interval.
        s.insert(30, 50);
        s.insert(0, 30);
        s.insert(80, 20);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 100)]);
    }

    #[test]
    fn best_fit_within_ignores_disjoint_candidates() {
        let mut a = IntervalSet::new();
        a.insert(0, 50);
        // Candidate window entirely outside the free set: no fit.
        assert_eq!(a.best_fit_within(&[(100, 50)], 1), None);
        // Empty candidate list: no fit.
        assert_eq!(a.best_fit_within(&[], 1), None);
        // Tie between equal pieces resolves to the first candidate scanned.
        let mut b = IntervalSet::new();
        b.insert(0, 10);
        b.insert(20, 10);
        assert_eq!(b.best_fit_within(&[(0, 10), (20, 10)], 10), Some(0));
    }

    proptest! {
        /// `IntervalSet` against a bitmap of the same universe: every
        /// query agrees, and an operation panics exactly when the model
        /// says the range is (insert) partly covered or (remove) partly
        /// uncovered.
        #[test]
        fn interval_set_matches_a_bitmap(
            ops in prop::collection::vec((0u8..4, 0usize..48, 0usize..12), 1..120),
        ) {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            let mut model = [false; 64];
            let mut set = IntervalSet::new();
            for (kind, start, len) in ops {
                let cells = start..start + len;
                let (s, l) = (start as u64, len as u64);
                let covered = model[cells.clone()].iter().filter(|&&c| c).count();
                match kind {
                    0 | 1 => {
                        let mut next = set.clone();
                        let legal = if kind == 0 { covered == 0 } else { covered == len };
                        let done = catch_unwind(AssertUnwindSafe(|| {
                            if kind == 0 { next.insert(s, l) } else { next.remove(s, l) }
                        }));
                        prop_assert_eq!(done.is_ok(), legal, "op {} on [{}+{})", kind, s, l);
                        if legal {
                            set = next;
                            model[cells].fill(kind == 0);
                        }
                    }
                    2 => prop_assert_eq!(set.overlaps(s, l), covered > 0),
                    _ => prop_assert_eq!(set.contains(s, l), covered == len),
                }
                prop_assert_eq!(set.total(), model.iter().filter(|&&c| c).count() as u64);
                // Coalesced: one interval per maximal run of set cells.
                let edges = (0..model.len()).filter(|&i| model[i] && (i == 0 || !model[i - 1]));
                prop_assert_eq!(set.interval_count(), edges.count());
                // The two searches: the lowest run that fits, and the
                // smallest piece of two candidates (the second may reach
                // past the universe) — the earlier candidate, then the
                // lower address, among equals.
                let candidates = [(s, l + 4), (s + l + 4 + kind as u64, 9)];
                for want in [0, 1, 3, l] {
                    let fits = |&&(_, run): &&(u64, u64)| run >= want;
                    let lowest = model_runs(&model, 0, 64).iter().find(fits).map(|r| r.0);
                    prop_assert_eq!(set.first_fit(want), lowest, "first_fit({})", want);
                    let pieces: Vec<(u64, u64)> = candidates
                        .iter()
                        .flat_map(|&(cs, cl)| model_runs(&model, cs, cs + cl))
                        .collect();
                    // `min_by_key` keeps the first of equal minima.
                    let tightest = pieces.iter().filter(fits).min_by_key(|r| r.1).map(|r| r.0);
                    prop_assert_eq!(
                        set.best_fit_within(&candidates, want),
                        tightest,
                        "best_fit_within({:?}, {})", candidates, want
                    );
                }
            }
            // A range reaching past the end of the address space is in no
            // set, and neither goes in nor comes out.
            let (s, l) = (u64::MAX - 100, 512);
            prop_assert!(!set.contains(s, l) && !set.overlaps(s, l));
            for insert in [true, false] {
                let mut next = set.clone();
                let done = catch_unwind(AssertUnwindSafe(|| {
                    if insert { next.insert(s, l) } else { next.remove(s, l) }
                }));
                prop_assert!(done.is_err(), "insert={} of a wrapping range", insert);
            }
        }
    }

    /// The maximal runs of set cells within `[lo, hi)` of a bitmap model,
    /// as `(start, len)` in address order.
    fn model_runs(model: &[bool], lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for cell in lo..hi.min(model.len() as u64) {
            if !model[cell as usize] {
                continue;
            }
            match runs.last_mut() {
                Some((s, l)) if *s + *l == cell => *l += 1,
                _ => runs.push((cell, 1)),
            }
        }
        runs
    }

    #[test]
    fn ranges_past_the_address_space_are_handled_not_wrapped() {
        // The release-mode wrap: 2^64 - 101 + 512 is 411 modulo 2^64.
        let s = IntervalSet::full(8192);
        assert!(!s.contains(u64::MAX - 100, 512));
        assert!(!s.overlaps(u64::MAX - 100, 512));
        // The largest set there is holds everything but the last address.
        let all = IntervalSet::full(u64::MAX);
        assert!(all.contains(u64::MAX - 100, 100));
        assert!(!all.contains(u64::MAX - 100, 101));
        assert!(all.overlaps(u64::MAX - 100, 512));
        assert!(!all.overlaps(u64::MAX, 512));
        // A candidate reaching past the end is clamped, not wrapped.
        assert_eq!(
            all.best_fit_within(&[(u64::MAX - 100, 512)], 100),
            Some(u64::MAX - 100)
        );
        assert_eq!(all.best_fit_within(&[(u64::MAX - 100, 512)], 101), None);
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn interval_set_rejects_a_remove_past_the_address_space() {
        IntervalSet::full(8192).remove(u64::MAX - 100, 512);
    }

    #[test]
    #[should_panic(expected = "interval overlap on insert")]
    fn interval_set_rejects_an_insert_past_the_address_space() {
        IntervalSet::new().insert(u64::MAX - 100, 512);
    }

    /// The two costs the runtime's `malloc`/`free` rests on, counted
    /// rather than timed, on a free set a hundred times the largest one
    /// the benchmark's jobs produce.
    #[test]
    fn searches_stay_inside_their_candidate_and_trims_move_nothing() {
        const N: u64 = 10_000;
        // Intervals [100 i, 100 i + 50).
        let mut set = IntervalSet::new();
        for i in 0..N {
            set.insert(100 * i, 50);
        }
        assert_eq!(set.interval_count(), N as usize);

        // One candidate near the top, over five intervals and reaching
        // into a sixth: the search sees those six, not the 9,990 below.
        let candidate = [(100 * (N - 10) + 20, 520)];
        let (found, visited) = set.best_fit_within_counted(&candidate, 25);
        assert_eq!(found, Some(100 * (N - 10) + 20), "the 30-byte head piece");
        assert_eq!(visited, 6);
        // A candidate between two intervals looks at the one below it.
        let (found, visited) = set.best_fit_within_counted(&[(100 * (N - 10) + 60, 30)], 1);
        assert_eq!((found, visited), (None, 1));
        // Work is per candidate: the same candidate twice costs twice.
        let twice = [candidate[0], candidate[0]];
        assert_eq!(set.best_fit_within_counted(&twice, 25).1, 12);

        // How many elements of the run an edit left somewhere else or
        // with another value.
        let mut rewritten = |edit: &dyn Fn(&mut IntervalSet)| {
            let before = set.runs.clone();
            edit(&mut set);
            let kept = before.iter().zip(&set.runs).filter(|(a, b)| a == b).count();
            before.len().max(set.runs.len()) - kept
        };
        // A claim at the head or the tail of the lowest interval — the
        // worst place to shift from — trims it; the free re-extends it.
        for (start, len) in [(0, 20), (30, 20)] {
            assert_eq!(rewritten(&|s| s.remove(start, len)), 1);
            assert_eq!(rewritten(&|s| s.insert(start, len)), 1);
        }
        // Extending a neighbour across a hole edits in place as well.
        for start in [50, 90] {
            assert_eq!(rewritten(&|s| s.insert(start, 10)), 1);
            assert_eq!(rewritten(&|s| s.remove(start, 10)), 1);
        }
        // Only an interval that appears or disappears shifts the tail.
        assert_eq!(rewritten(&|s| s.remove(10, 20)), N as usize + 1, "split");
        assert_eq!(rewritten(&|s| s.insert(10, 20)), N as usize + 1, "bridged");
        assert_eq!(rewritten(&|s| s.remove(0, 50)), N as usize, "emptied");
        assert_eq!(rewritten(&|s| s.insert(0, 50)), N as usize, "appeared");
        assert_eq!(set.interval_count(), N as usize);
        assert_eq!(set.total(), 50 * N);
    }

    #[test]
    #[should_panic(expected = "interval overlap")]
    fn interval_set_rejects_an_insert_over_a_later_interval() {
        let mut s = IntervalSet::new();
        s.insert(5, 2);
        s.insert(20, 10);
        // Covers [5, 7) while a further interval lies beyond the range.
        s.insert(0, 10);
    }
}
