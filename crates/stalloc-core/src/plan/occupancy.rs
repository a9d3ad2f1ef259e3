//! The occupancy tree: the gap queries of `bestfit` and `tmp-order`, at a
//! cost set by the time window instead of by the pool.
//!
//! Both rows place out of arrival order, so the live-set sweep cannot
//! serve them, and a [`TimeSpacePacker`](crate::geometry::TimeSpacePacker)
//! query walks every placed rect: its index is ordered by offset, and its
//! per-chunk time summaries do not prune. This tree indexes placements by
//! time instead. Its leaves are the ranks of a
//! [`TimeAxis`](crate::geometry::TimeAxis); a placement over ranks `k0..k1`
//! is recorded at the O(log n) *canonical* nodes whose spans tile
//! `k0..k1`, and each node holds two sorted, coalesced unions of `[off,
//! end)` address ranges:
//!
//! * `cover` — the placements whose rank range covers the node's span
//!   (the node is one of their canonical nodes);
//! * `sub` — the placements with a canonical node at or below the node.
//!   A parent's `sub` therefore contains each child's.
//!
//! A placement overlaps a window iff it is in `sub` of one of the
//! window's canonical nodes or in `cover` of one of their strict
//! ancestors. Those lie on the two paths from the window's boundary
//! leaves to the root, so a query reads O(log n) unions — 15 to 52
//! ranges on average on the benchmark's `dense-vpp` profiles — sorts
//! them by start, and runs the packer's cursor loop over them: the same
//! gaps, the same top.

use std::convert::Infallible;
use std::ops::ControlFlow;

/// A window as `(k0, k1)`: the ranks of the start ticks inside it.
pub(crate) type Ranks = (usize, usize);

/// Adds `[start, end)` to a sorted, coalesced union of ranges; returns
/// `false` if the union already held it. Ranges that overlap or touch
/// merge. A zero-length range is kept as a piece of its own unless it
/// touches another: in the packer a zero-byte rect splits a gap.
fn insert(union: &mut Vec<(u64, u64)>, start: u64, end: u64) -> bool {
    // The ranges touching the new one: those ending at or after its
    // start and starting at or before its end, `i..j`.
    let i = union.partition_point(|&(_, e)| e < start);
    let j = i + union[i..].partition_point(|&(s, _)| s <= end);
    if i == j {
        union.insert(i, (start, end));
        return true;
    }
    let merged = (union[i].0.min(start), union[j - 1].1.max(end));
    if j - i == 1 && union[i] == merged {
        return false;
    }
    union[i] = merged;
    union.drain(i + 1..j);
    true
}

/// Calls `f` on each canonical node of `w` in a tree of `leaves` leaves:
/// the maximal nodes whose spans lie inside it.
fn canonical(leaves: usize, (k0, k1): Ranks, mut f: impl FnMut(usize)) {
    let (mut l, mut r) = (leaves + k0, leaves + k1);
    while l < r {
        if l & 1 == 1 {
            f(l);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            f(r);
        }
        l >>= 1;
        r >>= 1;
    }
}

/// The lowest strict ancestors of `w`'s canonical nodes on each side:
/// the first node above the left boundary leaf whose span starts before
/// `k0`, and the first above the right one whose span ends after `k1` (0
/// where there is none). Every strict ancestor of a canonical node is on
/// one of the two chains from these to the root, and no canonical node is.
fn chains(leaves: usize, (k0, k1): Ranks) -> [usize; 2] {
    let (l, r) = (leaves + k0, leaves + k1);
    [
        l >> (l.trailing_zeros() + 1),
        (r - 1) >> (r.trailing_zeros() + 1),
    ]
}

/// One node's two unions (module doc).
#[derive(Debug, Clone, Default)]
struct Node {
    /// Placements whose rank range covers the node's span; empty at the
    /// leaves, where it would equal `sub`.
    cover: Vec<(u64, u64)>,
    /// Placements with a canonical node at or below this one.
    sub: Vec<(u64, u64)>,
}

/// Placed address ranges over rank-compressed time: a segment tree in
/// heap order (root 1, leaf of rank `k` at `leaves + k`).
#[derive(Debug)]
pub(crate) struct OccupancyTree {
    /// The first power of two at or above the number of ranks.
    leaves: usize,
    nodes: Vec<Node>,
    /// Scratch for a query's ranges, reused across queries.
    pieces: Vec<(u64, u64)>,
    height: u64,
}

impl OccupancyTree {
    /// An empty tree over `ranks` ranks.
    pub(crate) fn new(ranks: usize) -> Self {
        let leaves = ranks.next_power_of_two();
        OccupancyTree {
            leaves,
            nodes: vec![Node::default(); 2 * leaves],
            pieces: Vec::new(),
            height: 0,
        }
    }

    /// The maximum `off + len` over every placement.
    pub(crate) fn height(&self) -> u64 {
        self.height
    }

    /// Records `[off, off + len)` as occupied over the window `w`.
    ///
    /// The chains' `sub` gain the range before the canonical nodes do,
    /// and each chain stops at the first node that already holds it: its
    /// ancestors hold it too. (A walk up from the boundary *leaves* would
    /// pass through canonical nodes; run after their inserts, it would
    /// stop at one and leave the ancestors stale.)
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the end of the address space.
    pub(crate) fn place(&mut self, w: Ranks, off: u64, len: u64) {
        let Some(end) = off.checked_add(len) else {
            panic!("placed range [{off}+{len}) not contained in the address space");
        };
        debug_assert!(w.0 < w.1, "a window holds its own start tick");
        let nodes = &mut self.nodes;
        for mut v in chains(self.leaves, w) {
            while v > 0 && insert(&mut nodes[v].sub, off, end) {
                v >>= 1;
            }
        }
        let leaves = self.leaves;
        canonical(leaves, w, |c| {
            // Only a strict ancestor's `cover` is read, and a leaf is none.
            if c < leaves {
                insert(&mut nodes[c].cover, off, end);
            }
            insert(&mut nodes[c].sub, off, end);
        });
        self.height = self.height.max(end);
    }

    /// Gathers the ranges overlapping `w` into `pieces`, by start.
    fn collect(&mut self, w: Ranks) {
        let (nodes, pieces) = (&self.nodes, &mut self.pieces);
        pieces.clear();
        canonical(self.leaves, w, |c| pieces.extend_from_slice(&nodes[c].sub));
        // The chains share every node from where they meet: walk the
        // deeper (higher-numbered) one up until they do, then one of them.
        let [mut a, mut b] = chains(self.leaves, w);
        while a != b {
            let v = if a > b { &mut a } else { &mut b };
            pieces.extend_from_slice(&nodes[*v].cover);
            *v >>= 1;
        }
        while a > 0 {
            pieces.extend_from_slice(&nodes[a].cover);
            a >>= 1;
        }
        pieces.sort_unstable_by_key(|&(s, _)| s);
    }

    /// `TimeSpacePacker::sweep_gaps` over the ranges overlapping `w`:
    /// calls `on_gap(offset, gap_len)` for each free gap of at least `len`
    /// bytes below the top, breaking as soon as `on_gap` does; otherwise
    /// continues with the top. Ranges sharing a start may come in any
    /// order: the cursor folds them with `max`.
    fn sweep<B>(
        &mut self,
        w: Ranks,
        len: u64,
        mut on_gap: impl FnMut(u64, u64) -> ControlFlow<B>,
    ) -> ControlFlow<B, u64> {
        self.collect(w);
        let mut cursor = 0u64;
        for &(s, e) in &self.pieces {
            if s > cursor && s - cursor >= len {
                on_gap(cursor, s - cursor)?;
            }
            cursor = cursor.max(e);
        }
        ControlFlow::Continue(cursor)
    }

    /// `TimeSpacePacker::find_first_fit` with no limit: the lowest offset
    /// where `len` bytes fit over `w`.
    pub(crate) fn first_fit(&mut self, w: Ranks, len: u64) -> u64 {
        let (ControlFlow::Break(off) | ControlFlow::Continue(off)) =
            self.sweep(w, len, |off, _| ControlFlow::Break(off));
        off
    }

    /// `TimeSpacePacker::free_gaps` into `out`: every free gap over `w`
    /// that holds `len` bytes, as `(offset, gap_len)` ascending, then the
    /// top with `gap_len == u64::MAX`.
    pub(crate) fn free_gaps(&mut self, w: Ranks, len: u64, out: &mut Vec<(u64, u64)>) {
        out.clear();
        let ControlFlow::Continue(top) = self.sweep(w, len, |off, gap_len| {
            out.push((off, gap_len));
            ControlFlow::<Infallible>::Continue(())
        });
        out.push((top, u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{best_fit_gap, Rect, TimeAxis, TimeSpacePacker};
    use crate::profiler::RequestEvent;
    use proptest::prelude::*;

    fn req(size: u64, ts: u64, te: u64) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps: 1,
            pe: 2,
            dynamic: false,
            ls: None,
            le: None,
        }
    }

    /// The union invariant (sorted, every neighbour apart) and the tree's:
    /// `cover` within `sub` at every node, each child's `sub` within its
    /// parent's.
    fn check_invariants(tree: &OccupancyTree) -> Result<(), String> {
        let within = |inner: &[(u64, u64)], outer: &[(u64, u64)]| {
            inner
                .iter()
                .all(|&(s, e)| outer.iter().any(|&(os, oe)| os <= s && e <= oe))
        };
        for (v, node) in tree.nodes.iter().enumerate().skip(1) {
            for union in [&node.cover, &node.sub] {
                prop_assert!(union.iter().all(|&(s, e)| s <= e));
                prop_assert!(union.windows(2).all(|p| p[0].1 < p[1].0), "{:?}", union);
            }
            prop_assert!(within(&node.cover, &node.sub), "node {}", v);
            if v > 1 {
                prop_assert!(within(&node.sub, &tree.nodes[v / 2].sub), "node {}", v);
            }
        }
        Ok(())
    }

    /// Requests `(slot, dur, size)` and the tick mapping `(scale, shift)`:
    /// few slots, so start ticks repeat; a `dur` below 3 gives `te <= ts`;
    /// `scale`/`shift` stretch the ticks and lift them past 2^40. Sizes are
    /// multiples of 8 from 0 up and offsets multiples of 16, so address
    /// edges are shared.
    fn requests(reqs: &[(u64, u64, u64)], (scale, shift): (u8, u8)) -> Vec<RequestEvent> {
        let tick = |t: u64| (t << (33 * u32::from(scale))) + (u64::from(shift) << 40);
        reqs.iter()
            .map(|&(slot, dur, size)| req(size * 8, tick(slot + 3), tick(slot + dur)))
            .collect()
    }

    proptest! {
        /// The tree against a `TimeSpacePacker` fed the same placements:
        /// equal gap lists, first fits and heights after every step.
        /// Placements are explicit (on the offset grid, skipped when they
        /// conflict; zero-length ones included), first fits and best
        /// fits; a query's `len` is at least 1, the packer's precondition.
        #[test]
        fn tree_matches_the_packer(
            reqs in prop::collection::vec((0u64..16, 0u64..10, 0u64..6), 1..40),
            ticks in (0u8..2, 0u8..2),
            ops in prop::collection::vec((0u8..4, 0usize..40, 0u64..24), 1..120),
        ) {
            let reqs = requests(&reqs, ticks);
            let axis = TimeAxis::new(&reqs);
            let mut tree = OccupancyTree::new(axis.ranks());
            let mut packer = TimeSpacePacker::new();
            let mut placed: Vec<Rect> = Vec::new();
            let mut gaps = Vec::new();
            for (kind, i, slot) in ops {
                let r = &reqs[i % reqs.len()];
                let w = (axis.rank(r.ts), axis.rank(r.window_end()));
                let len = r.size.max(8);
                tree.free_gaps(w, len, &mut gaps);
                prop_assert_eq!(&gaps, &packer.free_gaps(r.ts, r.window_end(), len));
                let first = packer.find_first_fit(r.ts, r.window_end(), len, u64::MAX);
                prop_assert_eq!(Some(tree.first_fit(w, len)), first);
                let (off, len) = match kind {
                    0 => (slot * 16, r.size),
                    1 => (first.expect("unbounded"), len),
                    2 => (best_fit_gap(&gaps, len, u64::MAX).expect("unbounded"), len),
                    _ => continue,
                };
                let rect = Rect { t0: r.ts, t1: r.window_end(), off, len };
                if placed.iter().any(|p| p.conflicts(&rect)) {
                    continue;
                }
                tree.place(w, rect.off, rect.len);
                packer.place_at(rect);
                placed.push(rect);
                prop_assert_eq!(tree.height(), packer.height());
            }
            check_invariants(&tree)?;
        }
    }

    #[test]
    fn unions_coalesce_touching_ranges_and_keep_isolated_points() {
        let mut u = Vec::new();
        assert!(insert(&mut u, 10, 20));
        assert!(insert(&mut u, 30, 30), "an isolated point");
        assert!(insert(&mut u, 40, 50));
        assert_eq!(u, [(10, 20), (30, 30), (40, 50)]);
        assert!(!insert(&mut u, 12, 18), "already held");
        assert!(!insert(&mut u, 20, 20), "a point on an edge");
        assert!(insert(&mut u, 20, 30), "touches both neighbours");
        assert_eq!(u, [(10, 30), (40, 50)]);
        assert!(insert(&mut u, 5, 45), "swallows everything it overlaps");
        assert_eq!(u, [(5, 50)]);
    }

    #[test]
    fn a_zero_byte_placement_splits_a_gap_as_in_the_packer() {
        let reqs = [req(8, 0, 10)];
        let axis = TimeAxis::new(&reqs);
        let mut tree = OccupancyTree::new(axis.ranks());
        let mut packer = TimeSpacePacker::new();
        let w = (0, 1);
        let mut place = |tree: &mut OccupancyTree, off, len| {
            tree.place(w, off, len);
            packer.place_at(Rect {
                t0: 0,
                t1: 10,
                off,
                len,
            });
            packer.free_gaps(0, 10, 8)
        };
        let mut gaps = Vec::new();
        let want = place(&mut tree, 100, 0);
        tree.free_gaps(w, 8, &mut gaps);
        assert_eq!(gaps, [(0, 100), (100, u64::MAX)]);
        assert_eq!((&gaps, tree.height()), (&want, 100));
        place(&mut tree, 0, 40);
        let want = place(&mut tree, 160, 0);
        tree.free_gaps(w, 8, &mut gaps);
        assert_eq!(gaps, [(40, 60), (100, 60), (160, u64::MAX)]);
        assert_eq!(gaps, want);
        assert_eq!(tree.first_fit(w, 61), 160);
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn a_placement_past_the_address_space_is_refused() {
        let mut tree = OccupancyTree::new(1);
        tree.place((0, 1), u64::MAX - 100, 512);
    }
}
