//! Shared block bookkeeping: best-fit free lists with block splitting and
//! immediate coalescing, the core mechanism of PyTorch's caching allocator.
//!
//! A [`BlockPool`] tracks blocks carved out of reserved regions (caching
//! segments or expandable arenas). Blocks belonging to the same region
//! coalesce on free; distinct regions never merge even if their addresses
//! happen to be adjacent (they never are — the device leaves guard gaps).
//!
//! As in PyTorch's `Block`, every block is linked to the blocks before and
//! after it in its region: a split or a merge edits blocks in place, and a
//! free finds its neighbours without a lookup. Two tables remain, a
//! block's base address to its slot and a region's id to its last block;
//! both hash with `AddrHasher`.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};

/// A map keyed by device address, hashed with `AddrHasher`.
pub(crate) type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// The hasher of an `AddrMap`: a multiply whose high half is folded into
/// its low one. Block addresses are multiples of 512, and the std table
/// takes its bucket index from a hash's low bits; a lone multiply (as in
/// `trace_gen::TensorIdHasher`) leaves those bits zero on such keys and
/// piles the blocks into a few buckets — it made a Torch 2.3 replay about
/// twice as slow as SipHash did. Addresses come from the simulated device,
/// never from a peer, so the hash needs no key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Not the path a `u64` takes; here so the hasher is total.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, addr: u64) {
        let h = (self.0 ^ addr).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A block of reserved memory, either free or allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Base address.
    pub addr: u64,
    /// Length in bytes.
    pub size: u64,
    /// Region (segment/arena) identifier; blocks only merge within one.
    pub region: u64,
    /// Whether the block is currently allocated.
    pub allocated: bool,
}

impl Block {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.addr + self.size
    }
}

/// The end of a chain: no block before, or none after.
const NIL: u32 = u32::MAX;

/// A block in the pool's slab, linked to the blocks adjacent to it in its
/// region.
#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u64,
    size: u64,
    region: u64,
    prev: u32,
    next: u32,
    allocated: bool,
}

impl Node {
    fn end(&self) -> u64 {
        self.addr + self.size
    }
}

/// A `Vec` indexed by `u32` whose vacated slots are reused.
#[derive(Debug, Clone)]
struct Slab<T> {
    items: Vec<T>,
    vacant: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            vacant: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, item: T) -> u32 {
        match self.vacant.pop() {
            Some(slot) => {
                self.items[slot as usize] = item;
                slot
            }
            None => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, slot: u32) {
        self.vacant.push(slot);
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, slot: u32) -> &T {
        &self.items[slot as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, slot: u32) -> &mut T {
        &mut self.items[slot as usize]
    }
}

/// Best-fit block pool with split and coalesce.
///
/// A region grows only at its end: [`Self::add_region`] either starts a
/// region or continues one exactly where its last block ends.
#[derive(Debug, Default, Clone)]
pub struct BlockPool {
    /// Free blocks ordered by (size, addr) — PyTorch's comparator.
    free: BTreeSet<(u64, u64)>,
    /// Every block, free or allocated.
    nodes: Slab<Node>,
    /// Slot of each block by base address.
    slots: AddrMap<u32>,
    /// Slot of each region's last block, where it grows, by region id.
    tails: AddrMap<u32>,
    /// Total free bytes.
    free_bytes: u64,
}

impl BlockPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes in free blocks.
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Number of free blocks.
    pub fn free_block_count(&self) -> usize {
        self.free.len()
    }

    /// Largest free block size.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().next_back().map_or(0, |&(s, _)| s)
    }

    /// Looks up a block by base address.
    pub fn get(&self, addr: u64) -> Option<Block> {
        self.slots.get(&addr).map(|&slot| self.block(slot))
    }

    /// Iterates over free blocks as `(addr, size, region)`, ascending size.
    pub fn iter_free(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.free
            .iter()
            .map(move |&(size, addr)| (addr, size, self.nodes[self.slots[&addr]].region))
    }

    /// Adds a new free region (a fresh segment or a grown arena tail).
    /// Coalesces with an adjacent free block of the same region, which
    /// happens when an arena grows right after its last free block.
    pub fn add_region(&mut self, addr: u64, size: u64, region: u64) {
        debug_assert!(size > 0);
        debug_assert!(!self.slots.contains_key(&addr), "region overlap");
        let tail = self.tails.get(&region).copied().unwrap_or(NIL);
        let prev = if tail != NIL && self.nodes[tail].end() == addr {
            tail
        } else {
            NIL
        };
        debug_assert!(prev != NIL || tail == NIL, "a region grows at its end");
        self.free_bytes += size;
        if prev != NIL && !self.nodes[prev].allocated {
            self.unlist(prev);
            self.nodes[prev].size += size;
            self.list(prev);
            return;
        }
        let slot = self.insert(Node {
            addr,
            size,
            region,
            prev,
            next: NIL,
            allocated: false,
        });
        if prev != NIL {
            self.nodes[prev].next = slot;
        }
        self.tails.insert(region, slot);
        self.list(slot);
    }

    /// Best-fit lookup: the smallest free block with `size >= want`,
    /// optionally bounded (blocks of size `>= limit` are skipped unless the
    /// request itself is `>= limit` — PyTorch's `max_split_size` oversize
    /// rule).
    pub fn best_fit(&self, want: u64, oversize_limit: u64) -> Option<(u64, u64)> {
        if let Some(&(size, addr)) = self.free.range((want, 0)..).next() {
            if want < oversize_limit && size >= oversize_limit {
                // An oversize cached block must not serve small requests.
                return None;
            }
            return Some((addr, size));
        }
        None
    }

    /// Allocates `want` bytes from the free block at `addr`.
    ///
    /// If `split` returns `true` for the remainder, the tail is kept free;
    /// otherwise the whole block is granted. Returns the granted size.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a free block or is smaller than `want`.
    pub fn allocate(&mut self, addr: u64, want: u64, split: impl Fn(u64) -> bool) -> u64 {
        let slot = self.slot_of(addr, "allocate");
        let Node {
            size,
            region,
            next,
            allocated,
            ..
        } = self.nodes[slot];
        assert!(!allocated, "allocate: block busy");
        assert!(size >= want, "allocate: block too small");
        self.unlist(slot);
        let remainder = size - want;
        let granted = if remainder > 0 && split(remainder) {
            let tail = self.insert(Node {
                addr: addr + want,
                size: remainder,
                region,
                prev: slot,
                next,
                allocated: false,
            });
            self.nodes[slot].size = want;
            self.nodes[slot].next = tail;
            self.link(tail, next);
            self.list(tail);
            want
        } else {
            size
        };
        self.nodes[slot].allocated = true;
        self.free_bytes -= granted;
        granted
    }

    /// Frees an allocated block, coalescing with free neighbours of the
    /// same region. Returns the merged free block.
    pub fn free(&mut self, addr: u64) -> Block {
        let slot = self.slot_of(addr, "free");
        assert!(self.nodes[slot].allocated, "free: block not allocated");
        self.free_bytes += self.nodes[slot].size;
        let mut merged = slot;
        // Merge predecessor.
        let prev = self.nodes[slot].prev;
        if prev != NIL && !self.nodes[prev].allocated {
            self.unlist(prev);
            self.absorb_next(prev);
            merged = prev;
        }
        // Merge successor.
        let next = self.nodes[merged].next;
        if next != NIL && !self.nodes[next].allocated {
            self.unlist(next);
            self.absorb_next(merged);
        }
        self.nodes[merged].allocated = false;
        self.list(merged);
        self.block(merged)
    }

    /// Removes the region whose one block, free, starts at `addr` (a
    /// released segment) from the pool for good. Returns the block.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a free block spanning its whole region.
    pub fn take_region(&mut self, addr: u64) -> Block {
        let slot = self.slot_of(addr, "take_region");
        let node = self.nodes[slot];
        assert!(!node.allocated, "take_region: block busy");
        assert!(
            node.prev == NIL && node.next == NIL,
            "take_region: block does not span its region"
        );
        let blk = self.block(slot);
        self.unlist(slot);
        self.free_bytes -= node.size;
        self.slots.remove(&addr);
        self.nodes.remove(slot);
        self.tails.remove(&node.region);
        blk
    }

    /// Checks internal consistency (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut free_sum = 0;
        for &(size, addr) in &self.free {
            let b = self.get(addr).expect("listed blocks exist");
            assert!(!b.allocated);
            assert_eq!(b.size, size);
            free_sum += size;
        }
        assert_eq!(free_sum, self.free_bytes);
        let mut free_nodes = 0;
        for (&addr, &slot) in &self.slots {
            let n = self.nodes[slot];
            assert_eq!(n.addr, addr);
            free_nodes += usize::from(!n.allocated);
            if n.prev != NIL {
                assert_eq!(self.nodes[n.prev].next, slot);
            }
            if n.next == NIL {
                assert_eq!(self.tails[&n.region], slot);
                continue;
            }
            let next = self.nodes[n.next];
            assert_eq!(
                (next.prev, next.addr, next.region),
                (slot, n.end(), n.region)
            );
            assert!(
                n.allocated || next.allocated,
                "free neighbours left unmerged"
            );
        }
        assert_eq!(free_nodes, self.free.len());
        for (&region, &tail) in &self.tails {
            let n = self.nodes[tail];
            assert_eq!((n.region, n.next), (region, NIL));
            assert_eq!(self.slots[&n.addr], tail);
        }
    }

    /// The slot of the block at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if no block starts at `addr`.
    fn slot_of(&self, addr: u64, op: &str) -> u32 {
        match self.slots.get(&addr) {
            Some(&slot) => slot,
            None => panic!("{op}: unknown block"),
        }
    }

    fn block(&self, slot: u32) -> Block {
        let n = self.nodes[slot];
        Block {
            addr: n.addr,
            size: n.size,
            region: n.region,
            allocated: n.allocated,
        }
    }

    fn insert(&mut self, node: Node) -> u32 {
        let slot = self.nodes.insert(node);
        self.slots.insert(node.addr, slot);
        slot
    }

    /// Makes `next` (or the end of the region) follow `slot`.
    fn link(&mut self, slot: u32, next: u32) {
        self.nodes[slot].next = next;
        if next == NIL {
            self.tails.insert(self.nodes[slot].region, slot);
        } else {
            self.nodes[next].prev = slot;
        }
    }

    /// Merges the block after `slot` into it; the absorbed block leaves the
    /// pool.
    fn absorb_next(&mut self, slot: u32) {
        let gone = self.nodes[slot].next;
        let Node {
            addr, size, next, ..
        } = self.nodes[gone];
        self.nodes[slot].size += size;
        self.link(slot, next);
        self.slots.remove(&addr);
        self.nodes.remove(gone);
    }

    fn list(&mut self, slot: u32) {
        let n = self.nodes[slot];
        self.free.insert((n.size, n.addr));
    }

    fn unlist(&mut self, slot: u32) {
        let n = self.nodes[slot];
        self.free.remove(&(n.size, n.addr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_and_coalesce_roundtrip() {
        let mut p = BlockPool::new();
        p.add_region(0, 1000, 1);
        let g = p.allocate(0, 300, |_| true);
        assert_eq!(g, 300);
        assert_eq!(p.free_bytes(), 700);
        let (addr, size) = p.best_fit(700, u64::MAX).unwrap();
        assert_eq!((addr, size), (300, 700));
        let merged = p.free(0);
        assert_eq!(merged.addr, 0);
        assert_eq!(merged.size, 1000);
        assert_eq!(p.free_block_count(), 1);
        p.check_invariants();
    }

    #[test]
    fn no_split_grants_whole_block() {
        let mut p = BlockPool::new();
        p.add_region(0, 1000, 1);
        let g = p.allocate(0, 300, |_| false);
        assert_eq!(g, 1000);
        assert_eq!(p.free_bytes(), 0);
        p.check_invariants();
    }

    #[test]
    fn three_way_merge() {
        let mut p = BlockPool::new();
        p.add_region(0, 3000, 7);
        p.allocate(0, 1000, |_| true);
        p.allocate(1000, 1000, |_| true);
        p.allocate(2000, 1000, |_| false);
        assert_eq!(p.free_bytes(), 0);
        p.free(0);
        p.free(2000);
        assert_eq!(p.free_block_count(), 2);
        p.free(1000); // bridges both neighbours
        assert_eq!(p.free_block_count(), 1);
        assert_eq!(p.largest_free(), 3000);
        p.check_invariants();
    }

    #[test]
    fn regions_never_merge_across_boundaries() {
        let mut p = BlockPool::new();
        p.add_region(0, 1000, 1);
        p.add_region(1000, 1000, 2); // address-adjacent but different region
        assert_eq!(p.free_block_count(), 2);
        let a = p.allocate(0, 1000, |_| false);
        assert_eq!(a, 1000);
        p.free(0);
        assert_eq!(p.free_block_count(), 2, "no cross-region merge");
        p.check_invariants();
    }

    #[test]
    fn arena_growth_merges_same_region_tail() {
        let mut p = BlockPool::new();
        p.add_region(0, 1000, 1);
        p.add_region(1000, 500, 1); // growth of the same arena
        assert_eq!(p.free_block_count(), 1);
        assert_eq!(p.largest_free(), 1500);
        p.check_invariants();
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut p = BlockPool::new();
        p.add_region(0, 1000, 1);
        p.add_region(5000, 400, 2);
        let (addr, size) = p.best_fit(300, u64::MAX).unwrap();
        assert_eq!((addr, size), (5000, 400));
        assert!(p.best_fit(2000, u64::MAX).is_none());
    }

    #[test]
    fn oversize_rule_blocks_small_requests() {
        let mut p = BlockPool::new();
        p.add_region(0, 10_000, 1);
        // A small request must not consume the oversize cached block.
        assert!(p.best_fit(100, 4096).is_none());
        // An oversize request may.
        assert!(p.best_fit(5000, 4096).is_some());
    }

    #[test]
    #[should_panic(expected = "block busy")]
    fn double_allocate_panics() {
        let mut p = BlockPool::new();
        p.add_region(0, 100, 1);
        p.allocate(0, 100, |_| false);
        p.allocate(0, 100, |_| false);
    }

    /// One step of a pool script, drawn as `(op, units, pick, flag)`.
    type Op = (u8, u64, usize, bool);

    /// Both pools under one script, compared after every step.
    struct Twin {
        new: BlockPool,
        old: MapPool,
        /// `(id, end)` of every region; its blocks run up to `end`.
        regions: Vec<(u64, u64)>,
        /// Where the next region starts: past every region, with a gap.
        fresh: u64,
        allocated: Vec<u64>,
        /// Every base address a block ever had.
        seen: BTreeSet<u64>,
    }

    impl Twin {
        fn step(&mut self, (op, units, pick, flag): Op) -> Result<(), String> {
            let len = units * 512;
            let free: Vec<(u64, u64, u64)> = self.new.iter_free().collect();
            match op {
                // A fresh region, far from every other.
                0 => {
                    let id = self.fresh;
                    self.fresh += len + (1 << 20);
                    self.regions.push((id, id + len));
                    self.new.add_region(id, len, id);
                    self.old.add_region(id, len, id);
                    self.seen.insert(id);
                }
                // A region grows at its end (an arena).
                1 | 2 if !self.regions.is_empty() => {
                    let k = pick % self.regions.len();
                    let (id, end) = self.regions[k];
                    self.regions[k].1 += len;
                    self.new.add_region(end, len, id);
                    self.old.add_region(end, len, id);
                    self.seen.insert(end);
                }
                // Best fit, split into a free tail or granted whole.
                3..=5 | 14 => {
                    let fit = self.new.best_fit(len, u64::MAX);
                    prop_assert_eq!(fit, self.old.best_fit(len, u64::MAX));
                    if let Some((addr, _)) = fit {
                        self.allocate(addr, len, flag)?;
                    }
                }
                // Any free block, any part of it.
                6 | 7 if !free.is_empty() => {
                    let (addr, size, _) = free[pick % free.len()];
                    self.allocate(addr, len.min(size), flag)?;
                }
                8..=12 if !self.allocated.is_empty() => {
                    let addr = self.allocated.swap_remove(pick % self.allocated.len());
                    let merged = self.new.free(addr);
                    prop_assert_eq!(merged, self.old.free(addr));
                }
                // A region that is one free block leaves for good: in the
                // map pool, a take of the block.
                13 if !free.is_empty() => {
                    let (addr, _, _) = free[pick % free.len()];
                    let node = self.new.nodes[self.new.slots[&addr]];
                    if node.prev == NIL && node.next == NIL {
                        let blk = self.new.take_region(addr);
                        prop_assert_eq!(blk, self.old.take_free(addr));
                    }
                }
                _ => {}
            }
            self.compare()
        }

        fn allocate(&mut self, addr: u64, want: u64, split: bool) -> Result<(), String> {
            let granted = self.new.allocate(addr, want, |_| split);
            prop_assert_eq!(granted, self.old.allocate(addr, want, |_| split));
            self.allocated.push(addr);
            self.seen.insert(addr + want);
            Ok(())
        }

        fn compare(&self) -> Result<(), String> {
            let (new, old) = (&self.new, &self.old);
            new.check_invariants();
            prop_assert_eq!(new.free_bytes(), old.free_bytes());
            prop_assert_eq!(new.free_block_count(), old.free_block_count());
            prop_assert_eq!(new.largest_free(), old.largest_free());
            prop_assert_eq!(
                new.iter_free().collect::<Vec<_>>(),
                old.iter_free().collect::<Vec<_>>()
            );
            for want in [1, 512, 2048, 8192, 1 << 15] {
                for limit in [4096, u64::MAX] {
                    prop_assert_eq!(new.best_fit(want, limit), old.best_fit(want, limit));
                }
            }
            for addr in &self.seen {
                prop_assert_eq!(new.get(*addr), old.get(*addr).copied(), "block at {addr}");
            }
            Ok(())
        }
    }

    proptest! {
        /// The linked pool against the map pool it replaced: the same
        /// return from every call and the same state after every step,
        /// over scripts of region additions and arena growth, allocations
        /// with and without a split, frees that coalesce on either side,
        /// and regions released whole.
        #[test]
        fn matches_the_map_pool_it_replaced(
            ops in prop::collection::vec((0u8..15, 1u64..48, 0usize..1024, prop::bool::ANY), 1..200),
        ) {
            let mut twin = Twin {
                new: BlockPool::new(),
                old: MapPool::new(),
                regions: Vec::new(),
                fresh: 1 << 30,
                allocated: Vec::new(),
                seen: BTreeSet::new(),
            };
            for op in ops {
                twin.step(op)?;
            }
        }
    }

    /// The pool as it was before its blocks were linked: every block in a
    /// `HashMap` by base address and a second one by end address, each
    /// `allocate` detaching the block from three structures and re-inserting
    /// it. The oracle of `matches_the_map_pool_it_replaced`.
    #[derive(Debug, Default)]
    struct MapPool {
        /// Free blocks ordered by (size, addr) — PyTorch's comparator.
        free: BTreeSet<(u64, u64)>,
        /// All blocks by base address.
        blocks: HashMap<u64, Block>,
        /// Block base address by end address (for neighbour lookup).
        by_end: HashMap<u64, u64>,
        /// Total free bytes.
        free_bytes: u64,
    }

    impl MapPool {
        fn new() -> Self {
            Self::default()
        }

        fn free_bytes(&self) -> u64 {
            self.free_bytes
        }

        fn free_block_count(&self) -> usize {
            self.free.len()
        }

        fn largest_free(&self) -> u64 {
            self.free.iter().next_back().map_or(0, |&(s, _)| s)
        }

        fn get(&self, addr: u64) -> Option<&Block> {
            self.blocks.get(&addr)
        }

        fn iter_free(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
            self.free.iter().map(move |&(size, addr)| {
                let b = &self.blocks[&addr];
                (addr, size, b.region)
            })
        }

        fn add_region(&mut self, addr: u64, size: u64, region: u64) {
            debug_assert!(size > 0);
            debug_assert!(!self.blocks.contains_key(&addr), "region overlap");
            let mut blk = Block {
                addr,
                size,
                region,
                allocated: false,
            };
            // Merge with a free predecessor ending exactly at `addr`.
            if let Some(&prev_addr) = self.by_end.get(&addr) {
                let prev = self.blocks[&prev_addr];
                if !prev.allocated && prev.region == region {
                    self.detach_free(prev_addr);
                    blk.addr = prev.addr;
                    blk.size += prev.size;
                }
            }
            self.attach_free(blk);
            self.free_bytes += size;
        }

        fn best_fit(&self, want: u64, oversize_limit: u64) -> Option<(u64, u64)> {
            if let Some(&(size, addr)) = self.free.range((want, 0)..).next() {
                if want < oversize_limit && size >= oversize_limit {
                    // An oversize cached block must not serve small requests.
                    return None;
                }
                return Some((addr, size));
            }
            None
        }

        fn allocate(&mut self, addr: u64, want: u64, split: impl Fn(u64) -> bool) -> u64 {
            let blk = *self.blocks.get(&addr).expect("allocate: unknown block");
            assert!(!blk.allocated, "allocate: block busy");
            assert!(blk.size >= want, "allocate: block too small");
            self.detach_free(addr);
            let remainder = blk.size - want;
            let granted = if remainder > 0 && split(remainder) {
                let tail = Block {
                    addr: blk.addr + want,
                    size: remainder,
                    region: blk.region,
                    allocated: false,
                };
                self.attach_free(tail);
                want
            } else {
                blk.size
            };
            let alloc_blk = Block {
                addr: blk.addr,
                size: granted,
                region: blk.region,
                allocated: true,
            };
            self.blocks.insert(alloc_blk.addr, alloc_blk);
            self.by_end.insert(alloc_blk.end(), alloc_blk.addr);
            self.free_bytes -= granted;
            granted
        }

        fn free(&mut self, addr: u64) -> Block {
            let mut blk = *self.blocks.get(&addr).expect("free: unknown block");
            assert!(blk.allocated, "free: block not allocated");
            self.blocks.remove(&addr);
            self.by_end.remove(&blk.end());
            self.free_bytes += blk.size;

            // Merge predecessor.
            if let Some(&prev_addr) = self.by_end.get(&blk.addr) {
                let prev = self.blocks[&prev_addr];
                if !prev.allocated && prev.region == blk.region {
                    self.detach_free(prev_addr);
                    blk.addr = prev.addr;
                    blk.size += prev.size;
                }
            }
            // Merge successor.
            if let Some(next) = self.blocks.get(&blk.end()).copied() {
                if !next.allocated && next.region == blk.region {
                    self.detach_free(next.addr);
                    blk.size += next.size;
                }
            }
            blk.allocated = false;
            self.attach_free(blk);
            blk
        }

        fn take_free(&mut self, addr: u64) -> Block {
            let blk = *self.blocks.get(&addr).expect("take_free: unknown block");
            assert!(!blk.allocated, "take_free: block busy");
            self.detach_free(addr);
            self.free_bytes -= blk.size;
            blk
        }

        fn attach_free(&mut self, blk: Block) {
            debug_assert!(!blk.allocated);
            self.free.insert((blk.size, blk.addr));
            self.by_end.insert(blk.end(), blk.addr);
            self.blocks.insert(blk.addr, blk);
        }

        fn detach_free(&mut self, addr: u64) {
            let blk = self.blocks.remove(&addr).expect("detach: unknown");
            self.free.remove(&(blk.size, blk.addr));
            self.by_end.remove(&blk.end());
        }
    }
}
