//! Physical device address space: the simulated driver allocator.
//!
//! Models what the CUDA driver does for `cudaMalloc`/`cudaFree`: hands out
//! aligned, contiguous ranges of the device's physical address space using a
//! best-fit policy with immediate coalescing of freed neighbours. Host-side
//! framework allocators (caching allocator, STAlloc, …) sit on top of this.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::error::{DeviceError, DeviceResult};
use crate::DRIVER_ALIGNMENT;

/// An opaque device pointer: the base address of a live physical allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The raw device address.
    pub fn addr(self) -> u64 {
        self.0
    }
}

/// Best-fit allocator over a contiguous physical address space.
///
/// Invariants (checked in debug builds and by property tests):
/// * live allocations and free blocks tile the address space exactly;
/// * no two live allocations overlap;
/// * adjacent free blocks are always coalesced.
#[derive(Debug, Clone)]
pub struct PhysMemory {
    capacity: u64,
    align: u64,
    /// Free blocks keyed by base address, value is length.
    free_by_addr: BTreeMap<u64, u64>,
    /// Free blocks keyed by (length, base address) for best-fit lookup.
    free_by_size: BTreeSet<(u64, u64)>,
    /// Live allocations: base address -> length.
    live: HashMap<u64, u64>,
    in_use: u64,
    peak_in_use: u64,
    num_allocs: u64,
    num_frees: u64,
}

impl PhysMemory {
    /// Creates an empty address space of `capacity` bytes with the default
    /// driver alignment.
    pub fn new(capacity: u64) -> Self {
        Self::with_alignment(capacity, DRIVER_ALIGNMENT)
    }

    /// Creates an empty address space with an explicit alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn with_alignment(capacity: u64, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut free_by_addr = BTreeMap::new();
        let mut free_by_size = BTreeSet::new();
        if capacity > 0 {
            free_by_addr.insert(0, capacity);
            free_by_size.insert((capacity, 0));
        }
        Self {
            capacity,
            align,
            free_by_addr,
            free_by_size,
            live: HashMap::new(),
            in_use: 0,
            peak_in_use: 0,
            num_allocs: 0,
            num_frees: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently handed out (after alignment rounding).
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark of [`Self::in_use`].
    pub fn peak_in_use(&self) -> u64 {
        self.peak_in_use
    }

    /// Bytes currently free (possibly discontiguous).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// Size of the largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.free_by_size.iter().next_back().map_or(0, |&(l, _)| l)
    }

    /// Number of discontiguous free blocks (external-fragmentation proxy).
    pub fn free_block_count(&self) -> usize {
        self.free_by_addr.len()
    }

    /// Total `malloc` calls served.
    pub fn num_allocs(&self) -> u64 {
        self.num_allocs
    }

    /// Total `free` calls served.
    pub fn num_frees(&self) -> u64 {
        self.num_frees
    }

    /// Allocates `size` bytes (rounded up to the alignment), best-fit.
    ///
    /// Zero-sized requests are rounded up to one alignment unit, mirroring
    /// the behaviour of real drivers which never return aliased pointers.
    pub fn malloc(&mut self, size: u64) -> DeviceResult<DevicePtr> {
        let size = crate::align_up(size.max(1), self.align);
        // Best fit: smallest free block with length >= size; ties broken by
        // lowest address because the key is (len, addr).
        let found = self
            .free_by_size
            .range((size, 0)..)
            .next()
            .copied()
            .ok_or_else(|| self.oom(size))?;
        let (blk_len, blk_addr) = found;
        self.remove_free(blk_addr, blk_len);
        if blk_len > size {
            self.insert_free(blk_addr + size, blk_len - size);
        }
        self.live.insert(blk_addr, size);
        self.in_use += size;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        self.num_allocs += 1;
        Ok(DevicePtr(blk_addr))
    }

    /// Allocates `size` bytes at a caller-chosen address, if that exact range
    /// is free. Used by tests and by the VMM layer.
    pub fn malloc_at(&mut self, addr: u64, size: u64) -> DeviceResult<DevicePtr> {
        let size = crate::align_up(size.max(1), self.align);
        // Find the free block containing `addr`.
        let (&blk_addr, &blk_len) =
            self.free_by_addr
                .range(..=addr)
                .next_back()
                .ok_or(DeviceError::MappingConflict {
                    va: addr,
                    len: size,
                })?;
        if addr + size > blk_addr + blk_len {
            return Err(DeviceError::MappingConflict {
                va: addr,
                len: size,
            });
        }
        self.remove_free(blk_addr, blk_len);
        if addr > blk_addr {
            self.insert_free(blk_addr, addr - blk_addr);
        }
        let end = addr + size;
        let blk_end = blk_addr + blk_len;
        if blk_end > end {
            self.insert_free(end, blk_end - end);
        }
        self.live.insert(addr, size);
        self.in_use += size;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        self.num_allocs += 1;
        Ok(DevicePtr(addr))
    }

    /// Frees a pointer previously returned by [`Self::malloc`].
    pub fn free(&mut self, ptr: DevicePtr) -> DeviceResult<u64> {
        let len = self
            .live
            .remove(&ptr.0)
            .ok_or(DeviceError::InvalidPointer(ptr.0))?;
        self.in_use -= len;
        self.num_frees += 1;
        self.insert_free_coalescing(ptr.0, len);
        Ok(len)
    }

    /// Returns the length of a live allocation, if `ptr` is live.
    pub fn allocation_len(&self, ptr: DevicePtr) -> Option<u64> {
        self.live.get(&ptr.0).copied()
    }

    fn oom(&self, requested: u64) -> DeviceError {
        DeviceError::OutOfMemory {
            requested,
            free: self.free_bytes(),
            largest_free_block: self.largest_free_block(),
        }
    }

    fn insert_free(&mut self, addr: u64, len: u64) {
        debug_assert!(len > 0);
        self.free_by_addr.insert(addr, len);
        self.free_by_size.insert((len, addr));
    }

    fn remove_free(&mut self, addr: u64, len: u64) {
        self.free_by_addr.remove(&addr);
        self.free_by_size.remove(&(len, addr));
    }

    fn insert_free_coalescing(&mut self, mut addr: u64, mut len: u64) {
        // Merge with the preceding free block if adjacent.
        if let Some((&prev_addr, &prev_len)) = self.free_by_addr.range(..addr).next_back() {
            if prev_addr + prev_len == addr {
                self.remove_free(prev_addr, prev_len);
                addr = prev_addr;
                len += prev_len;
            }
        }
        // Merge with the following free block if adjacent.
        if let Some((&next_addr, &next_len)) = self.free_by_addr.range(addr + len..).next() {
            if addr + len == next_addr {
                self.remove_free(next_addr, next_len);
                len += next_len;
            }
        }
        self.insert_free(addr, len);
    }

    /// Debug invariant check: free + live blocks exactly tile the space.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut spans: Vec<(u64, u64)> = self
            .free_by_addr
            .iter()
            .map(|(&a, &l)| (a, l))
            .chain(self.live.iter().map(|(&a, &l)| (a, l)))
            .collect();
        spans.sort_unstable();
        let mut cursor = 0;
        for (a, l) in spans {
            assert_eq!(a, cursor, "gap or overlap at {a:#x}");
            cursor = a + l;
        }
        assert_eq!(cursor, self.capacity, "space not fully tiled");
        assert_eq!(self.free_by_addr.len(), self.free_by_size.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_free_roundtrip() {
        let mut m = PhysMemory::new(1 << 20);
        let a = m.malloc(1000).unwrap();
        assert_eq!(m.in_use(), 1024, "rounded to 512 B alignment");
        m.check_invariants();
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.largest_free_block(), 1 << 20);
        m.check_invariants();
    }

    #[test]
    fn best_fit_prefers_tightest_block() {
        let mut m = PhysMemory::new(10240);
        let a = m.malloc(512).unwrap(); // [0, 512)
        let b = m.malloc(2048).unwrap(); // [512, 2560)
        let c = m.malloc(512).unwrap(); // [2560, 3072)
        let _d = m.malloc(1024).unwrap(); // [3072, 4096)
        m.free(a).unwrap(); // free 512 @ 0
        m.free(b).unwrap(); // free 2048 @ 512... coalesces with a -> 2560 @ 0
        m.free(c).unwrap(); // coalesces -> 3072 @ 0
                            // Now frees coalesced into one 3072 block at 0 plus tail.
        assert_eq!(m.free_block_count(), 2);
        let e = m.malloc(3000).unwrap();
        assert_eq!(e.addr(), 0, "tight 3072 block preferred over big tail");
        m.check_invariants();
    }

    #[test]
    fn coalescing_merges_both_sides() {
        let mut m = PhysMemory::new(4096);
        let a = m.malloc(512).unwrap();
        let b = m.malloc(512).unwrap();
        let c = m.malloc(512).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        assert_eq!(m.free_block_count(), 2, "a and c not adjacent yet");
        m.free(b).unwrap();
        assert_eq!(m.free_block_count(), 1, "b bridges a and c and the tail");
        assert_eq!(m.largest_free_block(), 4096);
        m.check_invariants();
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut m = PhysMemory::new(2048);
        let a = m.malloc(512).unwrap();
        let _b = m.malloc(512).unwrap();
        let c = m.malloc(512).unwrap();
        let _d = m.malloc(512).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        // 1024 B free but largest block is 512.
        let err = m.malloc(1024).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                free,
                largest_free_block,
            } => {
                assert_eq!(requested, 1024);
                assert_eq!(free, 1024);
                assert_eq!(largest_free_block, 512);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn double_free_rejected() {
        let mut m = PhysMemory::new(4096);
        let a = m.malloc(512).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(DeviceError::InvalidPointer(a.0)));
    }

    #[test]
    fn malloc_at_splits_containing_block() {
        let mut m = PhysMemory::new(8192);
        let p = m.malloc_at(1024, 512).unwrap();
        assert_eq!(p.addr(), 1024);
        assert_eq!(m.free_block_count(), 2);
        m.check_invariants();
        // Overlapping placement fails.
        assert!(m.malloc_at(1024, 512).is_err());
        assert!(m.malloc_at(800, 512).is_err());
        m.free(p).unwrap();
        assert_eq!(m.free_block_count(), 1);
        m.check_invariants();
    }

    #[test]
    fn zero_sized_request_gets_unique_storage() {
        let mut m = PhysMemory::new(4096);
        let a = m.malloc(0).unwrap();
        let b = m.malloc(0).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.in_use(), 1024);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = PhysMemory::new(1 << 16);
        let a = m.malloc(4096).unwrap();
        let b = m.malloc(4096).unwrap();
        m.free(a).unwrap();
        m.free(b).unwrap();
        let _c = m.malloc(512).unwrap();
        assert_eq!(m.peak_in_use(), 8192);
    }
}
