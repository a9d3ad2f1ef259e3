//! PyTorch `expandable_segments:True` allocator.
//!
//! Instead of fixed-size segments, each pool owns one huge reserved virtual
//! range that grows by mapping 2 MiB physical granules at its frontier.
//! Because all blocks live in one contiguous virtual range, free space
//! coalesces across what would have been segment boundaries — eliminating
//! the dominant fragmentation mode of the caching allocator. The price is
//! driver traffic: physical pages are mapped on growth and unmapped when
//! large free regions are trimmed, and those VMM calls are expensive (the
//! throughput overhead the paper reports for ES in recomputation-heavy and
//! dynamic workloads, §9.2–9.3).
//!
//! Trimming policy: when a coalesced free block reaches
//! [`ExpandableAllocator::trim_threshold`], the whole physical runs lying
//! entirely inside it are unmapped and released. Stock PyTorch releases
//! pages under memory pressure and on `empty_cache`; the threshold models
//! that pressure-driven release at a fixed grain so that reserved memory
//! tracks demand the way the paper observes.

use std::collections::BTreeMap;

use gpu_sim::{Device, PhysHandle, VirtAddr, VirtualRange, VMM_GRANULARITY};
use trace_gen::{TensorId, TensorMap};

use crate::blockpool::BlockPool;
use crate::caching::{round_size, K_MIN_BLOCK_SIZE, K_SMALL_SIZE};
use crate::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};

/// Default trim threshold: free regions of at least this size release their
/// interior physical pages.
pub const DEFAULT_TRIM_THRESHOLD: u64 = 64 << 20;

#[derive(Debug)]
struct Arena {
    range: Option<VirtualRange>,
    /// VA high-water handed to the block pool.
    frontier: u64,
    pool: BlockPool,
    /// Mapped physical runs: start VA -> (len, handle).
    runs: BTreeMap<u64, (u64, PhysHandle)>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            range: None,
            frontier: 0,
            pool: BlockPool::new(),
            runs: BTreeMap::new(),
        }
    }

    fn region(&self) -> u64 {
        self.range.map(|r| r.base.0).unwrap_or(0)
    }

    fn ensure_range(&mut self, dev: &mut Device) -> Result<(), AllocError> {
        if self.range.is_none() {
            // Reserve ample VA: four times device capacity (VA is free).
            let r = dev
                .vmm_reserve(dev.spec().capacity * 4)
                .map_err(|e| AllocError::Internal(e.to_string()))?;
            self.frontier = r.base.0;
            self.range = Some(r);
        }
        Ok(())
    }

    /// Maps any unmapped granule-aligned gaps covering `[start, start+len)`.
    /// Returns the newly mapped bytes.
    fn ensure_mapped(&mut self, dev: &mut Device, start: u64, len: u64) -> Result<u64, AllocError> {
        let g = VMM_GRANULARITY;
        let gstart = start / g * g;
        let gend = gpu_sim::align_up(start + len, g);
        let mut new_bytes = 0;
        let mut cursor = gstart;
        // Walk existing runs to find gaps. Runs never overlap.
        let overlapping: Vec<(u64, u64)> = self
            .runs
            .range(..gend)
            .rev()
            .take_while(|(&s, &(l, _))| s + l > gstart)
            .map(|(&s, &(l, _))| (s, l))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let mut gaps = Vec::new();
        for (s, l) in overlapping {
            if s > cursor {
                gaps.push((cursor, s - cursor));
            }
            cursor = cursor.max(s + l);
        }
        if cursor < gend {
            gaps.push((cursor, gend - cursor));
        }
        for (gap_start, gap_len) in gaps {
            let handle = match dev.vmm_create(gap_len) {
                Ok(h) => h,
                Err(e) if e.is_oom() => return Err(AllocError::from_device(e, len, 0)),
                Err(e) => return Err(AllocError::Internal(e.to_string())),
            };
            dev.vmm_map(VirtAddr(gap_start), handle)
                .map_err(|e| AllocError::Internal(e.to_string()))?;
            self.runs.insert(gap_start, (gap_len, handle));
            new_bytes += gap_len;
        }
        Ok(new_bytes)
    }

    /// Unmaps and releases runs fully inside `[start, end)`. Returns the
    /// released bytes.
    fn release_interior(&mut self, dev: &mut Device, start: u64, end: u64) -> u64 {
        let g = VMM_GRANULARITY;
        let istart = gpu_sim::align_up(start, g);
        let iend = end / g * g;
        if istart >= iend {
            return 0;
        }
        let victims: Vec<u64> = self
            .runs
            .range(istart..iend)
            .filter(|(&s, &(l, _))| s + l <= iend)
            .map(|(&s, _)| s)
            .collect();
        let mut released = 0;
        for s in victims {
            let (l, h) = self.runs.remove(&s).expect("victim exists");
            dev.vmm_unmap(VirtAddr(s)).expect("run was mapped");
            dev.vmm_release(h).expect("handle live");
            released += l;
        }
        released
    }
}

/// Expandable-segments allocator (PyTorch ≥ 2.1, `expandable_segments:True`).
#[derive(Debug)]
pub struct ExpandableAllocator {
    /// Free regions of at least this size have their interior pages
    /// unmapped on free.
    pub trim_threshold: u64,
    small: Arena,
    large: Arena,
    live: TensorMap<(u64, u64, bool)>,
    mapped_bytes: u64,
    stats: AllocatorStats,
}

impl Default for ExpandableAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpandableAllocator {
    /// Creates an allocator with the default trim threshold.
    pub fn new() -> Self {
        Self::with_trim_threshold(DEFAULT_TRIM_THRESHOLD)
    }

    /// Creates an allocator with an explicit trim threshold.
    pub fn with_trim_threshold(trim_threshold: u64) -> Self {
        Self {
            trim_threshold,
            small: Arena::new(),
            large: Arena::new(),
            live: TensorMap::default(),
            mapped_bytes: 0,
            stats: AllocatorStats::default(),
        }
    }

    fn arena(&mut self, small: bool) -> &mut Arena {
        if small {
            &mut self.small
        } else {
            &mut self.large
        }
    }

    /// Releases interior pages of every sizeable free block (the memory-
    /// pressure path, also used before surfacing OOM).
    fn emergency_trim(&mut self, dev: &mut Device) {
        for small in [true, false] {
            // Split borrows: operate on one arena at a time.
            let arena = if small {
                &mut self.small
            } else {
                &mut self.large
            };
            let frees: Vec<(u64, u64)> = arena
                .pool
                .iter_free()
                .map(|(addr, size, _)| (addr, size))
                .collect();
            let mut released = 0;
            for (addr, size) in frees {
                released += arena.release_interior(dev, addr, addr + size);
            }
            self.mapped_bytes -= released;
        }
        self.stats.set_reserved(self.mapped_bytes);
    }

    fn malloc_in_arena(
        &mut self,
        dev: &mut Device,
        rounded: u64,
        small: bool,
    ) -> Result<(u64, u64), AllocError> {
        self.arena(small).ensure_range(dev)?;
        let region = self.arena(small).region();

        // Find or create a free block.
        if self.arena(small).pool.best_fit(rounded, u64::MAX).is_none() {
            let grow = gpu_sim::align_up(rounded, VMM_GRANULARITY);
            let arena = self.arena(small);
            let range = arena.range.expect("ensured");
            if arena.frontier + grow > range.base.0 + range.len {
                return Err(AllocError::OutOfMemory {
                    requested: rounded,
                    reserved: self.stats.reserved,
                    device_free: dev.free_bytes(),
                });
            }
            let frontier = arena.frontier;
            arena.pool.add_region(frontier, grow, region);
            arena.frontier += grow;
            self.stats.slow_path_events += 1;
        }
        let (addr, _) = self
            .arena(small)
            .pool
            .best_fit(rounded, u64::MAX)
            .expect("grown to fit");
        let granted = self.arena(small).pool.allocate(addr, rounded, |rem| {
            if small {
                rem >= K_MIN_BLOCK_SIZE
            } else {
                rem > K_SMALL_SIZE
            }
        });

        // Map the physical pages backing the granted range.
        match self.arena(small).ensure_mapped(dev, addr, granted) {
            Ok(bytes) => {
                self.mapped_bytes += bytes;
                self.stats.set_reserved(self.mapped_bytes);
                Ok((addr, granted))
            }
            Err(e) if e.is_oom() => {
                // Memory pressure: trim everything free and retry once.
                self.emergency_trim(dev);
                match self.arena(small).ensure_mapped(dev, addr, granted) {
                    Ok(bytes) => {
                        self.mapped_bytes += bytes;
                        self.stats.set_reserved(self.mapped_bytes);
                        Ok((addr, granted))
                    }
                    Err(e2) => {
                        self.arena(small).pool.free(addr);
                        Err(if e2.is_oom() {
                            AllocError::OutOfMemory {
                                requested: rounded,
                                reserved: self.stats.reserved,
                                device_free: dev.free_bytes(),
                            }
                        } else {
                            e2
                        })
                    }
                }
            }
            Err(e) => {
                self.arena(small).pool.free(addr);
                Err(e)
            }
        }
    }
}

impl GpuAllocator for ExpandableAllocator {
    fn name(&self) -> String {
        "Torch ES".into()
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        if !dev.supports_vmm() {
            return Err(AllocError::Internal(
                "expandable segments require VMM support".into(),
            ));
        }
        let rounded = round_size(req.size);
        let small = rounded <= K_SMALL_SIZE;
        dev.advance_clock_ns(dev.latency().cache_hit_ns);
        let (addr, granted) = self.malloc_in_arena(dev, rounded, small)?;
        self.live.insert(req.tensor, (addr, granted, small));
        self.stats.on_alloc(granted);
        Ok(Allocation { addr, granted })
    }

    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
        let (addr, granted, small) = self
            .live
            .remove(&tensor)
            .ok_or(AllocError::UnknownTensor(tensor))?;
        dev.advance_clock_ns(dev.latency().cache_hit_ns);
        let threshold = self.trim_threshold;
        let arena = self.arena(small);
        let merged = arena.pool.free(addr);
        if merged.size >= threshold {
            let released = arena.release_interior(dev, merged.addr, merged.end());
            self.mapped_bytes -= released;
            self.stats.set_reserved(self.mapped_bytes);
        }
        self.stats.on_free(granted);
        Ok(granted)
    }

    fn stats(&self) -> AllocatorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, LatencyModel};

    fn dev(cap: u64) -> Device {
        Device::with_latency(DeviceSpec::test_device(cap), LatencyModel::zero())
    }

    fn req(id: u64, size: u64) -> AllocRequest {
        AllocRequest {
            tensor: TensorId(id),
            size,
            dynamic: false,
        }
    }

    #[test]
    fn coalescing_across_former_segment_boundaries() {
        // The scenario that fragments the caching allocator: interleaved
        // frees followed by a larger request. ES serves it in place.
        let mut d = dev(1 << 30);
        let mut a = ExpandableAllocator::new();
        for i in 0..10 {
            a.malloc(&mut d, &req(i, 2 << 20)).unwrap();
        }
        let reserved_full = a.stats().reserved;
        for i in 0..10 {
            a.free(&mut d, TensorId(i)).unwrap();
        }
        // A 16 MiB request reuses the coalesced virtual space.
        a.malloc(&mut d, &req(100, 16 << 20)).unwrap();
        assert!(
            a.stats().reserved <= reserved_full + (4 << 20),
            "reserved {} should not balloon past {}",
            a.stats().reserved,
            reserved_full
        );
    }

    #[test]
    fn trim_releases_physical_pages() {
        let mut d = dev(1 << 30);
        let mut a = ExpandableAllocator::with_trim_threshold(16 << 20);
        a.malloc(&mut d, &req(0, 64 << 20)).unwrap();
        let high = a.stats().reserved;
        a.free(&mut d, TensorId(0)).unwrap();
        assert!(
            a.stats().reserved < high,
            "trim shrinks reserved: {} -> {}",
            high,
            a.stats().reserved
        );
        assert!(d.stats().vmm.unmaps > 0);
    }

    #[test]
    fn below_threshold_frees_keep_pages_cached() {
        let mut d = dev(1 << 30);
        let mut a = ExpandableAllocator::with_trim_threshold(64 << 20);
        a.malloc(&mut d, &req(0, 8 << 20)).unwrap();
        let unmaps_before = d.stats().vmm.unmaps;
        a.free(&mut d, TensorId(0)).unwrap();
        assert_eq!(
            d.stats().vmm.unmaps,
            unmaps_before,
            "no trim below threshold"
        );
        // Reuse takes no new mapping.
        let maps_before = d.stats().vmm.maps;
        a.malloc(&mut d, &req(1, 8 << 20)).unwrap();
        assert_eq!(d.stats().vmm.maps, maps_before);
    }

    #[test]
    fn emergency_trim_avoids_oom() {
        let mut d = dev(96 << 20);
        let mut a = ExpandableAllocator::with_trim_threshold(u64::MAX); // never trim on free
        a.malloc(&mut d, &req(0, 60 << 20)).unwrap();
        a.free(&mut d, TensorId(0)).unwrap();
        // 60 MiB still mapped; a 70 MiB request must trim to fit the budget.
        a.malloc(&mut d, &req(1, 70 << 20)).unwrap();
        assert_eq!(a.stats().allocated, 70 << 20);
    }

    #[test]
    fn hard_oom_is_reported() {
        let mut d = dev(32 << 20);
        let mut a = ExpandableAllocator::new();
        let e = a.malloc(&mut d, &req(0, 64 << 20)).unwrap_err();
        assert!(e.is_oom());
    }

    #[test]
    fn vmm_less_platform_rejected() {
        let mut d = Device::with_latency(DeviceSpec::mi210_64g(), LatencyModel::zero());
        let mut a = ExpandableAllocator::new();
        assert!(matches!(
            a.malloc(&mut d, &req(0, 1 << 20)),
            Err(AllocError::Internal(_))
        ));
    }

    #[test]
    fn small_and_large_pools_are_separate_arenas() {
        let mut d = dev(1 << 30);
        let mut a = ExpandableAllocator::new();
        let s = a.malloc(&mut d, &req(0, 1000)).unwrap();
        let l = a.malloc(&mut d, &req(1, 4 << 20)).unwrap();
        // Arena VA reservations are far apart.
        assert!(l.addr.abs_diff(s.addr) > (1 << 30));
    }
}
