//! GMLake: GPU memory defragmentation through virtual-memory stitching
//! (ASPLOS '24), as used as a baseline in the STAlloc paper.
//!
//! GMLake extends the PyTorch 2.0 caching allocator: when a large request
//! misses the cache, instead of reserving a fresh segment it *stitches*
//! several non-contiguous free blocks into one contiguous virtual span using
//! the CUDA VMM API. Only free blocks of at least `fragLimit` (default
//! 512 MiB) participate. Stitching avoids reserve growth, but every stitch
//! costs one VA reservation plus one map per component — and every free of a
//! stitched tensor costs one unmap per component. Under MoE's dynamic sizes
//! with a small `fragLimit`, this traffic explodes (the paper measures up to
//! 1500 VMM ops per iteration), reproducing GMLake's 56 % slowdown at
//! `fragLimit = 64 MiB` (§9.2).

use gpu_sim::Device;
use trace_gen::{TensorId, TensorMap};

use crate::caching::{round_size, CachingAllocator, CachingConfig, K_ROUND_LARGE, K_SMALL_SIZE};
use crate::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};

/// Virtual addresses of stitched spans live here, away from both driver
/// allocations (low) and VMM arena reservations (`1 << 46`).
const STITCH_VA_BASE: u64 = 1 << 44;

/// GMLake tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmLakeConfig {
    /// Minimum size of free blocks eligible for stitching, and of requests
    /// considered for stitching (the paper's `fragLimit`).
    pub frag_limit: u64,
    /// Base caching-allocator configuration (PyTorch 2.0 in the paper).
    pub base: CachingConfig,
}

impl Default for GmLakeConfig {
    fn default() -> Self {
        Self {
            frag_limit: 512 << 20,
            base: CachingConfig::torch_2_0(),
        }
    }
}

impl GmLakeConfig {
    /// The paper's MoE-tuned variant (`fragLimit = 64 MiB`).
    pub fn with_frag_limit(frag_limit: u64) -> Self {
        Self {
            frag_limit,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone)]
struct StitchedAlloc {
    /// Component block base addresses inside caching segments.
    components: Vec<u64>,
    granted: u64,
}

/// The GMLake allocator.
#[derive(Debug)]
pub struct GmLakeAllocator {
    config: GmLakeConfig,
    base: CachingAllocator,
    stitched: TensorMap<StitchedAlloc>,
    /// Plain allocations: tensor -> (addr, granted, small).
    plain: TensorMap<(u64, u64, bool)>,
    va_cursor: u64,
    stats: AllocatorStats,
}

impl GmLakeAllocator {
    /// Creates a GMLake allocator with the given configuration.
    pub fn new(config: GmLakeConfig) -> Self {
        Self {
            config,
            base: CachingAllocator::new(config.base),
            stitched: TensorMap::default(),
            plain: TensorMap::default(),
            va_cursor: STITCH_VA_BASE,
            stats: AllocatorStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GmLakeConfig {
        &self.config
    }

    /// Number of currently live stitched allocations.
    pub fn stitched_count(&self) -> usize {
        self.stitched.len()
    }

    /// Attempts to stitch free blocks (each ≥ `component_min`) into a span
    /// of `rounded` bytes: the span's virtual address and what it is made
    /// of, for the caller to record under its tensor.
    fn try_stitch(
        &mut self,
        dev: &mut Device,
        rounded: u64,
        component_min: u64,
    ) -> Option<(u64, StitchedAlloc)> {
        let mut candidates: Vec<(u64, u64)> = self
            .base
            .large_free_blocks()
            .into_iter()
            .filter(|&(_, size)| size >= component_min)
            .collect();
        // Largest blocks first minimizes the component count.
        candidates.sort_unstable_by_key(|&(_, size)| std::cmp::Reverse(size));
        let available: u64 = candidates.iter().map(|&(_, s)| s).sum();
        if available < rounded {
            return None;
        }
        let mut need = rounded;
        let mut components = Vec::new();
        let mut granted = 0;
        for (addr, size) in candidates {
            if need == 0 {
                break;
            }
            // Map at VMM granularity: the consumed piece is 2 MiB-rounded.
            let want = gpu_sim::align_up(need.min(size), K_ROUND_LARGE).min(size);
            let got = self.base.alloc_block_at(addr, want);
            components.push(addr);
            granted += got;
            need = need.saturating_sub(got);
        }
        debug_assert_eq!(need, 0, "sum checked above");
        // One VA reservation + one map per component.
        dev.vmm_charge_remap(components.len() as u64, 0, 1);
        let va = self.va_cursor;
        self.va_cursor += granted + K_ROUND_LARGE;
        self.stats.slow_path_events += 1;
        let stitched = StitchedAlloc {
            components,
            granted,
        };
        Some((va, stitched))
    }

    /// Records a stitched span as `tensor`'s allocation.
    fn finish_stitch(&mut self, tensor: TensorId, addr: u64, s: StitchedAlloc) -> Allocation {
        let granted = s.granted;
        self.stitched.insert(tensor, s);
        self.stats.on_alloc(granted);
        self.sync_reserved();
        Allocation { addr, granted }
    }

    fn sync_reserved(&mut self) {
        self.stats.set_reserved(self.base.stats().reserved);
    }
}

impl GpuAllocator for GmLakeAllocator {
    fn name(&self) -> String {
        "GMLake".into()
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        if !dev.supports_vmm() {
            return Err(AllocError::Internal("GMLake requires VMM support".into()));
        }
        let rounded = round_size(req.size);
        let small = rounded <= K_SMALL_SIZE;
        dev.advance_clock_ns(dev.latency().cache_hit_ns);

        // 1. Cache hit.
        if let Some((addr, granted)) = self.base.try_cached(rounded, small) {
            self.plain.insert(req.tensor, (addr, granted, small));
            self.stats.on_alloc(granted);
            self.sync_reserved();
            return Ok(Allocation { addr, granted });
        }
        // 2. Stitch large requests from fragLimit-sized free blocks.
        if !small && rounded >= self.config.frag_limit {
            if let Some((addr, s)) = self.try_stitch(dev, rounded, self.config.frag_limit) {
                return Ok(self.finish_stitch(req.tensor, addr, s));
            }
        }
        // 3. New segment; on OOM, last-ditch stitch with a relaxed
        //    component bound before surfacing the error.
        match self.base.alloc_in_new_segment(dev, rounded, small) {
            Ok((addr, granted)) => {
                self.plain.insert(req.tensor, (addr, granted, small));
                self.stats.on_alloc(granted);
                self.sync_reserved();
                Ok(Allocation { addr, granted })
            }
            Err(e) if e.is_oom() && !small => {
                match self.try_stitch(dev, rounded, crate::caching::K_LARGE_BUFFER) {
                    Some((addr, s)) => Ok(self.finish_stitch(req.tensor, addr, s)),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
        dev.advance_clock_ns(dev.latency().cache_hit_ns);
        if let Some(s) = self.stitched.remove(&tensor) {
            dev.vmm_charge_remap(0, s.components.len() as u64, 0);
            for addr in s.components {
                self.base.free_block_at(addr, false);
            }
            self.stats.on_free(s.granted);
            self.sync_reserved();
            return Ok(s.granted);
        }
        let (addr, granted, small) = self
            .plain
            .remove(&tensor)
            .ok_or(AllocError::UnknownTensor(tensor))?;
        self.base.free_block_at(addr, small);
        self.stats.on_free(granted);
        self.sync_reserved();
        Ok(granted)
    }

    fn stats(&self) -> AllocatorStats {
        let mut s = self.stats;
        s.slow_path_events += self.base.stats().slow_path_events;
        s
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

    /// Builds the classic stitch scenario: two large free blocks separated
    /// by a live tensor, then one request larger than either block.
    fn fragmented_setup(frag_limit: u64) -> (Device, GmLakeAllocator) {
        let mut d = dev(2 << 30);
        let mut a = GmLakeAllocator::new(GmLakeConfig::with_frag_limit(frag_limit));
        // Three 256 MiB tensors in three exact-size segments.
        for i in 0..3 {
            a.malloc(&mut d, &req(i, 256 << 20)).unwrap();
        }
        // Free the outer two: 512 MiB free, split across two segments.
        a.free(&mut d, TensorId(0)).unwrap();
        a.free(&mut d, TensorId(2)).unwrap();
        (d, a)
    }

    #[test]
    fn stitching_avoids_new_segments() {
        let (mut d, mut a) = fragmented_setup(64 << 20);
        let reserved_before = a.stats().reserved;
        // 500 MiB fits no single free block; stitching serves it in place.
        a.malloc(&mut d, &req(10, 500 << 20)).unwrap();
        assert_eq!(a.stitched_count(), 1);
        assert_eq!(
            a.stats().reserved,
            reserved_before,
            "no reserve growth thanks to stitching"
        );
        assert!(d.stats().vmm.maps >= 2, "one map per component");
    }

    #[test]
    fn plain_caching_path_without_fragmentation() {
        let mut d = dev(1 << 30);
        let mut a = GmLakeAllocator::new(GmLakeConfig::default());
        let x = a.malloc(&mut d, &req(0, 4 << 20)).unwrap();
        a.free(&mut d, TensorId(0)).unwrap();
        let y = a.malloc(&mut d, &req(1, 4 << 20)).unwrap();
        assert_eq!(x.addr, y.addr, "cache reuse identical to PyTorch");
        assert_eq!(a.stitched_count(), 0);
    }

    #[test]
    fn default_frag_limit_skips_small_fragments() {
        // With the stock 512 MiB fragLimit, 256 MiB blocks are not eligible:
        // the request falls through to a new segment.
        let (mut d, mut a) = fragmented_setup(512 << 20);
        let reserved_before = a.stats().reserved;
        a.malloc(&mut d, &req(10, 500 << 20)).unwrap();
        assert_eq!(a.stitched_count(), 0);
        assert!(a.stats().reserved > reserved_before);
    }

    #[test]
    fn stitched_free_returns_components_to_cache() {
        let (mut d, mut a) = fragmented_setup(64 << 20);
        a.malloc(&mut d, &req(10, 500 << 20)).unwrap();
        let unmaps_before = d.stats().vmm.unmaps;
        a.free(&mut d, TensorId(10)).unwrap();
        assert!(d.stats().vmm.unmaps > unmaps_before);
        assert_eq!(a.stitched_count(), 0);
        // Components are reusable: the same request stitches again.
        a.malloc(&mut d, &req(11, 500 << 20)).unwrap();
        assert_eq!(a.stitched_count(), 1);
    }

    #[test]
    fn cache_flush_keeps_segments_holding_stitch_components() {
        // Segments A, B, C of 256 MiB: a 500 MiB stitch takes all of A and
        // 244 MiB of C, B holds a live tensor; D is cached and empty.
        let (mut d, mut a) = fragmented_setup(64 << 20);
        a.malloc(&mut d, &req(10, 500 << 20)).unwrap();
        a.malloc(&mut d, &req(3, 256 << 20)).unwrap();
        a.free(&mut d, TensorId(3)).unwrap();
        assert_eq!(a.stats().reserved, 1024 << 20);
        // 1.5 GiB does not fit beside the 1 GiB reserved: the flush
        // releases D alone, and the retry still fails.
        let r = a.malloc(&mut d, &req(4, 1536 << 20));
        assert!(r.is_err_and(|e| e.is_oom()));
        assert_eq!(a.base.segment_count(), 3);
        // Freed, the components coalesce back into A and C, which the
        // next flush releases: the 1.5 GiB now fits beside B.
        a.free(&mut d, TensorId(10)).unwrap();
        a.malloc(&mut d, &req(5, 1536 << 20)).unwrap();
        assert_eq!(a.stats().reserved, (256 + 1536) << 20);
        assert_eq!(a.stitched_count(), 0);
    }

    #[test]
    fn oom_last_resort_stitch() {
        // Two 256 MiB segments, each pinned by a live 200 MiB tensor with a
        // 56 MiB hole. A 100 MiB request exceeds the device's 88 MiB of
        // unreserved memory, no segment is releasable (both pinned), but the
        // two holes — below fragLimit — are stitchable as a last resort.
        let mut d = dev(600 << 20);
        let mut a = GmLakeAllocator::new(GmLakeConfig::default());
        for i in 0..2 {
            a.malloc(&mut d, &req(i, 256 << 20)).unwrap();
        }
        for i in 0..2 {
            a.free(&mut d, TensorId(i)).unwrap();
        }
        for i in 0..2 {
            a.malloc(&mut d, &req(10 + i, 200 << 20)).unwrap();
        }
        assert_eq!(a.stats().reserved, 512 << 20);
        let r = a.malloc(&mut d, &req(20, 100 << 20));
        assert!(r.is_ok(), "last-resort stitch avoids OOM: {r:?}");
        assert_eq!(a.stitched_count(), 1);
    }

    #[test]
    fn vmm_less_platform_rejected() {
        let mut d = Device::with_latency(DeviceSpec::mi210_64g(), LatencyModel::zero());
        let mut a = GmLakeAllocator::new(GmLakeConfig::default());
        assert!(matches!(
            a.malloc(&mut d, &req(0, 1 << 20)),
            Err(AllocError::Internal(_))
        ));
    }
}
