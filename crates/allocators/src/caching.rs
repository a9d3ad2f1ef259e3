//! A faithful re-implementation of PyTorch's CUDA caching allocator.
//!
//! Mechanisms reproduced from `c10/cuda/CUDACachingAllocator.cpp`:
//!
//! * request rounding to 512 B ([`K_MIN_BLOCK_SIZE`]);
//! * a small pool (requests ≤ 1 MiB) carved from 2 MiB segments and a large
//!   pool carved from 20 MiB segments (requests ≥ 10 MiB get exact-size
//!   segments rounded to 2 MiB);
//! * best-fit over per-pool free lists ordered by (size, address);
//! * block splitting (small pool: remainder ≥ 512 B; large pool: remainder >
//!   1 MiB, subject to [`K_MAX_SPLIT_SIZE`]) and immediate coalescing on free;
//! * on `cudaMalloc` failure: optionally release cached fully-free segments
//!   large enough for the request (PyTorch ≥ 2.1), then flush the whole
//!   cache and retry, and only then surface the out-of-memory error.
//!
//! The allocator never returns segments to the driver on tensor frees — the
//! root cause of the reserved-but-unused fragmentation the paper measures.

use gpu_sim::{Device, DevicePtr};
use trace_gen::{TensorId, TensorMap};

use crate::blockpool::{AddrMap, BlockPool};
use crate::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};

/// Minimum block size / rounding granularity (512 B).
pub const K_MIN_BLOCK_SIZE: u64 = 512;
/// Blocks of at least this size are never split and only serve requests
/// of at least this size (`max_split_size_mb`): unlimited, as in stock
/// PyTorch — every preset ran with it, so it is a constant, not a knob.
pub const K_MAX_SPLIT_SIZE: u64 = u64::MAX;
/// Largest request served by the small pool (1 MiB).
pub const K_SMALL_SIZE: u64 = 1 << 20;
/// Segment size of the small pool (2 MiB).
pub const K_SMALL_BUFFER: u64 = 2 << 20;
/// Segment size of the large pool for requests < 10 MiB (20 MiB).
pub const K_LARGE_BUFFER: u64 = 20 << 20;
/// Requests at or above this size get exact-size segments (10 MiB).
pub const K_MIN_LARGE_ALLOC: u64 = 10 << 20;
/// Exact-size segments are rounded up to this multiple (2 MiB).
pub const K_ROUND_LARGE: u64 = 2 << 20;

/// PyTorch release presets the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TorchVersion {
    /// PyTorch 2.0 (GMLake's base).
    V20,
    /// PyTorch 2.3.
    V23,
    /// PyTorch 2.6 (H200 testbed).
    V26,
}

impl TorchVersion {
    /// Display label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            TorchVersion::V20 => "Torch 2.0",
            TorchVersion::V23 => "Torch 2.3",
            TorchVersion::V26 => "Torch 2.6",
        }
    }
}

/// Tunables of the caching allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachingConfig {
    /// Version preset (affects OOM-retry behaviour).
    pub version: TorchVersion,
    /// Before a full cache flush on `cudaMalloc` failure, release cached
    /// fully-free segments big enough for the request (PyTorch ≥ 2.1).
    pub release_available_before_flush: bool,
}

impl CachingConfig {
    /// Stock PyTorch 2.0 configuration.
    pub fn torch_2_0() -> Self {
        Self {
            version: TorchVersion::V20,
            release_available_before_flush: false,
        }
    }

    /// Stock PyTorch 2.3 configuration.
    pub fn torch_2_3() -> Self {
        Self {
            version: TorchVersion::V23,
            release_available_before_flush: true,
        }
    }

    /// Stock PyTorch 2.6 configuration.
    pub fn torch_2_6() -> Self {
        Self {
            version: TorchVersion::V26,
            release_available_before_flush: true,
        }
    }
}

/// Rounds a request to the allocator granularity.
pub fn round_size(size: u64) -> u64 {
    if size < K_MIN_BLOCK_SIZE {
        K_MIN_BLOCK_SIZE
    } else {
        K_MIN_BLOCK_SIZE * size.div_ceil(K_MIN_BLOCK_SIZE)
    }
}

/// Segment size chosen for a rounded request (PyTorch `get_allocation_size`).
pub fn allocation_size(rounded: u64) -> u64 {
    if rounded <= K_SMALL_SIZE {
        K_SMALL_BUFFER
    } else if rounded < K_MIN_LARGE_ALLOC {
        K_LARGE_BUFFER
    } else {
        K_ROUND_LARGE * rounded.div_ceil(K_ROUND_LARGE)
    }
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    ptr: DevicePtr,
    size: u64,
    small: bool,
}

/// PyTorch-style caching allocator.
#[derive(Debug)]
pub struct CachingAllocator {
    config: CachingConfig,
    small_pool: BlockPool,
    large_pool: BlockPool,
    /// Segment registry, keyed by region id (== base address). Only the
    /// slow paths read it: a cache hit or a free touches the pools alone.
    segments: AddrMap<Segment>,
    /// Live tensors: tensor -> (block addr, granted, small pool?).
    live: TensorMap<(u64, u64, bool)>,
    stats: AllocatorStats,
}

impl CachingAllocator {
    /// Creates an allocator with the given configuration.
    pub fn new(config: CachingConfig) -> Self {
        Self {
            config,
            small_pool: BlockPool::new(),
            large_pool: BlockPool::new(),
            segments: AddrMap::default(),
            live: TensorMap::default(),
            stats: AllocatorStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CachingConfig {
        &self.config
    }

    fn pool(&mut self, small: bool) -> &mut BlockPool {
        if small {
            &mut self.small_pool
        } else {
            &mut self.large_pool
        }
    }

    /// Whether no block of the segment at `region` is allocated: then its
    /// blocks have all coalesced into one free block spanning it.
    fn segment_is_free(&self, region: u64, seg: &Segment) -> bool {
        let pool = if seg.small {
            &self.small_pool
        } else {
            &self.large_pool
        };
        pool.get(region)
            .is_some_and(|b| !b.allocated && b.size == seg.size)
    }

    fn split_pred(small: bool, rounded: u64) -> impl Fn(u64) -> bool {
        move |remaining: u64| {
            if small {
                remaining >= K_MIN_BLOCK_SIZE
            } else {
                rounded < K_MAX_SPLIT_SIZE && remaining > K_SMALL_SIZE
            }
        }
    }

    /// Tries to serve `rounded` bytes from cached blocks only. Returns the
    /// block address and granted size.
    pub(crate) fn try_cached(&mut self, rounded: u64, small: bool) -> Option<(u64, u64)> {
        let pool = self.pool(small);
        let (addr, _) = pool.best_fit(rounded, K_MAX_SPLIT_SIZE)?;
        let granted = pool.allocate(addr, rounded, Self::split_pred(small, rounded));
        Some((addr, granted))
    }

    /// Reserves a new segment sized for `rounded` and allocates from it,
    /// applying PyTorch's OOM-retry ladder on device failure.
    pub(crate) fn alloc_in_new_segment(
        &mut self,
        dev: &mut Device,
        rounded: u64,
        small: bool,
    ) -> Result<(u64, u64), AllocError> {
        let seg_size = if small {
            K_SMALL_BUFFER
        } else {
            allocation_size(rounded)
        };
        let ptr = match dev.cuda_malloc(seg_size) {
            Ok(p) => p,
            Err(e) if e.is_oom() => {
                if self.config.release_available_before_flush {
                    self.release_available(dev, seg_size);
                }
                match dev.cuda_malloc(seg_size) {
                    Ok(p) => p,
                    Err(e2) if e2.is_oom() => {
                        self.release_cached_blocks(dev);
                        dev.cuda_malloc(seg_size).map_err(|e3| {
                            AllocError::from_device(e3, rounded, self.stats.reserved)
                        })?
                    }
                    Err(e2) => {
                        return Err(AllocError::from_device(e2, rounded, self.stats.reserved))
                    }
                }
            }
            Err(e) => return Err(AllocError::from_device(e, rounded, self.stats.reserved)),
        };
        let region = ptr.addr();
        self.segments.insert(
            region,
            Segment {
                ptr,
                size: seg_size,
                small,
            },
        );
        self.pool(small).add_region(ptr.addr(), seg_size, region);
        self.stats.slow_path_events += 1;
        self.refresh_reserved();
        let (addr, granted) = self
            .try_cached(rounded, small)
            .expect("fresh segment fits the request");
        Ok((addr, granted))
    }

    /// Frees a block by address (shared with GMLake's stitch components).
    pub(crate) fn free_block_at(&mut self, addr: u64, small: bool) {
        self.pool(small).free(addr);
    }

    /// Free blocks of the large pool, for stitching: `(addr, size)`.
    pub(crate) fn large_free_blocks(&self) -> Vec<(u64, u64)> {
        self.large_pool
            .iter_free()
            .map(|(addr, size, _)| (addr, size))
            .collect()
    }

    /// Allocates `want` bytes from the free large-pool block at `addr`
    /// (stitch-component consumption). Returns the granted size.
    pub(crate) fn alloc_block_at(&mut self, addr: u64, want: u64) -> u64 {
        self.large_pool
            .allocate(addr, want, Self::split_pred(false, want))
    }

    /// Releases every fully-free segment back to the driver (PyTorch's
    /// `release_cached_blocks`, the OOM-retry / `empty_cache` path).
    pub fn release_cached_blocks(&mut self, dev: &mut Device) {
        let empty: Vec<u64> = self
            .segments
            .iter()
            .filter(|&(&r, s)| self.segment_is_free(r, s))
            .map(|(&r, _)| r)
            .collect();
        for region in empty {
            self.release_segment(dev, region);
        }
        self.refresh_reserved();
    }

    /// Releases fully-free segments of at least `need` bytes, smallest
    /// sufficient first (PyTorch's `release_available_cached_blocks`).
    fn release_available(&mut self, dev: &mut Device, need: u64) {
        let mut candidates: Vec<(u64, u64)> = self
            .segments
            .iter()
            .filter(|&(&r, s)| s.size >= need && self.segment_is_free(r, s))
            .map(|(&r, s)| (s.size, r))
            .collect();
        candidates.sort_unstable();
        if let Some(&(_, region)) = candidates.first() {
            self.release_segment(dev, region);
            self.refresh_reserved();
        }
    }

    fn release_segment(&mut self, dev: &mut Device, region: u64) {
        let seg = self.segments.remove(&region).expect("known segment");
        // A fully-free segment has exactly one free block spanning it.
        let blk = self.pool(seg.small).take_region(region);
        debug_assert_eq!(blk.size, seg.size, "segment fully coalesced");
        dev.cuda_free(seg.ptr).expect("segment pointer is live");
    }

    fn refresh_reserved(&mut self) {
        let reserved: u64 = self.segments.values().map(|s| s.size).sum();
        self.stats.set_reserved(reserved);
    }

    /// Number of live segments (test/diagnostic helper).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

impl GpuAllocator for CachingAllocator {
    fn name(&self) -> String {
        self.config.version.label().to_string()
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        let rounded = round_size(req.size);
        let small = rounded <= K_SMALL_SIZE;
        dev.advance_clock_ns(dev.latency().cache_hit_ns);
        let (addr, granted) = match self.try_cached(rounded, small) {
            Some(hit) => hit,
            None => self.alloc_in_new_segment(dev, rounded, small)?,
        };
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
        self.free_block_at(addr, small);
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
    fn rounding_matches_pytorch() {
        assert_eq!(round_size(1), 512);
        assert_eq!(round_size(512), 512);
        assert_eq!(round_size(513), 1024);
        assert_eq!(allocation_size(round_size(100)), K_SMALL_BUFFER);
        assert_eq!(allocation_size(2 << 20), K_LARGE_BUFFER);
        assert_eq!(allocation_size(11 << 20), 12 << 20);
        assert_eq!(allocation_size(12 << 20), 12 << 20);
    }

    #[test]
    fn small_requests_share_a_2mib_segment() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        for i in 0..4 {
            a.malloc(&mut d, &req(i, 1000)).unwrap();
        }
        assert_eq!(a.segment_count(), 1);
        assert_eq!(a.stats().reserved, K_SMALL_BUFFER);
        assert_eq!(a.stats().allocated, 4 * 1024);
    }

    #[test]
    fn medium_requests_get_20mib_segments() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        a.malloc(&mut d, &req(0, 2 << 20)).unwrap();
        assert_eq!(a.stats().reserved, K_LARGE_BUFFER);
        // A second medium tensor fits the same segment.
        a.malloc(&mut d, &req(1, 2 << 20)).unwrap();
        assert_eq!(a.segment_count(), 1);
    }

    #[test]
    fn cached_blocks_are_reused_after_free() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        let first = a.malloc(&mut d, &req(0, 4 << 20)).unwrap();
        a.free(&mut d, TensorId(0)).unwrap();
        let second = a.malloc(&mut d, &req(1, 4 << 20)).unwrap();
        assert_eq!(first.addr, second.addr, "block reused from cache");
        assert_eq!(a.stats().reserved, K_LARGE_BUFFER, "no extra segment");
        assert_eq!(d.stats().num_mallocs, 1);
    }

    #[test]
    fn interleaved_lifetimes_fragment_the_cache() {
        // The Fig. 1(a) scenario: free space exists but is scattered, so a
        // larger request forces a new segment.
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        // Fill one 20 MiB segment with alternating 2 MiB tensors.
        for i in 0..10 {
            a.malloc(&mut d, &req(i, 2 << 20)).unwrap();
        }
        assert_eq!(a.segment_count(), 1);
        // Free every other tensor: 10 MiB free, but fragmented.
        for i in (0..10).step_by(2) {
            a.free(&mut d, TensorId(i)).unwrap();
        }
        let before = a.stats().reserved;
        // An 8 MiB request cannot fit any 2 MiB hole -> new segment.
        a.malloc(&mut d, &req(100, 8 << 20)).unwrap();
        assert!(a.stats().reserved > before, "fragmentation grew reserve");
        assert_eq!(a.segment_count(), 2);
    }

    #[test]
    fn oom_flushes_cache_and_retries() {
        let mut d = dev(64 << 20);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_0());
        // Reserve 3 x 18 MiB exact-size segments, then free them (cached).
        for i in 0..3 {
            a.malloc(&mut d, &req(i, 18 << 20)).unwrap();
        }
        for i in 0..3 {
            a.free(&mut d, TensorId(i)).unwrap();
        }
        assert_eq!(a.stats().reserved, 54 << 20);
        // 40 MiB exact segment only fits after the cache is flushed.
        let alloc = a.malloc(&mut d, &req(10, 40 << 20));
        assert!(alloc.is_ok(), "flush-and-retry succeeds: {alloc:?}");
        assert_eq!(a.stats().allocated, 40 << 20);
    }

    #[test]
    fn oom_with_pinned_blocks_is_fatal() {
        let mut d = dev(64 << 20);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        // Pin 3 segments with one live tensor each.
        for i in 0..3 {
            a.malloc(&mut d, &req(i, 18 << 20)).unwrap();
        }
        let e = a.malloc(&mut d, &req(10, 40 << 20)).unwrap_err();
        assert!(e.is_oom());
        // Training-visible state is intact: frees still work.
        a.free(&mut d, TensorId(0)).unwrap();
    }

    #[test]
    fn exact_size_segments_round_to_2mib() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        a.malloc(&mut d, &req(0, (10 << 20) + 5)).unwrap();
        assert_eq!(a.stats().reserved, 12 << 20);
    }

    #[test]
    fn split_remainder_is_reusable() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        a.malloc(&mut d, &req(0, 4 << 20)).unwrap(); // 20 MiB segment, 16 MiB left
        a.malloc(&mut d, &req(1, 14 << 20)).unwrap(); // fits the remainder
        assert_eq!(a.segment_count(), 1);
    }

    #[test]
    fn peak_reserved_survives_flush() {
        let mut d = dev(256 << 20);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_3());
        a.malloc(&mut d, &req(0, 100 << 20)).unwrap();
        a.free(&mut d, TensorId(0)).unwrap();
        a.release_cached_blocks(&mut d);
        assert_eq!(a.stats().reserved, 0);
        assert_eq!(a.stats().peak_reserved, 100 << 20);
    }

    #[test]
    fn stitch_component_api_roundtrip() {
        let mut d = dev(1 << 30);
        let mut a = CachingAllocator::new(CachingConfig::torch_2_0());
        a.malloc(&mut d, &req(0, 8 << 20)).unwrap();
        a.free(&mut d, TensorId(0)).unwrap();
        let blocks = a.large_free_blocks();
        assert!(!blocks.is_empty());
        let (addr, size) = blocks[blocks.len() - 1];
        let granted = a.alloc_block_at(addr, size);
        assert_eq!(granted, size);
        // While consumed, the segment is not releasable.
        a.release_cached_blocks(&mut d);
        assert!(a.stats().reserved > 0);
        a.free_block_at(addr, false);
        a.release_cached_blocks(&mut d);
        assert_eq!(a.stats().reserved, 0);
    }
}
