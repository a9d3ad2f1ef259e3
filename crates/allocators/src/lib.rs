//! Framework-level GPU memory allocators.
//!
//! This crate implements the baselines the STAlloc paper compares against,
//! all against the simulated device in `gpu-sim`:
//!
//! * [`NativeAllocator`] — one `cudaMalloc`/`cudaFree` per request; the
//!   allocator STAlloc's profiler uses (fragmentation-free reference).
//! * [`CachingAllocator`] — a faithful re-implementation of PyTorch's CUDA
//!   caching allocator (512 B rounding, small/large pools, 2/20 MiB
//!   segments, best-fit with split and coalesce, cache flush + retry on
//!   OOM), with PyTorch 2.0 / 2.3 presets.
//! * [`ExpandableAllocator`] — PyTorch `expandable_segments:True`:
//!   VMM-backed growable arenas that avoid segment-boundary fragmentation at
//!   the cost of map/unmap driver traffic.
//! * [`GmLakeAllocator`] — GMLake: the caching allocator extended with
//!   virtual-memory stitching of large free blocks (`fragLimit` threshold).
//!
//! All allocators implement [`GpuAllocator`], the interface the replay
//! harness and STAlloc's runtime drive.

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

pub mod blockpool;
pub mod caching;
pub mod expandable;
pub mod gmlake;
pub mod native;

use gpu_sim::{Device, DeviceError};
use trace_gen::{PhaseId, PhaseInfo, TensorId};

pub use caching::{CachingAllocator, CachingConfig, TorchVersion};
pub use expandable::ExpandableAllocator;
pub use gmlake::{GmLakeAllocator, GmLakeConfig};
pub use native::NativeAllocator;

/// A granted allocation: a device-unique address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base address (device-unique across all allocators and pools).
    pub addr: u64,
    /// Bytes actually reserved for this tensor (>= requested size).
    pub granted: u64,
}

/// Errors surfaced by framework allocators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The device ran out of memory even after cache flushing — the
    /// training-visible OOM.
    OutOfMemory {
        /// Requested size in bytes.
        requested: u64,
        /// Bytes reserved by this allocator at failure time.
        reserved: u64,
        /// Bytes free on the device at failure time.
        device_free: u64,
    },
    /// The tensor id passed to `free` is unknown.
    UnknownTensor(TensorId),
    /// Internal invariant violation (a bug — never expected).
    Internal(String),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                reserved,
                device_free,
            } => write!(
                f,
                "allocator OOM: requested {requested} B (reserved {reserved} B, \
                 device free {device_free} B)"
            ),
            AllocError::UnknownTensor(t) => write!(f, "unknown tensor {t:?}"),
            AllocError::Internal(s) => write!(f, "allocator bug: {s}"),
        }
    }
}

impl std::error::Error for AllocError {}

impl AllocError {
    /// Builds the OOM variant from a device error and allocator state.
    pub fn from_device(e: DeviceError, requested: u64, reserved: u64) -> Self {
        match e {
            DeviceError::OutOfMemory { free, .. } => AllocError::OutOfMemory {
                requested,
                reserved,
                device_free: free,
            },
            other => AllocError::Internal(other.to_string()),
        }
    }

    /// Returns `true` for the OOM variant.
    pub fn is_oom(&self) -> bool {
        matches!(self, AllocError::OutOfMemory { .. })
    }
}

/// One allocation request as the allocator sees it at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// Tensor identity (used as the free key).
    pub tensor: TensorId,
    /// Requested bytes (exact, pre-rounding).
    pub size: u64,
    /// Whether the request comes from a dynamic (MoE expert) layer — known
    /// at runtime from the module hooks.
    pub dynamic: bool,
}

/// Byte accounting common to all allocators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Bytes currently reserved from the device (segments, pools, mapped
    /// ranges).
    pub reserved: u64,
    /// High-water mark of `reserved` — the paper's `M_r`.
    pub peak_reserved: u64,
    /// Bytes currently granted to live tensors (after rounding).
    pub allocated: u64,
    /// High-water mark of `allocated`.
    pub peak_allocated: u64,
    /// Requests that took a slow path (new segment, stitch, fallback).
    pub slow_path_events: u64,
}

impl AllocatorStats {
    /// Records a grant of `granted` bytes.
    pub fn on_alloc(&mut self, granted: u64) {
        self.allocated += granted;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
    }

    /// Records the release of `granted` bytes.
    pub fn on_free(&mut self, granted: u64) {
        self.allocated -= granted;
    }

    /// Updates the reserved byte count, tracking the peak.
    pub fn set_reserved(&mut self, reserved: u64) {
        self.reserved = reserved;
        self.peak_reserved = self.peak_reserved.max(reserved);
    }
}

/// The interface every framework allocator implements.
///
/// The replay harness calls `malloc`/`free` for each trace event and the
/// notification hooks at phase/module boundaries (the same information the
/// real STAlloc obtains from PyTorch hooks; baselines ignore them).
pub trait GpuAllocator {
    /// Human-readable allocator name (used in experiment tables).
    fn name(&self) -> String;

    /// Serves an allocation request.
    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError>;

    /// Frees a previously allocated tensor, returning the granted size.
    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError>;

    /// Current byte accounting.
    fn stats(&self) -> AllocatorStats;

    /// Notification: a new training iteration begins.
    fn iteration_begin(&mut self, _dev: &mut Device, _iter: u32) {}

    /// Notification: a new computation phase begins.
    fn phase_begin(&mut self, _dev: &mut Device, _phase: PhaseId, _info: &PhaseInfo) {}

    /// Notification: execution enters a module.
    fn module_enter(&mut self, _dev: &mut Device, _module: trace_gen::ModuleId) {}

    /// Notification: execution leaves a module.
    fn module_exit(&mut self, _dev: &mut Device, _module: trace_gen::ModuleId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_error_display_and_oom() {
        let e = AllocError::OutOfMemory {
            requested: 100,
            reserved: 200,
            device_free: 50,
        };
        assert!(e.is_oom());
        assert!(e.to_string().contains("100"));
        assert!(!AllocError::UnknownTensor(TensorId(1)).is_oom());
    }

    #[test]
    fn stats_track_peaks() {
        let mut s = AllocatorStats::default();
        s.on_alloc(100);
        s.on_alloc(50);
        s.on_free(100);
        assert_eq!(s.allocated, 50);
        assert_eq!(s.peak_allocated, 150);
        s.set_reserved(1000);
        s.set_reserved(400);
        assert_eq!(s.reserved, 400);
        assert_eq!(s.peak_reserved, 1000);
    }
}
