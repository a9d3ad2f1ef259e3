//! The simulated GPU device: capacity accounting, `cudaMalloc`/`cudaFree`,
//! the VMM API, and the simulated clock.
//!
//! # Modelling note
//!
//! Real GPU physical memory is page-based and does not fragment: `cudaMalloc`
//! fails only when the *byte count* is exhausted, and each call returns a
//! fresh virtual address. All fragmentation the STAlloc paper measures lives
//! inside the framework allocator's reserved segments (reserved-but-unused
//! bytes), not in the driver. The device therefore tracks physical usage as a
//! counter and hands out monotonically growing virtual addresses; the
//! interesting address arithmetic happens in the `allocators` and
//! `stalloc-core` crates on top.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::clock::{Clock, LatencyModel};
use crate::error::{DeviceError, DeviceResult};
use crate::phys::DevicePtr;
use crate::vmm::{PhysHandle, VirtAddr, VirtualRange, Vmm, VmmStats};
use crate::{DRIVER_ALIGNMENT, VMM_GRANULARITY};

/// Static description of a GPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. `"NVIDIA A800-80G"`.
    pub name: String,
    /// Usable memory capacity in bytes (total minus runtime/driver overhead).
    pub capacity: u64,
    /// Peak dense compute throughput in TFLOPS (bf16), used by the
    /// throughput model in the harness.
    pub peak_tflops: f64,
    /// Allocation alignment of the driver.
    pub alignment: u64,
    /// Whether the platform exposes the VMM API (GMLake requires it; the
    /// paper notes it is unavailable on their AMD platform's stack).
    pub supports_vmm: bool,
}

impl DeviceSpec {
    /// NVIDIA A800 80 GB (the paper's single-node testbed).
    ///
    /// ~1.5 GiB is held by the CUDA context and framework runtime, leaving
    /// ~78.5 GiB usable, matching the reserved-memory headroom the paper's
    /// configurations exhibit.
    pub fn a800_80g() -> Self {
        Self {
            name: "NVIDIA A800-80G".into(),
            capacity: 78 * (1 << 30) + (1 << 29),
            peak_tflops: 312.0,
            alignment: DRIVER_ALIGNMENT,
            supports_vmm: true,
        }
    }

    /// NVIDIA H200 141 GB (the paper's scalability testbed).
    pub fn h200_141g() -> Self {
        Self {
            name: "NVIDIA H200-141G".into(),
            capacity: 139 * (1 << 30),
            peak_tflops: 989.0,
            alignment: DRIVER_ALIGNMENT,
            supports_vmm: true,
        }
    }

    /// AMD MI210 64 GB (the paper's AMD testbed; no VMM / GMLake support).
    pub fn mi210_64g() -> Self {
        Self {
            name: "AMD MI210-64G".into(),
            capacity: 63 * (1 << 30),
            peak_tflops: 181.0,
            alignment: DRIVER_ALIGNMENT,
            supports_vmm: false,
        }
    }

    /// A small synthetic device, convenient for tests.
    pub fn test_device(capacity: u64) -> Self {
        Self {
            name: "TestGPU".into(),
            capacity,
            peak_tflops: 100.0,
            alignment: DRIVER_ALIGNMENT,
            supports_vmm: true,
        }
    }
}

/// Snapshot of device-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Physical bytes currently in use (cudaMalloc + VMM handles).
    pub in_use: u64,
    /// High-water mark of `in_use`.
    pub peak_in_use: u64,
    /// Number of `cudaMalloc` calls.
    pub num_mallocs: u64,
    /// Number of `cudaFree` calls.
    pub num_frees: u64,
    /// Simulated time spent inside driver calls, nanoseconds.
    pub driver_time_ns: u64,
    /// VMM-layer statistics.
    pub vmm: VmmStats,
}

impl DeviceStats {
    /// Bytes currently free on the device.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.in_use
    }
}

/// A simulated GPU device.
///
/// Owns the physical-byte budget shared by `cudaMalloc` and the VMM API, the
/// simulated clock, and all operation counters.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    clock: Clock,
    latency: LatencyModel,
    /// Live cudaMalloc allocations: va -> size.
    live: HashMap<u64, u64>,
    va_cursor: u64,
    malloc_in_use: u64,
    peak_in_use: u64,
    num_mallocs: u64,
    num_frees: u64,
    driver_time_ns: u64,
    vmm: Vmm,
}

impl Device {
    /// Creates a device from a spec with the default latency model.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_latency(spec, LatencyModel::default())
    }

    /// Creates a device with an explicit latency model.
    pub fn with_latency(spec: DeviceSpec, latency: LatencyModel) -> Self {
        Self {
            spec,
            clock: Clock::new(),
            latency,
            live: HashMap::new(),
            va_cursor: DRIVER_ALIGNMENT, // keep null distinct
            malloc_in_use: 0,
            peak_in_use: 0,
            num_mallocs: 0,
            num_frees: 0,
            driver_time_ns: 0,
            vmm: Vmm::new(VMM_GRANULARITY),
        }
    }

    /// The device's static description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Read access to the simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Advances the simulated clock (used by the harness for compute time).
    pub fn advance_clock_ns(&mut self, ns: u64) {
        self.clock.advance_ns(ns);
    }

    /// Total physical bytes in use: cudaMalloc allocations plus VMM handles.
    pub fn in_use(&self) -> u64 {
        self.malloc_in_use + self.vmm.phys_in_use()
    }

    /// Bytes still available for allocation.
    pub fn free_bytes(&self) -> u64 {
        self.spec.capacity - self.in_use()
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            capacity: self.spec.capacity,
            in_use: self.in_use(),
            peak_in_use: self.peak_in_use,
            num_mallocs: self.num_mallocs,
            num_frees: self.num_frees,
            driver_time_ns: self.driver_time_ns,
            vmm: self.vmm.stats(),
        }
    }

    fn charge(&mut self, ns: u64) {
        self.clock.advance_ns(ns);
        self.driver_time_ns += ns;
    }

    fn check_budget(&self, size: u64) -> DeviceResult<()> {
        if self.in_use() + size > self.spec.capacity {
            Err(DeviceError::OutOfMemory {
                requested: size,
                free: self.free_bytes(),
                // Physical memory is paged: any free byte is usable, so the
                // largest "block" is simply the free byte count.
                largest_free_block: self.free_bytes(),
            })
        } else {
            Ok(())
        }
    }

    fn note_usage(&mut self) {
        self.peak_in_use = self.peak_in_use.max(self.in_use());
    }

    /// Simulated `cudaMalloc`: debits the physical budget and returns a fresh
    /// virtual address.
    pub fn cuda_malloc(&mut self, size: u64) -> DeviceResult<DevicePtr> {
        let size = crate::align_up(size.max(1), self.spec.alignment);
        self.charge(self.latency.cuda_malloc_ns);
        self.check_budget(size)?;
        let va = self.va_cursor;
        self.va_cursor += size + self.spec.alignment; // guard gap
        self.live.insert(va, size);
        self.malloc_in_use += size;
        self.num_mallocs += 1;
        self.note_usage();
        Ok(DevicePtr(va))
    }

    /// Simulated `cudaFree`.
    pub fn cuda_free(&mut self, ptr: DevicePtr) -> DeviceResult<u64> {
        self.charge(self.latency.cuda_free_ns);
        let size = self
            .live
            .remove(&ptr.0)
            .ok_or(DeviceError::InvalidPointer(ptr.0))?;
        self.malloc_in_use -= size;
        self.num_frees += 1;
        Ok(size)
    }

    /// Returns the size of a live cudaMalloc allocation.
    pub fn allocation_len(&self, ptr: DevicePtr) -> Option<u64> {
        self.live.get(&ptr.0).copied()
    }

    // ----- VMM API (thin wrappers that add budget checks + latency) -----

    /// Returns `true` if the platform supports the VMM API.
    pub fn supports_vmm(&self) -> bool {
        self.spec.supports_vmm
    }

    /// `cuMemCreate`: allocates a physical handle.
    pub fn vmm_create(&mut self, size: u64) -> DeviceResult<PhysHandle> {
        self.require_vmm()?;
        self.charge(self.latency.vmm_create_ns);
        let rounded = self.vmm.round_to_granularity(size);
        self.check_budget(rounded)?;
        let h = self.vmm.mem_create(size);
        self.note_usage();
        Ok(h)
    }

    /// `cuMemAddressReserve`: reserves virtual address space.
    pub fn vmm_reserve(&mut self, size: u64) -> DeviceResult<VirtualRange> {
        self.require_vmm()?;
        self.charge(self.latency.vmm_reserve_ns);
        Ok(self.vmm.address_reserve(size))
    }

    /// `cuMemMap` + `cuMemSetAccess`.
    pub fn vmm_map(&mut self, va: VirtAddr, handle: PhysHandle) -> DeviceResult<()> {
        self.require_vmm()?;
        self.charge(self.latency.vmm_map_ns);
        self.vmm.mem_map(va, handle)
    }

    /// `cuMemUnmap`.
    pub fn vmm_unmap(&mut self, va: VirtAddr) -> DeviceResult<PhysHandle> {
        self.require_vmm()?;
        self.charge(self.latency.vmm_unmap_ns);
        self.vmm.mem_unmap(va)
    }

    /// `cuMemRelease`.
    pub fn vmm_release(&mut self, handle: PhysHandle) -> DeviceResult<u64> {
        self.require_vmm()?;
        self.charge(self.latency.vmm_release_ns);
        self.vmm.mem_release(handle)
    }

    /// Modeling hook: charges the latency and op-counts of address-remapping
    /// operations (as performed by virtual-memory-stitching allocators such
    /// as GMLake) without moving physical bytes in the simulator.
    pub fn vmm_charge_remap(&mut self, maps: u64, unmaps: u64, reserves: u64) {
        let ns = maps * self.latency.vmm_map_ns
            + unmaps * self.latency.vmm_unmap_ns
            + reserves * self.latency.vmm_reserve_ns;
        self.charge(ns);
        self.vmm.charge_remap(maps, unmaps, reserves);
    }

    fn require_vmm(&self) -> DeviceResult<()> {
        if self.spec.supports_vmm {
            Ok(())
        } else {
            Err(DeviceError::InvalidHandle(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(cap: u64) -> Device {
        Device::with_latency(DeviceSpec::test_device(cap), LatencyModel::zero())
    }

    #[test]
    fn budget_is_shared_between_malloc_and_vmm() {
        let mut d = dev(8 << 20);
        let _p = d.cuda_malloc(4 << 20).unwrap();
        // Only 4 MiB left: a 6 MiB VMM create must fail.
        assert!(d.vmm_create(6 << 20).unwrap_err().is_oom());
        let h = d.vmm_create(4 << 20).unwrap();
        assert_eq!(d.free_bytes(), 0);
        // And now cudaMalloc fails.
        assert!(d.cuda_malloc(512).unwrap_err().is_oom());
        d.vmm_release(h).unwrap();
        assert_eq!(d.free_bytes(), 4 << 20);
    }

    #[test]
    fn capacity_oom_does_not_depend_on_order() {
        // Physical memory is paged: freeing anything makes those bytes
        // usable again regardless of allocation pattern.
        let mut d = dev(4 << 20);
        let a = d.cuda_malloc(1 << 20).unwrap();
        let _b = d.cuda_malloc(1 << 20).unwrap();
        let _c = d.cuda_malloc(1 << 20).unwrap();
        d.cuda_free(a).unwrap();
        // 2 MiB minus guard rounding is free; 1.5 MiB fits.
        assert!(d.cuda_malloc(3 << 19).is_ok());
    }

    #[test]
    fn fresh_virtual_addresses_never_alias() {
        let mut d = dev(16 << 20);
        let a = d.cuda_malloc(1 << 20).unwrap();
        d.cuda_free(a).unwrap();
        let b = d.cuda_malloc(1 << 20).unwrap();
        assert_ne!(a, b, "driver VAs are not recycled in the simulator");
    }

    #[test]
    fn latency_charged_per_operation() {
        let spec = DeviceSpec::test_device(16 << 20);
        let mut d = Device::with_latency(
            spec,
            LatencyModel {
                cuda_malloc_ns: 10,
                cuda_free_ns: 20,
                ..LatencyModel::zero()
            },
        );
        let p = d.cuda_malloc(512).unwrap();
        d.cuda_free(p).unwrap();
        assert_eq!(d.clock().now_ns(), 30);
        assert_eq!(d.stats().driver_time_ns, 30);
    }

    #[test]
    fn vmm_unavailable_on_amd_preset() {
        let mut d = Device::with_latency(DeviceSpec::mi210_64g(), LatencyModel::zero());
        assert!(!d.supports_vmm());
        assert!(d.vmm_create(1 << 20).is_err());
    }

    #[test]
    fn peak_tracks_combined_usage() {
        let mut d = dev(64 << 20);
        let p = d.cuda_malloc(8 << 20).unwrap();
        let h = d.vmm_create(8 << 20).unwrap();
        d.cuda_free(p).unwrap();
        d.vmm_release(h).unwrap();
        assert_eq!(d.stats().peak_in_use, 16 << 20);
        assert_eq!(d.in_use(), 0);
    }
}
