//! Simulated GPU device memory for allocator research.
//!
//! The STAlloc paper evaluates GPU memory allocators on real NVIDIA/AMD
//! devices through the CUDA driver API. This crate substitutes that substrate
//! with a byte-accurate *address-space simulator*: allocators interact with a
//! [`Device`] exactly as they would with `cudaMalloc`/`cudaFree` and the CUDA
//! virtual-memory-management (VMM) API, and the device tracks capacity,
//! alignment, fragmentation-relevant address arithmetic, operation counts and
//! simulated latency.
//!
//! Fragmentation is a property of address arithmetic, not of silicon, so
//! every memory-efficiency number in the paper's evaluation can be reproduced
//! on this simulator without a GPU.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::{Device, DeviceSpec};
//!
//! let mut dev = Device::new(DeviceSpec::a800_80g());
//! let ptr = dev.cuda_malloc(1 << 20).expect("80 GiB device fits 1 MiB");
//! assert_eq!(dev.stats().in_use, 1 << 20);
//! dev.cuda_free(ptr).unwrap();
//! assert_eq!(dev.stats().in_use, 0);
//! ```

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod clock;
mod device;
mod error;
mod phys;
mod vmm;

pub use clock::{Clock, LatencyModel};
pub use device::{Device, DeviceSpec, DeviceStats};
pub use error::{DeviceError, DeviceResult};
pub use phys::{DevicePtr, PhysMemory};
pub use vmm::{PhysHandle, VirtAddr, VirtualRange, Vmm, VmmStats};

/// Default allocation alignment of the simulated driver, matching the 512 B
/// granularity `cudaMalloc` guarantees in practice.
pub const DRIVER_ALIGNMENT: u64 = 512;

/// Physical-chunk granularity of the simulated VMM API (CUDA uses 2 MiB).
pub const VMM_GRANULARITY: u64 = 2 << 20;

/// Rounds `size` up to the next multiple of `align`.
///
/// `align` must be a power of two and non-zero.
///
/// # Examples
///
/// ```
/// assert_eq!(gpu_sim::align_up(1, 512), 512);
/// assert_eq!(gpu_sim::align_up(512, 512), 512);
/// assert_eq!(gpu_sim::align_up(513, 512), 1024);
/// ```
pub fn align_up(size: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (size + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 512), 0);
        assert_eq!(align_up(1, 2), 2);
        assert_eq!(align_up(4096, 512), 4096);
        assert_eq!(align_up(4097, 512), 4608);
    }
}
