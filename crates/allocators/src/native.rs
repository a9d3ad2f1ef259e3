//! The native allocator: one driver call per request.
//!
//! This is what STAlloc's Allocation Profiler uses (§8): memory is allocated
//! "precisely as required, thereby almost entirely obviating memory
//! fragmentation". On the simulator (paged physical memory) it is exactly
//! fragmentation-free: reserved == allocated at all times. It is slow — every
//! request pays full `cudaMalloc`/`cudaFree` latency — which reproduces the
//! paper's observation that profiling runs at 10–30 % of cached-allocator
//! speed (Table 2).

use gpu_sim::{Device, DevicePtr};
use trace_gen::{TensorId, TensorMap};

use crate::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};

/// Pass-through allocator over `cudaMalloc`/`cudaFree`.
#[derive(Debug, Default)]
pub struct NativeAllocator {
    live: TensorMap<(DevicePtr, u64)>,
    stats: AllocatorStats,
}

impl NativeAllocator {
    /// Creates an empty native allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl GpuAllocator for NativeAllocator {
    fn name(&self) -> String {
        "Native".into()
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        let ptr = dev
            .cuda_malloc(req.size)
            .map_err(|e| AllocError::from_device(e, req.size, self.stats.reserved))?;
        let granted = dev.allocation_len(ptr).expect("just allocated");
        self.live.insert(req.tensor, (ptr, granted));
        self.stats.on_alloc(granted);
        self.stats.set_reserved(self.stats.allocated);
        Ok(Allocation {
            addr: ptr.addr(),
            granted,
        })
    }

    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
        let (ptr, granted) = self
            .live
            .remove(&tensor)
            .ok_or(AllocError::UnknownTensor(tensor))?;
        dev.cuda_free(ptr)
            .map_err(|e| AllocError::Internal(e.to_string()))?;
        self.stats.on_free(granted);
        self.stats.set_reserved(self.stats.allocated);
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

    fn dev() -> Device {
        Device::with_latency(DeviceSpec::test_device(64 << 20), LatencyModel::zero())
    }

    fn req(id: u64, size: u64) -> AllocRequest {
        AllocRequest {
            tensor: TensorId(id),
            size,
            dynamic: false,
        }
    }

    #[test]
    fn reserved_tracks_allocated_exactly() {
        let mut d = dev();
        let mut a = NativeAllocator::new();
        a.malloc(&mut d, &req(0, 1 << 20)).unwrap();
        a.malloc(&mut d, &req(1, 2 << 20)).unwrap();
        let s = a.stats();
        assert_eq!(s.reserved, s.allocated);
        a.free(&mut d, TensorId(0)).unwrap();
        assert_eq!(a.stats().reserved, a.stats().allocated);
        assert_eq!(a.stats().peak_reserved, 3 << 20);
    }

    #[test]
    fn oom_propagates() {
        let mut d = dev();
        let mut a = NativeAllocator::new();
        let e = a.malloc(&mut d, &req(0, 1 << 30)).unwrap_err();
        assert!(e.is_oom());
    }

    #[test]
    fn unknown_free_is_an_error() {
        let mut d = dev();
        let mut a = NativeAllocator::new();
        assert_eq!(
            a.free(&mut d, TensorId(9)),
            Err(AllocError::UnknownTensor(TensorId(9)))
        );
    }
}
