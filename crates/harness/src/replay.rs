//! Trace replay: drives an allocator with a trace's event stream on a
//! simulated device and reports the paper's metrics.
//!
//! The replay also acts as a correctness oracle: it checks that no two live
//! tensors ever overlap in device address space (memory stomping), that
//! every free matches a live allocation, and that reported byte accounting
//! stays consistent.

use std::collections::BTreeMap;

use allocators::{AllocRequest, GpuAllocator};
use gpu_sim::{Device, DeviceSpec, LatencyModel};
use trace_gen::{TensorMap, Trace, TraceEvent};

/// Replay options.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Verify that live allocations never overlap (stomping oracle).
    pub check_overlaps: bool,
    /// Latency model for the device.
    pub latency: LatencyModel,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            check_overlaps: true,
            latency: LatencyModel::default(),
        }
    }
}

/// Outcome of replaying one trace through one allocator.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Allocator display name.
    pub allocator: String,
    /// Whether the run hit a training-visible OOM.
    pub oom: bool,
    /// OOM detail (event index and message).
    pub oom_detail: Option<String>,
    /// Peak concurrently-requested bytes, 512 B-rounded — the paper's
    /// `M_a` (allocator-independent).
    pub peak_requested: u64,
    /// Allocator's peak reserved bytes — the paper's `M_r`.
    pub peak_reserved: u64,
    /// Allocator's peak granted bytes (diagnostics).
    pub peak_granted: u64,
    /// Device-level peak physical usage.
    pub device_peak: u64,
    /// Allocation requests served.
    pub alloc_ops: u64,
    /// Free requests served.
    pub free_ops: u64,
    /// Total VMM driver operations.
    pub vmm_ops: u64,
    /// Simulated driver/allocator time during the final iteration, ns
    /// (steady-state allocator overhead; excludes warm-up effects).
    pub steady_overhead_ns: u64,
    /// Simulated driver/allocator time across the entire run, ns.
    pub total_overhead_ns: u64,
}

impl ReplayReport {
    /// Memory efficiency `E = M_a / M_r` (§2.2). Reported as 1.0 when
    /// nothing was reserved.
    pub fn efficiency(&self) -> f64 {
        if self.peak_reserved == 0 {
            1.0
        } else {
            (self.peak_requested as f64 / self.peak_reserved as f64).min(1.0)
        }
    }

    /// Fragmentation bytes `M_r - M_a` (clamped at zero).
    pub fn frag_bytes(&self) -> u64 {
        self.peak_reserved.saturating_sub(self.peak_requested)
    }
}

/// Replays `trace` through `alloc` on a fresh device of `spec`.
///
/// On allocator OOM the replay stops and the report carries `oom = true`
/// with the metrics observed so far — matching how a real training job dies.
///
/// # Panics
///
/// Panics if the oracle detects overlapping live allocations, a double
/// free, or an internal allocator error: those are bugs, not workload
/// outcomes.
pub fn replay(
    trace: &Trace,
    spec: &DeviceSpec,
    alloc: &mut dyn GpuAllocator,
    opts: &ReplayOptions,
) -> ReplayReport {
    let mut dev = Device::with_latency(spec.clone(), opts.latency.clone());
    // Live granted ranges for the overlap oracle: start -> (end, tensor).
    let mut live_ranges: BTreeMap<u64, (u64, trace_gen::TensorId)> = BTreeMap::new();
    // Requested (512 B-rounded) size and granted address of each live
    // tensor.
    let mut live_sizes: TensorMap<(u64, u64)> = TensorMap::default();
    let mut requested_live = 0u64;
    let mut peak_requested = 0u64;
    let mut alloc_ops = 0u64;
    let mut free_ops = 0u64;
    let mut oom = false;
    let mut oom_detail = None;
    let mut iter_overhead_start = 0u64;
    let mut steady_overhead_ns = 0u64;

    'outer: for (i, ev) in trace.events.iter().enumerate() {
        match ev {
            TraceEvent::IterationBegin(it) => {
                alloc.iteration_begin(&mut dev, *it);
                iter_overhead_start = dev.stats().driver_time_ns;
            }
            TraceEvent::IterationEnd(_) => {
                steady_overhead_ns = dev.stats().driver_time_ns - iter_overhead_start;
            }
            TraceEvent::PhaseBegin(p) => {
                let info = trace.phases[p.0 as usize];
                alloc.phase_begin(&mut dev, *p, &info);
            }
            TraceEvent::ModuleEnter(m) => alloc.module_enter(&mut dev, *m),
            TraceEvent::ModuleExit(m) => alloc.module_exit(&mut dev, *m),
            TraceEvent::Alloc {
                id, size, dynamic, ..
            } => {
                let req = AllocRequest {
                    tensor: *id,
                    size: *size,
                    dynamic: *dynamic,
                };
                match alloc.malloc(&mut dev, &req) {
                    Ok(a) => {
                        alloc_ops += 1;
                        let rounded = round512(*size);
                        live_sizes.insert(*id, (rounded, a.addr));
                        requested_live += rounded;
                        peak_requested = peak_requested.max(requested_live);
                        if opts.check_overlaps {
                            check_overlap(&live_ranges, a.addr, a.granted, *id);
                            live_ranges.insert(a.addr, (a.addr + a.granted, *id));
                        }
                    }
                    Err(e) if e.is_oom() => {
                        oom = true;
                        oom_detail = Some(format!("event {i}: {e}"));
                        break 'outer;
                    }
                    Err(e) => panic!("allocator bug during replay at event {i}: {e}"),
                }
            }
            TraceEvent::Free { id } => match alloc.free(&mut dev, *id) {
                Ok(_granted) => {
                    free_ops += 1;
                    if let Some((sz, addr)) = live_sizes.remove(id) {
                        requested_live -= sz;
                        if opts.check_overlaps {
                            live_ranges.remove(&addr);
                        }
                    }
                }
                Err(e) => panic!("allocator bug on free at event {i}: {e}"),
            },
        }
    }

    let stats = alloc.stats();
    let dstats = dev.stats();
    ReplayReport {
        allocator: alloc.name(),
        oom,
        oom_detail,
        peak_requested,
        peak_reserved: stats.peak_reserved,
        peak_granted: stats.peak_allocated,
        device_peak: dstats.peak_in_use,
        alloc_ops,
        free_ops,
        vmm_ops: dstats.vmm.total_ops(),
        steady_overhead_ns,
        total_overhead_ns: dstats.driver_time_ns,
    }
}

fn round512(size: u64) -> u64 {
    512 * size.max(1).div_ceil(512)
}

fn check_overlap(
    ranges: &BTreeMap<u64, (u64, trace_gen::TensorId)>,
    addr: u64,
    len: u64,
    id: trace_gen::TensorId,
) {
    let end = addr + len;
    // Predecessor may extend into us; successor may start before our end.
    if let Some((&_s, &(e, other))) = ranges.range(..=addr).next_back() {
        assert!(
            e <= addr,
            "STOMP: tensor {id:?} [{addr:#x}, {end:#x}) overlaps {other:?} ending at {e:#x}"
        );
    }
    if let Some((&s, &(e, other))) = ranges.range(addr..end).next() {
        panic!("STOMP: tensor {id:?} [{addr:#x}, {end:#x}) overlaps {other:?} [{s:#x}, {e:#x})");
    }
}
