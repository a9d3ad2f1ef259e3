//! Trace replay: drives an allocator with a trace's event stream on a
//! simulated device and reports the paper's metrics.
//!
//! The replay also acts as a correctness oracle: it checks that every free
//! matches a live allocation, that reported byte accounting stays
//! consistent, and that no two tensors ever overlap in device address
//! space while both are live (memory stomping). The last check is
//! `stalloc_core::geometry::first_conflict`, the one definition of
//! "pairwise conflict-free" that `Plan::validate` uses too, run once
//! over the time × address rectangle of every allocation served.

use allocators::{AllocRequest, GpuAllocator};
use gpu_sim::{Device, DeviceSpec, LatencyModel};
use stalloc_core::geometry::{first_conflict, Rect};
use trace_gen::{TensorId, TensorMap, Trace, TraceEvent};

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
/// Panics on a double free or an internal allocator error as soon as the
/// allocator reports it: those are bugs, not workload outcomes. With
/// `check_overlaps`, panics with `STOMP` if the allocator ever handed out
/// a range overlapping a live tensor; the message names the first such
/// allocation in event order, the live tensor it overlaps and both
/// ranges — the stomp a check at every allocation would have stopped on.
/// That panic comes after the last event replayed (the OOM stop
/// included), or at the allocator's first error if one comes sooner: a
/// stomp tends to corrupt the allocator's own bookkeeping, and then the
/// stomp, not the error it led to, is what the panic names.
pub fn replay(
    trace: &Trace,
    spec: &DeviceSpec,
    alloc: &mut dyn GpuAllocator,
    opts: &ReplayOptions,
) -> ReplayReport {
    let mut dev = Device::with_latency(spec.clone(), opts.latency.clone());
    let trace_end = trace.events.len() as u64;
    // Every allocation served, for the overlap oracle (empty without it).
    let mut served: Vec<Served> = Vec::new();
    // Requested (512 B-rounded) size of each live tensor and its index in
    // `served`.
    let mut live_sizes: TensorMap<(u64, usize)> = TensorMap::default();
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
                        live_sizes.insert(*id, (rounded, served.len()));
                        requested_live += rounded;
                        peak_requested = peak_requested.max(requested_live);
                        if opts.check_overlaps {
                            served.push(Served {
                                rect: Rect {
                                    t0: i as u64,
                                    t1: trace_end,
                                    off: a.addr,
                                    len: a.granted,
                                },
                                tensor: *id,
                            });
                        }
                    }
                    Err(e) if e.is_oom() => {
                        oom = true;
                        oom_detail = Some(format!("event {i}: {e}"));
                        break 'outer;
                    }
                    Err(e) => {
                        panic_on_stomp(&served);
                        panic!("allocator bug during replay at event {i}: {e}")
                    }
                }
            }
            TraceEvent::Free { id } => match alloc.free(&mut dev, *id) {
                Ok(_granted) => {
                    free_ops += 1;
                    if let Some((sz, k)) = live_sizes.remove(id) {
                        requested_live -= sz;
                        if opts.check_overlaps {
                            served[k].rect.t1 = i as u64;
                        }
                    }
                }
                Err(e) => {
                    panic_on_stomp(&served);
                    panic!("allocator bug on free at event {i}: {e}")
                }
            },
        }
    }

    panic_on_stomp(&served);

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

/// One allocation served during a checked replay: the time × address
/// rectangle `[alloc event, free event) × [addr, addr + granted)` and the
/// tensor holding it. A tensor never freed holds its range to the end of
/// the trace.
#[derive(Debug, Clone, Copy)]
struct Served {
    rect: Rect,
    tensor: TensorId,
}

/// Panics with `STOMP`, naming both tensors and their ranges, if `served`
/// holds a stomp (see [`first_stomp`]).
fn panic_on_stomp(served: &[Served]) {
    if let Some((stomp, live)) = first_stomp(served) {
        let (r, l) = (stomp.rect, live.rect);
        panic!(
            "STOMP: tensor {:?} [{:#x}, {:#x}) allocated at event {} overlaps {:?} [{:#x}, {:#x}) \
             live since event {}",
            stomp.tensor,
            r.off,
            r.off + r.len,
            r.t0,
            live.tensor,
            l.off,
            l.off + l.len,
            l.t0
        );
    }
}

/// The first stomp among `served` (in allocation order): the first
/// allocation, in event order, whose range overlaps a tensor still live,
/// and the lowest-addressed tensor it overlaps.
///
/// `first_conflict` ignores empty rects, and so does this. No allocator
/// here grants 0 bytes (each rounds a request up to at least 512 B, or to
/// its plan's or the device's alignment), so that is no case a replay
/// meets; a per-allocation map oracle would have flagged a 0-byte grant
/// starting inside a live range.
fn first_stomp(served: &[Served]) -> Option<(&Served, &Served)> {
    let stomp = first_conflict(served.iter().map(|s| s.rect))?;
    let k = served.partition_point(|s| s.rect.t0 < stomp.t0);
    let live = served[..k]
        .iter()
        .filter(|s| s.rect.len > 0 && s.rect.conflicts(&stomp))
        .min_by_key(|s| s.rect.off)
        .expect("the conflict is with an earlier allocation");
    Some((&served[k], live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use allocators::{AllocError, Allocation, AllocatorStats};
    use proptest::prelude::*;
    use trace_gen::TensorCategory;

    /// One step of a hand-written replay: an allocation the allocator
    /// grants at `[addr, addr + len)` (`None`: it reports OOM), or the free
    /// of the `n`-th tensor allocated.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Alloc(Option<(u64, u64)>),
        Free(u64),
    }

    /// An allocator that grants exactly what its script says, in order.
    struct Scripted {
        grants: VecDeque<Option<(u64, u64)>>,
        live: TensorMap<u64>,
    }

    impl GpuAllocator for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn malloc(&mut self, _: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
            match self.grants.pop_front().expect("one grant per allocation") {
                Some((addr, granted)) => {
                    self.live.insert(req.tensor, granted);
                    Ok(Allocation { addr, granted })
                }
                None => Err(AllocError::OutOfMemory {
                    requested: req.size,
                    reserved: 0,
                    device_free: 0,
                }),
            }
        }

        fn free(&mut self, _: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
            self.live
                .remove(&tensor)
                .ok_or(AllocError::UnknownTensor(tensor))
        }

        fn stats(&self) -> AllocatorStats {
            AllocatorStats::default()
        }
    }

    /// Replays `steps` with the oracle on: the report, or the panic's
    /// message.
    fn run(steps: &[Step]) -> Result<ReplayReport, String> {
        let mut trace = Trace::default();
        let mut grants = VecDeque::new();
        let mut next = 0;
        for &step in steps {
            trace.events.push(match step {
                Step::Alloc(grant) => {
                    grants.push_back(grant);
                    next += 1;
                    TraceEvent::Alloc {
                        id: TensorId(next - 1),
                        size: 1,
                        dynamic: false,
                        category: TensorCategory::Transient,
                    }
                }
                Step::Free(n) => TraceEvent::Free { id: TensorId(n) },
            });
        }
        let mut alloc = Scripted {
            grants,
            live: TensorMap::default(),
        };
        let spec = DeviceSpec::test_device(1 << 30);
        catch_unwind(AssertUnwindSafe(|| {
            replay(&trace, &spec, &mut alloc, &ReplayOptions::default())
        }))
        .map_err(|payload| match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        })
    }

    fn grant(addr: u64, len: u64) -> Step {
        Step::Alloc(Some((addr, len)))
    }

    /// The overlap oracle `replay` ran online, one allocation at a time,
    /// before the one `first_conflict` pass: the live tensor `[addr, addr +
    /// len)` overlaps, if any. It and [`first_stomp`] agree on every grant
    /// of at least one byte, which is every grant an allocator here makes.
    fn check_overlap(
        ranges: &BTreeMap<u64, (u64, TensorId)>,
        addr: u64,
        len: u64,
    ) -> Option<TensorId> {
        let end = addr + len;
        // Predecessor may extend into us; successor may start before our end.
        if let Some((_, &(e, other))) = ranges.range(..=addr).next_back() {
            if e > addr {
                return Some(other);
            }
        }
        ranges.range(addr..end).next().map(|(_, &(_, other))| other)
    }

    /// The verdict of the map oracle on `steps`: the first allocation that
    /// stomps a live tensor and the tensor it stomps, or `None`. Like
    /// `replay`, it stops at the first OOM.
    fn stomp_by_map(steps: &[Step]) -> Option<(TensorId, TensorId)> {
        let mut ranges = BTreeMap::new();
        let mut addrs = Vec::new();
        for &step in steps {
            match step {
                Step::Alloc(None) => return None,
                Step::Alloc(Some((addr, len))) => {
                    let id = TensorId(addrs.len() as u64);
                    if let Some(other) = check_overlap(&ranges, addr, len) {
                        return Some((id, other));
                    }
                    ranges.insert(addr, (addr + len, id));
                    addrs.push(addr);
                }
                Step::Free(n) => {
                    ranges.remove(&addrs[n as usize]);
                }
            }
        }
        None
    }

    #[test]
    fn a_range_over_a_live_tensor_is_a_stomp_naming_both() {
        let msg = run(&[grant(0x1000, 0x200), grant(0x1100, 0x200)]).unwrap_err();
        assert!(msg.starts_with("STOMP: tensor TensorId(1) ["), "{msg}");
        assert!(msg.contains("overlaps TensorId(0) "), "{msg}");
        // From below as well as from above.
        let msg = run(&[grant(0x1000, 0x200), grant(0xf00, 0x101)]).unwrap_err();
        assert!(msg.starts_with("STOMP: tensor TensorId(1) ["), "{msg}");
        assert!(msg.contains("overlaps TensorId(0) "), "{msg}");
    }

    #[test]
    fn a_range_reused_one_event_after_its_free_is_no_stomp() {
        let report = run(&[grant(0x1000, 0x200), Step::Free(0), grant(0x1000, 0x200)]).unwrap();
        assert_eq!((report.alloc_ops, report.free_ops), (2, 1));
    }

    #[test]
    fn address_adjacent_ranges_are_no_stomp() {
        let report = run(&[
            grant(0x1000, 0x200),
            grant(0x1200, 0x200),
            grant(0xe00, 0x200),
        ])
        .unwrap();
        assert_eq!(report.alloc_ops, 3);
    }

    #[test]
    fn a_stomp_before_an_oom_still_panics() {
        let msg = run(&[
            grant(0x1000, 0x400),
            grant(0x1200, 0x400),
            Step::Alloc(None),
        ])
        .unwrap_err();
        assert!(msg.starts_with("STOMP: tensor TensorId(1) ["), "{msg}");
        assert!(msg.contains("overlaps TensorId(0) "), "{msg}");
        // Without the stomp the same run is a clean OOM.
        let report = run(&[
            grant(0x1000, 0x200),
            grant(0x1200, 0x400),
            Step::Alloc(None),
        ])
        .unwrap();
        assert!(report.oom);
    }

    #[test]
    fn a_stomp_before_an_allocator_error_is_reported_as_the_stomp() {
        // The allocator fails after the stomp (here on a free it no longer
        // knows): the panic names the stomp, not the error.
        let msg = run(&[
            grant(0x1000, 0x400),
            grant(0x1200, 0x400),
            Step::Free(0),
            Step::Free(0),
        ])
        .unwrap_err();
        assert!(msg.starts_with("STOMP: tensor TensorId(1) ["), "{msg}");
        assert!(msg.contains("overlaps TensorId(0) "), "{msg}");
        // Without the stomp the same error is an allocator bug.
        let msg = run(&[
            grant(0x1000, 0x200),
            grant(0x1200, 0x400),
            Step::Free(0),
            Step::Free(0),
        ])
        .unwrap_err();
        assert!(msg.starts_with("allocator bug on free at event 3"), "{msg}");
    }

    /// Turns drawn tuples into a script: fresh ranges that overlap nothing,
    /// ranges on a grid of `stride` that overlap or reuse each other's
    /// addresses, frees of live tensors (the rest are never freed) and
    /// the odd OOM.
    fn script(ops: &[(u8, u64, u64, usize)], stride: u64) -> Vec<Step> {
        let mut steps = Vec::new();
        let (mut live, mut allocated, mut fresh) = (Vec::new(), 0, 1 << 20);
        for &(op, slot, units, pick) in ops {
            let len = units * 128;
            let step = match op {
                0..=39 => {
                    fresh += len + 512;
                    grant(fresh - len - 512, len)
                }
                40..=59 => grant(slot * stride * 128, len),
                60..=98 if !live.is_empty() => Step::Free(live.swap_remove(pick % live.len())),
                60..=98 => continue,
                _ => Step::Alloc(None),
            };
            if let Step::Alloc(Some(_)) = step {
                live.push(allocated);
                allocated += 1;
            }
            steps.push(step);
        }
        steps
    }

    proptest! {
        /// `replay`'s verdict on random scripts equals the map oracle's:
        /// the same first stomping tensor and the tensor it stomps, or
        /// no panic at all.
        #[test]
        fn replay_stomps_exactly_where_the_map_oracle_does(
            ops in prop::collection::vec((0u8..100, 0u64..32, 1u64..6, 0usize..64), 0..120),
            stride in 1u64..9,
        ) {
            let steps = script(&ops, stride);
            match (run(&steps), stomp_by_map(&steps)) {
                (Ok(_), None) => {}
                (Err(msg), Some((id, other))) => {
                    let stomper = format!("STOMP: tensor {id:?} [");
                    let victim = format!("overlaps {other:?} ");
                    prop_assert!(msg.starts_with(&stomper) && msg.contains(&victim), "{msg}");
                }
                (got, want) => prop_assert!(false, "replay {got:?}, map oracle {want:?}"),
            }
        }
    }
}
