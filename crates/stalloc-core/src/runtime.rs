//! The Runtime Allocator (paper §6): serves requests from the ahead-of-time
//! plan, with online dynamic allocation inside the Dynamic Reusable Space
//! and a PyTorch-style caching allocator as the fallback for mismatches.
//!
//! * **Static allocator** (§6.1): reserves one static memory pool of the
//!   planned size before training and hands out pre-planned addresses in
//!   O(1) by sequence matching. Not in the paper: every planned range is
//!   first checked against the free set (O(log free intervals), and the
//!   free set of a tight plan is small), so a run that diverged from its
//!   profile is served by the fallback instead of stomping a live tensor.
//! * **Dynamic allocator** (§6.2): tracks the pool's free intervals `A_a`;
//!   a dynamic request in HomoLayer group `g` is placed best-fit inside
//!   `A_c = A_a ∩ A_i(g)` (Eq. 7).
//! * **Request matcher**: routes requests using the same hook information
//!   (phase, module, dynamicity) the real implementation obtains from
//!   PyTorch; size mismatches fall back to the caching allocator, keeping
//!   the system robust to plan divergence.

use std::collections::HashMap;

use allocators::{
    AllocError, AllocRequest, Allocation, AllocatorStats, CachingAllocator, CachingConfig,
    GpuAllocator,
};
use gpu_sim::{Device, DevicePtr};
use trace_gen::{ModuleId, PhaseId, PhaseInfo, TensorId, TensorMap};

use crate::geometry::IntervalSet;
use crate::plan::Plan;
use crate::profiler::{round_plan, InstanceKey};

/// How far ahead of the sequence cursor the matcher searches for a
/// size-equal planned request before falling back (tolerates small
/// reorderings between profile and run).
const MATCH_LOOKAHEAD: usize = 64;

/// Runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Let dynamic requests reuse idle static-pool space (§6.2). Disabling
    /// this reproduces the paper's "STAlloc w/o reuse" ablation (Fig. 13).
    pub dynamic_reuse: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            dynamic_reuse: true,
        }
    }
}

/// Event counters of the runtime allocator (Table 3 inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Requests served at their planned address.
    pub static_planned: u64,
    /// Static requests that missed the plan and fell back.
    pub static_fallback: u64,
    /// Dynamic requests placed inside the Dynamic Reusable Space.
    pub dynamic_reused: u64,
    /// Dynamic requests that fell back to the caching allocator.
    pub dynamic_fallback: u64,
    /// Sequence mismatches tolerated via lookahead.
    pub lookahead_matches: u64,
    /// Planned placements refused because the range was still occupied
    /// (plan divergence caught before memory stomping).
    pub stomps_avoided: u64,
    /// Bytes served through the fallback allocator (peak concurrent).
    pub fallback_bytes_peak: u64,
}

#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Served from the static pool at `(offset, size)`.
    Pool { offset: u64, size: u64 },
    /// Served by the fallback caching allocator.
    Fallback,
}

/// The STAlloc runtime allocator.
#[derive(Debug)]
pub struct StallocAllocator {
    plan: Plan,
    config: RuntimeConfig,
    fallback: CachingAllocator,
    /// Device pointer of the reserved pool (set on first use).
    pool: Option<DevicePtr>,
    /// Free intervals of the pool (`A_a`).
    free: IntervalSet,
    /// Row of `plan.dynamic.instance_seq` holding each allocating
    /// instance's group sequence (the last row, should a key repeat).
    instance_row: HashMap<InstanceKey, u32>,
    /// The row of the instance executing now (innermost module, current
    /// phase), resolved by the hooks that change it.
    current_row: Option<u32>,
    /// Per row, how many dynamic requests of the instance have arrived
    /// this iteration.
    dyn_cursors: Vec<u32>,
    /// Iteration-sequence matcher state.
    iter_cursor: usize,
    iter_used: Vec<bool>,
    init_cursor: usize,
    in_init: bool,
    /// Normalized phase counter within the current iteration.
    phase: u32,
    module_stack: Vec<ModuleId>,
    live: TensorMap<Placement>,
    fallback_live_bytes: u64,
    counters: RuntimeCounters,
    stats: AllocatorStats,
}

impl StallocAllocator {
    /// Creates a runtime allocator from a plan.
    pub fn new(plan: Plan, config: RuntimeConfig) -> Self {
        let rows = &plan.dynamic.instance_seq;
        let instance_row = (0u32..).zip(rows).map(|(i, (key, _))| (*key, i)).collect();
        let dyn_cursors = vec![0; rows.len()];
        let iter_used = vec![false; plan.iter_allocs.len()];
        let free = IntervalSet::full(plan.pool_size);
        Self {
            plan,
            config,
            fallback: CachingAllocator::new(CachingConfig::torch_2_3()),
            pool: None,
            free,
            instance_row,
            current_row: None,
            dyn_cursors,
            iter_cursor: 0,
            iter_used,
            init_cursor: 0,
            in_init: true,
            phase: 0,
            module_stack: Vec::new(),
            live: TensorMap::default(),
            fallback_live_bytes: 0,
            counters: RuntimeCounters::default(),
            stats: AllocatorStats::default(),
        }
    }

    /// Runtime event counters.
    pub fn counters(&self) -> RuntimeCounters {
        self.counters
    }

    /// The plan in effect.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Reserves the static pool if not yet done.
    fn ensure_pool(&mut self, dev: &mut Device) -> Result<(), AllocError> {
        if self.pool.is_none() && self.plan.pool_size > 0 {
            let ptr = dev
                .cuda_malloc(self.plan.pool_size)
                .map_err(|e| AllocError::from_device(e, self.plan.pool_size, 0))?;
            self.pool = Some(ptr);
            self.refresh_reserved();
        }
        Ok(())
    }

    fn pool_base(&self) -> u64 {
        self.pool.map(|p| p.addr()).unwrap_or(0)
    }

    fn refresh_reserved(&mut self) {
        let pool = if self.pool.is_some() {
            self.plan.pool_size
        } else {
            0
        };
        self.stats
            .set_reserved(pool + self.fallback.stats().reserved);
    }

    /// Claims `[offset, offset+size)` in the pool for `tensor`.
    fn claim(&mut self, tensor: TensorId, offset: u64, size: u64) -> Allocation {
        self.free.remove(offset, size);
        self.live.insert(tensor, Placement::Pool { offset, size });
        self.stats.on_alloc(size);
        Allocation {
            addr: self.pool_base() + offset,
            granted: size,
        }
    }

    fn fallback_alloc(
        &mut self,
        dev: &mut Device,
        req: &AllocRequest,
    ) -> Result<Allocation, AllocError> {
        let alloc = self.fallback.malloc(dev, req)?;
        self.live.insert(req.tensor, Placement::Fallback);
        self.fallback_live_bytes += alloc.granted;
        self.counters.fallback_bytes_peak = self
            .counters
            .fallback_bytes_peak
            .max(self.fallback_live_bytes);
        self.stats.on_alloc(alloc.granted);
        self.refresh_reserved();
        Ok(alloc)
    }

    /// Static path: sequence-match against the plan.
    fn malloc_static(
        &mut self,
        dev: &mut Device,
        req: &AllocRequest,
    ) -> Result<Allocation, AllocError> {
        let size = round_plan(req.size);
        let (allocs, cursor_start): (&[crate::plan::PlannedAlloc], usize) = if self.in_init {
            (&self.plan.init_allocs, self.init_cursor)
        } else {
            (&self.plan.iter_allocs, self.iter_cursor)
        };

        // Find the first unused planned slot with matching size within the
        // lookahead window.
        let limit = (cursor_start + MATCH_LOOKAHEAD).min(allocs.len());
        let found = (cursor_start..limit).find(|&j| {
            let used = !self.in_init && self.iter_used[j];
            !used && allocs[j].size == size
        });

        let Some(j) = found else {
            self.counters.static_fallback += 1;
            return self.fallback_alloc(dev, req);
        };
        let planned = allocs[j];
        if !self.free.contains(planned.offset, planned.size) {
            // The planned range is still occupied (plan divergence, e.g. a
            // dynamic tensor overstaying its profiled window). The real
            // system would stomp; we route to the fallback and count it.
            self.counters.stomps_avoided += 1;
            self.counters.static_fallback += 1;
            return self.fallback_alloc(dev, req);
        }

        if self.in_init {
            // Init sequence is strictly ordered; advance past the match.
            if j != self.init_cursor {
                self.counters.lookahead_matches += 1;
            }
            self.init_cursor = j + 1;
        } else {
            if j != self.iter_cursor {
                self.counters.lookahead_matches += 1;
            }
            self.iter_used[j] = true;
            // Advance the cursor over the used prefix.
            let mut c = self.iter_cursor;
            while c < self.iter_used.len() && self.iter_used[c] {
                c += 1;
            }
            self.iter_cursor = c;
        }
        self.counters.static_planned += 1;
        dev.advance_clock_ns(dev.latency().cache_hit_ns);
        Ok(self.claim(req.tensor, planned.offset, planned.size))
    }

    /// Dynamic path: best-fit within `A_a ∩ A_i` (§6.2).
    fn malloc_dynamic(
        &mut self,
        dev: &mut Device,
        req: &AllocRequest,
    ) -> Result<Allocation, AllocError> {
        if !self.config.dynamic_reuse {
            self.counters.dynamic_fallback += 1;
            return self.fallback_alloc(dev, req);
        }
        let size = round_plan(req.size);
        let group = self.current_row.and_then(|row| {
            let row = row as usize;
            let cursor = &mut self.dyn_cursors[row];
            let g = self.plan.dynamic.instance_seq[row].1.get(*cursor as usize);
            *cursor += 1;
            g.copied().filter(|&g| g != u32::MAX)
        });
        let Some(g) = group else {
            self.counters.dynamic_fallback += 1;
            return self.fallback_alloc(dev, req);
        };
        let intervals = &self.plan.dynamic.groups[g as usize].intervals;
        match self.free.best_fit_within(intervals, size) {
            Some(offset) => {
                self.counters.dynamic_reused += 1;
                dev.advance_clock_ns(dev.latency().cache_hit_ns);
                Ok(self.claim(req.tensor, offset, size))
            }
            None => {
                self.counters.dynamic_fallback += 1;
                self.fallback_alloc(dev, req)
            }
        }
    }

    /// Re-resolves `current_row` after a hook moved the module
    /// stack or the phase: one lookup per scope, not per request.
    fn resolve_row(&mut self) {
        self.current_row = self.module_stack.last().and_then(|&module| {
            let key = InstanceKey {
                module,
                phase: self.phase,
            };
            self.instance_row.get(&key).copied()
        });
    }
}

impl GpuAllocator for StallocAllocator {
    fn name(&self) -> String {
        if self.config.dynamic_reuse {
            "STAlloc".into()
        } else {
            "STAlloc w/o reuse".into()
        }
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        self.ensure_pool(dev)?;
        if req.dynamic {
            self.malloc_dynamic(dev, req)
        } else {
            self.malloc_static(dev, req)
        }
    }

    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
        match self.live.remove(&tensor) {
            Some(Placement::Pool { offset, size }) => {
                self.free.insert(offset, size);
                self.stats.on_free(size);
                dev.advance_clock_ns(dev.latency().cache_hit_ns);
                Ok(size)
            }
            Some(Placement::Fallback) => {
                let granted = self.fallback.free(dev, tensor)?;
                self.fallback_live_bytes -= granted;
                self.stats.on_free(granted);
                Ok(granted)
            }
            None => Err(AllocError::UnknownTensor(tensor)),
        }
    }

    fn stats(&self) -> AllocatorStats {
        self.stats
    }

    fn iteration_begin(&mut self, _dev: &mut Device, _iter: u32) {
        self.in_init = false;
        self.phase = 0;
        self.iter_cursor = 0;
        self.iter_used.iter_mut().for_each(|u| *u = false);
        self.dyn_cursors.fill(0);
        self.resolve_row();
    }

    fn phase_begin(&mut self, _dev: &mut Device, _phase: PhaseId, _info: &PhaseInfo) {
        if !self.in_init {
            self.phase += 1;
        }
        self.resolve_row();
    }

    fn module_enter(&mut self, _dev: &mut Device, module: ModuleId) {
        self.module_stack.push(module);
        self.resolve_row();
    }

    fn module_exit(&mut self, _dev: &mut Device, module: ModuleId) {
        if self.module_stack.last() == Some(&module) {
            self.module_stack.pop();
        }
        self.resolve_row();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DynamicPlan, PlanStats};
    use gpu_sim::DeviceSpec;

    fn dev() -> Device {
        Device::with_latency(DeviceSpec::test_device(1 << 30), LatencyModel::zero())
    }

    use gpu_sim::LatencyModel;

    /// A tiny hand-built plan: two iteration statics of 1 KiB and 2 KiB.
    fn tiny_plan() -> Plan {
        Plan {
            pool_size: 8192,
            init_allocs: vec![crate::plan::PlannedAlloc {
                size: 512,
                offset: 0,
                ts: 0,
                te: 100,
            }],
            iter_allocs: vec![
                crate::plan::PlannedAlloc {
                    size: 1024,
                    offset: 512,
                    ts: 1,
                    te: 50,
                },
                crate::plan::PlannedAlloc {
                    size: 2048,
                    offset: 2048,
                    ts: 2,
                    te: 60,
                },
            ],
            dynamic: DynamicPlan::default(),
            stats: PlanStats::default(),
        }
    }

    fn req(id: u64, size: u64) -> AllocRequest {
        AllocRequest {
            tensor: TensorId(id),
            size,
            dynamic: false,
        }
    }

    #[test]
    fn static_requests_get_planned_addresses() {
        let mut d = dev();
        let mut a = StallocAllocator::new(tiny_plan(), RuntimeConfig::default());
        // Init: the persistent tensor.
        let w = a.malloc(&mut d, &req(0, 512)).unwrap();
        a.iteration_begin(&mut d, 1);
        let x = a.malloc(&mut d, &req(1, 1024)).unwrap();
        let y = a.malloc(&mut d, &req(2, 2048)).unwrap();
        // Offsets relative to the pool base match the plan.
        assert_eq!(x.addr - w.addr, 512);
        assert_eq!(y.addr - w.addr, 2048);
        assert_eq!(a.counters().static_planned, 3);
        assert_eq!(a.counters().static_fallback, 0);
    }

    #[test]
    fn lookahead_tolerates_reordering() {
        let mut d = dev();
        let mut a = StallocAllocator::new(tiny_plan(), RuntimeConfig::default());
        a.malloc(&mut d, &req(0, 512)).unwrap();
        a.iteration_begin(&mut d, 1);
        // The 2 KiB request arrives before the 1 KiB one.
        let y = a.malloc(&mut d, &req(2, 2048)).unwrap();
        let x = a.malloc(&mut d, &req(1, 1024)).unwrap();
        assert_eq!(y.addr - x.addr, 1536);
        let c = a.counters();
        assert_eq!(c.static_planned, 3);
        assert_eq!(c.lookahead_matches, 1);
        assert_eq!(c.static_fallback, 0);
    }

    #[test]
    fn unplanned_size_falls_back() {
        let mut d = dev();
        let mut a = StallocAllocator::new(tiny_plan(), RuntimeConfig::default());
        a.malloc(&mut d, &req(0, 512)).unwrap();
        a.iteration_begin(&mut d, 1);
        // 3 KiB matches nothing in the plan.
        a.malloc(&mut d, &req(5, 3072)).unwrap();
        let c = a.counters();
        assert_eq!(c.static_fallback, 1);
        // The planned requests still match afterwards.
        a.malloc(&mut d, &req(1, 1024)).unwrap();
        assert_eq!(a.counters().static_planned, 2, "init + one iter request");
        // Reserved includes pool + a fallback segment.
        assert!(a.stats().reserved > 8192);
    }

    #[test]
    fn occupied_planned_range_is_not_stomped() {
        let mut d = dev();
        let mut a = StallocAllocator::new(tiny_plan(), RuntimeConfig::default());
        a.malloc(&mut d, &req(0, 512)).unwrap();
        a.iteration_begin(&mut d, 1);
        a.malloc(&mut d, &req(1, 1024)).unwrap();
        // Iteration restarts while tensor 1 is still live (divergence).
        a.iteration_begin(&mut d, 2);
        a.malloc(&mut d, &req(10, 1024)).unwrap();
        let c = a.counters();
        assert_eq!(c.stomps_avoided, 1, "the live range was protected");
        assert_eq!(c.static_fallback, 1);
        // Free both; no accounting corruption.
        a.free(&mut d, TensorId(1)).unwrap();
        a.free(&mut d, TensorId(10)).unwrap();
        assert_eq!(a.stats().allocated, 512);
    }

    #[test]
    fn a_planned_range_past_u64_is_refused_not_wrapped() {
        // `new` validates nothing, so a foreign plan can name a range
        // whose end wraps: in a release build 2^64 - 101 + 512 is 411,
        // inside the pool, and the guard used to wave it through — tensor
        // 1 served at base + 411 over tensor 2 at base + 512.
        let mut plan = tiny_plan();
        plan.iter_allocs[0] = crate::plan::PlannedAlloc {
            size: 512,
            offset: u64::MAX - 100,
            ts: 1,
            te: 50,
        };
        plan.iter_allocs[1].offset = 512;
        assert!(plan.validate().is_err());
        let mut d = dev();
        let mut a = StallocAllocator::new(plan, RuntimeConfig::default());
        let w = a.malloc(&mut d, &req(0, 512)).unwrap();
        a.iteration_begin(&mut d, 1);
        let x = a.malloc(&mut d, &req(1, 512)).unwrap();
        let y = a.malloc(&mut d, &req(2, 2048)).unwrap();
        let c = a.counters();
        assert_eq!((c.static_planned, c.stomps_avoided), (2, 1));
        assert_eq!(
            c.static_fallback, 1,
            "the wrapping range went to the fallback"
        );
        assert_eq!(y.addr - w.addr, 512);
        let pool = w.addr..w.addr + 8192;
        assert!(!pool.contains(&x.addr), "tensor 1 is outside the pool");
        a.free(&mut d, TensorId(1)).unwrap();
        a.free(&mut d, TensorId(2)).unwrap();
        assert_eq!(a.stats().allocated, 512);
    }

    #[test]
    fn iteration_reset_reuses_the_pool() {
        let mut d = dev();
        let mut a = StallocAllocator::new(tiny_plan(), RuntimeConfig::default());
        a.malloc(&mut d, &req(0, 512)).unwrap();
        for iter in 1..=5u32 {
            a.iteration_begin(&mut d, iter);
            let base = 100 * iter as u64;
            a.malloc(&mut d, &req(base, 1024)).unwrap();
            a.malloc(&mut d, &req(base + 1, 2048)).unwrap();
            a.free(&mut d, TensorId(base)).unwrap();
            a.free(&mut d, TensorId(base + 1)).unwrap();
        }
        let c = a.counters();
        assert_eq!(c.static_planned, 11, "1 init + 2 per iteration");
        assert_eq!(c.static_fallback, 0);
        assert_eq!(a.stats().reserved, 8192, "pool only, no fallback growth");
    }

    #[test]
    fn dynamic_without_reuse_goes_to_fallback() {
        let mut d = dev();
        let mut a = StallocAllocator::new(
            tiny_plan(),
            RuntimeConfig {
                dynamic_reuse: false,
            },
        );
        a.iteration_begin(&mut d, 1);
        a.malloc(
            &mut d,
            &AllocRequest {
                tensor: TensorId(7),
                size: 4096,
                dynamic: true,
            },
        )
        .unwrap();
        let c = a.counters();
        assert_eq!(c.dynamic_fallback, 1);
        assert_eq!(c.dynamic_reused, 0);
    }

    /// Each hook that changes the executing instance re-resolves its row:
    /// a dynamic request reads the group of the innermost module in the
    /// current phase, also after an inner module exits, and falls back
    /// once no planned instance is executing.
    #[test]
    fn dynamic_requests_follow_the_instance_through_every_hook() {
        use crate::plan::DynGroup;
        use trace_gen::PhaseKind;

        let (outer, inner) = (ModuleId(0), ModuleId(1));
        let group = |off| DynGroup {
            ls: InstanceKey {
                module: outer,
                phase: 1,
            },
            le: InstanceKey {
                module: outer,
                phase: 1,
            },
            t_range: (0, 1),
            intervals: vec![(off, 4096)],
            profiled_bytes: 0,
        };
        let mut plan = tiny_plan();
        plan.init_allocs.clear();
        plan.iter_allocs.clear();
        plan.dynamic = DynamicPlan {
            groups: vec![group(0), group(4096)],
            instance_seq: vec![
                (
                    InstanceKey {
                        module: outer,
                        phase: 1,
                    },
                    vec![0; 4],
                ),
                (
                    InstanceKey {
                        module: inner,
                        phase: 1,
                    },
                    vec![1; 4],
                ),
            ],
        };
        let mut d = dev();
        let mut a = StallocAllocator::new(plan, RuntimeConfig::default());
        let mut next = 0;
        let mut dynamic = |a: &mut StallocAllocator, d: &mut Device| {
            next += 1;
            let req = AllocRequest {
                tensor: TensorId(next),
                size: 512,
                dynamic: true,
            };
            let before = a.counters().dynamic_reused;
            let got = a.malloc(d, &req).unwrap();
            (a.counters().dynamic_reused > before).then_some(got.addr)
        };
        let info = PhaseInfo {
            kind: PhaseKind::Forward { mb: 0, chunk: 0 },
            iteration: 1,
        };
        a.iteration_begin(&mut d, 1);
        a.module_enter(&mut d, outer);
        assert_eq!(
            dynamic(&mut a, &mut d),
            None,
            "phase 0 is planned for nobody"
        );
        a.phase_begin(&mut d, PhaseId(0), &info);
        let base = dynamic(&mut a, &mut d).expect("outer module, phase 1");
        a.module_enter(&mut d, inner);
        let inner_addr = dynamic(&mut a, &mut d).expect("inner module, phase 1");
        assert!((base + 4096..base + 8192).contains(&inner_addr));
        a.module_exit(&mut d, inner);
        let outer_addr = dynamic(&mut a, &mut d).expect("back in the outer module");
        assert!((base..base + 4096).contains(&outer_addr));
        a.module_exit(&mut d, outer);
        assert_eq!(dynamic(&mut a, &mut d), None, "no module executing");
        a.module_enter(&mut d, outer);
        a.phase_begin(&mut d, PhaseId(1), &info);
        assert_eq!(
            dynamic(&mut a, &mut d),
            None,
            "phase 2 is planned for nobody"
        );
        a.iteration_begin(&mut d, 2);
        a.phase_begin(&mut d, PhaseId(0), &info);
        assert!(
            dynamic(&mut a, &mut d).is_some(),
            "phase 1 of the next iteration"
        );
        a.iteration_begin(&mut d, 3);
        assert_eq!(dynamic(&mut a, &mut d), None, "phase 0 again");
    }
}
