//! The Allocation Profiler (paper §4).
//!
//! Replays one training iteration's event stream and characterizes every
//! memory request as `m = (s, tˢ, tᵉ, pˢ, pᵉ, dyn)`, augmented for dynamic
//! requests with the originating module instances `(lˢ, lᵉ)`. Tensors that
//! live across the whole profiled window (weights, optimizer state) become
//! *persistent* requests pinned to the synthetic boundary phases.
//!
//! One pass over the trace: a table of open tensors, and one path
//! (`Sweep::close`) through which a tensor leaves it — at its `Free`
//! event, or at the end of the trace if it is never freed. Requests are
//! ordered by *allocation order*, which refines `tˢ` (every tensor
//! allocated before the window has `tˢ = 0`), so the order the runtime
//! matcher replays is a total one.
//!
//! In the real system the profiler runs the workload on native `cudaMalloc`
//! (see `allocators::NativeAllocator`) for three iterations; here it reads
//! the same information from a [`Trace`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use trace_gen::{ModuleId, TensorMap, Trace, TraceEvent};

use crate::geometry::{window_end, Rect};

/// Rounding granularity for planned offsets (matches the driver alignment).
pub const PLAN_ALIGN: u64 = 512;

/// A dynamic-layer execution instance: one module within one (normalized)
/// computation phase — the granularity of the paper's HomoLayer groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceKey {
    /// The module issuing the request.
    pub module: ModuleId,
    /// Normalized phase number within the iteration (1-based; 0 = init).
    pub phase: u32,
}

/// One characterized memory request event (the paper's `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestEvent {
    /// Request size in bytes, rounded to [`PLAN_ALIGN`].
    pub size: u64,
    /// Allocation tick (window-relative; persistent requests use 0).
    pub ts: u64,
    /// Free tick, exclusive (requests outliving the window use the window
    /// end).
    pub te: u64,
    /// Phase of allocation (0 = init/before-window, `1..=P` in-window,
    /// `P+1` = after-window).
    pub ps: u32,
    /// Phase of free.
    pub pe: u32,
    /// Whether the request originates from a dynamic layer.
    pub dynamic: bool,
    /// Allocating instance (dynamic requests only).
    pub ls: Option<InstanceKey>,
    /// Freeing instance (dynamic requests only).
    pub le: Option<InstanceKey>,
}

impl RequestEvent {
    /// Exclusive end of the request's occupancy window
    /// `[ts, max(te, ts + 1))` — see [`window_end`].
    pub fn window_end(&self) -> u64 {
        window_end(self.ts, self.te)
    }

    /// The rectangle the request occupies when placed at `off`.
    pub fn rect_at(&self, off: u64) -> Rect {
        Rect {
            t0: self.ts,
            t1: self.window_end(),
            off,
            len: self.size,
        }
    }
}

/// Profiler output: the plan synthesizer's input `M` (paper §4), split into
/// static and dynamic subsets, plus the bookkeeping the runtime matcher
/// needs to map arriving requests back onto profiled ones.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfiledRequests {
    /// Static requests: the first [`Self::init_count`] are persistent
    /// (allocated before the window, in original allocation order); the
    /// rest are the iteration's static requests in arrival order.
    pub statics: Vec<RequestEvent>,
    /// Number of persistent entries at the head of `statics`.
    pub init_count: usize,
    /// Dynamic requests in arrival order.
    pub dynamics: Vec<RequestEvent>,
    /// Number of phases inside the profiled iteration (`P`).
    pub num_phases: u32,
    /// Window length in ticks.
    pub window_len: u64,
    /// Execution window of each dynamic-layer instance: first-enter and
    /// last-exit ticks, window-relative.
    pub instance_windows: Vec<(InstanceKey, (u64, u64))>,
    /// Arrival order of dynamic requests per allocating instance: indices
    /// into `dynamics`.
    pub instance_arrivals: Vec<(InstanceKey, Vec<u32>)>,
}

impl ProfiledRequests {
    /// Sum of all static request bytes that are simultaneously live at the
    /// worst moment (a lower bound on the static pool size).
    pub fn peak_static_demand(&self) -> u64 {
        let lifetimes = self.statics.iter().map(|r| (r.ts, r.te, r.size));
        sweep_live_bytes(lifetimes, |_, _| {}).0
    }
}

/// The one peak sweep: `(peak, tick)` — the most bytes simultaneously
/// live over `(ts, te, size)` lifetimes and the first tick that reaches
/// it — calling `on_tick(tick, live bytes)` with the state after all
/// events of each distinct tick, ascending.
///
/// Liveness here is the raw `ts ≤ t < te`, not the planner's window rule:
/// a lifetime with `te ≤ ts` is never live. A free at tick `t` precedes
/// an allocation at `t`, so the running value only dips mid-tick and the
/// per-tick end states carry the exact maximum.
pub(crate) fn sweep_live_bytes(
    lifetimes: impl Iterator<Item = (u64, u64, u64)>,
    mut on_tick: impl FnMut(u64, u64),
) -> (u64, u64) {
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(lifetimes.size_hint().0 * 2);
    for (ts, te, size) in lifetimes {
        events.push((ts, size as i64));
        events.push((te, -(size as i64)));
    }
    events.sort_unstable_by_key(|&(t, _)| t);
    let (mut cur, mut peak, mut peak_tick) = (0i64, 0i64, 0u64);
    for tick in events.chunk_by(|a, b| a.0 == b.0) {
        cur += tick.iter().map(|&(_, delta)| delta).sum::<i64>();
        if cur > peak {
            (peak, peak_tick) = (cur, tick[0].0);
        }
        on_tick(tick[0].0, cur.max(0) as u64);
    }
    (peak as u64, peak_tick)
}

/// Errors produced while profiling a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The requested iteration does not exist in the trace.
    MissingIteration(u32),
    /// The trace is malformed.
    InvalidTrace(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::MissingIteration(i) => write!(f, "iteration {i} not in trace"),
            ProfileError::InvalidTrace(s) => write!(f, "invalid trace: {s}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A tensor between its `Alloc` and its `Free`.
struct Open {
    size: u64,
    /// Event index of the allocation: its tick and its place in the
    /// allocation order.
    at: u64,
    ps: u32,
    dynamic: bool,
    ls: Option<InstanceKey>,
}

/// Closed requests of one class, each with the event index that
/// allocated it.
type Closed = Vec<(u64, RequestEvent)>;

/// The profiled window `[start, end)` in event indices, the phase count
/// so far, and the requests closed so far.
#[derive(Default)]
struct Sweep {
    start: u64,
    end: u64,
    num_phases: u32,
    persistent: Closed,
    statics: Closed,
    dynamics: Closed,
}

impl Sweep {
    fn contains(&self, idx: u64) -> bool {
        self.start <= idx && idx < self.end
    }

    /// Window-relative tick of event `idx`.
    fn rel(&self, idx: u64) -> u64 {
        idx.saturating_sub(self.start).min(self.end - self.start)
    }

    /// Takes a tensor off the books. `freed` is the index of its `Free`
    /// event with the phase and instance executing there; `None` for a
    /// tensor the trace never frees. Only a tensor live at some tick of
    /// the window becomes a request: one that spans the whole window a
    /// persistent one, any other an iteration request whose out-of-window
    /// end is pinned to the window's boundary tick and boundary phase.
    fn close(&mut self, t: Open, freed: Option<(u64, u32, Option<InstanceKey>)>) {
        let end = freed.map_or(u64::MAX, |(idx, ..)| idx);
        if t.at >= self.end || end <= self.start {
            return;
        }
        let (ts, ps) = if t.at < self.start {
            (0, 0)
        } else {
            (self.rel(t.at), t.ps)
        };
        let (te, pe, le) = match freed {
            Some((idx, phase, instance)) if idx < self.end => (self.rel(idx), phase, instance),
            _ => (self.rel(self.end), self.num_phases + 1, None),
        };
        let persistent = t.at < self.start && end >= self.end;
        let request = RequestEvent {
            size: t.size,
            ts,
            te,
            ps,
            pe,
            dynamic: t.dynamic && !persistent,
            ls: t.ls.filter(|_| !persistent),
            le,
        };
        let class = match (persistent, request.dynamic) {
            (true, _) => &mut self.persistent,
            (false, true) => &mut self.dynamics,
            (false, false) => &mut self.statics,
        };
        class.push((t.at, request));
    }
}

/// The requests of one class in allocation order.
fn in_allocation_order(mut closed: Closed) -> impl Iterator<Item = RequestEvent> {
    closed.sort_unstable_by_key(|&(at, _)| at);
    closed.into_iter().map(|(_, r)| r)
}

/// Profiles iteration `iter` of a trace (1-based; use 1 for steady state —
/// the generator emits identical static behaviour every iteration).
pub fn profile_trace(trace: &Trace, iter: u32) -> Result<ProfiledRequests, ProfileError> {
    let (start, end) = trace
        .iteration_range(iter)
        .ok_or(ProfileError::MissingIteration(iter))?;
    let mut sweep = Sweep {
        start: start as u64,
        end: end as u64,
        ..Sweep::default()
    };
    // Normalized phase: 0 before the window, `1..=P` inside, `P + 1` after.
    let mut phase = 0u32;
    let mut module_stack: Vec<ModuleId> = Vec::new();
    let mut instance_windows: BTreeMap<InstanceKey, (u64, u64)> = BTreeMap::new();
    let mut open: TensorMap<Open> = TensorMap::default();

    for (i, ev) in trace.events.iter().enumerate() {
        let i = i as u64;
        let instance = move |module: &ModuleId| InstanceKey {
            module: *module,
            phase,
        };
        match ev {
            TraceEvent::PhaseBegin(_) => {
                if sweep.contains(i) {
                    sweep.num_phases += 1;
                }
                phase = if i < sweep.start {
                    0
                } else {
                    sweep.num_phases + u32::from(i >= sweep.end)
                };
            }
            // Indices only grow: the first event of an instance opens its
            // window, every exit moves the window's end.
            TraceEvent::ModuleEnter(m) => {
                module_stack.push(*m);
                if sweep.contains(i) {
                    let t = sweep.rel(i);
                    instance_windows.entry(instance(m)).or_insert((t, t));
                }
            }
            TraceEvent::ModuleExit(m) => {
                if module_stack.pop() != Some(*m) {
                    return Err(ProfileError::InvalidTrace(format!(
                        "unbalanced module exit at event {i}"
                    )));
                }
                if sweep.contains(i) {
                    let t = sweep.rel(i);
                    instance_windows.entry(instance(m)).or_insert((t, t)).1 = t;
                }
            }
            TraceEvent::Alloc {
                id, size, dynamic, ..
            } => {
                let tensor = Open {
                    size: round_plan(*size),
                    at: i,
                    ps: phase,
                    dynamic: *dynamic,
                    ls: module_stack.last().map(instance),
                };
                open.insert(*id, tensor);
            }
            TraceEvent::Free { id } => {
                let Some(tensor) = open.remove(id) else {
                    return Err(ProfileError::InvalidTrace(format!(
                        "free of unknown tensor at event {i}"
                    )));
                };
                sweep.close(tensor, Some((i, phase, module_stack.last().map(instance))));
            }
            _ => {}
        }
    }
    for (_, tensor) in open {
        sweep.close(tensor, None);
    }

    let mut statics: Vec<RequestEvent> = in_allocation_order(sweep.persistent).collect();
    let init_count = statics.len();
    statics.extend(in_allocation_order(sweep.statics));
    let dynamics: Vec<RequestEvent> = in_allocation_order(sweep.dynamics).collect();
    let mut instance_arrivals: BTreeMap<InstanceKey, Vec<u32>> = BTreeMap::new();
    for (idx, d) in dynamics.iter().enumerate() {
        if let Some(ls) = d.ls {
            instance_arrivals.entry(ls).or_default().push(idx as u32);
        }
    }

    Ok(ProfiledRequests {
        statics,
        init_count,
        dynamics,
        num_phases: sweep.num_phases,
        window_len: sweep.end - sweep.start,
        instance_windows: instance_windows.into_iter().collect(),
        instance_arrivals: instance_arrivals.into_iter().collect(),
    })
}

/// Rounds a request size to the planning alignment.
pub fn round_plan(size: u64) -> u64 {
    PLAN_ALIGN * size.max(1).div_ceil(PLAN_ALIGN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn trace() -> trace_gen::Trace {
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(4)
        .with_iterations(3)
        .build_trace()
        .unwrap()
    }

    #[test]
    fn round_plan_aligns_to_512() {
        assert_eq!(round_plan(0), 512);
        assert_eq!(round_plan(1), 512);
        assert_eq!(round_plan(512), 512);
        assert_eq!(round_plan(513), 1024);
    }

    #[test]
    fn persistent_requests_span_the_window() {
        let t = trace();
        let p = profile_trace(&t, 2).unwrap();
        assert!(p.init_count > 0);
        for r in &p.statics[..p.init_count] {
            assert_eq!(r.ts, 0);
            assert_eq!(r.te, p.window_len);
            assert_eq!(r.ps, 0);
            assert_eq!(r.pe, p.num_phases + 1);
        }
    }

    #[test]
    fn iteration_requests_have_inwindow_lifespans() {
        let t = trace();
        let p = profile_trace(&t, 2).unwrap();
        for r in &p.statics[p.init_count..] {
            assert!(r.ts < r.te);
            assert!(r.te <= p.window_len);
            assert!(r.ps >= 1 && r.ps <= p.num_phases);
        }
    }

    #[test]
    fn phase_count_matches_schedule() {
        let t = trace();
        let p = profile_trace(&t, 1).unwrap();
        // 4 microbatches x (F + B) + optimizer step.
        assert_eq!(p.num_phases, 9);
    }

    #[test]
    fn profiles_of_different_iterations_agree_statically() {
        let t = trace();
        let p1 = profile_trace(&t, 1).unwrap();
        let p3 = profile_trace(&t, 3).unwrap();
        let sizes = |p: &ProfiledRequests| -> Vec<(u64, u32, u32)> {
            p.statics[p.init_count..]
                .iter()
                .map(|r| (r.size, r.ps, r.pe))
                .collect()
        };
        assert_eq!(sizes(&p1), sizes(&p3));
        assert_eq!(p1.num_phases, p3.num_phases);
    }

    #[test]
    fn peak_demand_is_between_bounds() {
        let t = trace();
        let p = profile_trace(&t, 1).unwrap();
        let peak = p.peak_static_demand();
        let persistent: u64 = p.statics[..p.init_count].iter().map(|r| r.size).sum();
        let total: u64 = p.statics.iter().map(|r| r.size).sum();
        assert!(peak >= persistent, "peak includes persistents");
        assert!(peak <= total);
    }

    #[test]
    fn moe_dynamics_have_instances() {
        let t = TrainJob::new(
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 8).with_ep(4),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(2)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        let p = profile_trace(&t, 1).unwrap();
        assert!(!p.dynamics.is_empty());
        for d in &p.dynamics {
            assert!(d.dynamic);
            assert!(d.ls.is_some(), "alloc instance recorded");
        }
        // Arrival lists cover every dynamic request exactly once.
        let covered: usize = p.instance_arrivals.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(covered, p.dynamics.len());
    }

    /// Two tensors allocated before the window and freed inside it (in
    /// the opposite order) share `ts = 0`, and two allocated inside are
    /// never freed: the profile lists each class in allocation order
    /// whatever the tensors are called — neither the order of the frees
    /// nor the tensor table's iteration order reaches it.
    #[test]
    fn request_order_is_total_and_blind_to_tensor_ids() {
        use trace_gen::{PhaseId, TensorCategory, TensorId};
        let alloc = |id: u64, kib: u64| TraceEvent::Alloc {
            id: TensorId(id),
            size: kib << 10,
            dynamic: false,
            category: TensorCategory::Scoped,
        };
        let free = |id: u64| TraceEvent::Free { id: TensorId(id) };
        let trace_with = |[a, b, c, d]: [u64; 4]| Trace {
            events: vec![
                alloc(a, 1),
                alloc(b, 2),
                TraceEvent::IterationBegin(1),
                TraceEvent::PhaseBegin(PhaseId(0)),
                alloc(c, 3),
                free(b),
                alloc(d, 4),
                free(a),
                TraceEvent::IterationEnd(1),
            ],
            ..Trace::default()
        };
        let p = profile_trace(&trace_with([1, 2, 3, 4]), 1).unwrap();
        let seen: Vec<(u64, u64, u64)> = p.statics.iter().map(|r| (r.size, r.ts, r.te)).collect();
        assert_eq!(
            seen,
            [(1024, 0, 5), (2048, 0, 3), (3072, 2, 7), (4096, 4, 7)]
        );
        assert_eq!(p.init_count, 0);
        for ids in [[4, 3, 2, 1], [7 << 40, 9, 1 << 63, 2], [2, 1, 4, 3]] {
            assert_eq!(profile_trace(&trace_with(ids), 1).unwrap(), p, "{ids:?}");
        }
    }

    #[test]
    fn instance_windows_are_ordered() {
        let t = trace();
        let p = profile_trace(&t, 1).unwrap();
        for (_, (start, end)) in &p.instance_windows {
            assert!(start <= end);
            assert!(*end <= p.window_len);
        }
    }
}
