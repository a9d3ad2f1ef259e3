//! The Allocation Profiler (paper §4).
//!
//! Replays one training iteration's event stream and characterizes every
//! memory request as `m = (s, tˢ, tᵉ, pˢ, pᵉ, dyn)`, augmented for dynamic
//! requests with the originating module instances `(lˢ, lᵉ)`. Tensors that
//! live across the whole profiled window (weights, optimizer state) become
//! *persistent* requests pinned to the synthetic boundary phases.
//!
//! In the real system the profiler runs the workload on native `cudaMalloc`
//! (see `allocators::NativeAllocator`) for three iterations; here it reads
//! the same information from a [`Trace`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use trace_gen::{ModuleId, TensorMap, Trace, TraceEvent};

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
    /// Static requests belonging to the iteration body (excluding the
    /// persistent prefix), in arrival order — what the runtime matches
    /// against each iteration.
    pub fn iter_statics(&self) -> &[RequestEvent] {
        &self.statics[self.init_count..]
    }

    /// Sum of all static request bytes that are simultaneously live at the
    /// worst moment (a lower bound on the static pool size).
    pub fn peak_static_demand(&self) -> u64 {
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(self.statics.len() * 2);
        for r in &self.statics {
            events.push((r.ts, r.size as i64));
            events.push((r.te, -(r.size as i64)));
        }
        events.sort_unstable_by_key(|&(t, delta)| (t, delta));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as u64
    }
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

/// Profiles iteration `iter` of a trace (1-based; use 1 for steady state —
/// the generator emits identical static behaviour every iteration).
pub fn profile_trace(trace: &Trace, iter: u32) -> Result<ProfiledRequests, ProfileError> {
    let (win_start, win_end) = trace
        .iteration_range(iter)
        .ok_or(ProfileError::MissingIteration(iter))?;
    let win_start = win_start as u64;
    let win_end = win_end as u64;
    let window_len = win_end - win_start;

    // Pass 1: phase normalization and module-instance windows.
    let mut phase_norm: HashMap<u32, u32> = HashMap::new(); // PhaseId.0 -> 1..=P
    let mut num_phases = 0u32;
    let mut module_stack: Vec<ModuleId> = Vec::new();
    let mut cur_phase_norm = 0u32;
    let mut instance_windows: HashMap<InstanceKey, (u64, u64)> = HashMap::new();

    // Pass 2 state: live tensor table.
    struct LiveInfo {
        size: u64,
        ts: u64,
        ps: u32,
        dynamic: bool,
        ls: Option<InstanceKey>,
        order: u64,
        in_window: bool,
    }
    let mut live: TensorMap<LiveInfo> = TensorMap::default();
    let mut statics_iter: Vec<RequestEvent> = Vec::new();
    let mut persistents: Vec<(u64, RequestEvent)> = Vec::new();
    let mut dynamics: Vec<RequestEvent> = Vec::new();
    let mut instance_arrivals: HashMap<InstanceKey, Vec<u32>> = HashMap::new();
    let mut order_counter = 0u64;

    let rel = |idx: u64| -> u64 { idx.saturating_sub(win_start).min(window_len) };
    let in_window = |idx: u64| -> bool { idx >= win_start && idx < win_end };

    for (i, ev) in trace.events.iter().enumerate() {
        let i = i as u64;
        match ev {
            TraceEvent::PhaseBegin(p) => {
                if in_window(i) {
                    num_phases += 1;
                    phase_norm.insert(p.0, num_phases);
                    cur_phase_norm = num_phases;
                } else if i < win_start {
                    cur_phase_norm = 0;
                } else {
                    cur_phase_norm = num_phases + 1;
                }
            }
            TraceEvent::ModuleEnter(m) => {
                module_stack.push(*m);
                if in_window(i) {
                    let key = InstanceKey {
                        module: *m,
                        phase: cur_phase_norm,
                    };
                    let e = instance_windows.entry(key).or_insert((rel(i), rel(i)));
                    e.0 = e.0.min(rel(i));
                }
            }
            TraceEvent::ModuleExit(m) => {
                if module_stack.last() == Some(m) {
                    module_stack.pop();
                } else {
                    return Err(ProfileError::InvalidTrace(format!(
                        "unbalanced module exit at event {i}"
                    )));
                }
                if in_window(i) {
                    let key = InstanceKey {
                        module: *m,
                        phase: cur_phase_norm,
                    };
                    let e = instance_windows.entry(key).or_insert((rel(i), rel(i)));
                    e.1 = e.1.max(rel(i));
                }
            }
            TraceEvent::Alloc {
                id, size, dynamic, ..
            } => {
                let ls = module_stack.last().map(|&m| InstanceKey {
                    module: m,
                    phase: cur_phase_norm,
                });
                live.insert(
                    *id,
                    LiveInfo {
                        size: round_plan(*size),
                        ts: i,
                        ps: cur_phase_norm,
                        dynamic: *dynamic,
                        ls,
                        order: order_counter,
                        in_window: in_window(i),
                    },
                );
                order_counter += 1;
            }
            TraceEvent::Free { id } => {
                let Some(info) = live.remove(id) else {
                    return Err(ProfileError::InvalidTrace(format!(
                        "free of unknown tensor at event {i}"
                    )));
                };
                // Only requests alive at some point inside the window
                // matter for the plan.
                let alive_in_window = info.ts < win_end && i > win_start;
                if !alive_in_window {
                    continue;
                }
                if !info.in_window && i >= win_end {
                    // Spans the whole window: persistent.
                    persistents.push((
                        info.order,
                        RequestEvent {
                            size: info.size,
                            ts: 0,
                            te: window_len,
                            ps: 0,
                            pe: num_phases + 1,
                            dynamic: false,
                            ls: None,
                            le: None,
                        },
                    ));
                    continue;
                }
                if !info.in_window {
                    // Allocated before the window, freed inside: treat the
                    // allocation as happening at the window start.
                    record_request(
                        &trace.events,
                        &mut statics_iter,
                        &mut dynamics,
                        &mut instance_arrivals,
                        RequestEvent {
                            size: info.size,
                            ts: 0,
                            te: rel(i),
                            ps: 0,
                            pe: cur_phase_norm,
                            dynamic: info.dynamic,
                            ls: info.ls,
                            le: current_instance(&module_stack, cur_phase_norm),
                        },
                    );
                    continue;
                }
                let (te, pe, le) = if i < win_end {
                    (
                        rel(i),
                        cur_phase_norm,
                        current_instance(&module_stack, cur_phase_norm),
                    )
                } else {
                    (window_len, num_phases + 1, None)
                };
                record_request(
                    &trace.events,
                    &mut statics_iter,
                    &mut dynamics,
                    &mut instance_arrivals,
                    RequestEvent {
                        size: info.size,
                        ts: rel(info.ts),
                        te,
                        ps: info.ps,
                        pe,
                        dynamic: info.dynamic,
                        ls: info.ls,
                        le,
                    },
                );
            }
            _ => {}
        }
    }

    // Tensors never freed: persistent if they predate the window, tail
    // otherwise.
    for (_, info) in live {
        if info.ts >= win_end {
            continue;
        }
        if !info.in_window {
            persistents.push((
                info.order,
                RequestEvent {
                    size: info.size,
                    ts: 0,
                    te: window_len,
                    ps: 0,
                    pe: num_phases + 1,
                    dynamic: false,
                    ls: None,
                    le: None,
                },
            ));
        } else {
            record_request(
                &trace.events,
                &mut statics_iter,
                &mut dynamics,
                &mut instance_arrivals,
                RequestEvent {
                    size: info.size,
                    ts: rel(info.ts),
                    te: window_len,
                    ps: info.ps,
                    pe: num_phases + 1,
                    dynamic: info.dynamic,
                    ls: info.ls,
                    le: None,
                },
            );
        }
    }

    persistents.sort_unstable_by_key(|&(order, _)| order);
    // The iteration statics must be in arrival (ts) order for the matcher.
    statics_iter.sort_unstable_by_key(|r| r.ts);
    dynamics.sort_unstable_by_key(|r| r.ts);
    // Rebuild arrival lists after the sort.
    let mut arrivals: HashMap<InstanceKey, Vec<u32>> = HashMap::new();
    for (idx, d) in dynamics.iter().enumerate() {
        if let Some(ls) = d.ls {
            arrivals.entry(ls).or_default().push(idx as u32);
        }
    }

    let init_count = persistents.len();
    let mut statics: Vec<RequestEvent> = persistents.into_iter().map(|(_, r)| r).collect();
    statics.extend(statics_iter);

    let mut instance_windows: Vec<(InstanceKey, (u64, u64))> =
        instance_windows.into_iter().collect();
    instance_windows.sort_unstable_by_key(|&(k, _)| k);
    let mut instance_arrivals: Vec<(InstanceKey, Vec<u32>)> = arrivals.into_iter().collect();
    instance_arrivals.sort_unstable_by_key(|&(k, _)| k);

    Ok(ProfiledRequests {
        statics,
        init_count,
        dynamics,
        num_phases,
        window_len,
        instance_windows,
        instance_arrivals,
    })
}

fn current_instance(stack: &[ModuleId], phase: u32) -> Option<InstanceKey> {
    stack.last().map(|&m| InstanceKey { module: m, phase })
}

fn record_request(
    _events: &[TraceEvent],
    statics: &mut Vec<RequestEvent>,
    dynamics: &mut Vec<RequestEvent>,
    arrivals: &mut HashMap<InstanceKey, Vec<u32>>,
    r: RequestEvent,
) {
    if r.dynamic {
        let idx = dynamics.len() as u32;
        dynamics.push(r);
        if let Some(ls) = r.ls {
            arrivals.entry(ls).or_default().push(idx);
        }
    } else {
        statics.push(r);
    }
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
        for r in p.iter_statics() {
            assert!(r.ts < r.te.max(r.ts + 1));
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
            p.iter_statics()
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
