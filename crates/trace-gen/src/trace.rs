//! The memory-trace event model shared by every allocator and the harness.
//!
//! A [`Trace`] is the stream of torch-level events one GPU rank observes
//! during training: phase boundaries (forward/backward of a microbatch,
//! optimizer step), module enter/exit (the hook information STAlloc's
//! profiler records), and tensor allocation/free requests.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Identifier of a tensor within one trace. Unique across the whole trace
/// (never reused, even after the tensor is freed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TensorId(pub u64);

/// A `HashMap` keyed by [`TensorId`], hashed in one multiply.
///
/// Tensor ids are small sequential integers handed out by the trace
/// builder, and every `malloc` and `free` looks one up — in the runtime
/// allocator, in each reference allocator, in the replay loop — where
/// SipHash of those eight bytes cost more than the table around it
/// (about 17 ns of a 25 ns lookup). For tensor ids only: a map keyed by
/// anything a peer can choose (instance keys and fingerprints off the
/// wire) keeps the standard library's keyed hasher, which is what stops
/// crafted keys from colliding.
pub type TensorMap<V> = HashMap<TensorId, V, BuildHasherDefault<TensorIdHasher>>;

/// The [`Hasher`] of a [`TensorMap`]: Fibonacci hashing. The std table
/// takes its bucket index from a hash's low bits and its 7-bit tag from
/// the top ones; an odd multiplier maps sequential ids one-to-one onto
/// the former and spreads them evenly over the latter.
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorIdHasher(u64);

impl Hasher for TensorIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Not the path a `TensorId` takes (its derived `Hash` is one
        // `write_u64`); here so the hasher is total.
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifier of a computation phase within one trace, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhaseId(pub u32);

/// Identifier of a model module (e.g. one transformer layer, or one expert
/// block). Indexes into [`Trace::modules`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModuleId(pub u32);

/// What a phase is, mirroring the profiler's `p_s`/`p_e` annotations (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Training initialization: weights, gradients, optimizer states.
    Init,
    /// Forward pass of one microbatch on one virtual-pipeline model chunk.
    Forward {
        /// Microbatch index within the iteration.
        mb: u32,
        /// Virtual-pipeline model-chunk index (0 when VPP is off).
        chunk: u32,
    },
    /// Backward pass of one microbatch on one model chunk.
    Backward {
        /// Microbatch index within the iteration.
        mb: u32,
        /// Virtual-pipeline model-chunk index (0 when VPP is off).
        chunk: u32,
    },
    /// Optimizer step (gradient clip, update, zero-grad).
    OptimizerStep,
}

/// Temporal classification of a tensor (paper §2.3, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorCategory {
    /// Allocated at initialization, lives for the whole run: weights,
    /// gradient buffers, optimizer states.
    Persistent,
    /// Allocated in one computation phase and released in another (mainly
    /// forward activations kept for the backward pass).
    Scoped,
    /// Allocated and released within a single phase: operator temporaries,
    /// and activations under recomputation/offload.
    Transient,
}

/// One torch-level event observed by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Start of a training iteration (1-based; iteration 0 is init).
    IterationBegin(u32),
    /// End of a training iteration.
    IterationEnd(u32),
    /// A new computation phase begins. Phases never nest.
    PhaseBegin(PhaseId),
    /// Execution enters a module (from framework hooks).
    ModuleEnter(ModuleId),
    /// Execution leaves a module.
    ModuleExit(ModuleId),
    /// A tensor allocation request.
    Alloc {
        /// Tensor being allocated.
        id: TensorId,
        /// Request size in bytes (exact, pre-rounding).
        size: u64,
        /// `true` if the request originates from a dynamic (MoE expert)
        /// layer whose sizes vary run to run.
        dynamic: bool,
        /// Temporal category (known to the generator; the profiler must
        /// *re-derive* lifespans without looking at this).
        category: TensorCategory,
    },
    /// A tensor free request.
    Free {
        /// Tensor being freed.
        id: TensorId,
    },
}

/// Metadata describing one phase of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseInfo {
    /// The phase's identity.
    pub kind: PhaseKind,
    /// Iteration this phase belongs to (0 = init).
    pub iteration: u32,
}

/// Workload metadata the harness uses for throughput modelling.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMeta {
    /// Model name (e.g. `"Llama2-7B"`).
    pub model: String,
    /// Human-readable configuration label (e.g. `"R"`, `"VR"`).
    pub config_label: String,
    /// Number of GPUs in the simulated job.
    pub world_size: u32,
    /// Model FLOPs per iteration *per GPU* (forward+backward+recompute).
    pub flops_per_iter: f64,
    /// Fraction of iteration time lost to pipeline bubbles (0.0–1.0).
    pub bubble_fraction: f64,
    /// Extra compute fraction from recomputation (e.g. 0.33 for full).
    pub recompute_overhead: f64,
    /// Communication/exposed-transfer fraction of iteration time.
    pub comm_fraction: f64,
    /// Number of training iterations in the trace (excluding init).
    pub iterations: u32,
}

/// A complete memory trace for one GPU rank.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The event stream, in execution order. The index of an event is its
    /// logical timestamp ("tick").
    pub events: Vec<TraceEvent>,
    /// Phase table; `PhaseId` indexes into this.
    pub phases: Vec<PhaseInfo>,
    /// Module-name table; `ModuleId` indexes into this.
    pub modules: Vec<String>,
    /// Workload metadata for throughput modelling.
    pub meta: WorkloadMeta,
}

impl Trace {
    /// Number of allocation requests in the whole trace.
    pub fn alloc_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count()
    }

    /// Number of allocation requests within a single iteration.
    pub fn allocs_in_iteration(&self, iter: u32) -> usize {
        self.iteration_range(iter).map_or(0, |(s, e)| {
            self.events[s..e]
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Alloc { .. }))
                .count()
        })
    }

    /// Event-index range `[start, end)` of iteration `iter`, if present.
    pub fn iteration_range(&self, iter: u32) -> Option<(usize, usize)> {
        let mut start = None;
        for (i, e) in self.events.iter().enumerate() {
            match e {
                TraceEvent::IterationBegin(n) if *n == iter => start = Some(i),
                TraceEvent::IterationEnd(n) if *n == iter => {
                    return start.map(|s| (s, i + 1));
                }
                _ => {}
            }
        }
        None
    }

    /// Peak of the sum of live tensor bytes over the whole trace — the
    /// theoretical memory requirement `M_a` of §2.2.
    pub fn peak_allocated(&self) -> u64 {
        let mut live = TensorMap::default();
        let mut cur = 0u64;
        let mut peak = 0u64;
        for e in &self.events {
            match e {
                TraceEvent::Alloc { id, size, .. } => {
                    live.insert(*id, *size);
                    cur += *size;
                    peak = peak.max(cur);
                }
                TraceEvent::Free { id } => {
                    if let Some(sz) = live.remove(id) {
                        cur -= sz;
                    }
                }
                _ => {}
            }
        }
        peak
    }

    /// Distinct allocation sizes above `threshold` bytes (paper Fig. 3's
    /// spatial-regularity measurement).
    pub fn distinct_sizes(&self, threshold: u64) -> Vec<u64> {
        let mut sizes: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Alloc { size, .. } if *size > threshold => Some(*size),
                _ => None,
            })
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// Validates trace well-formedness: every free matches a prior alloc,
    /// no double-free, no double-alloc of the same id, phases referenced
    /// exist. Returns the number of tensors never freed (leaks are legal:
    /// persistent tensors outlive the trace).
    // Collapsing these arms' `if`s into match guards would hide the
    // load-bearing `live.remove` mutation inside a guard; keep the bodies
    // explicit.
    #[allow(clippy::collapsible_match)]
    pub fn validate(&self) -> Result<usize, String> {
        use std::collections::HashSet;
        let mut live: HashSet<TensorId> = HashSet::new();
        let mut seen: HashSet<TensorId> = HashSet::new();
        for (i, e) in self.events.iter().enumerate() {
            match e {
                TraceEvent::Alloc { id, .. } => {
                    if !seen.insert(*id) {
                        return Err(format!("tensor {id:?} allocated twice (event {i})"));
                    }
                    live.insert(*id);
                }
                TraceEvent::Free { id } => {
                    if !live.remove(id) {
                        return Err(format!("tensor {id:?} freed while not live (event {i})"));
                    }
                }
                TraceEvent::PhaseBegin(p) => {
                    if p.0 as usize >= self.phases.len() {
                        return Err(format!("phase {p:?} out of range (event {i})"));
                    }
                }
                TraceEvent::ModuleEnter(m) | TraceEvent::ModuleExit(m) => {
                    if m.0 as usize >= self.modules.len() {
                        return Err(format!("module {m:?} out of range (event {i})"));
                    }
                }
                _ => {}
            }
        }
        Ok(live.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent::IterationBegin(1),
                TraceEvent::PhaseBegin(PhaseId(0)),
                TraceEvent::Alloc {
                    id: TensorId(0),
                    size: 100,
                    dynamic: false,
                    category: TensorCategory::Scoped,
                },
                TraceEvent::Alloc {
                    id: TensorId(1),
                    size: 50,
                    dynamic: false,
                    category: TensorCategory::Transient,
                },
                TraceEvent::Free { id: TensorId(1) },
                TraceEvent::PhaseBegin(PhaseId(1)),
                TraceEvent::Free { id: TensorId(0) },
                TraceEvent::IterationEnd(1),
            ],
            phases: vec![
                PhaseInfo {
                    kind: PhaseKind::Forward { mb: 0, chunk: 0 },
                    iteration: 1,
                },
                PhaseInfo {
                    kind: PhaseKind::Backward { mb: 0, chunk: 0 },
                    iteration: 1,
                },
            ],
            modules: vec![],
            meta: WorkloadMeta::default(),
        }
    }

    /// The two parts of a hash the std table uses, over a million
    /// sequential ids: no 7-bit tag and no 16-bit bucket index gets more
    /// than twice its fair share.
    #[test]
    fn tensor_map_hasher_spreads_sequential_ids_evenly() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        const IDS: u64 = 1_000_000;
        let build = BuildHasherDefault::<TensorIdHasher>::default();
        let mut tags = vec![0u64; 1 << 7];
        let mut buckets = vec![0u64; 1 << 16];
        for id in 0..IDS {
            let h = build.hash_one(TensorId(id));
            tags[(h >> 57) as usize] += 1;
            buckets[(h & 0xffff) as usize] += 1;
        }
        for (name, counts) in [("tag", &tags), ("bucket", &buckets)] {
            let fair = IDS / counts.len() as u64;
            let worst = *counts.iter().max().unwrap();
            assert!(
                worst <= 2 * fair,
                "fullest {name}: {worst} of a fair {fair}"
            );
        }
        // And it is a map: what goes in comes out.
        let mut map: TensorMap<u64> = TensorMap::default();
        for id in 0..1000 {
            assert_eq!(map.insert(TensorId(id), id * 3), None);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|id| map.remove(&TensorId(id)) == Some(id * 3)));
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        assert_eq!(mini_trace().validate(), Ok(0));
    }

    #[test]
    fn validate_rejects_double_free() {
        let mut t = mini_trace();
        t.events.push(TraceEvent::Free { id: TensorId(0) });
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_double_alloc() {
        let mut t = mini_trace();
        t.events.push(TraceEvent::Alloc {
            id: TensorId(0),
            size: 1,
            dynamic: false,
            category: TensorCategory::Transient,
        });
        assert!(t.validate().is_err());
    }

    #[test]
    fn peak_allocated_tracks_overlap() {
        let t = mini_trace();
        assert_eq!(t.peak_allocated(), 150);
    }

    #[test]
    fn iteration_range_finds_bounds() {
        let t = mini_trace();
        let (s, e) = t.iteration_range(1).unwrap();
        assert_eq!(s, 0);
        assert_eq!(e, t.events.len());
        assert!(t.iteration_range(2).is_none());
        assert_eq!(t.allocs_in_iteration(1), 2);
    }

    #[test]
    fn distinct_sizes_filters_and_dedups() {
        let t = mini_trace();
        assert_eq!(t.distinct_sizes(0), vec![50, 100]);
        assert_eq!(t.distinct_sizes(64), vec![100]);
    }
}
