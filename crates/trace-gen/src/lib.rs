//! LLM-training memory-trace generation.
//!
//! The STAlloc paper evaluates allocators on real Megatron-LM / Colossal-AI
//! training jobs. An allocator, however, only observes the *request stream*:
//! sizes, ordering, lifetimes, phase/module annotations and dynamicity. This
//! crate generates that stream from first principles — transformer tensor
//! catalogues, pipeline schedules, optimization lifetime transforms and MoE
//! routing — preserving the two properties STAlloc exploits:
//!
//! * **spatial regularity**: a configuration produces only a few dozen
//!   distinct tensor sizes (paper Fig. 3);
//! * **temporal regularity**: persistent / scoped / transient lifetime
//!   classes whose structure is phase-aligned (paper Fig. 4).
//!
//! # Examples
//!
//! ```
//! use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
//!
//! let job = TrainJob::new(
//!     ModelSpec::gpt2_345m(),
//!     ParallelConfig::new(1, 4, 2),
//!     OptimConfig::r(),
//! )
//! .with_mbs(4)
//! .with_seq(1024)
//! .with_microbatches(8);
//! let trace = job.build_trace().unwrap();
//! assert!(trace.alloc_count() > 0);
//! ```

pub mod builder;
pub mod flops;
pub mod model;
pub mod moe;
pub mod parallel;
pub mod schedule;
pub mod tensors;
pub mod trace;

pub use builder::{job_schedule, TrainJob};
pub use model::{MlpKind, ModelSpec, MoeSpec};
pub use parallel::{OffloadMode, OptimConfig, ParallelConfig, RecomputeMode, ZeroStage};
pub use schedule::{
    bubble_fraction, max_in_flight, schedule_1f1b, schedule_interleaved, Step, StepKind,
};
pub use trace::{
    ModuleId, PhaseId, PhaseInfo, PhaseKind, TensorCategory, TensorId, TensorIdHasher, TensorMap,
    Trace, TraceEvent, WorkloadMeta,
};
