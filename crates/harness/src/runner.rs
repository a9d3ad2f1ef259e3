//! Shared experiment runner: builds allocators by kind, replays a trace,
//! and bundles memory + throughput results.

use allocators::{
    CachingAllocator, CachingConfig, ExpandableAllocator, GmLakeAllocator, GmLakeConfig,
    GpuAllocator, NativeAllocator,
};
use gpu_sim::DeviceSpec;
use stalloc_core::{profile_trace, RuntimeConfig, StallocAllocator, SynthConfig};
use trace_gen::Trace;

use crate::replay::{replay, ReplayOptions, ReplayReport};
use crate::throughput::{estimate, ThroughputReport};

/// The allocators under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// PyTorch 2.0 caching allocator.
    Torch20,
    /// PyTorch 2.3 caching allocator.
    Torch23,
    /// PyTorch 2.6 caching allocator.
    Torch26,
    /// PyTorch expandable segments.
    TorchEs,
    /// GMLake with the given `fragLimit` in bytes.
    GmLake(u64),
    /// Native cudaMalloc/cudaFree (the profiler's allocator).
    Native,
    /// STAlloc (full system).
    Stalloc,
    /// STAlloc with dynamic reuse disabled (Fig. 13 ablation).
    StallocNoReuse,
}

impl AllocatorKind {
    /// Display name used in tables.
    pub fn label(&self) -> String {
        match self {
            AllocatorKind::Torch20 => "Torch 2.0".into(),
            AllocatorKind::Torch23 => "Torch 2.3".into(),
            AllocatorKind::Torch26 => "Torch 2.6".into(),
            AllocatorKind::TorchEs => "Torch ES".into(),
            AllocatorKind::GmLake(_) => "GMLake".into(),
            AllocatorKind::Native => "Native".into(),
            AllocatorKind::Stalloc => "STAlloc".into(),
            AllocatorKind::StallocNoReuse => "STAlloc w/o reuse".into(),
        }
    }

    /// The default lineup of Fig. 8 and Fig. 10–12.
    pub fn paper_lineup() -> Vec<AllocatorKind> {
        vec![
            AllocatorKind::Torch20,
            AllocatorKind::GmLake(512 << 20),
            AllocatorKind::Torch23,
            AllocatorKind::TorchEs,
            AllocatorKind::Stalloc,
        ]
    }

    /// Whether this allocator requires the VMM API.
    pub fn needs_vmm(&self) -> bool {
        matches!(self, AllocatorKind::TorchEs | AllocatorKind::GmLake(_))
    }
}

/// One experiment result: replay metrics plus modelled throughput.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Allocator kind.
    pub kind: AllocatorKind,
    /// Replay metrics.
    pub report: ReplayReport,
    /// Modelled throughput (None when the run OOMed).
    pub throughput: Option<ThroughputReport>,
    /// Plan statistics (STAlloc kinds only).
    pub plan_stats: Option<stalloc_core::PlanStats>,
    /// Runtime counters (STAlloc kinds only).
    pub counters: Option<stalloc_core::RuntimeCounters>,
}

/// Builds an allocator instance. STAlloc kinds profile iteration 1 of the
/// trace and synthesize a plan first (the offline phase of the paper).
pub fn build_allocator(kind: AllocatorKind, trace: &Trace) -> Box<dyn GpuAllocator> {
    match kind {
        AllocatorKind::Torch20 => Box::new(CachingAllocator::new(CachingConfig::torch_2_0())),
        AllocatorKind::Torch23 => Box::new(CachingAllocator::new(CachingConfig::torch_2_3())),
        AllocatorKind::Torch26 => Box::new(CachingAllocator::new(CachingConfig::torch_2_6())),
        AllocatorKind::TorchEs => Box::new(ExpandableAllocator::new()),
        AllocatorKind::GmLake(frag) => {
            Box::new(GmLakeAllocator::new(GmLakeConfig::with_frag_limit(frag)))
        }
        AllocatorKind::Native => Box::new(NativeAllocator::new()),
        AllocatorKind::Stalloc | AllocatorKind::StallocNoReuse => {
            Box::new(stalloc_allocator(kind, trace))
        }
    }
}

/// The STAlloc runtime for `trace`: iteration 1 profiled, the plan
/// synthesized, and dynamic reuse on for `Stalloc` only. Lineups replay
/// one trace through several STAlloc kinds; the fingerprint-keyed plan
/// cache synthesizes the shared plan once.
fn stalloc_allocator(kind: AllocatorKind, trace: &Trace) -> StallocAllocator {
    let profile = profile_trace(trace, 1).expect("trace has iteration 1");
    let plan = crate::plan_cache::planned(&profile, &SynthConfig::default());
    let config = RuntimeConfig {
        dynamic_reuse: kind == AllocatorKind::Stalloc,
    };
    StallocAllocator::new(plan, config)
}

/// Replays `trace` with allocator `kind` on `spec` and assembles the result.
pub fn run(trace: &Trace, spec: &DeviceSpec, kind: AllocatorKind) -> RunResult {
    let opts = ReplayOptions::default();
    let (report, plan_stats, counters) = match kind {
        AllocatorKind::Stalloc | AllocatorKind::StallocNoReuse => {
            let mut alloc = stalloc_allocator(kind, trace);
            let report = replay(trace, spec, &mut alloc, &opts);
            (report, Some(alloc.plan().stats), Some(alloc.counters()))
        }
        _ => {
            let mut alloc = build_allocator(kind, trace);
            let report = replay(trace, spec, alloc.as_mut(), &opts);
            (report, None, None)
        }
    };
    let throughput = if report.oom {
        None
    } else {
        Some(estimate(&trace.meta, spec, report.steady_overhead_ns))
    };
    RunResult {
        kind,
        report,
        throughput,
        plan_stats,
        counters,
    }
}
