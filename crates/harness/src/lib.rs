//! Experiment harness for the STAlloc reproduction.
//!
//! Glues the workload generator, the simulated device, the baseline
//! allocators and STAlloc together:
//!
//! * [`mod@replay`] — drives an allocator with a trace, measures the paper's
//!   metrics (peak allocated `M_a`, peak reserved `M_r`, efficiency,
//!   OOM) and enforces correctness oracles (no overlapping live tensors);
//! * [`throughput`] — converts workload metadata + allocator overhead into
//!   iteration time and TFLOPS;
//! * [`configs`] — the training jobs behind every table/figure;
//! * [`lab`] — one result set: each job traced and each (job, device,
//!   allocator) replayed at most once, for every table to read;
//! * [`experiments`] — one function per paper table/figure;
//! * [`plan_cache`] — a process-wide, fingerprint-keyed memo of
//!   synthesized plans;
//! * [`table`] — plain-text table rendering.

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

pub mod configs;
pub mod experiments;
pub mod lab;
pub mod plan_cache;
pub mod replay;
pub mod runner;
pub mod table;
pub mod throughput;

pub use lab::Lab;
pub use plan_cache::PlanCacheStats;
pub use replay::{replay, ReplayOptions, ReplayReport};
pub use runner::{build_allocator, run, AllocatorKind, RunResult};
pub use table::{gib, pct, Table};
pub use throughput::{estimate, ThroughputReport};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn small_trace() -> trace_gen::Trace {
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::r(),
        )
        .with_mbs(2)
        .with_seq(512)
        .with_microbatches(8)
        .with_iterations(2)
        .build_trace()
        .unwrap()
    }

    #[test]
    fn replay_all_allocators_without_oom() {
        let trace = small_trace();
        let spec = DeviceSpec::test_device(16 << 30);
        for kind in [
            AllocatorKind::Native,
            AllocatorKind::Torch20,
            AllocatorKind::Torch23,
            AllocatorKind::TorchEs,
            AllocatorKind::GmLake(64 << 20),
            AllocatorKind::Stalloc,
            AllocatorKind::StallocNoReuse,
        ] {
            let r = run(&trace, &spec, kind);
            assert!(!r.report.oom, "{:?} OOMed: {:?}", kind, r.report.oom_detail);
            assert!(r.report.peak_reserved >= r.report.peak_requested / 2);
            assert_eq!(r.report.alloc_ops, r.report.free_ops + leaked(&trace));
        }
    }

    fn leaked(trace: &trace_gen::Trace) -> u64 {
        trace.validate().unwrap() as u64
    }

    #[test]
    fn stalloc_beats_torch_on_fragmentation() {
        let trace = small_trace();
        let spec = DeviceSpec::test_device(16 << 30);
        let torch = run(&trace, &spec, AllocatorKind::Torch23);
        let st = run(&trace, &spec, AllocatorKind::Stalloc);
        assert!(
            st.report.efficiency() >= torch.report.efficiency(),
            "STAlloc {:.3} vs Torch {:.3}",
            st.report.efficiency(),
            torch.report.efficiency()
        );
        assert!(
            st.report.efficiency() > 0.9,
            "STAlloc efficiency {:.3}",
            st.report.efficiency()
        );
        let c = st.counters.unwrap();
        assert_eq!(c.stomps_avoided, 0, "plan divergence on a static trace");
        // The only unplanned statics are the init-time autotuning probes
        // (2 per layer), which predate the profiled window by design.
        assert_eq!(c.static_fallback, 12, "only autotune probes fall back");
    }

    #[test]
    fn native_allocator_has_no_fragmentation() {
        let trace = small_trace();
        let spec = DeviceSpec::test_device(16 << 30);
        let r = run(&trace, &spec, AllocatorKind::Native);
        assert!(r.report.efficiency() > 0.999);
    }

    #[test]
    fn oom_reported_for_tiny_device() {
        let trace = small_trace();
        let spec = DeviceSpec::test_device(64 << 20);
        let r = run(&trace, &spec, AllocatorKind::Torch23);
        assert!(r.report.oom);
        assert!(r.report.oom_detail.is_some());
        assert!(r.throughput.is_none());
    }

    #[test]
    fn delta_replan_lands_between_hit_and_cold() {
        let metrics = experiments::delta_replan_metrics();
        let median = |name: &str| {
            metrics
                .tiers
                .iter()
                .find(|t| t.name == name)
                .and_then(|t| t.hist.quantile(0.5))
                .unwrap_or_else(|| panic!("tier {name} never exercised"))
        };
        let (lru, patched, miss) = (median("lru"), median("patched"), median("miss"));
        // The acceptance bar: a patched re-plan is strictly cheaper than
        // a cold synthesis and strictly dearer than an LRU hit.
        assert!(
            lru < patched && patched < miss,
            "tier medians out of order: lru {lru}µs, patched {patched}µs, miss {miss}µs"
        );
        // The whole family after stage 0 was patched, never synthesized.
        assert_eq!(metrics.stats.misses, 1);
        assert_eq!(metrics.stats.delta_patched, 3);
        // The rendered lineup carries the same three tiers.
        let table = experiments::delta_replan().render();
        for tier in ["lru", "patched", "miss"] {
            assert!(table.contains(tier), "{table}");
        }
    }

    #[test]
    fn moe_dynamic_requests_are_reused_or_fall_back() {
        let trace = TrainJob::new(
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 8).with_ep(4),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(512)
        .with_microbatches(2)
        .with_iterations(3)
        .build_trace()
        .unwrap();
        // The unsharded MoE optimizer state alone needs ~75 GiB.
        let spec = DeviceSpec::test_device(256 << 30);
        let full = run(&trace, &spec, AllocatorKind::Stalloc);
        let noreuse = run(&trace, &spec, AllocatorKind::StallocNoReuse);
        let cf = full.counters.unwrap();
        let cn = noreuse.counters.unwrap();
        assert!(cf.dynamic_reused > 0, "reuse path exercised: {cf:?}");
        assert_eq!(cn.dynamic_reused, 0);
        assert!(
            cf.fallback_bytes_peak <= cn.fallback_bytes_peak,
            "reuse reduces fallback pressure"
        );
        assert!(!full.report.oom && !noreuse.report.oom);
    }
}
