//! Analytic training-throughput model.
//!
//! Converts a trace's workload metadata plus the measured allocator overhead
//! into iteration time and the TFLOPS-per-GPU figure training frameworks
//! report. The paper's throughput *differences* come from (a) configuration
//! feasibility (OOM or not) and (b) allocator-induced latency; both enter
//! this model directly. Absolute numbers are analytic estimates, not
//! measurements of a real cluster.

use gpu_sim::DeviceSpec;
use trace_gen::WorkloadMeta;

/// Model FLOPs utilization assumed for compute time (fraction of peak a
/// well-tuned Megatron job achieves).
pub const MFU: f64 = 0.45;

/// Throughput estimate for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Iteration time in seconds (compute + bubble + comm + allocator).
    pub iter_time_s: f64,
    /// Useful model TFLOPS per GPU.
    pub tflops: f64,
    /// Fraction of iteration time spent in allocator/driver calls.
    pub allocator_overhead_frac: f64,
}

/// Computes iteration time and TFLOPS from workload metadata, the device,
/// and the allocator's steady-state per-iteration overhead (from replay).
pub fn estimate(
    meta: &WorkloadMeta,
    device: &DeviceSpec,
    allocator_overhead_ns: u64,
) -> ThroughputReport {
    let useful_flops = meta.flops_per_iter;
    let compute_s =
        useful_flops * (1.0 + meta.recompute_overhead) / (device.peak_tflops * 1e12 * MFU);
    let with_bubble = compute_s / (1.0 - meta.bubble_fraction).max(0.05);
    let with_comm = with_bubble * (1.0 + meta.comm_fraction);
    let overhead_s = allocator_overhead_ns as f64 / 1e9;
    let iter_time_s = with_comm + overhead_s;
    ThroughputReport {
        iter_time_s,
        tflops: useful_flops / iter_time_s / 1e12,
        allocator_overhead_frac: overhead_s / iter_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn meta() -> WorkloadMeta {
        TrainJob::new(
            ModelSpec::llama2_7b(),
            ParallelConfig::new(4, 2, 1),
            OptimConfig::r(),
        )
        .with_mbs(4)
        .with_microbatches(8)
        .build_trace()
        .unwrap()
        .meta
    }

    #[test]
    fn overhead_reduces_throughput() {
        let m = meta();
        let dev = DeviceSpec::a800_80g();
        let clean = estimate(&m, &dev, 0);
        let slow = estimate(&m, &dev, 2_000_000_000); // 2 s of allocator time
        assert!(slow.tflops < clean.tflops);
        assert!(slow.allocator_overhead_frac > 0.1);
        assert!(clean.allocator_overhead_frac == 0.0);
    }

    #[test]
    fn tflops_in_plausible_range() {
        let m = meta();
        let dev = DeviceSpec::a800_80g();
        let t = estimate(&m, &dev, 0);
        // Recompute + bubbles keep us below MFU * peak but in a sane band.
        assert!(
            t.tflops > 30.0 && t.tflops < dev.peak_tflops,
            "{}",
            t.tflops
        );
    }

    #[test]
    fn recompute_costs_throughput() {
        let mut m = meta();
        let dev = DeviceSpec::h200_141g();
        let with_r = estimate(&m, &dev, 0);
        m.recompute_overhead = 0.0;
        let without = estimate(&m, &dev, 0);
        assert!(without.tflops > with_r.tflops * 1.2);
    }
}
