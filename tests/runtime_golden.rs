//! Golden replays: "bit-equal runtime behaviour" as a test instead of a
//! sentence.
//!
//! The benchmark's five jobs (`dense-vpp`: GPT-2 345M VR, Llama2-7B VR,
//! Qwen2.5-14B V; `moe-dyn`, seed 1: Qwen1.5-MoE R and VR) are planned
//! cold, replayed with the overlap oracle on for their three iterations,
//! and everything the runtime allocator decided — the `RuntimeCounters`,
//! the pool it reserved, the requests it served, the simulated cost of
//! the last iteration and of the run, and a hash over every address it
//! handed out — is compared with the table below; one MoE job
//! is replayed once more with `dynamic_reuse: false`. The table was
//! recorded at the commit *before* the runtime's free set became a
//! sorted run and its tensor maps left SipHash, so a change to the
//! runtime's data structures that moves a single placement fails here,
//! naming the row that moved.
//!
//! Regenerating: only when the runtime is *meant* to decide differently
//! (or the planner is, together with a `SYNTH_ALGO_VERSION` bump);
//! replace `GOLDEN` with the table this test prints when it fails:
//!
//! ```sh
//! cargo test --test runtime_golden -- --nocapture
//! ```

use allocators::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};
use gpu_sim::{Device, DeviceSpec};
use harness::{configs, replay, ReplayOptions};
use stalloc_core::{
    profile_trace, synthesize, RuntimeConfig, RuntimeCounters, StallocAllocator, SynthConfig,
};
use trace_gen::{ModelSpec, ModuleId, OptimConfig, PhaseId, PhaseInfo, TensorId, TrainJob};

/// What one replay decided: the allocator's counters in declaration
/// order (`static_planned`, `static_fallback`, `dynamic_reused`,
/// `dynamic_fallback`, `lookahead_matches`, `stomps_avoided`,
/// `fallback_bytes_peak`), then the report's `[peak_reserved, alloc_ops,
/// free_ops, steady_overhead_ns, total_overhead_ns]` and FNV-1a 64 over
/// the `(addr, granted)` of every allocation served, in order.
type Row = (&'static str, [u64; 7], [u64; 5], u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("gpt2-345m-VR", [11528, 12, 0, 0, 0, 0, 96818176], [7915281408, 11540, 11487, 0, 150000], 0xaa629b125310decc),
    ("llama2-7b-VR", [14932, 32, 0, 0, 0, 0, 48345600], [17939953664, 14964, 14747, 0, 150000], 0x9190efcc5d1ea3f5),
    ("qwen2.5-14b-V", [22468, 48, 0, 0, 0, 0, 61250560], [107130340864, 22516, 21903, 0, 150000], 0x95e3bab609c9d852),
    ("qwen1.5-moe-R", [14112, 24, 40410, 2790, 0, 0, 278628352], [25257732608, 57336, 56547, 0, 700000], 0x9d806c7b85db0990),
    ("qwen1.5-moe-VR", [14160, 24, 37987, 5213, 0, 0, 275255296], [25438895616, 57384, 56595, 0, 700000], 0xbb4fbf95c6a86c9a),
    ("qwen1.5-moe-R w/o reuse", [14112, 24, 0, 43200, 0, 0, 278943744], [25257732608, 57336, 56547, 0, 700000], 0x71d38392f05d253d),
];

/// The benchmark's `dense-vpp` and `moe-dyn` (seed 1) jobs with their
/// devices, plus whether dynamic reuse is on.
fn jobs() -> Vec<(&'static str, TrainJob, DeviceSpec, bool)> {
    let a800 = DeviceSpec::a800_80g;
    let moe = |vpp| configs::moe_job(OptimConfig::r(), vpp).with_seed(1);
    vec![
        (
            "gpt2-345m-VR",
            configs::gpt2_job(OptimConfig::r(), true),
            a800(),
            true,
        ),
        (
            "llama2-7b-VR",
            configs::llama2_job(OptimConfig::r(), true),
            a800(),
            true,
        ),
        (
            "qwen2.5-14b-V",
            configs::h200_job(&ModelSpec::qwen25_14b(), 16, false),
            DeviceSpec::h200_141g(),
            true,
        ),
        ("qwen1.5-moe-R", moe(false), a800(), true),
        ("qwen1.5-moe-VR", moe(true), a800(), true),
        ("qwen1.5-moe-R w/o reuse", moe(false), a800(), false),
    ]
}

/// The runtime allocator with a running hash of what it serves.
struct Recorded {
    inner: StallocAllocator,
    served: u64,
}

impl GpuAllocator for Recorded {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn malloc(&mut self, dev: &mut Device, req: &AllocRequest) -> Result<Allocation, AllocError> {
        let a = self.inner.malloc(dev, req)?;
        for word in [a.addr, a.granted] {
            for b in word.to_le_bytes() {
                self.served = (self.served ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Ok(a)
    }

    fn free(&mut self, dev: &mut Device, tensor: TensorId) -> Result<u64, AllocError> {
        self.inner.free(dev, tensor)
    }

    fn stats(&self) -> AllocatorStats {
        self.inner.stats()
    }

    fn iteration_begin(&mut self, dev: &mut Device, iter: u32) {
        self.inner.iteration_begin(dev, iter);
    }

    fn phase_begin(&mut self, dev: &mut Device, phase: PhaseId, info: &PhaseInfo) {
        self.inner.phase_begin(dev, phase, info);
    }

    fn module_enter(&mut self, dev: &mut Device, module: ModuleId) {
        self.inner.module_enter(dev, module);
    }

    fn module_exit(&mut self, dev: &mut Device, module: ModuleId) {
        self.inner.module_exit(dev, module);
    }
}

/// Exhaustive on purpose: a new counter must join the table.
fn counters(c: RuntimeCounters) -> [u64; 7] {
    let RuntimeCounters {
        static_planned,
        static_fallback,
        dynamic_reused,
        dynamic_fallback,
        lookahead_matches,
        stomps_avoided,
        fallback_bytes_peak,
    } = c;
    [
        static_planned,
        static_fallback,
        dynamic_reused,
        dynamic_fallback,
        lookahead_matches,
        stomps_avoided,
        fallback_bytes_peak,
    ]
}

/// Plans and replays every job of [`jobs`], from nothing.
fn replay_all() -> Vec<Row> {
    jobs()
        .into_iter()
        .map(|(label, job, device, dynamic_reuse)| {
            assert_eq!(
                job.iterations, 3,
                "{label}: the table is of three iterations"
            );
            let trace = job.build_trace().unwrap();
            let profile = profile_trace(&trace, 1).unwrap();
            let plan = synthesize(&profile, &SynthConfig::default());
            let mut alloc = Recorded {
                inner: StallocAllocator::new(plan, RuntimeConfig { dynamic_reuse }),
                served: 0xcbf2_9ce4_8422_2325,
            };
            let report = replay(&trace, &device, &mut alloc, &ReplayOptions::default());
            assert!(!report.oom, "{label}: {:?}", report.oom_detail);
            (
                label,
                counters(alloc.inner.counters()),
                [
                    report.peak_reserved,
                    report.alloc_ops,
                    report.free_ops,
                    report.steady_overhead_ns,
                    report.total_overhead_ns,
                ],
                alloc.served,
            )
        })
        .collect()
}

#[test]
fn replays_match_the_golden_table_twice_in_one_process() {
    let first = replay_all();
    if first != GOLDEN {
        println!("const GOLDEN: &[Row] = &[");
        for (label, counters, report, served) in &first {
            println!("    ({label:?}, {counters:?}, {report:?}, {served:#018x}),");
        }
        println!("];");
    }
    for (got, want) in first.iter().zip(GOLDEN) {
        assert_eq!(got, want, "the runtime decided differently on {}", want.0);
    }
    assert_eq!(first.len(), GOLDEN.len());
    // Nothing the runtime reports may depend on a map's iteration order
    // or on state left behind by an earlier replay in this process.
    assert_eq!(replay_all(), first, "a second replay disagrees");
}
