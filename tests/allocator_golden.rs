//! Golden replays of the baseline allocators: "every replay decision
//! bit-equal" as a test instead of a sentence.
//!
//! The benchmark's five jobs (`dense-vpp`: GPT-2 345M VR, Llama2-7B VR,
//! Qwen2.5-14B V; `moe-dyn`, seed 1: Qwen1.5-MoE R and VR) are replayed
//! with the overlap oracle on through PyTorch 2.0, PyTorch 2.3,
//! expandable segments and GMLake, and what each allocator decided — the
//! report's reserved and device peaks, its operation counts, the simulated
//! cost of the last iteration and of the run, and a hash over every
//! address it handed out — is compared with the table below. The table
//! was recorded at the commit *before* `BlockPool` edited its blocks in
//! place and linked them to their neighbours, so a change to the block
//! pool or the caching allocator that moves a single block on these
//! replays fails here, naming the row that moved.
//!
//! GMLake runs twice. At its stock `fragLimit` of 512 MiB it never
//! stitches on these jobs, and its rows equal Torch 2.0's; at the paper's
//! MoE-tuned 64 MiB it stitches on every job, so those rows pin the stitch
//! path. No replay here runs out of device memory, so segment release is
//! left to the unit tests of `caching.rs` and `gmlake.rs`.
//!
//! Regenerating: only when an allocator is *meant* to decide
//! differently; replace `GOLDEN` with the table this test prints when it
//! fails:
//!
//! ```sh
//! cargo test --test allocator_golden -- --nocapture
//! ```

use allocators::{AllocError, AllocRequest, Allocation, AllocatorStats, GpuAllocator};
use gpu_sim::{Device, DeviceSpec};
use harness::{build_allocator, configs, replay, AllocatorKind, ReplayOptions};
use trace_gen::{ModelSpec, ModuleId, OptimConfig, PhaseId, PhaseInfo, TensorId, TrainJob};

/// What one replay decided: `[peak_reserved, device_peak, alloc_ops,
/// free_ops, vmm_ops, steady_overhead_ns, total_overhead_ns]`, then
/// FNV-1a 64 over the `(addr, granted)` of every allocation served, in
/// order. Labelled `job / allocator`.
type Row = (String, [u64; 7], u64);

#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 7], u64)] = &[
    ("gpt2-345m-VR / torch20", [8950644736, 8950644736, 11540, 11487, 0, 0, 2700000], 0xbc6968d5774c274f),
    ("gpt2-345m-VR / torch23", [8950644736, 8950644736, 11540, 11487, 0, 0, 2700000], 0xbc6968d5774c274f),
    ("gpt2-345m-VR / torch-es", [8451522560, 8451522560, 11540, 11487, 17570, 582540000, 1671120000], 0xaaaac63da92e826a),
    ("gpt2-345m-VR / gmlake", [8950644736, 8950644736, 11540, 11487, 0, 0, 2700000], 0xbc6968d5774c274f),
    ("gpt2-345m-VR / gmlake-64m", [8568963072, 8568963072, 11540, 11487, 87, 990000, 8850000], 0x055b8bca67f2a04b),
    ("llama2-7b-VR / torch20", [18683527168, 18683527168, 14964, 14747, 0, 0, 10350000], 0x360f31101d9cc060),
    ("llama2-7b-VR / torch23", [18683527168, 18683527168, 14964, 14747, 0, 0, 10350000], 0x360f31101d9cc060),
    ("llama2-7b-VR / torch-es", [18331205632, 18331205632, 14964, 14747, 28726, 849680000, 2738140000], 0x4303ae6937e268d0),
    ("llama2-7b-VR / gmlake", [18683527168, 18683527168, 14964, 14747, 0, 0, 10350000], 0x360f31101d9cc060),
    ("llama2-7b-VR / gmlake-64m", [18457034752, 18457034752, 14964, 14747, 1502, 33330000, 109650000], 0xd3f6ec763cd6879c),
    ("qwen2.5-14b-V / torch20", [108997378048, 108997378048, 22516, 21903, 0, 0, 56450000], 0x8c6d247aabd8e76c),
    ("qwen2.5-14b-V / torch23", [108997378048, 108997378048, 22516, 21903, 0, 0, 56450000], 0x8c6d247aabd8e76c),
    ("qwen2.5-14b-V / torch-es", [107877498880, 107877498880, 22516, 21903, 42024, 1267300000, 4021300000], 0xf2b0e089cace433c),
    ("qwen2.5-14b-V / gmlake", [108997378048, 108997378048, 22516, 21903, 0, 0, 56450000], 0x8c6d247aabd8e76c),
    ("qwen2.5-14b-V / gmlake-64m", [108645056512, 108645056512, 22516, 21903, 370, 0, 81220000], 0xcb9aa971158a47d8),
    ("qwen1.5-moe-R / torch20", [25717374976, 25717374976, 57336, 56547, 0, 0, 15700000], 0xcca6e8392bd7c848),
    ("qwen1.5-moe-R / torch23", [25717374976, 25717374976, 57336, 56547, 0, 0, 15700000], 0xcca6e8392bd7c848),
    ("qwen1.5-moe-R / torch-es", [25486688256, 25486688256, 57336, 56547, 68872, 2446060000, 6580560000], 0x22a5ea81d5090afd),
    ("qwen1.5-moe-R / gmlake", [25717374976, 25717374976, 57336, 56547, 0, 0, 15700000], 0xcca6e8392bd7c848),
    ("qwen1.5-moe-R / gmlake-64m", [25773998080, 25773998080, 57336, 56547, 5667, 125340000, 397960000], 0xd9cb18a0676486bf),
    ("qwen1.5-moe-VR / torch20", [26254245888, 26254245888, 57384, 56595, 0, 0, 15800000], 0x36abe4a2208dc825),
    ("qwen1.5-moe-VR / torch23", [26254245888, 26254245888, 57384, 56595, 0, 0, 15800000], 0x36abe4a2208dc825),
    ("qwen1.5-moe-VR / torch-es", [25872564224, 25872564224, 57384, 56595, 53076, 1488840000, 5079940000], 0x2e9da2ce6fe06ec9),
    ("qwen1.5-moe-VR / gmlake", [26254245888, 26254245888, 57384, 56595, 0, 0, 15800000], 0x36abe4a2208dc825),
    ("qwen1.5-moe-VR / gmlake-64m", [26109542400, 26109542400, 57384, 56595, 2671, 61860000, 194920000], 0xf155f473ad207935),
];

/// The allocators under test, with the labels of their rows.
const ALLOCATORS: [(&str, AllocatorKind); 5] = [
    ("torch20", AllocatorKind::Torch20),
    ("torch23", AllocatorKind::Torch23),
    ("torch-es", AllocatorKind::TorchEs),
    ("gmlake", AllocatorKind::GmLake(512 << 20)),
    ("gmlake-64m", AllocatorKind::GmLake(64 << 20)),
];

/// The benchmark's `dense-vpp` and `moe-dyn` (seed 1) jobs with their
/// devices.
fn jobs() -> Vec<(&'static str, TrainJob, DeviceSpec)> {
    let a800 = DeviceSpec::a800_80g;
    let moe = |vpp| configs::moe_job(OptimConfig::r(), vpp).with_seed(1);
    vec![
        (
            "gpt2-345m-VR",
            configs::gpt2_job(OptimConfig::r(), true),
            a800(),
        ),
        (
            "llama2-7b-VR",
            configs::llama2_job(OptimConfig::r(), true),
            a800(),
        ),
        (
            "qwen2.5-14b-V",
            configs::h200_job(&ModelSpec::qwen25_14b(), 16, false),
            DeviceSpec::h200_141g(),
        ),
        ("qwen1.5-moe-R", moe(false), a800()),
        ("qwen1.5-moe-VR", moe(true), a800()),
    ]
}

/// An allocator with a running hash of what it serves.
struct Recorded {
    inner: Box<dyn GpuAllocator>,
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

/// Replays every job of [`jobs`] through every allocator of
/// [`ALLOCATORS`], from nothing.
fn replay_all() -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, job, device) in jobs() {
        assert_eq!(
            job.iterations, 3,
            "{label}: the table is of three iterations"
        );
        let trace = job.build_trace().unwrap();
        for (name, kind) in ALLOCATORS {
            let mut alloc = Recorded {
                inner: build_allocator(kind, &trace),
                served: 0xcbf2_9ce4_8422_2325,
            };
            let r = replay(&trace, &device, &mut alloc, &ReplayOptions::default());
            assert!(!r.oom, "{label} / {name}: {:?}", r.oom_detail);
            rows.push((
                format!("{label} / {name}"),
                [
                    r.peak_reserved,
                    r.device_peak,
                    r.alloc_ops,
                    r.free_ops,
                    r.vmm_ops,
                    r.steady_overhead_ns,
                    r.total_overhead_ns,
                ],
                alloc.served,
            ));
        }
    }
    rows
}

#[test]
fn replays_match_the_golden_table_twice_in_one_process() {
    let first = replay_all();
    let want: Vec<Row> = GOLDEN
        .iter()
        .map(|&(label, report, served)| (label.to_string(), report, served))
        .collect();
    if first != want {
        println!("const GOLDEN: &[(&str, [u64; 7], u64)] = &[");
        for (label, report, served) in &first {
            println!("    ({label:?}, {report:?}, {served:#018x}),");
        }
        println!("];");
    }
    for (got, want) in first.iter().zip(&want) {
        assert_eq!(got, want, "the allocator decided differently on {}", want.0);
    }
    assert_eq!(first.len(), want.len());
    // Nothing an allocator reports may depend on a map's iteration order
    // or on state left behind by an earlier replay in this process.
    assert_eq!(replay_all(), first, "a second replay disagrees");
}
