//! Dense-model scenario: Llama2-7B under the paper's six optimization
//! combinations, comparing fragmentation across all five allocators.
//!
//! Run with: `cargo run --release --example dense_training`

use gpu_sim::DeviceSpec;
use harness::{AllocatorKind, Lab};
use trace_gen::{OptimConfig, ParallelConfig, TrainJob};

fn main() {
    let spec = DeviceSpec::a800_80g();
    let kinds = AllocatorKind::paper_lineup();
    let mut lab = Lab::default();
    println!("Llama2-7B on 8xA800 (TP4 PP2), memory efficiency by optimization combo\n");
    print!("{:<8}", "config");
    for k in &kinds {
        print!("{:>20}", k.label());
    }
    println!();
    for (label, optim, vpp) in [
        ("Naive", OptimConfig::naive(), false),
        ("R", OptimConfig::r(), false),
        ("V", OptimConfig::naive(), true),
        ("VR", OptimConfig::r(), true),
        ("ZR", OptimConfig::zr(), false),
        ("ZOR", OptimConfig::zor(), false),
    ] {
        let mut parallel = ParallelConfig::new(4, 2, 1);
        if vpp {
            parallel = parallel.with_vpp(2);
        }
        let job = TrainJob::new(trace_gen::ModelSpec::llama2_7b(), parallel, optim)
            .with_mbs(4)
            .with_seq(4096)
            .with_microbatches(8);
        print!("{label:<8}");
        for r in lab.lineup(&job, &spec, &kinds) {
            let cell = if r.report.oom {
                "OOM".to_string()
            } else {
                format!("{:.1}%", r.report.efficiency() * 100.0)
            };
            print!("{cell:>20}");
        }
        println!();
    }
}
