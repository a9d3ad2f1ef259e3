//! Evaluation configurations: the training jobs behind each paper
//! table/figure, sized for the simulated testbeds.
//!
//! The paper gives model + GPU counts + microbatch sizes but not every
//! parallel layout; layouts here follow standard Megatron practice for the
//! given model/hardware combination, and microbatch/sequence settings are
//! calibrated so peak memory lands in the regime the paper reports (tens of
//! GB on 80 GB devices). The chosen values are the arguments of the
//! functions below.

use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob, ZeroStage};

/// Number of iterations traced per experiment (profile uses iteration 1;
/// iterations 2+ exercise steady-state and MoE dynamicity).
pub const ITERATIONS: u32 = 3;

/// The six optimization combinations of Fig. 8 / Fig. 13, as
/// `(label, optim, vpp_on)`.
pub fn fig8_configs() -> Vec<(&'static str, OptimConfig, bool)> {
    vec![
        ("Naive", OptimConfig::naive(), false),
        ("R", OptimConfig::r(), false),
        ("V", OptimConfig::naive(), true),
        ("VR", OptimConfig::r(), true),
        ("ZR", OptimConfig::zr(), false),
        ("ZOR", OptimConfig::zor(), false),
    ]
}

/// GPT-2 on 8 GPUs (A800 testbed): TP1 PP4 DP2, mbs 32, seq 1024.
pub fn gpt2_job(optim: OptimConfig, vpp: bool) -> TrainJob {
    let mut parallel = ParallelConfig::new(1, 4, 2);
    if vpp {
        parallel = parallel.with_vpp(2); // 24 layers / (4*2) = 3 per chunk
    }
    TrainJob::new(ModelSpec::gpt2_345m(), parallel, optim)
        .with_mbs(32)
        .with_seq(1024)
        .with_microbatches(16)
        .with_iterations(ITERATIONS)
}

/// Llama2-7B on 8 GPUs (A800 testbed): TP4 PP2, mbs 4, seq 4096.
pub fn llama2_job(optim: OptimConfig, vpp: bool) -> TrainJob {
    let mut parallel = ParallelConfig::new(4, 2, 1);
    if vpp {
        parallel = parallel.with_vpp(2); // 32 / (2*2) = 8 per chunk
    }
    TrainJob::new(ModelSpec::llama2_7b(), parallel, optim)
        .with_mbs(4)
        .with_seq(4096)
        .with_microbatches(8)
        .with_iterations(ITERATIONS)
}

/// Qwen1.5-MoE-A2.7B on 8 GPUs: TP2 PP2 DP2 EP4, mbs 8, seq 2048.
pub fn moe_job(optim: OptimConfig, vpp: bool) -> TrainJob {
    let mut parallel = ParallelConfig::new(2, 2, 2).with_ep(4);
    if vpp {
        parallel = parallel.with_vpp(2); // 24 / (2*2) = 6 per chunk
    }
    TrainJob::new(ModelSpec::qwen15_moe_a27b(), parallel, optim)
        .with_mbs(8)
        .with_seq(2048)
        .with_microbatches(8)
        .with_iterations(ITERATIONS)
}

/// Fig. 9(a) AMD jobs: Llama2-7B / Qwen-MoE at cluster scale with
/// recomputation, MI210 64 GB.
pub fn amd_job(model_is_moe: bool, gpus: u32) -> TrainJob {
    if model_is_moe {
        let dp = gpus / 4; // tp2 * pp2
        let parallel = ParallelConfig::new(2, 2, dp).with_ep(4);
        TrainJob::new(ModelSpec::qwen15_moe_a27b(), parallel, OptimConfig::r())
            .with_mbs(8)
            .with_seq(2048)
            .with_microbatches(8)
            .with_iterations(ITERATIONS)
    } else {
        let dp = gpus / 8; // tp4 * pp2
        let parallel = ParallelConfig::new(4, 2, dp);
        TrainJob::new(ModelSpec::llama2_7b(), parallel, OptimConfig::r())
            .with_mbs(4)
            .with_seq(4096)
            .with_microbatches(16)
            .with_iterations(ITERATIONS)
    }
}

/// Fig. 9(b,c) H200 scaling jobs: Qwen2.5 family, with either full
/// recomputation (`recompute = true`) or virtual pipeline.
///
/// Layouts: 7B -> TP2 PP2, 14B -> TP2 PP2, 32B -> TP4 PP4, 72B -> TP4 PP4,
/// data parallelism fills the remaining GPUs.
pub fn h200_job(model: &ModelSpec, gpus: u32, recompute: bool) -> TrainJob {
    // (tp, pp, vpp chunks, mbs under recompute, mbs under VPP): VPP holds
    // many more in-flight activation cohorts, so its microbatches shrink.
    let (tp, pp, vpp, mbs_r, mbs_v) = match model.name.as_str() {
        "Qwen2.5-7B" => (2, 2, 2, 8, 4),
        "Qwen2.5-14B" => (2, 2, 3, 6, 2),
        "Qwen2.5-32B" => (4, 4, 2, 6, 2),
        "Qwen2.5-72B" => (4, 4, 2, 4, 1),
        other => panic!("unknown H200 model {other}"),
    };
    let mbs = if recompute { mbs_r } else { mbs_v };
    let dp = gpus / (tp * pp);
    assert!(dp >= 1, "too few GPUs for {}", model.name);
    let optim = if recompute {
        OptimConfig::r()
    } else {
        OptimConfig::naive()
    };
    let parallel = if recompute {
        ParallelConfig::new(tp, pp, dp)
    } else {
        ParallelConfig::new(tp, pp, dp).with_vpp(vpp)
    };
    TrainJob::new(model.clone(), parallel, optim)
        .with_mbs(mbs)
        .with_seq(4096)
        .with_microbatches(2 * pp * vpp.max(1))
        .with_iterations(ITERATIONS)
}

/// Table 1 jobs: Qwen2.5-14B on 16 H200 GPUs under the four configurations
/// the paper compares. Returns `(config label, job)`.
///
/// The sequence length (5504) is calibrated so the original VPP
/// configuration's theoretical demand sits just below the H200's capacity:
/// fragmentation then decides feasibility, as in the paper's §9.2 study.
pub fn table1_jobs() -> Vec<(&'static str, TrainJob)> {
    let model = ModelSpec::qwen25_14b();
    let base = |parallel: ParallelConfig, optim: OptimConfig| {
        TrainJob::new(model.clone(), parallel, optim)
            .with_mbs(3)
            .with_seq(5504)
            .with_microbatches(12)
            .with_iterations(ITERATIONS)
    };
    vec![
        (
            "Original (VPP)",
            base(
                ParallelConfig::new(2, 2, 4).with_vpp(3),
                OptimConfig::naive(),
            ),
        ),
        (
            "Disable VPP",
            base(ParallelConfig::new(2, 2, 4), OptimConfig::naive()),
        ),
        (
            "Recomputation",
            base(ParallelConfig::new(2, 2, 4).with_vpp(3), OptimConfig::r()),
        ),
        (
            "TP=4",
            base(
                ParallelConfig::new(4, 2, 2).with_vpp(3),
                OptimConfig::naive(),
            ),
        ),
    ]
}

/// Fig. 11 Colossal-AI flavour: GPT-2 with ZeRO-3 + activation offload on
/// 8 GPUs, pure data parallelism.
pub fn colossal_job(batch: u32) -> TrainJob {
    let optim = OptimConfig {
        recompute: trace_gen::RecomputeMode::None,
        offload: trace_gen::OffloadMode::Activations,
        zero: ZeroStage::Zero3,
    };
    TrainJob::new(ModelSpec::gpt2_345m(), ParallelConfig::new(1, 1, 8), optim)
        .with_mbs(batch / 8)
        .with_seq(1024)
        .with_microbatches(4)
        .with_iterations(ITERATIONS)
}

/// Fig. 10 micro-batch sweep: Llama2-7B + recomputation at the given mbs.
pub fn mbs_sweep_job(mbs: u32) -> TrainJob {
    llama2_job(OptimConfig::r(), false).with_mbs(mbs)
}

/// Fig. 1(b) configuration sweep for Llama2-7B on 8 GPUs: returns
/// `(label, job)` pairs covering the throughput/memory trade-off space.
pub fn fig1b_jobs() -> Vec<(String, TrainJob)> {
    let mut out = Vec::new();
    for (tp, pp) in [(4, 2), (2, 4), (8, 1)] {
        for (olabel, optim, vpp) in [
            ("N", OptimConfig::naive(), false),
            ("V", OptimConfig::naive(), true),
            ("R", OptimConfig::r(), false),
            ("VR", OptimConfig::r(), true),
        ] {
            if vpp && pp == 1 {
                continue;
            }
            let mut parallel = ParallelConfig::new(tp, pp, 8 / (tp * pp));
            if vpp {
                parallel = parallel.with_vpp(2);
            }
            if parallel.validate(&ModelSpec::llama2_7b()).is_err() {
                continue;
            }
            let job = TrainJob::new(ModelSpec::llama2_7b(), parallel, optim)
                .with_mbs(4)
                .with_seq(4096)
                .with_microbatches(8)
                .with_iterations(ITERATIONS);
            out.push((format!("TP{tp}PP{pp}-{olabel}"), job));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fig8_jobs_validate() {
        for (_, optim, vpp) in fig8_configs() {
            gpt2_job(optim, vpp).validate().unwrap();
            llama2_job(optim, vpp).validate().unwrap();
            moe_job(optim, vpp).validate().unwrap();
        }
    }

    #[test]
    fn scale_jobs_validate() {
        for gpus in [32, 64] {
            amd_job(false, gpus).validate().unwrap();
            amd_job(true, gpus).validate().unwrap();
        }
        for (m, g) in [
            (ModelSpec::qwen25_7b(), 8),
            (ModelSpec::qwen25_7b(), 16),
            (ModelSpec::qwen25_14b(), 16),
            (ModelSpec::qwen25_14b(), 32),
            (ModelSpec::qwen25_32b(), 32),
            (ModelSpec::qwen25_32b(), 64),
            (ModelSpec::qwen25_72b(), 64),
            (ModelSpec::qwen25_72b(), 128),
        ] {
            h200_job(&m, g, true).validate().unwrap();
            h200_job(&m, g, false).validate().unwrap();
        }
    }

    #[test]
    fn table1_and_misc_jobs_validate() {
        for (_, j) in table1_jobs() {
            j.validate().unwrap();
        }
        colossal_job(16).validate().unwrap();
        colossal_job(128).validate().unwrap();
        for mbs in [1, 2, 4, 8, 16, 32, 64] {
            mbs_sweep_job(mbs).validate().unwrap();
        }
        assert!(fig1b_jobs().len() >= 8);
        for (_, j) in fig1b_jobs() {
            j.validate().unwrap();
        }
    }
}
