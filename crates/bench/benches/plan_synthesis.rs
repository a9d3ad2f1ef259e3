//! Criterion bench: plan-synthesis cost vs request count (paper Table 2's
//! `T_plan` column), and the cost of the soundness check every trust
//! boundary runs on a plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harness::configs;
use stalloc_core::{profile_trace, synthesize, SynthConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn bench_plan_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_synthesis");
    group.sample_size(10);
    for (label, mbs, m) in [("small", 1u32, 4u32), ("medium", 4, 8), ("large", 8, 16)] {
        let job = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::r(),
        )
        .with_mbs(mbs)
        .with_seq(512)
        .with_microbatches(m)
        .with_iterations(1);
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let n = profile.statics.len();
        group.bench_with_input(BenchmarkId::new(label, n), &profile, |b, p| {
            b.iter(|| synthesize(p, &SynthConfig::default()))
        });
    }
    group.finish();
}

fn bench_profiling(c: &mut Criterion) {
    let job = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1),
        OptimConfig::r(),
    )
    .with_mbs(4)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(1);
    let trace = job.build_trace().unwrap();
    c.bench_function("profile_trace", |b| {
        b.iter(|| profile_trace(&trace, 1).unwrap())
    });
}

/// `Plan::validate` on the benchmark's `dense-vpp` plans: a sound plan
/// (the check admits every decision), and the same plan with its last
/// decision duplicated, so the only conflict is found at the very end.
fn bench_plan_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_validate");
    for (label, job) in [
        ("gpt2-345m-VR", configs::gpt2_job(OptimConfig::r(), true)),
        ("llama2-7b-VR", configs::llama2_job(OptimConfig::r(), true)),
        (
            "qwen2.5-14b-V",
            configs::h200_job(&ModelSpec::qwen25_14b(), 16, false),
        ),
    ] {
        let trace = job.build_trace().unwrap();
        let sound = synthesize(&profile_trace(&trace, 1).unwrap(), &SynthConfig::default());
        let n = sound.init_allocs.len() + sound.iter_allocs.len();
        let mut unsound = sound.clone();
        let twin = *unsound.iter_allocs.last().unwrap();
        unsound.iter_allocs.push(twin);
        for (verdict, plan) in [("sound", &sound), ("last-conflicts", &unsound)] {
            assert_eq!(plan.validate().is_ok(), verdict == "sound");
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/{verdict}"), n),
                plan,
                |b, p| b.iter(|| p.validate()),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_synthesis,
    bench_profiling,
    bench_plan_validate
);
criterion_main!(benches);
