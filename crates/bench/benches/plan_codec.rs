//! Criterion bench: binary codecs (plan `STPL`, profile `PROF`) vs
//! JSON, and plan-cache hit cost.
//!
//! Prints the artifact sizes first (the codecs' reason to exist), then
//! times encode/decode against the serde paths, and finally measures a
//! `PlanStore` cache hit against cold synthesis — the paper's
//! amortize-the-planning story in one table. The profile group also
//! times `fingerprint_job_body` over raw `PROF` bytes against the
//! decoded-profile `fingerprint_job`, the server's cache-hit fast path
//! — on the GPT-2 profile and on a `moe-dyn`-sized one, with bytes/s.

use criterion::{criterion_group, criterion_main, Criterion};
use stalloc_core::{
    apply_delta, diff_profiles, fingerprint_job, fingerprint_job_body, profile_trace, synthesize,
    Plan, SynthConfig,
};
use stalloc_solver::patch_plan;
use stalloc_store::{
    decode_plan, decode_profile, decode_profile_delta, encode_plan, encode_profile,
    encode_profile_delta, profile_body, synthesize_cached, PlanStore,
};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn gpt2_profile() -> stalloc_core::ProfiledRequests {
    let job = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1),
        OptimConfig::r(),
    )
    .with_mbs(2)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(1);
    let trace = job.build_trace().unwrap();
    profile_trace(&trace, 1).unwrap()
}

fn bench_codec_vs_json(c: &mut Criterion) {
    let profile = gpt2_profile();
    let plan = synthesize(&profile, &SynthConfig::default());
    let bytes = encode_plan(&plan);
    let json = plan.to_json();
    println!(
        "plan artifact sizes (GPT-2 345M): binary {} B, json {} B ({:.1}% of json)",
        bytes.len(),
        json.len(),
        100.0 * bytes.len() as f64 / json.len() as f64
    );

    let mut group = c.benchmark_group("plan_codec");
    group.sample_size(20);
    group.bench_function("encode_bin", |b| b.iter(|| encode_plan(&plan)));
    group.bench_function("decode_bin", |b| b.iter(|| decode_plan(&bytes).unwrap()));
    group.bench_function("encode_json", |b| b.iter(|| plan.to_json()));
    group.bench_function("decode_json", |b| {
        b.iter(|| Plan::from_json(&json).unwrap())
    });
    group.finish();
}

fn bench_profile_codec_vs_json(c: &mut Criterion) {
    let profile = gpt2_profile();
    let bytes = encode_profile(&profile);
    let json = serde_json::to_string(&profile).unwrap();
    println!(
        "profile payload sizes (GPT-2 345M): binary {} B, json {} B ({:.1}% of json)",
        bytes.len(),
        json.len(),
        100.0 * bytes.len() as f64 / json.len() as f64
    );

    let config = SynthConfig::default();
    let mut group = c.benchmark_group("profile_codec");
    group.sample_size(20);
    group.bench_function("encode_bin", |b| b.iter(|| encode_profile(&profile)));
    group.bench_function("decode_bin", |b| b.iter(|| decode_profile(&bytes).unwrap()));
    group.bench_function("encode_json", |b| {
        b.iter(|| serde_json::to_string(&profile).unwrap())
    });
    group.bench_function("decode_json", |b| {
        b.iter(|| serde_json::from_str::<stalloc_core::ProfiledRequests>(&json).unwrap())
    });
    // The server's binary-request fast path vs the decoded-profile walk.
    group.bench_function("fingerprint_from_bytes", |b| {
        b.iter(|| fingerprint_job_body(profile_body(&bytes).unwrap(), &config))
    });
    group.bench_function("fingerprint_from_profile", |b| {
        b.iter(|| fingerprint_job(&profile, &config))
    });

    group.finish();

    // The same fast path on a `moe-dyn`-sized stream (the benchmark's
    // Qwen1.5-MoE R job, ~260 KB of `PROF`), where the body walk is the
    // whole cost. The criterion stub reports no throughput, so this one
    // is a plain timed loop that prints bytes/s.
    let moe = harness::configs::moe_job(OptimConfig::r(), false)
        .build_trace()
        .unwrap();
    let moe_bytes = encode_profile(&profile_trace(&moe, 1).unwrap());
    let moe_body = profile_body(&moe_bytes).unwrap();
    let iters = 2000;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(fingerprint_job_body(
            std::hint::black_box(moe_body),
            &config,
        ));
    }
    let per_call = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "fingerprint_job_body (Qwen1.5-MoE R): {} B in {:.1} µs = {:.2} GB/s",
        moe_body.len(),
        per_call * 1e6,
        moe_body.len() as f64 / per_call / 1e9
    );
}

/// The incremental-re-planning path end to end: diff two near-identical
/// profiles, move the edit script through the `PROF-DELTA` codec, apply
/// it, and patch the base plan — each step timed against the cold
/// synthesis it replaces (`plan_cache/synthesize_cold` below).
fn bench_profile_delta(c: &mut Criterion) {
    let base = gpt2_profile();
    // A Chronos-style neighbour: a handful of resized activations plus
    // one new scratch tensor — the rest of the population is reused.
    let mut next = base.clone();
    for r in next.statics.iter_mut().skip(base.init_count).take(4) {
        r.size += 4096;
    }
    next.statics.push(stalloc_core::RequestEvent {
        size: 1 << 20,
        ts: 5,
        te: 30,
        ps: 0,
        pe: 0,
        dynamic: false,
        ls: None,
        le: None,
    });
    let delta = diff_profiles(&base, &next);
    let bytes = encode_profile_delta(&delta);
    let full = encode_profile(&next);
    println!(
        "delta payload sizes (GPT-2 345M, 5-request edit): PROF-DELTA {} B, full PROF {} B ({:.1}%)",
        bytes.len(),
        full.len(),
        100.0 * bytes.len() as f64 / full.len() as f64
    );
    let base_plan = synthesize(&base, &SynthConfig::default());

    let mut group = c.benchmark_group("profile_delta");
    group.sample_size(20);
    group.bench_function("diff", |b| b.iter(|| diff_profiles(&base, &next)));
    group.bench_function("encode", |b| b.iter(|| encode_profile_delta(&delta)));
    group.bench_function("decode", |b| {
        b.iter(|| decode_profile_delta(&bytes).unwrap())
    });
    group.bench_function("apply", |b| b.iter(|| apply_delta(&base, &delta).unwrap()));
    group.bench_function("patch_plan", |b| {
        b.iter(|| patch_plan(&base, &base_plan, &next).unwrap())
    });
    group.finish();
}

fn bench_cache_vs_synthesis(c: &mut Criterion) {
    let profile = gpt2_profile();
    let config = SynthConfig::default();
    let dir = std::env::temp_dir().join(format!("stalloc-bench-cache-{}", std::process::id()));
    let store = PlanStore::open(&dir).unwrap();
    // Warm the store so the cached path measures a pure hit.
    synthesize_cached(
        &profile,
        &config,
        &store,
        stalloc_solver::synthesize_strategy,
    )
    .unwrap();

    let mut group = c.benchmark_group("plan_cache");
    group.sample_size(10);
    group.bench_function("fingerprint", |b| {
        b.iter(|| fingerprint_job(&profile, &config))
    });
    group.bench_function("synthesize_cold", |b| {
        b.iter(|| synthesize(&profile, &config))
    });
    group.bench_function("synthesize_cached_hit", |b| {
        b.iter(|| {
            synthesize_cached(
                &profile,
                &config,
                &store,
                stalloc_solver::synthesize_strategy,
            )
            .unwrap()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_codec_vs_json,
    bench_profile_codec_vs_json,
    bench_profile_delta,
    bench_cache_vs_synthesis
);
criterion_main!(benches);
