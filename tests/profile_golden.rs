//! Golden profiles: "byte-identical profiles" as a test instead of a
//! sentence.
//!
//! The benchmark's five jobs (`dense-vpp`: GPT-2 345M VR, Llama2-7B VR,
//! Qwen2.5-14B V; `moe-dyn`, seed 1: Qwen1.5-MoE R and VR) are profiled
//! at iteration 1 — one MoE job at iteration 2 as well, whose routing
//! differs — and the profile's fingerprint (a digest of its whole
//! canonical `PROF` body: statics, dynamics, instance windows, arrival
//! lists) is compared with the table below. The table was recorded at
//! the commit *before* `profile_trace` became one pass with one closing
//! path, so a profiler change that moves a single request, tick or
//! arrival index fails here — independently of the plan goldens, which
//! would only say that some plan moved.
//!
//! Regenerating: only when the profiler is *meant* to characterize a
//! trace differently (cached plans keyed by the old profile's
//! fingerprint then simply miss); replace `GOLDEN` with the table this
//! test prints when it fails:
//!
//! ```sh
//! cargo test --test profile_golden -- --nocapture
//! ```

use harness::configs;
use stalloc_core::{fingerprint_profile, profile_trace};
use trace_gen::{ModelSpec, OptimConfig, TrainJob};

/// `(job, iteration, static requests, dynamic requests, fingerprint)`.
type Row = (&'static str, u32, usize, usize, &'static str);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("gpt2-345m-VR", 1, 3878, 0, "427c9a26ae675d19bf578a16370ecbae"),
    ("llama2-7b-VR", 1, 5122, 0, "c66deb8149387f39e8a09452d4026bff"),
    ("qwen2.5-14b-V", 1, 7898, 0, "5a533bfeebfa42caed89fb70e0fdc190"),
    ("qwen1.5-moe-R", 1, 5230, 14400, "4b488fc388ed33c7a7e56969a3a1ee32"),
    ("qwen1.5-moe-R", 2, 5230, 14400, "2fba6aa5c34f612a17df8fb81f39008c"),
    ("qwen1.5-moe-VR", 1, 5246, 14400, "5fe902c79b162ea0f9473a9d359a0453"),
];

/// The benchmark's `dense-vpp` and `moe-dyn` (seed 1) jobs, as in
/// `tests/runtime_golden.rs`, with the iterations to profile.
fn jobs() -> Vec<(&'static str, TrainJob, &'static [u32])> {
    let moe = |vpp| configs::moe_job(OptimConfig::r(), vpp).with_seed(1);
    vec![
        (
            "gpt2-345m-VR",
            configs::gpt2_job(OptimConfig::r(), true),
            &[1],
        ),
        (
            "llama2-7b-VR",
            configs::llama2_job(OptimConfig::r(), true),
            &[1],
        ),
        (
            "qwen2.5-14b-V",
            configs::h200_job(&ModelSpec::qwen25_14b(), 16, false),
            &[1],
        ),
        ("qwen1.5-moe-R", moe(false), &[1, 2]),
        ("qwen1.5-moe-VR", moe(true), &[1]),
    ]
}

#[test]
fn profiles_match_the_golden_table() {
    let mut rows: Vec<(&str, u32, usize, usize, String)> = Vec::new();
    for (name, job, iterations) in jobs() {
        let trace = job.build_trace().expect("benchmark job builds");
        for &iter in iterations {
            let p = profile_trace(&trace, iter).expect("iteration exists");
            let fp = fingerprint_profile(&p).to_hex();
            rows.push((name, iter, p.statics.len(), p.dynamics.len(), fp));
        }
    }
    let matches = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|(r, g)| (r.0, r.1, r.2, r.3, r.4.as_str()) == *g);
    if !matches {
        println!("const GOLDEN: &[Row] = &[");
        for (name, iter, statics, dynamics, fp) in &rows {
            println!("    ({name:?}, {iter}, {statics}, {dynamics}, {fp:?}),");
        }
        println!("];");
        let moved = rows
            .iter()
            .zip(GOLDEN)
            .find(|(r, g)| (r.0, r.1, r.2, r.3, r.4.as_str()) != **g)
            .map(|(r, _)| format!("{} iteration {}", r.0, r.1));
        panic!(
            "profile golden mismatch (first moved row: {}); table above",
            moved.as_deref().unwrap_or("row count")
        );
    }
}
