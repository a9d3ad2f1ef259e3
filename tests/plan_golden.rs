//! Golden plans: "byte-identical plans" as a test instead of a sentence.
//!
//! For every zoo profile × the four concrete strategies — plus one
//! `patch_plan` output per zoo profile — the encoded `STPL` artifact is
//! hashed and compared with the table below. The table was generated at
//! the commit *before* the packer was re-implemented over an
//! offset-ordered index, so any planner-internals change that moves a
//! single offset fails here, naming the first row that moved.
//!
//! Regenerating: a legitimate layout change must bump
//! `SYNTH_ALGO_VERSION` (cached artifacts of the old algorithm must stop
//! being served) and then replace `GOLDEN` with the table this test
//! prints when it fails:
//!
//! ```sh
//! cargo test --test plan_golden -- --nocapture
//! ```

use stalloc_core::{profile_trace, ProfiledRequests, RequestEvent, StrategyChoice, SynthConfig};
use stalloc_solver::{patch_plan, synthesize_strategy};
use stalloc_store::codec::encode_plan;
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

/// `(profile, strategy or "patched", STPL byte length, FNV-1a 64 of the bytes)`.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("gpt2-naive", "baseline", 11583, 0xa37786b250cbcc83),
    ("gpt2-naive", "bestfit", 12229, 0xda0358695a7ca282),
    ("gpt2-naive", "tmp-order", 11657, 0xb8635c2e9e5a15fb),
    ("gpt2-naive", "lookahead", 11700, 0xc8fb940c7efed0f3),
    ("gpt2-naive", "patched", 11592, 0x94f3920f20eee01b),
    ("gpt2-vpp-r", "baseline", 17585, 0x301dada9020a3d57),
    ("gpt2-vpp-r", "bestfit", 18045, 0xfbcc797d6d1717b5),
    ("gpt2-vpp-r", "tmp-order", 17546, 0x398cc00a6934ca45),
    ("gpt2-vpp-r", "lookahead", 17736, 0xbf7694cedb770af2),
    ("gpt2-vpp-r", "patched", 17595, 0x72bdad08bb9774a8),
    ("llama2-r", "baseline", 23763, 0x1c221bfd29c2f96e),
    ("llama2-r", "bestfit", 23856, 0x59384adad4943cd3),
    ("llama2-r", "tmp-order", 23766, 0xc53f20a41b7beeeb),
    ("llama2-r", "lookahead", 23704, 0x5365caff4c2707d9),
    ("llama2-r", "patched", 23769, 0xf2698a9001f115ac),
    ("qwen-moe", "baseline", 40022, 0x4e320ce064a399cc),
    ("qwen-moe", "bestfit", 43512, 0x4e2289177128fd8e),
    ("qwen-moe", "tmp-order", 40021, 0x4b87e17d6badebc4),
    ("qwen-moe", "lookahead", 54157, 0x2f91335b06e3d06b),
    ("qwen-moe", "patched", 40680, 0x5ac216402819df4d),
    ("gpt2-345m-VR", "baseline", 39163, 0xde62cecde6739369),
    ("gpt2-345m-VR", "bestfit", 39656, 0xdb325a8c4429d2ba),
    ("gpt2-345m-VR", "tmp-order", 39075, 0x1e57a45840a8aa16),
    ("gpt2-345m-VR", "lookahead", 38191, 0xde4c9f941f231397),
    ("gpt2-345m-VR", "patched", 39174, 0xaf9f9e075426e7ca),
];

/// The four-model test zoo of `tests/strategies.rs` plus the benchmark's
/// `dense-vpp` head (GPT-2 345M, virtual pipeline + recomputation:
/// ~3.9k static tensors, the shape the packer index was built for).
fn zoo() -> Vec<(&'static str, TrainJob)> {
    vec![
        (
            "gpt2-naive",
            TrainJob::new(
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 2, 1),
                OptimConfig::naive(),
            )
            .with_mbs(1)
            .with_seq(256)
            .with_microbatches(4)
            .with_iterations(2),
        ),
        (
            "gpt2-vpp-r",
            TrainJob::new(
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 4, 1).with_vpp(2),
                OptimConfig::r(),
            )
            .with_mbs(2)
            .with_seq(512)
            .with_microbatches(8)
            .with_iterations(2),
        ),
        (
            "llama2-r",
            TrainJob::new(
                ModelSpec::llama2_7b(),
                ParallelConfig::new(2, 2, 1),
                OptimConfig::r(),
            )
            .with_mbs(1)
            .with_seq(512)
            .with_microbatches(4)
            .with_iterations(2),
        ),
        (
            "qwen-moe",
            TrainJob::new(
                ModelSpec::qwen15_moe_a27b(),
                ParallelConfig::new(1, 1, 4).with_ep(4),
                OptimConfig::naive(),
            )
            .with_mbs(1)
            .with_seq(512)
            .with_microbatches(2)
            .with_iterations(2),
        ),
        (
            "gpt2-345m-VR",
            harness::configs::gpt2_job(OptimConfig::r(), true),
        ),
    ]
}

/// The Chronos-style neighbour of `tests/replan_equivalence.rs`: a few
/// post-init requests grow, one fresh scratch tensor appears.
fn neighbour(base: &ProfiledRequests) -> ProfiledRequests {
    let mut next = base.clone();
    for r in next.statics.iter_mut().skip(base.init_count).take(3) {
        r.size += 4096;
    }
    next.statics.push(RequestEvent {
        size: 1 << 20,
        ts: 5,
        te: 30,
        ps: 0,
        pe: 0,
        dynamic: false,
        ls: None,
        le: None,
    });
    next
}

/// FNV-1a 64, local so the table does not move with `FINGERPRINT_VERSION`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn encoded_plans_match_the_golden_table() {
    let mut actual: Vec<(&str, &str, usize, u64)> = Vec::new();
    for (name, job) in zoo() {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let mut baseline = None;
        for strategy in StrategyChoice::CONCRETE {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let plan = synthesize_strategy(&profile, &config);
            let bytes = encode_plan(&plan);
            actual.push((name, strategy.name(), bytes.len(), fnv1a(&bytes)));
            if strategy == StrategyChoice::Baseline {
                baseline = Some(plan);
            }
        }
        let base_plan = baseline.expect("baseline is a concrete strategy");
        let (patched, _) = patch_plan(&profile, &base_plan, &neighbour(&profile)).unwrap();
        let bytes = encode_plan(&patched);
        actual.push((name, "patched", bytes.len(), fnv1a(&bytes)));
    }

    if actual != GOLDEN {
        let moved = actual
            .iter()
            .zip(GOLDEN)
            .find(|(a, g)| a != g)
            .map(|(a, _)| format!("{}/{}", a.0, a.1))
            .unwrap_or_else(|| "row count".to_string());
        let mut table = String::new();
        for (name, strategy, len, hash) in &actual {
            table.push_str(&format!(
                "    ({name:?}, {strategy:?}, {len}, 0x{hash:016x}),\n"
            ));
        }
        panic!(
            "encoded plans moved (first difference: {moved}).\n\
             If the layout change is intended, bump SYNTH_ALGO_VERSION and \
             replace GOLDEN with:\n{table}"
        );
    }
}
