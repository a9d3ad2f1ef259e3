//! Codec round-trip and robustness properties, for both binary formats
//! (`STPL` plans and `PROF` profiles).
//!
//! * encode → decode must reproduce the artifact exactly, and re-encoding
//!   the decoded value must be byte-identical (the codecs are canonical);
//! * the binary forms must stay under the acceptance ceiling of 25% of
//!   the JSON size on the GPT-2 345M example;
//! * truncated or corrupted streams must fail with *typed* errors — the
//!   decoders never panic on foreign bytes;
//! * the `PROF` body must hash to the same fingerprint as the decoded
//!   profile's field walk, across the whole model zoo.

use proptest::prelude::*;

use stalloc_core::{fingerprint_job, fingerprint_job_body, profile_trace, synthesize, SynthConfig};
use stalloc_store::{
    decode_plan, decode_profile, encode_plan, encode_profile, profile_body, CodecError, MAGIC,
    PROFILE_MAGIC,
};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn model_zoo(idx: u64) -> (ModelSpec, ParallelConfig, OptimConfig) {
    match idx % 4 {
        0 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        ),
        1 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1).with_vpp(2),
            OptimConfig::r(),
        ),
        2 => (
            ModelSpec::llama2_7b(),
            ParallelConfig::new(2, 2, 1),
            OptimConfig::r(),
        ),
        _ => (
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 4).with_ep(4),
            OptimConfig::naive(),
        ),
    }
}

fn synth_config(gaps: bool, ascending: bool) -> SynthConfig {
    SynthConfig {
        enable_gap_insertion: gaps,
        ascending_sizes: ascending,
        ..SynthConfig::default()
    }
}

proptest! {
    #[test]
    fn encode_decode_roundtrips_across_model_zoo(
        model_idx in 0u64..4,
        mbs in 1u32..3,
        mb_factor in 1u32..3,
        seed in 0u64..1000,
        gaps in prop::bool::ANY,
        ascending in prop::bool::ANY,
    ) {
        let (model, parallel, optim) = model_zoo(model_idx);
        let trace = TrainJob::new(model, parallel, optim)
            .with_mbs(mbs)
            .with_seq(256)
            // Interleaved schedules need microbatches divisible by pp.
            .with_microbatches(parallel.pp * mb_factor)
            .with_iterations(1)
            .with_seed(seed)
            .build_trace()
            .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let plan = synthesize(&profile, &synth_config(gaps, ascending));

        let bytes = encode_plan(&plan);
        prop_assert!(bytes.starts_with(&MAGIC));
        let decoded = decode_plan(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(&decoded, &plan, "decode(encode(p)) != p");
        prop_assert_eq!(encode_plan(&decoded), bytes, "re-encode not byte-identical");
    }

    #[test]
    fn profile_encode_decode_roundtrips_across_model_zoo(
        model_idx in 0u64..4,
        mbs in 1u32..3,
        mb_factor in 1u32..3,
        seed in 0u64..1000,
    ) {
        let (model, parallel, optim) = model_zoo(model_idx);
        let trace = TrainJob::new(model, parallel, optim)
            .with_mbs(mbs)
            .with_seq(256)
            .with_microbatches(parallel.pp * mb_factor)
            .with_iterations(1)
            .with_seed(seed)
            .build_trace()
            .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;

        let bytes = encode_profile(&profile);
        prop_assert!(bytes.starts_with(&PROFILE_MAGIC));
        prop_assert_eq!(decode_plan(&bytes), Err(CodecError::BadMagic));
        let decoded = decode_profile(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(&decoded, &profile, "decode(encode(p)) != p");
        prop_assert_eq!(encode_profile(&decoded), bytes, "re-encode not byte-identical");

        // The PROF body is the canonical fingerprint walk: hashing the
        // raw bytes (the server's binary-request fast path) must agree
        // with hashing the decoded profile.
        let config = SynthConfig::default();
        prop_assert_eq!(
            fingerprint_job_body(profile_body(&bytes).map_err(|e| e.to_string())?, &config),
            fingerprint_job(&profile, &config),
            "bytes fingerprint != field-walk fingerprint"
        );
    }

    #[test]
    fn profile_truncation_yields_typed_errors_never_panics(
        mbs in 1u32..3,
        cut_seed in 0u64..u64::MAX,
    ) {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(mbs)
        .with_seq(256)
        .with_microbatches(2)
        .with_iterations(1)
        .build_trace()
        .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let bytes = encode_profile(&profile);

        let cut = (cut_seed as usize) % bytes.len();
        let err = decode_profile(&bytes[..cut]);
        prop_assert!(err.is_err(), "strict prefix of length {} decoded", cut);
        prop_assert!(
            matches!(
                err.unwrap_err(),
                CodecError::Truncated { .. }
                    | CodecError::BadMagic
                    | CodecError::LengthOverflow { .. }
                    | CodecError::IntOutOfRange { .. }
            ),
            "unexpected error class at cut {}", cut
        );
    }

    #[test]
    fn corrupted_profile_bytes_never_panic(
        flip_pos_seed in 0u64..u64::MAX,
        flip_mask in 1u8..=255,
    ) {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(2)
        .with_iterations(1)
        .build_trace()
        .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let mut bytes = encode_profile(&profile);

        let pos = (flip_pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip_mask;
        // A flip may still decode (to a different profile) — the
        // property is purely "no panic, and magic damage is detected".
        match decode_profile(&bytes) {
            Ok(_) => prop_assert!(pos >= 4, "magic corruption must not decode"),
            Err(e) => {
                if pos < 4 {
                    prop_assert_eq!(e, CodecError::BadMagic);
                }
            }
        }
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics(
        mbs in 1u32..3,
        cut_seed in 0u64..u64::MAX,
    ) {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(mbs)
        .with_seq(256)
        .with_microbatches(2)
        .with_iterations(1)
        .build_trace()
        .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let plan = synthesize(&profile, &SynthConfig::default());
        let bytes = encode_plan(&plan);

        let cut = (cut_seed as usize) % bytes.len();
        let err = decode_plan(&bytes[..cut]);
        prop_assert!(err.is_err(), "strict prefix of length {} decoded", cut);
        prop_assert!(
            matches!(
                err.unwrap_err(),
                CodecError::Truncated { .. }
                    | CodecError::BadMagic
                    | CodecError::LengthOverflow { .. }
            ),
            "unexpected error class at cut {}", cut
        );
    }

    #[test]
    fn corrupted_bytes_decode_to_error_or_other_plan_without_panic(
        flip_pos_seed in 0u64..u64::MAX,
        flip_mask in 1u8..=255,
    ) {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(2)
        .with_iterations(1)
        .build_trace()
        .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let plan = synthesize(&profile, &SynthConfig::default());
        let mut bytes = encode_plan(&plan);

        let pos = (flip_pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip_mask;
        // A flip may still decode (to a different plan) — the property is
        // purely "no panic, and magic damage is detected as such".
        match decode_plan(&bytes) {
            Ok(_) => prop_assert!(pos >= 4, "magic corruption must not decode"),
            Err(e) => {
                if pos < 4 {
                    prop_assert_eq!(e, CodecError::BadMagic);
                }
            }
        }
    }
}

#[test]
fn gpt2_345m_binary_profile_is_at_most_a_quarter_of_json() {
    // The acceptance example: the dominant request payload of the plan
    // service, binary vs the serde value-tree JSON it replaces.
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1),
        OptimConfig::r(),
    )
    .with_mbs(2)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    let profile = profile_trace(&trace, 1).unwrap();

    let bytes = encode_profile(&profile);
    let json = serde_json::to_string(&profile).unwrap();
    assert_eq!(decode_profile(&bytes).unwrap(), profile);
    assert!(
        4 * bytes.len() <= json.len(),
        "binary profile {} B vs json {} B: over the 25% ceiling",
        bytes.len(),
        json.len()
    );
}

#[test]
fn gpt2_345m_binary_is_at_most_a_quarter_of_json() {
    // The acceptance example: the ~220 KB ROADMAP item job.
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1),
        OptimConfig::r(),
    )
    .with_mbs(2)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    let profile = profile_trace(&trace, 1).unwrap();
    let plan = synthesize(&profile, &SynthConfig::default());

    let bytes = encode_plan(&plan);
    let json = plan.to_json();
    assert_eq!(decode_plan(&bytes).unwrap(), plan);
    assert!(
        4 * bytes.len() <= json.len(),
        "binary {} B vs json {} B: over the 25% ceiling",
        bytes.len(),
        json.len()
    );
}
