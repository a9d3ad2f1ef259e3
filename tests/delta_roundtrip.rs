//! `PROF-DELTA` round-trip and robustness properties.
//!
//! * `apply(base, diff(base, next)) == next` for random edit scripts
//!   (resizes, retimes, removals, insertions, window tweaks) over the
//!   whole model zoo — and the codec round-trip of the edit script is
//!   canonical (re-encode byte-identical);
//! * the differential fingerprint oracle: the applied delta hashes to
//!   the same config-free profile fingerprint as the full next profile;
//! * truncated or corrupted `PRFD` streams must fail with *typed*
//!   errors — the decoder never panics on foreign bytes.

use proptest::prelude::*;

use stalloc_core::{
    apply_delta, diff_profiles, fingerprint_profile, profile_trace, ProfiledRequests, RequestEvent,
};
use stalloc_store::{
    decode_plan, decode_profile, decode_profile_delta, delta_base_fingerprint,
    encode_profile_delta, CodecError, DELTA_MAGIC,
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

fn zoo_profile(model_idx: u64, mbs: u32, seed: u64) -> Result<ProfiledRequests, String> {
    let (model, parallel, optim) = model_zoo(model_idx);
    let trace = TrainJob::new(model, parallel, optim)
        .with_mbs(mbs)
        .with_seq(256)
        .with_microbatches(parallel.pp)
        .with_iterations(1)
        .with_seed(seed)
        .build_trace()?;
    profile_trace(&trace, 1).map_err(|e| e.to_string())
}

/// Deterministic LCG over `seed` (the proptest value shrinks, the edits
/// shrink with it).
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A random Chronos-style neighbour of `base`: some requests resized,
/// some retimed, some removed, a few inserted, and (sometimes) one
/// instance window nudged — each count bounded so most of the
/// population is reused.
fn perturbed(base: &ProfiledRequests, mut seed: u64, edits: usize) -> ProfiledRequests {
    let mut next = base.clone();
    for _ in 0..edits {
        let n = next.statics.len();
        if n == 0 {
            break;
        }
        let i = (lcg(&mut seed) as usize) % n;
        match lcg(&mut seed) % 4 {
            0 => next.statics[i].size += 512 * (1 + lcg(&mut seed) % 8),
            1 => {
                let r = &mut next.statics[i];
                let shift = lcg(&mut seed) % 5;
                r.ts += shift;
                r.te += shift + lcg(&mut seed) % 3;
            }
            2 => {
                next.statics.remove(i);
                if next.init_count > next.statics.len() {
                    next.init_count = next.statics.len();
                }
            }
            _ => {
                let at =
                    next.init_count + (lcg(&mut seed) as usize) % (n - next.init_count + 1).max(1);
                let at = at.min(next.statics.len());
                next.statics.insert(
                    at,
                    RequestEvent {
                        size: 512 * (1 + lcg(&mut seed) % 4096),
                        ts: lcg(&mut seed) % 64,
                        te: 64 + lcg(&mut seed) % 64,
                        ps: (lcg(&mut seed) % 4) as u32,
                        pe: 4 + (lcg(&mut seed) % 4) as u32,
                        dynamic: false,
                        ls: None,
                        le: None,
                    },
                );
            }
        }
    }
    // Occasionally disturb the wholesale-encoded sections too, so the
    // non-inherited window/arrival paths get coverage.
    if edits > 0 && lcg(&mut seed).is_multiple_of(3) {
        if let Some(w) = next.instance_windows.first_mut() {
            w.1 .1 += 1;
        }
    }
    next
}

proptest! {
    /// The defining property: diffing two profiles and applying the edit
    /// script to the base reproduces the next profile exactly — through
    /// the `PRFD` codec, canonically.
    #[test]
    fn apply_of_diff_reproduces_next_across_model_zoo(
        model_idx in 0u64..4,
        mbs in 1u32..3,
        seed in 0u64..1000,
        edit_seed in 0u64..u64::MAX,
        edits in 0usize..12,
    ) {
        let base = zoo_profile(model_idx, mbs, seed)?;
        let next = perturbed(&base, edit_seed, edits);

        let delta = diff_profiles(&base, &next);
        prop_assert_eq!(
            apply_delta(&base, &delta).map_err(|e| e.to_string())?,
            next.clone(),
            "apply(base, diff(base, next)) != next"
        );

        // Through the wire codec: decode(encode(d)) == d, canonically,
        // and the 22-byte header peek agrees with the full decode.
        let bytes = encode_profile_delta(&delta);
        prop_assert!(bytes.starts_with(&DELTA_MAGIC));
        prop_assert_eq!(decode_profile(&bytes), Err(CodecError::BadMagic));
        prop_assert_eq!(decode_plan(&bytes), Err(CodecError::BadMagic));
        let decoded = decode_profile_delta(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(&decoded, &delta, "decode(encode(d)) != d");
        prop_assert_eq!(
            encode_profile_delta(&decoded),
            bytes.clone(),
            "re-encode not byte-identical"
        );
        prop_assert_eq!(
            delta_base_fingerprint(&bytes).map_err(|e| e.to_string())?,
            fingerprint_profile(&base)
        );

        // The differential oracle the fuzzer also checks: the applied
        // delta fingerprints identically to the full next profile.
        let applied = apply_delta(&base, &decoded).map_err(|e| e.to_string())?;
        prop_assert_eq!(
            fingerprint_profile(&applied),
            fingerprint_profile(&next),
            "applied-delta fingerprint != full-profile fingerprint"
        );
    }

    /// Every strict prefix of a `PRFD` stream fails with a typed error.
    #[test]
    fn delta_truncation_yields_typed_errors_never_panics(
        edit_seed in 0u64..u64::MAX,
        edits in 1usize..10,
        cut_seed in 0u64..u64::MAX,
    ) {
        let base = zoo_profile(0, 1, 7).map_err(|e| e.to_string())?;
        let next = perturbed(&base, edit_seed, edits);
        let bytes = encode_profile_delta(&diff_profiles(&base, &next));

        let cut = (cut_seed as usize) % bytes.len();
        let err = decode_profile_delta(&bytes[..cut]);
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

    /// Byte flips anywhere in the stream either decode (to a different
    /// edit script) or fail typed — never panic; damage to the magic or
    /// version words is always detected as exactly that.
    #[test]
    fn corrupted_delta_bytes_never_panic(
        edit_seed in 0u64..u64::MAX,
        flip_pos_seed in 0u64..u64::MAX,
        flip_mask in 1u8..=255,
    ) {
        let base = zoo_profile(0, 1, 7).map_err(|e| e.to_string())?;
        let next = perturbed(&base, edit_seed, 6);
        let mut bytes = encode_profile_delta(&diff_profiles(&base, &next));

        let pos = (flip_pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip_mask;
        match decode_profile_delta(&bytes) {
            Ok(_) => prop_assert!(pos >= 6, "magic/version corruption must not decode"),
            Err(e) => {
                if pos < 4 {
                    prop_assert_eq!(e, CodecError::BadMagic);
                } else if pos < 6 {
                    prop_assert!(matches!(e, CodecError::UnsupportedVersion(_)), "{e:?}");
                }
            }
        }
    }
}

/// The identity delta: zero edit ops, inherit-everything sections, and
/// an application that reproduces the base bit-for-bit.
#[test]
fn identity_delta_is_tiny_and_faithful() {
    let base = zoo_profile(1, 1, 3).unwrap();
    let delta = diff_profiles(&base, &base);
    assert_eq!(apply_delta(&base, &delta).unwrap(), base);
    let bytes = encode_profile_delta(&delta);
    // Header + one Copy run per section + two inherit flags — nowhere
    // near the full profile.
    let full = stalloc_store::encode_profile(&base);
    assert!(
        bytes.len() * 20 <= full.len(),
        "identity delta {} B vs full profile {} B",
        bytes.len(),
        full.len()
    );
}

/// A delta applied to the wrong base is a typed refusal, not a wrong
/// profile.
#[test]
fn wrong_base_is_rejected_on_application() {
    let base = zoo_profile(0, 1, 3).unwrap();
    let other = perturbed(&base, 99, 4);
    let next = perturbed(&base, 7, 4);
    let delta = diff_profiles(&base, &next);
    assert!(matches!(
        apply_delta(&other, &delta),
        Err(stalloc_core::DeltaError::BaseMismatch { .. })
    ));
}
