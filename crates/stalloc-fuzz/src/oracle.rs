//! Differential oracles over the three strict decoders.
//!
//! "Never panic" is the floor; each oracle also enforces equivalences
//! the rest of the system silently relies on:
//!
//! * **Fixpoint** — the codecs are canonical, so any accepted stream
//!   must re-encode to exactly the bytes that were decoded.
//! * **Fingerprint** — the `PROF` body *is* the fingerprint walk, so
//!   hashing the raw body must agree with hashing the decoded value
//!   (`fingerprint_job_body(bytes) == fingerprint_job(decoded)`); the
//!   server's cache-hit-without-decode path depends on this.
//! * **Totality** — every plan that decodes gets a verdict from
//!   `Plan::validate`: the check guards the training process against
//!   exactly these streams, so it may reject one but never panic on it.
//!
//! An `Err` from a check is an **oracle violation** (a bug); a typed
//! decode error is the expected rejection path and only feeds coverage.

use crate::coverage::CoverageLedger;
use stalloc_core::{
    apply_delta, fingerprint_job, fingerprint_job_body, fingerprint_profile, Fingerprint,
    ProfiledRequests, SynthConfig,
};
use stalloc_served::{read_frame, write_frame, FrameError};
use stalloc_store::{
    decode_plan, decode_profile, decode_profile_delta, delta_base_fingerprint, encode_plan,
    encode_profile, encode_profile_delta, profile_body, CodecError,
};
use std::io::Cursor;
use std::sync::OnceLock;

/// Frame cap used by the frame-layer fuzz target (small enough that the
/// committed `Oversized` seed stays a handful of digits).
pub const FRAME_FUZZ_MAX: usize = 1 << 20;

/// `CodecError` variants the `PROF`/`STPL` corpora must exercise.
pub const REQUIRED_CODEC_VARIANTS: &[&str] = CodecError::VARIANT_NAMES;

/// `FrameError` variants the frame corpus must exercise (`Io` excluded:
/// an in-memory cursor cannot fail).
pub const REQUIRED_FRAME_VARIANTS: &[&str] =
    &["BadHeader", "Oversized", "Truncated", "MissingTerminator"];

/// The `(variant, context)` pair of a typed rejection — the coverage key.
pub fn codec_error_key(e: &CodecError) -> (&'static str, Option<&'static str>) {
    (e.variant_name(), e.context())
}

/// `PROF` oracle: typed rejection, or fixpoint + fingerprint agreement.
pub fn check_prof(bytes: &[u8], cov: &mut CoverageLedger) -> Result<(), String> {
    match decode_profile(bytes) {
        Err(e) => {
            let (v, c) = codec_error_key(&e);
            cov.record_error(v, c);
            Ok(())
        }
        Ok(p) => {
            cov.record_ok();
            let re = encode_profile(&p);
            if re != bytes {
                return Err(format!(
                    "PROF decode→re-encode is not a fixpoint ({} bytes in, {} out)",
                    bytes.len(),
                    re.len()
                ));
            }
            let body = profile_body(bytes)
                .map_err(|e| format!("profile_body rejected a decodable stream: {e}"))?;
            let config = SynthConfig::default();
            let by_body = fingerprint_job_body(body, &config);
            let by_value = fingerprint_job(&p, &config);
            if by_body != by_value {
                return Err(format!(
                    "fingerprint divergence: raw body {} vs decoded walk {}",
                    by_body.to_hex(),
                    by_value.to_hex()
                ));
            }
            Ok(())
        }
    }
}

/// The zoo bases the delta oracle can apply accepted scripts against,
/// keyed by their config-free fingerprint. Structured mutants keep the
/// seed's base fingerprint, so a healthy run applies plenty of scripts.
fn zoo_bases() -> &'static Vec<(Fingerprint, ProfiledRequests)> {
    static BASES: OnceLock<Vec<(Fingerprint, ProfiledRequests)>> = OnceLock::new();
    BASES.get_or_init(|| {
        (0..4)
            .map(|i| {
                let p = crate::corpus::zoo_profile(i);
                (fingerprint_profile(&p), p)
            })
            .collect()
    })
}

/// `PROF-DELTA` oracle: typed rejection, or fixpoint + header-peek
/// agreement; when the script names a base we hold (the zoo), it is
/// applied, and the applied profile must fingerprint identically through
/// both implementations (raw `PROF` body walk vs decoded value) — the
/// equivalence the server's delta path banks on when it caches the
/// applied profile under its fingerprint.
pub fn check_delta(bytes: &[u8], cov: &mut CoverageLedger) -> Result<(), String> {
    match decode_profile_delta(bytes) {
        Err(e) => {
            let (v, c) = codec_error_key(&e);
            cov.record_error(v, c);
            Ok(())
        }
        Ok(d) => {
            cov.record_ok();
            let re = encode_profile_delta(&d);
            if re != bytes {
                return Err(format!(
                    "PROF-DELTA decode→re-encode is not a fixpoint ({} bytes in, {} out)",
                    bytes.len(),
                    re.len()
                ));
            }
            let peek = delta_base_fingerprint(bytes)
                .map_err(|e| format!("header peek rejected a decodable stream: {e}"))?;
            if peek != d.base {
                return Err(format!(
                    "header peek {} disagrees with the decoded base {}",
                    peek.to_hex(),
                    d.base.to_hex()
                ));
            }
            if let Some((_, base)) = zoo_bases().iter().find(|(fp, _)| *fp == d.base) {
                // Script semantics may still reject (cursor overrun,
                // underflowing resize, ...) — that is the valid refusal
                // path, not a violation.
                if let Ok(applied) = apply_delta(base, &d) {
                    let config = SynthConfig::default();
                    let full = encode_profile(&applied);
                    let body = profile_body(&full)
                        .map_err(|e| format!("applied delta re-encodes unreadably: {e}"))?;
                    let by_body = fingerprint_job_body(body, &config);
                    let by_value = fingerprint_job(&applied, &config);
                    if by_body != by_value {
                        return Err(format!(
                            "applied-delta fingerprint divergence: raw body {} vs decoded walk {}",
                            by_body.to_hex(),
                            by_value.to_hex()
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

/// `STPL` oracle: typed rejection, or a `validate` verdict plus fixpoint.
pub fn check_stpl(bytes: &[u8], cov: &mut CoverageLedger) -> Result<(), String> {
    match decode_plan(bytes) {
        Err(e) => {
            let (v, c) = codec_error_key(&e);
            cov.record_error(v, c);
            Ok(())
        }
        Ok(plan) => {
            cov.record_ok();
            // Decodes ⇒ `validate` returns, sound or not; a panic here is
            // caught by the run and counted like a decoder panic.
            let _ = plan.validate();
            let re = encode_plan(&plan);
            if re != bytes {
                return Err(format!(
                    "STPL decode→re-encode is not a fixpoint ({} bytes in, {} out)",
                    bytes.len(),
                    re.len()
                ));
            }
            Ok(())
        }
    }
}

/// Frame oracle: typed rejection, or the consumed prefix re-frames to
/// exactly itself (leading-zero headers are rejected upstream precisely
/// so this holds).
pub fn check_frame(bytes: &[u8], cov: &mut CoverageLedger) -> Result<(), String> {
    let mut cur = Cursor::new(bytes);
    match read_frame(&mut cur, FRAME_FUZZ_MAX) {
        Ok(None) => {
            // Clean EOF at a frame boundary (only the empty stream).
            cov.record_ok();
            Ok(())
        }
        Ok(Some(payload)) => {
            cov.record_ok();
            let consumed = cur.position() as usize;
            let mut re = Vec::new();
            write_frame(&mut re, &payload).map_err(|e| format!("re-framing failed: {e}"))?;
            if re != bytes[..consumed] {
                return Err(format!(
                    "frame decode→re-encode is not a fixpoint ({} bytes consumed, {} re-framed)",
                    consumed,
                    re.len()
                ));
            }
            Ok(())
        }
        Err(e) => {
            if matches!(e, FrameError::Io(_)) {
                return Err(format!("in-memory cursor produced an i/o error: {e}"));
            }
            cov.record_error(e.variant_name(), None);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stalloc_core::{profile_trace, synthesize};
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn sample_profile() -> stalloc_core::ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(128)
        .with_microbatches(2)
        .with_iterations(1)
        .build_trace()
        .unwrap();
        profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn valid_artifacts_pass_every_oracle() {
        let profile = sample_profile();
        let plan = synthesize(&profile, &SynthConfig::default());
        let mut cov = CoverageLedger::new();
        check_prof(&encode_profile(&profile), &mut cov).unwrap();
        check_stpl(&encode_plan(&plan), &mut cov).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, b"{\"Ping\":null}").unwrap();
        check_frame(&framed, &mut cov).unwrap();
        assert_eq!(cov.ok_decodes(), 3);
    }

    /// A stream that decodes to a plan no lifetime can follow (allocated
    /// at tick `u64::MAX`) is still only a plan to reject.
    #[test]
    fn every_decodable_plan_gets_a_soundness_verdict() {
        let mut plan = synthesize(&sample_profile(), &SynthConfig::default());
        plan.iter_allocs[0].ts = u64::MAX;
        let mut cov = CoverageLedger::new();
        check_stpl(&encode_plan(&plan), &mut cov).unwrap();
        assert_eq!(cov.ok_decodes(), 1);
    }

    #[test]
    fn rejections_feed_coverage_not_violations() {
        let mut cov = CoverageLedger::new();
        check_prof(b"JUNK", &mut cov).unwrap();
        check_stpl(b"STPL\x03\x00", &mut cov).unwrap();
        check_frame(b"hello\n", &mut cov).unwrap();
        assert_eq!(cov.variants(), 3);
    }

    /// A real zoo delta passes the oracle and reaches the apply branch
    /// (its base fingerprint is one the oracle holds).
    #[test]
    fn zoo_deltas_pass_the_delta_oracle_and_apply() {
        use stalloc_core::diff_profiles;
        let base = crate::corpus::zoo_profile(0);
        let mut next = base.clone();
        if let Some(r) = next.statics.last_mut() {
            r.size += 4096;
        }
        let delta = diff_profiles(&base, &next);
        assert!(zoo_bases().iter().any(|(fp, _)| *fp == delta.base));
        let mut cov = CoverageLedger::new();
        check_delta(&encode_profile_delta(&delta), &mut cov).unwrap();
        assert_eq!(cov.ok_decodes(), 1);
        check_delta(b"JUNK", &mut cov).unwrap();
        assert_eq!(cov.variants(), 1, "bad magic fed coverage");
    }
}
