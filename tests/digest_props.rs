//! The two-level fingerprint on arbitrary bytes.
//!
//! `stalloc_core::fingerprint`'s unit tests pin the digest on fixed
//! inputs (golden vectors, every bit of one 4 KiB body, the benchmark's
//! neighbour family). This file lets the inputs vary: any body of 0–300
//! bytes — so every tail length beside every block count — under any
//! `SynthConfig`, and any one small edit of it:
//!
//! * the one-walk form the daemon uses (`BodyDigest::of` → `job` /
//!   `profile`) is exactly the public by-body pair;
//! * the job and the profile identity of the same bytes never coincide;
//! * a flipped bit, an appended zero (what tail padding could hide), a
//!   truncation, two swapped 8-byte words (what lane symmetry could
//!   hide) or an inserted byte moves both 64-bit halves of both
//!   identities.
//!
//! CI runs this file with `PROPTEST_CASES=512`.

use proptest::prelude::*;
use stalloc_core::{
    fingerprint_job_body, fingerprint_profile_body, BodyDigest, Fingerprint, StrategyChoice,
    SynthConfig,
};

fn halves(fp: Fingerprint) -> (u64, u64) {
    (
        u64::from_le_bytes(fp.0[..8].try_into().unwrap()),
        u64::from_le_bytes(fp.0[8..].try_into().unwrap()),
    )
}

/// One small edit of `body`, chosen by `kind` at positions `a` and `b`
/// (reduced modulo whatever the body allows). May return `body` as is
/// when the edit has nothing to act on.
fn edited(body: &[u8], (kind, a, b): (u8, usize, usize)) -> Vec<u8> {
    let mut out = body.to_vec();
    match kind {
        0 if !out.is_empty() => out[a % body.len()] ^= 1 << (b % 8),
        1 => out.push(0),
        2 if !out.is_empty() => out.truncate(a % body.len()),
        3 if out.len() >= 16 => {
            let words = body.len() / 8;
            let (i, j) = (a % words, b % words);
            for k in 0..8 {
                out.swap(8 * i + k, 8 * j + k);
            }
        }
        4 => out.insert(a % (body.len() + 1), b as u8),
        _ => {}
    }
    out
}

proptest! {
    #[test]
    fn any_edit_of_any_body_moves_both_identities(
        body in prop::collection::vec(0u32..256, 0..301),
        edit in (0u8..5, 0usize..1 << 16, 0usize..1 << 16),
        flags in 0u8..4,
        strategy in 0usize..StrategyChoice::ALL.len(),
    ) {
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let config = SynthConfig {
            enable_gap_insertion: flags & 1 != 0,
            ascending_sizes: flags & 2 != 0,
            strategy: StrategyChoice::ALL[strategy],
        };
        let digest = BodyDigest::of(&body);
        let (job, profile) = (digest.job(&config), digest.profile());
        prop_assert_eq!(job, fingerprint_job_body(&body, &config));
        prop_assert_eq!(profile, fingerprint_profile_body(&body));
        prop_assert_ne!(job, profile);

        let other = edited(&body, edit);
        if other != body {
            let other = BodyDigest::of(&other);
            for (was, is) in [(job, other.job(&config)), (profile, other.profile())] {
                let ((lo, hi), (lo2, hi2)) = (halves(was), halves(is));
                prop_assert!(lo != lo2 && hi != hi2, "edit {edit:?}: {was} -> {is}");
            }
        }
    }
}
