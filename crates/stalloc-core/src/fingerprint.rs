//! Stable job/profile fingerprinting.
//!
//! A plan is a pure function of its inputs: the profiled request set and
//! the synthesizer configuration (guarded by `tests/determinism.rs`). That
//! makes `(ProfiledRequests, SynthConfig)` a natural cache key for plan
//! artifacts — `stalloc-store` keys its content-addressed plan cache by the
//! [`Fingerprint`] computed here.
//!
//! Identity has **two levels**. Level one is the [`BodyDigest`]: one pass
//! over a *canonical byte serialization* of the profile —
//! [`write_profile_body`] walks every field in a fixed order (all
//! collections inside [`ProfiledRequests`] are `Vec`s in deterministic
//! sorted or arrival order) and emits exactly the **body of the `PROF` v1
//! binary profile format** specified in `stalloc-store::codec` — read as
//! little-endian `u64` words, four independent multiply-rotate lanes per
//! 32-byte block, folded into 128 bits. Level two is a short envelope
//! over that digest, hashed by the same function:
//!
//! ```text
//! PROF body bytes ──one walk──▶ BodyDigest { len, lo, hi }
//!     ├─ job()     = H(FINGERPRINT_VERSION, SYNTH_ALGO_VERSION,
//!     │                gap insertion, ascending, strategy,
//!     │                len, lo, hi)                 ── plan caches
//!     └─ profile() = H(4, "PROFONLY",
//!                      len, lo, hi)                 ── delta-base table
//! ```
//!
//! Because the byte stream is a pure, canonical function of the profile,
//! digesting it is equivalent to digesting the fields — which is what
//! makes [`fingerprint_job_body`] possible: a server holding an
//! already-encoded binary profile digests the raw bytes **once**, derives
//! both identities from that digest, and answers a cache hit *without
//! ever decoding the profile*.
//!
//! The digest is content addressing for **non-adversarial** inputs: it
//! is fast and well mixed, not collision resistant against someone
//! crafting profiles to collide. Nothing relies on it for safety — a
//! client re-validates every served plan and checks the echoed
//! fingerprint against its own — so a collision costs a wrong (but
//! sound) plan for the colliding party, never memory corruption.
//!
//! The fingerprint is versioned on two axes: [`FINGERPRINT_VERSION`]
//! covers the profile schema, walk order and hash function, and
//! [`SYNTH_ALGO_VERSION`] covers the planner algorithm itself — so stale
//! cache entries can alias a new build neither when the input shape
//! changes nor when `synthesize` starts producing different plans for
//! the same input.

use std::fmt;

use crate::plan::{SynthConfig, SYNTH_ALGO_VERSION};
use crate::profiler::{InstanceKey, ProfiledRequests, RequestEvent};

/// Version tag mixed into every job fingerprint; bump when the canonical
/// walk, the profile schema, the hash function or the job envelope
/// changes. (The profile identity carries `PROFILE_ENVELOPE_VERSION`.)
///
/// v2: [`SynthConfig::strategy`] joined the walk — a job planned by the
/// portfolio is a different job than the same profile planned by the
/// baseline pipeline, and cached plans must never cross between them.
///
/// v3: the profile part of the walk became the canonical `PROF` v1 body
/// byte stream ([`write_profile_body`]) instead of a per-field `u64`
/// feed, so that [`fingerprint_job_body`] over pre-encoded bytes and
/// [`fingerprint_job`] over the decoded profile agree by construction.
///
/// v4: the hash became the word-at-a-time [`BodyDigest`] and the two
/// identities became envelopes over it (one body walk serves both).
/// Client and daemon must upgrade together: a client checks the echoed
/// fingerprint against its own, so a v3/v4 pair rejects every plan.
/// Store entries keyed by v3 fingerprints are unreachable — never
/// wrong; still valid artifacts, so `stalloc cache gc` keeps them and
/// only `stalloc cache clear` reclaims the space.
///
/// v5: the job envelope lost its fusion word, with the `SynthConfig`
/// fusion switch it hashed. Plans are unchanged, but every job identity
/// moved: store entries keyed by v4 fingerprints are unreachable but
/// never wrong, as at v3 → v4.
pub const FINGERPRINT_VERSION: u32 = 5;

/// The version word of the profile identity ([`BodyDigest::profile`]):
/// [`FINGERPRINT_VERSION`] as it stood when what that envelope hashes
/// last changed. v5 moved only the job envelope, so profile identities —
/// the delta bases a `PROF-DELTA` names — stay what v4 made them. Bump
/// it to the new [`FINGERPRINT_VERSION`] when the walk, the schema or the
/// hash changes.
const PROFILE_ENVELOPE_VERSION: u64 = 4;

/// A 128-bit content fingerprint of a planning job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 16]);

impl Fingerprint {
    /// The 32 lower-case hex digits, on the stack.
    fn hex_digits(self) -> [u8; 32] {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 32];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = NIBBLES[(b >> 4) as usize];
            pair[1] = NIBBLES[(b & 0xf) as usize];
        }
        out
    }

    /// Lower-case hex rendering (the on-disk cache file stem).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        s.extend(self.hex_digits().map(char::from));
        s
    }

    /// Parses the 32-character hex form produced by [`Self::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Fingerprint(out))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.hex_digits();
        f.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

// --- the hash ------------------------------------------------------------
//
// One function, `digest128`, behind everything in this file: the body
// digest and both envelopes. Editing a constant, the round or the fold
// changes every fingerprint: bump `FINGERPRINT_VERSION` and regenerate
// the golden vectors in the tests below.

/// Lane seeds (fractional digits of π): the state before the first block.
const LANE_SEED: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// One odd multiplier per lane, all different, so no two lanes treat a
/// word alike and swapping words between lanes changes the state.
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xFF51_AFD7_ED55_8CCD,
];

/// Absorbs one 32-byte block, read as four little-endian words. Word
/// `i` goes through lane `i`'s xor-multiply-rotate — a bijection of the
/// lane state, so a single changed word can never cancel — and is also
/// added to lane `i - 1`, so a difference confined to one word column
/// still has to collide in two unrelated 64-bit lanes at once. The four
/// chains share no state: the CPU runs them in parallel.
fn absorb(lanes: &mut [u64; 4], block: &[u8; 32]) {
    let mut words = [0u64; 4];
    for (w, bytes) in words.iter_mut().zip(block.chunks_exact(8)) {
        *w = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    for i in 0..4 {
        lanes[i] = (lanes[i] ^ words[i])
            .wrapping_mul(LANE_MUL[i])
            .rotate_left(29)
            .wrapping_add(words[(i + 1) % 4]);
    }
}

/// splitmix64 finalizer: full avalanche of one 64-bit value.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The 128-bit digest of `bytes`, as two 64-bit halves.
///
/// Whole 32-byte blocks are absorbed in order; a trailing partial block
/// is zero-padded to 32 bytes and absorbed the same way, and the byte
/// length enters both final folds — so `b` and `b ‖ 0x00` (same padded
/// block) still differ. The halves are two differently-combined folds
/// of the four lanes, each avalanched: any single-lane difference moves
/// both. Explicit little-endian reads, no `usize` in the state: the
/// value is the same on every platform.
fn digest128(bytes: &[u8]) -> (u64, u64) {
    let mut lanes = LANE_SEED;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block.try_into().expect("32-byte chunk"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 32];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &last);
    }
    let len = bytes.len() as u64;
    let [a, b, c, d] = lanes;
    let lo = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18))
        .wrapping_add(len.wrapping_mul(LANE_MUL[0]));
    let hi = (a ^ c.rotate_left(32))
        .wrapping_mul(LANE_MUL[1])
        .wrapping_add((b ^ d.rotate_left(32)).wrapping_mul(LANE_MUL[2]))
        ^ len.wrapping_mul(LANE_MUL[3]);
    (mix(lo), mix(hi))
}

/// [`digest128`] of a short sequence of words (an envelope), as the
/// fingerprint bytes: `lo ‖ hi`, little-endian.
fn fingerprint_words(words: &[u64]) -> Fingerprint {
    // The longest envelope is the job's eight words.
    let mut bytes = [0u8; 8 * 8];
    let bytes = &mut bytes[..8 * words.len()];
    for (dst, w) in bytes.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    let (lo, hi) = digest128(bytes);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    Fingerprint(out)
}

/// Level one of the identity: the digest of one canonical `PROF` v1
/// **body** byte stream (what [`write_profile_body`] emits), from which
/// both public identities derive without walking the bytes again.
///
/// This is what lets the daemon digest a request's profile once and key
/// both its plan caches ([`Self::job`]) and its delta-base table
/// ([`Self::profile`]) off that one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyDigest {
    len: u64,
    lo: u64,
    hi: u64,
}

impl BodyDigest {
    /// Digests `profile_body` in one pass.
    pub fn of(profile_body: &[u8]) -> Self {
        let (lo, hi) = digest128(profile_body);
        BodyDigest {
            len: profile_body.len() as u64,
            lo,
            hi,
        }
    }

    /// The job identity — [`fingerprint_job_body`] of the digested bytes.
    pub fn job(&self, config: &SynthConfig) -> Fingerprint {
        fingerprint_words(&[
            FINGERPRINT_VERSION as u64,
            // Planner algorithm version: a cache must never serve a plan
            // an older synthesize() computed.
            SYNTH_ALGO_VERSION as u64,
            config.enable_gap_insertion as u64,
            config.ascending_sizes as u64,
            config.strategy.index() as u64,
            self.len,
            self.lo,
            self.hi,
        ])
    }

    /// The config-free profile identity — [`fingerprint_profile_body`]
    /// of the digested bytes. The domain tag (and the shorter envelope)
    /// keeps it apart from every job identity of the same bytes.
    pub fn profile(&self) -> Fingerprint {
        fingerprint_words(&[
            PROFILE_ENVELOPE_VERSION,
            u64::from_le_bytes(*b"PROFONLY"),
            self.len,
            self.lo,
            self.hi,
        ])
    }
}

// --- canonical profile byte walk ---------------------------------------
//
// These are THE writer primitives of both binary codecs: the bytes
// emitted by `write_profile_body` ARE the body of a `PROF` v1 stream
// (everything after the 6-byte magic + version header), and
// `stalloc-store::codec` builds its `STPL` and `PROF` encoders on the
// same functions — there is exactly one varint/zigzag writer in the
// tree ([`Record::uvarint`]). The byte-format contract is specified in
// that module's documentation; changing the walk layout below is a
// `PROF` format bump AND a `FINGERPRINT_VERSION` bump.
//
// Streams are written one *record* at a time (a request, an arrival
// run, a plan decision): [`put_record`] grows the buffer once to the
// record's longest encoding, the record's varints are stored into that
// space, and the unused tail is cut off. One growth check per record,
// not one per byte.

/// Longest canonical varint of a `u64`: 64 payload bits, 7 per byte.
pub const MAX_VARINT: usize = 10;

/// Longest canonical varint of a `u32`.
pub const MAX_VARINT32: usize = 5;

/// Longest encoded instance key: two `u32` varints.
pub const MAX_INSTANCE: usize = 2 * MAX_VARINT32;

/// The space [`put_record`] set aside for one record, filled front to
/// back. Writing past the space it was given panics: the record's
/// `max` was wrong.
pub struct Record<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl Record<'_> {
    /// Stores one raw byte.
    #[inline(always)]
    pub fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Stores a canonical LEB128 varint (see the `stalloc-store::codec`
    /// spec: 7 payload bits per byte, high bit = continuation, no
    /// overlong encodings emitted).
    #[inline(always)]
    pub fn uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    /// Stores the signed delta between two unsigned values,
    /// zigzag-varint encoded (two's-complement wrapping subtraction).
    #[inline(always)]
    pub fn delta(&mut self, prev: u64, cur: u64) {
        self.uvarint(zigzag(cur.wrapping_sub(prev) as i64));
    }

    /// Stores an instance key: `module` then `phase`, both varints.
    #[inline(always)]
    pub fn instance(&mut self, k: &InstanceKey) {
        self.uvarint(k.module.0 as u64);
        self.uvarint(k.phase as u64);
    }
}

/// Appends one record of at most `max` bytes to `out`: the buffer grows
/// once, `write` stores the record into the new space, and what it left
/// unused is cut off again.
#[inline(always)]
pub fn put_record(out: &mut Vec<u8>, max: usize, write: impl FnOnce(&mut Record<'_>)) {
    let start = out.len();
    out.resize(start + max, 0);
    let mut record = Record {
        buf: &mut out[start..],
        len: 0,
    };
    write(&mut record);
    let len = record.len;
    out.truncate(start + len);
}

/// Appends a canonical LEB128 varint: a record of one field.
pub fn put_uvarint(out: &mut Vec<u8>, v: u64) {
    put_record(out, MAX_VARINT, |r| r.uvarint(v));
}

/// Maps a signed delta to unsigned so small values of either sign
/// varint-encode in one byte: `(v << 1) ^ (v >> 63)`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// `PROF` request flags byte, bit 0: the request originates from a
/// dynamic layer ([`RequestEvent::dynamic`]).
///
/// The flags byte carries this marker plus presence bits for the two
/// optional instance keys. All other bits are reserved and must be zero
/// (the `stalloc-store` decoder rejects them to keep the encoding
/// canonical).
pub const PROFILE_FLAG_DYNAMIC: u8 = 1 << 0;
/// `PROF` request flags byte, bit 1: an allocating instance key
/// ([`RequestEvent::ls`]) follows the fixed fields.
pub const PROFILE_FLAG_HAS_LS: u8 = 1 << 1;
/// `PROF` request flags byte, bit 2: a freeing instance key
/// ([`RequestEvent::le`]) follows the fixed fields (after `ls` if both
/// are present).
pub const PROFILE_FLAG_HAS_LE: u8 = 1 << 2;

/// Longest encoded request: the flags byte, three `u64` deltas, `ps`
/// and `pe`, and both instance keys.
pub const MAX_REQUEST: usize = 1 + 3 * MAX_VARINT + 2 * MAX_VARINT32 + 2 * MAX_INSTANCE;

/// The `PROF` flags byte of `r`.
pub fn request_flags(r: &RequestEvent) -> u8 {
    let mut flags = 0u8;
    if r.dynamic {
        flags |= PROFILE_FLAG_DYNAMIC;
    }
    if r.ls.is_some() {
        flags |= PROFILE_FLAG_HAS_LS;
    }
    if r.le.is_some() {
        flags |= PROFILE_FLAG_HAS_LE;
    }
    flags
}

/// Stores the optional instance keys of `r`, `ls` first.
#[inline(always)]
pub fn put_request_keys(rec: &mut Record<'_>, r: &RequestEvent) {
    if let Some(ls) = &r.ls {
        rec.instance(ls);
    }
    if let Some(le) = &r.le {
        rec.instance(le);
    }
}

fn put_requests(out: &mut Vec<u8>, requests: &[RequestEvent]) {
    put_uvarint(out, requests.len() as u64);
    let (mut size, mut ts) = (0u64, 0u64);
    for r in requests {
        put_record(out, MAX_REQUEST, |rec| {
            rec.byte(request_flags(r));
            rec.delta(size, r.size);
            rec.delta(ts, r.ts);
            rec.delta(r.ts, r.te);
            rec.uvarint(r.ps as u64);
            rec.uvarint(r.pe as u64);
            put_request_keys(rec, r);
        });
        size = r.size;
        ts = r.ts;
    }
}

/// Appends an `instance_windows` section: the count, then per entry
/// the key, `delta(prev start)` and `delta(start)` for the end — one
/// record each. `PROF` and `PROF-DELTA` share it.
pub fn put_windows(out: &mut Vec<u8>, windows: &[(InstanceKey, (u64, u64))]) {
    put_uvarint(out, windows.len() as u64);
    let mut prev_start = 0u64;
    for (k, (start, end)) in windows {
        put_record(out, MAX_INSTANCE + 2 * MAX_VARINT, |rec| {
            rec.instance(k);
            rec.delta(prev_start, *start);
            rec.delta(*start, *end);
        });
        prev_start = *start;
    }
}

/// Appends an `instance_arrivals` section: the count, then per entry
/// the key, the index count and the indices as deltas — one record per
/// arrival run. `PROF` and `PROF-DELTA` share it.
pub fn put_arrivals(out: &mut Vec<u8>, arrivals: &[(InstanceKey, Vec<u32>)]) {
    put_uvarint(out, arrivals.len() as u64);
    for (k, seq) in arrivals {
        // A delta between two `u32`s zigzags below 2^33: five bytes.
        let max = MAX_INSTANCE + MAX_VARINT + MAX_VARINT32 * seq.len();
        put_record(out, max, |rec| {
            rec.instance(k);
            rec.uvarint(seq.len() as u64);
            let mut prev = 0u64;
            for &i in seq {
                rec.delta(prev, i as u64);
                prev = i as u64;
            }
        });
    }
}

/// Appends the canonical byte serialization of `profile` to `out` —
/// exactly the **body** of the `PROF` v1 binary profile format (the
/// stream `stalloc-store::codec::encode_profile` produces, minus its
/// 6-byte magic + version header; see that module for the byte-level
/// spec).
///
/// This is the profile walk behind [`fingerprint_job`]: the encoding is
/// canonical (a pure, injective-modulo-spec function of the profile), so
/// hashing these bytes and hashing the fields are interchangeable.
pub fn write_profile_body(profile: &ProfiledRequests, out: &mut Vec<u8>) {
    put_record(out, 3 * MAX_VARINT, |rec| {
        rec.uvarint(profile.init_count as u64);
        rec.uvarint(profile.num_phases as u64);
        rec.uvarint(profile.window_len);
    });
    put_requests(out, &profile.statics);
    put_requests(out, &profile.dynamics);
    put_windows(out, &profile.instance_windows);
    put_arrivals(out, &profile.instance_arrivals);
}

/// Upper-ish estimate of the canonical body's length, for pre-sizing
/// the buffer [`write_profile_body`] appends to — the one estimate both
/// the fingerprint walk and `stalloc-store::encode_profile` use, sized
/// so a workload profile encodes without a reallocation.
pub fn profile_body_capacity(profile: &ProfiledRequests) -> usize {
    32 + 12 * (profile.statics.len() + profile.dynamics.len())
        + 8 * profile.instance_windows.len()
        + 4 * profile
            .instance_arrivals
            .iter()
            .map(|(_, s)| s.len() + 4)
            .sum::<usize>()
}

/// The canonical body of `profile` in a fresh, pre-sized buffer.
fn canonical_body(profile: &ProfiledRequests) -> Vec<u8> {
    let mut body = Vec::with_capacity(profile_body_capacity(profile));
    write_profile_body(profile, &mut body);
    body
}

/// Fingerprints one planning job: the full canonical content of `profile`
/// plus every [`SynthConfig`] switch.
///
/// Two jobs share a fingerprint iff the synthesizer would (modulo hash
/// collisions, ~2⁻¹²⁸ for inputs not built to collide) produce the same
/// plan for both.
pub fn fingerprint_job(profile: &ProfiledRequests, config: &SynthConfig) -> Fingerprint {
    fingerprint_job_body(&canonical_body(profile), config)
}

/// Fingerprints a profile *alone* — no [`SynthConfig`], no
/// [`SYNTH_ALGO_VERSION`]. This is the **base identity** of the
/// incremental re-planning protocol: a `PROF-DELTA` stream names the
/// profile it edits by this fingerprint, so one stored base profile can
/// seed deltas planned under any synthesizer configuration (the config
/// still travels separately in the `PlanDelta` verb and still keys the
/// *plan* caches via [`fingerprint_job`]).
pub fn fingerprint_profile(profile: &ProfiledRequests) -> Fingerprint {
    fingerprint_profile_body(&canonical_body(profile))
}

/// [`fingerprint_profile`] over a profile already in canonical encoded
/// form: `profile_body` must be the `PROF` v1 **body** byte stream (what
/// [`write_profile_body`] emits). Equal to [`fingerprint_profile`] of
/// the decoded profile by construction, so a server can key its profile
/// cache off raw received bytes without decoding them.
pub fn fingerprint_profile_body(profile_body: &[u8]) -> Fingerprint {
    BodyDigest::of(profile_body).profile()
}

/// Fingerprints a job whose profile is already in canonical encoded form:
/// `profile_body` must be the `PROF` v1 **body** byte stream (what
/// [`write_profile_body`] emits — `stalloc-store` exposes
/// `profile_body()` to strip the header off a full `PROF` stream).
///
/// Equal to [`fingerprint_job`] of the decoded profile by construction,
/// which lets a server fingerprint a received binary profile — and
/// answer a cache hit — without decoding it. A caller that needs the
/// profile identity of the same bytes too digests them once with
/// [`BodyDigest::of`] and derives both.
pub fn fingerprint_job_body(profile_body: &[u8], config: &SynthConfig) -> Fingerprint {
    BodyDigest::of(profile_body).job(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn profile() -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(4)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        crate::profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn hex_roundtrip() {
        let fp = fingerprint_job(&profile(), &SynthConfig::default());
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..30]), None);
        // The nibble table renders what `{:02x}` per byte would, and
        // `Display` is the same text.
        let spelled: String = fp.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, spelled);
        assert_eq!(fp.to_string(), hex);
        assert_eq!(Fingerprint([0x0f; 16]).to_hex(), "0f".repeat(16));
    }

    #[test]
    fn identical_inputs_agree() {
        let p = profile();
        let c = SynthConfig::default();
        assert_eq!(fingerprint_job(&p, &c), fingerprint_job(&p, &c));
    }

    #[test]
    fn config_switches_change_the_digest() {
        let p = profile();
        let base = fingerprint_job(&p, &SynthConfig::default());
        for c in [
            SynthConfig {
                enable_gap_insertion: false,
                ..SynthConfig::default()
            },
            SynthConfig {
                ascending_sizes: true,
                ..SynthConfig::default()
            },
        ] {
            assert_ne!(base, fingerprint_job(&p, &c), "{c:?}");
        }
    }

    #[test]
    fn every_strategy_choice_changes_the_digest() {
        use crate::plan::StrategyChoice;
        let p = profile();
        let mut digests: Vec<_> = StrategyChoice::ALL
            .into_iter()
            .map(|strategy| {
                fingerprint_job(
                    &p,
                    &SynthConfig {
                        strategy,
                        ..SynthConfig::default()
                    },
                )
            })
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            StrategyChoice::ALL.len(),
            "strategies must key distinct cache entries"
        );
    }

    #[test]
    fn body_bytes_and_field_walk_agree() {
        // The whole point of the canonical byte walk: hashing a
        // pre-encoded profile body must equal hashing the profile.
        let p = profile();
        for config in [
            SynthConfig::default(),
            SynthConfig {
                ascending_sizes: true,
                ..SynthConfig::default()
            },
        ] {
            let mut body = Vec::new();
            write_profile_body(&p, &mut body);
            assert_eq!(
                fingerprint_job(&p, &config),
                fingerprint_job_body(&body, &config)
            );
        }
    }

    #[test]
    fn profile_body_is_deterministic() {
        let p = profile();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_profile_body(&p, &mut a);
        write_profile_body(&p.clone(), &mut b);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn profile_fingerprint_ignores_config_and_matches_body_form() {
        let p = profile();
        let fp = fingerprint_profile(&p);
        // No config in the walk: the digest is a pure function of the
        // profile.
        assert_eq!(fp, fingerprint_profile(&p.clone()));
        let mut body = Vec::new();
        write_profile_body(&p, &mut body);
        assert_eq!(fp, fingerprint_profile_body(&body));
        // And it is not any job fingerprint of the same profile.
        for strategy in crate::plan::StrategyChoice::ALL {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            assert_ne!(fp, fingerprint_job(&p, &config));
        }
        // Content still matters.
        let mut tweaked = p.clone();
        tweaked.statics[0].size += 512;
        assert_ne!(fp, fingerprint_profile(&tweaked));
    }

    #[test]
    fn profile_content_changes_the_digest() {
        let p = profile();
        let base = fingerprint_job(&p, &SynthConfig::default());
        let mut tweaked = p.clone();
        tweaked.statics[0].size += 512;
        assert_ne!(base, fingerprint_job(&tweaked, &SynthConfig::default()));

        let mut truncated = p.clone();
        truncated.statics.pop();
        assert_ne!(base, fingerprint_job(&truncated, &SynthConfig::default()));
    }

    // --- the digest itself -------------------------------------------

    /// Deterministic filler bytes for digest tests (xorshift64*).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    fn halves(fp: Fingerprint) -> (u64, u64) {
        (
            u64::from_le_bytes(fp.0[..8].try_into().unwrap()),
            u64::from_le_bytes(fp.0[8..].try_into().unwrap()),
        )
    }

    /// Pinned outputs. These are on-disk cache keys and cross-process
    /// identities: if the byte rows have to change, the hash changed,
    /// and `FINGERPRINT_VERSION` must be bumped in the same commit (they
    /// were first computed by a separate transcription of the module
    /// docs, not by this code). The zoo rows also move when `trace-gen`
    /// or the profiler changes what that profile contains.
    #[test]
    fn golden_vectors() {
        let ramp = |n: usize| (0..n).map(|i| (i * 7 + 1) as u8).collect::<Vec<u8>>();
        let default = SynthConfig::default();
        let golden = [
            (
                0,
                "7421ecedeff552dd9468b4d464966a7a",
                "d876bff0ecefc6b1db9db473ec6815e7",
            ),
            (
                1,
                "e9cd4d5c6270dab36b9a3ce5302faeca",
                "95d77fbc1b04e46849415943dee6046a",
            ),
            (
                31,
                "8f8ac9f7036d833f1e0e0239062155c2",
                "3bdcf90c42bf62e51a1b4a95eef89a71",
            ),
            (
                32,
                "fec0afdae748235eaf511970704a3aa0",
                "8e78fc4196b5846546f124ac0942f9be",
            ),
            (
                33,
                "d31bc6020bc3be37382de26276e13ced",
                "ef83778ed1a484969a1214c77491a941",
            ),
        ];
        for (len, profile_hex, job_hex) in golden {
            let body = ramp(len);
            assert_eq!(
                fingerprint_profile_body(&body).to_hex(),
                profile_hex,
                "{len}"
            );
            assert_eq!(
                fingerprint_job_body(&body, &default).to_hex(),
                job_hex,
                "{len}"
            );
        }
        let p = profile();
        assert_eq!(
            fingerprint_job(&p, &default).to_hex(),
            "6abfabbf78d8e602a41bbd0f16b721ed"
        );
        let ascending = SynthConfig {
            ascending_sizes: true,
            ..default
        };
        assert_eq!(
            fingerprint_job(&p, &ascending).to_hex(),
            "07b9d722d0ea4c8a49b8a6611bf87ddf"
        );
        assert_eq!(
            fingerprint_profile(&p).to_hex(),
            "de0c959383992993351c2edb5994cf7d"
        );
    }

    #[test]
    fn every_single_bit_flip_moves_both_halves() {
        let mut body = noise(4096, 1);
        let digest = BodyDigest::of(&body);
        let (lo, hi) = halves(digest.profile());
        let mut flipped_bits = 0u64;
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            let d = BodyDigest::of(&body);
            assert!(d.lo != digest.lo && d.hi != digest.hi, "digest, bit {bit}");
            let (l, h) = halves(d.profile());
            assert!(l != lo && h != hi, "fingerprint, bit {bit}");
            flipped_bits += ((l ^ lo).count_ones() + (h ^ hi).count_ones()) as u64;
            body[bit / 8] ^= 1 << (bit % 8);
        }
        // An ideal 128-bit hash flips 64 on average.
        let mean = flipped_bits as f64 / (body.len() * 8) as f64;
        assert!(mean >= 60.0, "mean avalanche {mean:.1} of 128 bits");
    }

    #[test]
    fn zero_padding_is_unambiguous() {
        // All-zero bodies differ only in length — and in nothing the
        // zero-padded tail block can see.
        let zeros = [0u8; 128];
        let digests: Vec<BodyDigest> = (0..=128).map(|n| BodyDigest::of(&zeros[..n])).collect();
        for half in [|d: &BodyDigest| d.lo, |d: &BodyDigest| d.hi] {
            let mut values: Vec<u64> = digests.iter().map(half).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), 129, "a 64-bit half collided");
        }
        for len in [0, 1, 7, 8, 31, 32, 33, 63, 64, 100] {
            let mut body = noise(len, 2);
            let short = fingerprint_profile_body(&body);
            body.push(0);
            assert_ne!(short, fingerprint_profile_body(&body), "{len}");
        }
    }

    #[test]
    fn word_order_matters_within_and_across_blocks() {
        // 16 distinct words = 4 blocks: every pair swap, same lane or
        // not, same block or not, must show.
        let body = noise(128, 3);
        let digest = BodyDigest::of(&body);
        for i in 0..16 {
            for j in i + 1..16 {
                let mut swapped = body.clone();
                for k in 0..8 {
                    swapped.swap(8 * i + k, 8 * j + k);
                }
                let d = BodyDigest::of(&swapped);
                assert!(d.lo != digest.lo && d.hi != digest.hi, "words {i} and {j}");
            }
        }
    }

    #[test]
    fn benchmark_style_neighbours_do_not_collide_in_either_half() {
        // The benchmark's `perturb` family: one static grown by k × 512
        // bytes. Neighbouring bodies differ in a byte or two of one
        // varint (sometimes its length) — the inputs a cache actually
        // has to keep apart.
        let mut p = profile();
        let sites = p.statics.len().min(400);
        let per_site = 100_000usize.div_ceil(sites) as u64;
        // Digest lo/hi, then job-fingerprint lo/hi.
        let mut columns: [Vec<u64>; 4] = Default::default();
        let mut record = |body: &[u8]| {
            let d = BodyDigest::of(body);
            let (lo, hi) = halves(d.job(&SynthConfig::default()));
            for (column, v) in columns.iter_mut().zip([d.lo, d.hi, lo, hi]) {
                column.push(v);
            }
        };
        let mut body = canonical_body(&p);
        record(&body);
        for site in 0..sites {
            let original = p.statics[site].size;
            for k in 1..=per_site {
                p.statics[site].size = original + 512 * k;
                body.clear();
                write_profile_body(&p, &mut body);
                record(&body);
            }
            p.statics[site].size = original;
        }
        let total = columns[0].len();
        assert!(total > 100_000);
        for (name, mut column) in ["digest lo", "digest hi", "job lo", "job hi"]
            .into_iter()
            .zip(columns)
        {
            column.sort_unstable();
            column.dedup();
            assert_eq!(column.len(), total, "{name} collided");
        }
    }

    #[test]
    fn job_and_profile_identities_never_coincide() {
        use crate::plan::StrategyChoice;
        for body in [
            Vec::new(),
            vec![0u8],
            noise(33, 4),
            canonical_body(&profile()),
        ] {
            let digest = BodyDigest::of(&body);
            // One walk, both ids: exactly the public by-body functions.
            assert_eq!(digest.profile(), fingerprint_profile_body(&body));
            for strategy in StrategyChoice::ALL {
                for flags in 0..4u8 {
                    let config = SynthConfig {
                        enable_gap_insertion: flags & 1 != 0,
                        ascending_sizes: flags & 2 != 0,
                        strategy,
                    };
                    let job = digest.job(&config);
                    assert_eq!(job, fingerprint_job_body(&body, &config));
                    assert_ne!(job, digest.profile(), "{config:?}");
                }
            }
        }
    }
}
