//! Binary codecs for the two large STAlloc artifacts: plans (`STPL`) and
//! profiles (`PROF`).
//!
//! The JSON form of either artifact spells out every per-request record
//! and runs to hundreds of kilobytes for even a small job. Both codecs
//! exploit the same regularity the planner does: offsets, sizes, and
//! timesteps of consecutive records are near-sorted and highly
//! repetitive, so each field is stored as a zigzag **delta** from its
//! predecessor, LEB128-**varint** encoded. Runs of equal sizes or
//! monotone timestamps collapse to one byte per field.
//!
//! This documentation is the **normative byte-level specification** of
//! both formats — precise enough to reimplement a decoder without
//! reading the code. `ARCHITECTURE.md` at the repository root describes
//! where these streams travel (files, cache artifacts, wire frames).
//!
//! # Shared primitives
//!
//! * **uvarint** — LEB128: little-endian base-128, 7 payload bits per
//!   byte, high bit = continuation. At most 10 bytes / 64 payload bits.
//!   Decoders MUST reject streams with more than 64 bits of payload
//!   ([`CodecError::VarintOverflow`]) and *overlong* encodings whose
//!   final byte is `0x00` after a continuation byte
//!   ([`CodecError::NonCanonicalVarint`]) — every value has exactly one
//!   accepted encoding, which is what makes
//!   `encode(decode(bytes)) == bytes` hold for all accepted streams.
//! * **zigzag(v)** — maps a signed 64-bit delta to unsigned:
//!   `(v << 1) ^ (v >> 63)`, so small negative and positive deltas both
//!   varint-encode in one byte.
//! * **delta(prev)** — a field stored as `zigzag(cur − prev)` (two's
//!   complement wrapping), uvarint encoded. Each section below names the
//!   predecessor; delta chains reset to 0 at the start of each section.
//! * **instance key** — two uvarints: `module` (the `ModuleId`'s `u32`),
//!   then `phase` (`u32`). Values that do not fit the target width are
//!   rejected with [`CodecError::IntOutOfRange`].
//! * **header** — 4 raw magic bytes, then the format version as a
//!   little-endian `u16` (the only non-varint integer in either format).
//!   Each magic has exactly one accepted version, the current one; any
//!   other is rejected with [`CodecError::UnsupportedVersion`].
//! * **collection count** — a uvarint element count. Decoders MUST
//!   sanity-check the count against the bytes remaining (every element
//!   has a known minimum encoded size) and reject implausible counts
//!   with [`CodecError::LengthOverflow`] before allocating.
//!
//! # `STPL`: binary plan format
//!
//! Stream layout (all integers uvarint unless noted):
//!
//! ```text
//! magic "STPL" (4 raw bytes) | version (u16 LE, current = 2)
//! pool_size
//! stats:
//!   strategy     : registry index of the synthesizing strategy
//!                  (unknown indices are rejected)
//!   then 9 uvarints: static_requests, dynamic_requests, phase_groups,
//!   fused_groups, layers, gap_inserted, homolayer_groups,
//!   peak_static_demand, pool_size
//! init_allocs  : count, then per alloc (min 4 bytes each):
//!                delta(prev size), delta(prev offset), delta(prev ts),
//!                delta(own ts) = te
//! iter_allocs  : same encoding, fresh delta chain
//! dyn groups   : count, then per group (min 8 bytes each):
//!                ls key, le key, t0, delta(t0) = t1,
//!                interval count, then per interval
//!                  delta(prev interval start), length,
//!                profiled_bytes
//! instance_seq : count, then per entry (min 3 bytes each):
//!                key, value count, then per value a plain uvarint u32
//! ```
//!
//! # `PROF`: binary profile format
//!
//! The profile (`ProfiledRequests`, the §4 profiler output and the plan
//! request's dominant payload) has its own stream:
//!
//! ```text
//! magic "PROF" (4 raw bytes) | version (u16 LE, current = 1)
//! body — see below
//! ```
//!
//! The **body** (everything after the 6-byte header) is *canonical*: it
//! is also the exact byte stream `stalloc_core::write_profile_body`
//! emits, which the job fingerprint hashes — so
//! `fingerprint_job_body(profile_body(stream), config)` equals
//! `fingerprint_job(decode_profile(stream), config)` by construction,
//! and a server can fingerprint a received binary profile without
//! decoding it. Changing the body layout is therefore a simultaneous
//! `PROF` version bump and `FINGERPRINT_VERSION` bump.
//!
//! ```text
//! init_count   : number of persistent entries at the head of statics;
//!                rejected if it exceeds the statics count
//! num_phases   : u32
//! window_len
//! statics      : count, then per request (min 6 bytes each; encoding
//!                below)
//! dynamics     : same encoding, fresh delta chain
//! instance_windows : count, then per entry (min 4 bytes each):
//!                key, delta(prev entry's start) = start,
//!                delta(own start) = end
//! instance_arrivals: count, then per entry (min 3 bytes each):
//!                key, index count, then indices as delta(prev index)
//!                (u32 range; the first index is a delta from 0)
//! ```
//!
//! Per-request encoding (`RequestEvent`), in order:
//!
//! ```text
//! flags        : 1 raw byte — bit 0 `dynamic`, bit 1 `ls` present,
//!                bit 2 `le` present (`stalloc_core::PROFILE_FLAG_*`);
//!                any other bit set is rejected (canonical form)
//! size         : delta(prev request's size)
//! ts           : delta(prev request's ts)
//! te           : delta(own ts)
//! ps, pe       : plain uvarints (u32 range)
//! ls, le       : instance keys, present iff their flag bit is set,
//!                ls first
//! ```
//!
//! # `PROF-DELTA`: binary profile edit script
//!
//! A profile *delta* ([`stalloc_core::ProfileDelta`]) encodes profile
//! N+1 as an edit script against a base profile identified by its
//! config-free fingerprint (`stalloc_core::fingerprint_profile`). It is
//! the request payload of the `PlanDelta` wire verb: families of
//! near-identical profiles (Chronos-style per-stage schedules) ship a
//! few hundred bytes of edits instead of a full `PROF` stream.
//!
//! ```text
//! magic "PRFD" (4 raw bytes) | version (u16 LE, current = 1)
//! base         : 16 raw bytes — fingerprint_profile of the base
//! init_count   : next profile's persistent prefix length
//! num_phases   : u32
//! window_len
//! statics ops  : count, then per op (min 2 bytes each; encoding below)
//! dynamics ops : same encoding
//! windows flag : 1 raw byte — 0 = same table as the base; 1 = a full
//!                `instance_windows` section follows (same encoding as
//!                `PROF`); any other value is rejected
//! arrivals flag: 1 raw byte — 0 = same as base; 1 = full
//!                `instance_arrivals` section follows (`PROF` encoding,
//!                minus the index bound check: the decoder has no
//!                dynamics list — `apply_delta` checks on application)
//! ```
//!
//! Per-op encoding, in order: a 1-byte tag, then the operands:
//!
//! ```text
//! 0 Copy       : count (uvarint, >= 1 — zero is rejected)
//! 1 Insert     : one full request, absolute fields: flags byte (the
//!                `PROF` rules), size, ts, delta(ts) = te, ps, pe,
//!                then ls/le keys per the flag bits
//! 2 Remove     : count (uvarint, >= 1)
//! 3 Retime     : zigzag dts, dte, dps, dpe
//! 4 Resize     : zigzag dsize
//! ```
//!
//! Tags above 4 are rejected. Like the other two formats, only canonical
//! streams decode, so `encode(decode(bytes)) == bytes` holds for every
//! accepted `PROF-DELTA` stream.
//!
//! # Decoder contract
//!
//! All three decoders are **strict**: they never panic on foreign input.
//! Truncated, oversized, or malformed streams surface as typed
//! [`CodecError`]s, and trailing bytes after a well-formed artifact are
//! rejected ([`CodecError::TrailingBytes`]). Encoding is a pure function
//! of the value, and only canonical streams are accepted, so
//! `encode(decode(bytes)) == bytes` for every accepted stream — the
//! property that lets fingerprints and content-addressed caches treat
//! the bytes and the value interchangeably.

use std::fmt;

use stalloc_core::fingerprint::{
    put_arrivals, put_record, put_request_keys, put_uvarint, put_windows, request_flags, zigzag,
    Record, MAX_INSTANCE, MAX_REQUEST, MAX_VARINT, MAX_VARINT32,
};
use stalloc_core::plan::{DynGroup, DynamicPlan, Plan, PlanStats, PlannedAlloc, StrategyChoice};
use stalloc_core::{
    EditOp, Fingerprint, InstanceKey, ProfileDelta, ProfiledRequests, RequestEvent,
    PROFILE_FLAG_DYNAMIC, PROFILE_FLAG_HAS_LE, PROFILE_FLAG_HAS_LS,
};

/// File magic identifying a binary plan (`STPL`).
pub const MAGIC: [u8; 4] = *b"STPL";

/// Current plan wire-format version, the only one [`decode_plan`]
/// accepts (v2 added the synthesizing-strategy tag as the first stats
/// field).
pub const FORMAT_VERSION: u16 = 2;

/// Stream magic identifying a binary profile (`PROF`).
pub const PROFILE_MAGIC: [u8; 4] = *b"PROF";

/// Current profile wire-format version.
pub const PROFILE_FORMAT_VERSION: u16 = 1;

/// Stream magic identifying a binary profile delta (`PROF-DELTA`).
pub const DELTA_MAGIC: [u8; 4] = *b"PRFD";

/// Current profile-delta wire-format version.
pub const DELTA_FORMAT_VERSION: u16 = 1;

/// Typed decode failures. The decoder returns these instead of panicking,
/// whatever the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is not the one this build writes.
    UnsupportedVersion(u16),
    /// The stream ended inside the named field.
    Truncated {
        /// Byte offset at which input ran out.
        offset: usize,
        /// Field being decoded.
        context: &'static str,
    },
    /// A varint ran past 10 bytes / 64 bits.
    VarintOverflow {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A varint used an overlong (zero-padded) encoding. The encoder only
    /// emits canonical varints; rejecting the rest keeps
    /// `encode(decode(bytes)) == bytes` true for every accepted stream.
    NonCanonicalVarint {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A decoded integer does not fit the target field's type.
    IntOutOfRange {
        /// Field being decoded.
        context: &'static str,
    },
    /// A collection claims more elements than the remaining bytes could
    /// possibly hold.
    LengthOverflow {
        /// Collection being decoded.
        context: &'static str,
        /// Claimed element count.
        len: u64,
    },
    /// Well-formed plan followed by unconsumed bytes.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl CodecError {
    /// Every variant name, in declaration order. Fuzzing harnesses use
    /// this as the coverage checklist: a corpus that never produces one
    /// of these rejections has a blind spot.
    pub const VARIANT_NAMES: &'static [&'static str] = &[
        "BadMagic",
        "UnsupportedVersion",
        "Truncated",
        "VarintOverflow",
        "NonCanonicalVarint",
        "IntOutOfRange",
        "LengthOverflow",
        "TrailingBytes",
    ];

    /// This error's variant name (an element of [`Self::VARIANT_NAMES`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            CodecError::BadMagic => "BadMagic",
            CodecError::UnsupportedVersion(_) => "UnsupportedVersion",
            CodecError::Truncated { .. } => "Truncated",
            CodecError::VarintOverflow { .. } => "VarintOverflow",
            CodecError::NonCanonicalVarint { .. } => "NonCanonicalVarint",
            CodecError::IntOutOfRange { .. } => "IntOutOfRange",
            CodecError::LengthOverflow { .. } => "LengthOverflow",
            CodecError::TrailingBytes { .. } => "TrailingBytes",
        }
    }

    /// The decoder-context label carried by the variant, if any. Each
    /// label names the field whose parse rejected the stream, so the set
    /// of labels a corpus has produced doubles as a branch-level
    /// coverage proxy over the decoders.
    pub fn context(&self) -> Option<&'static str> {
        match self {
            CodecError::Truncated { context, .. }
            | CodecError::IntOutOfRange { context }
            | CodecError::LengthOverflow { context, .. } => Some(context),
            _ => None,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a binary artifact (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v}")
            }
            CodecError::Truncated { offset, context } => {
                write!(
                    f,
                    "truncated input at byte {offset} while reading {context}"
                )
            }
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            CodecError::NonCanonicalVarint { offset } => {
                write!(f, "non-canonical (overlong) varint at byte {offset}")
            }
            CodecError::IntOutOfRange { context } => {
                write!(f, "integer out of range for {context}")
            }
            CodecError::LengthOverflow { context, len } => {
                write!(f, "implausible length {len} for {context}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after plan")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// --- primitive writers -------------------------------------------------
//
// The writers live in `stalloc_core::fingerprint` (imported above):
// both codecs and the job fingerprint must emit byte-identical streams,
// so there is exactly one copy of the varint/zigzag/delta emitters in
// the tree. Only the reader side is defined here.

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- primitive reader --------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                context,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads the 6-byte header: `magic`, then exactly `version`.
    fn header(&mut self, magic: [u8; 4], version: u16) -> Result<(), CodecError> {
        if self.take(4, "magic")? != magic {
            return Err(CodecError::BadMagic);
        }
        let found = u16::from_le_bytes(self.take(2, "version")?.try_into().expect("2 bytes"));
        if found != version {
            return Err(CodecError::UnsupportedVersion(found));
        }
        Ok(())
    }

    /// Reads one canonical varint. A one-byte varint — most fields of
    /// both streams — returns at once; a longer one is decoded from the
    /// at most [`MAX_VARINT`] bytes it may span. Errors name the varint's
    /// first byte, except a truncation, which names the offset where the
    /// input ran out.
    #[inline]
    fn uvarint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        match self.bytes.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte as u64)
            }
            _ => self.uvarint_long(context),
        }
    }

    /// [`Self::uvarint`] past its one-byte case.
    fn uvarint_long(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let start = self.pos;
        let window = &self.bytes[start..self.bytes.len().min(start + MAX_VARINT)];
        let mut out = 0u64;
        for (k, &byte) in window.iter().enumerate() {
            let payload = (byte & 0x7f) as u64;
            // The tenth byte holds bit 63 alone.
            if k == MAX_VARINT - 1 && payload > 1 {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            out |= payload << (7 * k);
            if byte & 0x80 == 0 {
                // The encoder never emits a zero terminal byte after a
                // continuation; such padding would make two distinct
                // streams decode to the same plan.
                if payload == 0 && k > 0 {
                    return Err(CodecError::NonCanonicalVarint { offset: start });
                }
                self.pos = start + k + 1;
                return Ok(out);
            }
        }
        if window.len() < MAX_VARINT {
            return Err(CodecError::Truncated {
                offset: start + window.len(),
                context,
            });
        }
        Err(CodecError::VarintOverflow { offset: start })
    }

    /// Applies a zigzag delta to `prev` (wrapping, mirroring the encoder).
    fn delta(&mut self, prev: u64, context: &'static str) -> Result<u64, CodecError> {
        let d = unzigzag(self.uvarint(context)?);
        Ok(prev.wrapping_add(d as u64))
    }

    fn u32_field(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let v = self.uvarint(context)?;
        u32::try_from(v).map_err(|_| CodecError::IntOutOfRange { context })
    }

    fn usize_field(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.uvarint(context)?;
        usize::try_from(v).map_err(|_| CodecError::IntOutOfRange { context })
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// left: every element costs ≥ `min_elem_bytes`, so a count claiming
    /// more is corrupt — rejecting it keeps pre-allocation safe.
    fn length(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let len = self.uvarint(context)?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > cap {
            return Err(CodecError::LengthOverflow { context, len });
        }
        Ok(len as usize)
    }
}

// --- sections ----------------------------------------------------------

fn put_allocs(buf: &mut Vec<u8>, allocs: &[PlannedAlloc]) {
    put_uvarint(buf, allocs.len() as u64);
    let (mut size, mut offset, mut ts) = (0u64, 0u64, 0u64);
    for a in allocs {
        put_record(buf, 4 * MAX_VARINT, |rec| {
            rec.delta(size, a.size);
            rec.delta(offset, a.offset);
            rec.delta(ts, a.ts);
            rec.delta(a.ts, a.te);
        });
        size = a.size;
        offset = a.offset;
        ts = a.ts;
    }
}

fn get_allocs(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<PlannedAlloc>, CodecError> {
    // Four varints per alloc, one byte minimum each.
    let len = r.length(4, context)?;
    let mut out = Vec::with_capacity(len);
    let (mut size, mut offset, mut ts) = (0u64, 0u64, 0u64);
    for _ in 0..len {
        size = r.delta(size, context)?;
        offset = r.delta(offset, context)?;
        ts = r.delta(ts, context)?;
        let te = r.delta(ts, context)?;
        out.push(PlannedAlloc {
            size,
            offset,
            ts,
            te,
        });
    }
    Ok(out)
}

fn get_instance(r: &mut Reader<'_>, context: &'static str) -> Result<InstanceKey, CodecError> {
    Ok(InstanceKey {
        module: trace_gen::ModuleId(r.u32_field(context)?),
        phase: r.u32_field(context)?,
    })
}

/// A typical, not a worst-case, `STPL` length for `plan`, so one
/// allocation holds the stream: the header; 11 bytes per decision (three
/// multi-byte varints and a small delta); per dynamic group its keys and
/// range plus 10 bytes per interval; per instance sequence its key and
/// length plus 1.5 bytes per value (group indices past 127 take two).
/// The worst-case record bounds would over-reserve about 7×.
fn plan_len_guess(plan: &Plan) -> usize {
    let decisions = plan.init_allocs.len() + plan.iter_allocs.len();
    let dynamic = &plan.dynamic;
    let groups: usize = dynamic
        .groups
        .iter()
        .map(|g| 16 + 10 * g.intervals.len())
        .sum();
    let seqs: usize = dynamic
        .instance_seq
        .iter()
        .map(|(_, s)| 4 + s.len() * 3 / 2)
        .sum();
    64 + 11 * decisions + groups + seqs
}

/// Encodes a plan to the binary wire format.
pub fn encode_plan(plan: &Plan) -> Vec<u8> {
    let mut buf = Vec::with_capacity(plan_len_guess(plan));
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

    let s = &plan.stats;
    put_record(&mut buf, 11 * MAX_VARINT, |rec| {
        rec.uvarint(plan.pool_size);
        rec.uvarint(s.strategy.index() as u64);
        rec.uvarint(s.static_requests as u64);
        rec.uvarint(s.dynamic_requests as u64);
        rec.uvarint(s.phase_groups as u64);
        rec.uvarint(s.fused_groups as u64);
        rec.uvarint(s.layers as u64);
        rec.uvarint(s.gap_inserted as u64);
        rec.uvarint(s.homolayer_groups as u64);
        rec.uvarint(s.peak_static_demand);
        rec.uvarint(s.pool_size);
    });

    put_allocs(&mut buf, &plan.init_allocs);
    put_allocs(&mut buf, &plan.iter_allocs);

    put_uvarint(&mut buf, plan.dynamic.groups.len() as u64);
    for g in &plan.dynamic.groups {
        // Keys, range, interval count, intervals, profiled bytes.
        let max = 2 * MAX_INSTANCE + 4 * MAX_VARINT + 2 * MAX_VARINT * g.intervals.len();
        put_record(&mut buf, max, |rec| {
            rec.instance(&g.ls);
            rec.instance(&g.le);
            rec.uvarint(g.t_range.0);
            rec.delta(g.t_range.0, g.t_range.1);
            rec.uvarint(g.intervals.len() as u64);
            let mut prev_start = 0u64;
            for &(start, len) in &g.intervals {
                rec.delta(prev_start, start);
                rec.uvarint(len);
                prev_start = start;
            }
            rec.uvarint(g.profiled_bytes);
        });
    }

    put_uvarint(&mut buf, plan.dynamic.instance_seq.len() as u64);
    for (key, seq) in &plan.dynamic.instance_seq {
        let max = MAX_INSTANCE + MAX_VARINT + MAX_VARINT32 * seq.len();
        put_record(&mut buf, max, |rec| {
            rec.instance(key);
            rec.uvarint(seq.len() as u64);
            for &v in seq {
                rec.uvarint(v as u64);
            }
        });
    }

    buf
}

/// Decodes a binary plan, rejecting anything malformed with a typed error.
pub fn decode_plan(bytes: &[u8]) -> Result<Plan, CodecError> {
    let mut r = Reader::new(bytes);
    r.header(MAGIC, FORMAT_VERSION)?;

    let pool_size = r.uvarint("pool_size")?;
    let strategy = u8::try_from(r.uvarint("stats.strategy")?)
        .ok()
        .and_then(StrategyChoice::from_index)
        .ok_or(CodecError::IntOutOfRange {
            context: "stats.strategy",
        })?;

    let stats = PlanStats {
        strategy,
        static_requests: r.usize_field("stats.static_requests")?,
        dynamic_requests: r.usize_field("stats.dynamic_requests")?,
        phase_groups: r.usize_field("stats.phase_groups")?,
        fused_groups: r.usize_field("stats.fused_groups")?,
        layers: r.usize_field("stats.layers")?,
        gap_inserted: r.usize_field("stats.gap_inserted")?,
        homolayer_groups: r.usize_field("stats.homolayer_groups")?,
        peak_static_demand: r.uvarint("stats.peak_static_demand")?,
        pool_size: r.uvarint("stats.pool_size")?,
    };

    let init_allocs = get_allocs(&mut r, "init_allocs")?;
    let iter_allocs = get_allocs(&mut r, "iter_allocs")?;

    // Each group costs ≥ 8 single-byte varints.
    let group_count = r.length(8, "dynamic.groups")?;
    let mut groups = Vec::with_capacity(group_count);
    for _ in 0..group_count {
        let ls = get_instance(&mut r, "group.ls")?;
        let le = get_instance(&mut r, "group.le")?;
        let t0 = r.uvarint("group.t_range")?;
        let t1 = r.delta(t0, "group.t_range")?;
        let n_intervals = r.length(2, "group.intervals")?;
        let mut intervals = Vec::with_capacity(n_intervals);
        let mut prev_start = 0u64;
        for _ in 0..n_intervals {
            let start = r.delta(prev_start, "group.intervals")?;
            let len = r.uvarint("group.intervals")?;
            intervals.push((start, len));
            prev_start = start;
        }
        let profiled_bytes = r.uvarint("group.profiled_bytes")?;
        groups.push(DynGroup {
            ls,
            le,
            t_range: (t0, t1),
            intervals,
            profiled_bytes,
        });
    }

    let seq_count = r.length(3, "instance_seq")?;
    let mut instance_seq = Vec::with_capacity(seq_count);
    for _ in 0..seq_count {
        let key = get_instance(&mut r, "instance_seq.key")?;
        let n = r.length(1, "instance_seq.values")?;
        let mut seq = Vec::with_capacity(n);
        for _ in 0..n {
            seq.push(r.u32_field("instance_seq.values")?);
        }
        instance_seq.push((key, seq));
    }

    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }

    Ok(Plan {
        pool_size,
        init_allocs,
        iter_allocs,
        dynamic: DynamicPlan {
            groups,
            instance_seq,
        },
        stats,
    })
}

// --- profile codec -----------------------------------------------------

/// Encodes a profile to the `PROF` binary wire format.
///
/// The body after the 6-byte header is produced by
/// [`stalloc_core::write_profile_body`] — the same canonical byte walk
/// the job fingerprint hashes, so the encoding doubles as the
/// fingerprintable form of the profile (see [`profile_body`]).
pub fn encode_profile(profile: &ProfiledRequests) -> Vec<u8> {
    // Magic + version, then the body at the walk's own size estimate.
    let header = PROFILE_MAGIC.len() + 2;
    let mut buf = Vec::with_capacity(header + stalloc_core::profile_body_capacity(profile));
    buf.extend_from_slice(&PROFILE_MAGIC);
    buf.extend_from_slice(&PROFILE_FORMAT_VERSION.to_le_bytes());
    stalloc_core::write_profile_body(profile, &mut buf);
    buf
}

/// Validates the `PROF` header of an encoded profile and returns its
/// **body** — the canonical byte stream
/// `stalloc_core::fingerprint_job_body` hashes. This is the
/// fingerprint-without-decoding entry point: a server holding the raw
/// request bytes can compute the job fingerprint (and answer a cache
/// hit) without running [`decode_profile`].
pub fn profile_body(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let mut r = Reader::new(bytes);
    r.header(PROFILE_MAGIC, PROFILE_FORMAT_VERSION)?;
    Ok(&bytes[r.pos..])
}

const PROFILE_FLAGS_MASK: u8 = PROFILE_FLAG_DYNAMIC | PROFILE_FLAG_HAS_LS | PROFILE_FLAG_HAS_LE;

fn get_request(
    r: &mut Reader<'_>,
    prev_size: u64,
    prev_ts: u64,
    context: &'static str,
) -> Result<RequestEvent, CodecError> {
    let flags = r.take(1, context)?[0];
    // Reserved bits must be zero: the encoder never sets them, and
    // accepting them would break canonical re-encoding.
    if flags & !PROFILE_FLAGS_MASK != 0 {
        return Err(CodecError::IntOutOfRange { context });
    }
    let size = r.delta(prev_size, context)?;
    let ts = r.delta(prev_ts, context)?;
    let te = r.delta(ts, context)?;
    let ps = r.u32_field(context)?;
    let pe = r.u32_field(context)?;
    let ls = if flags & PROFILE_FLAG_HAS_LS != 0 {
        Some(get_instance(r, context)?)
    } else {
        None
    };
    let le = if flags & PROFILE_FLAG_HAS_LE != 0 {
        Some(get_instance(r, context)?)
    } else {
        None
    };
    Ok(RequestEvent {
        size,
        ts,
        te,
        ps,
        pe,
        dynamic: flags & PROFILE_FLAG_DYNAMIC != 0,
        ls,
        le,
    })
}

fn get_requests(
    r: &mut Reader<'_>,
    context: &'static str,
) -> Result<Vec<RequestEvent>, CodecError> {
    // Flags byte + five single-byte varints per request, minimum.
    let len = r.length(6, context)?;
    let mut out = Vec::with_capacity(len);
    let (mut size, mut ts) = (0u64, 0u64);
    for _ in 0..len {
        let req = get_request(r, size, ts, context)?;
        size = req.size;
        ts = req.ts;
        out.push(req);
    }
    Ok(out)
}

/// Decodes a binary profile, rejecting anything malformed with a typed
/// error. Structural invariants the rest of the pipeline relies on
/// (`init_count` within bounds, arrival indices inside `dynamics`) are
/// also enforced here, so a decoded profile is safe to plan.
pub fn decode_profile(bytes: &[u8]) -> Result<ProfiledRequests, CodecError> {
    let body = profile_body(bytes)?;
    let mut r = Reader::new(body);

    let init_count = r.usize_field("init_count")?;
    let num_phases = r.u32_field("num_phases")?;
    let window_len = r.uvarint("window_len")?;

    let statics = get_requests(&mut r, "statics")?;
    if init_count > statics.len() {
        return Err(CodecError::IntOutOfRange {
            context: "init_count",
        });
    }
    let dynamics = get_requests(&mut r, "dynamics")?;

    // Key + two deltas, minimum 4 bytes per entry.
    let window_count = r.length(4, "instance_windows")?;
    let mut instance_windows = Vec::with_capacity(window_count);
    let mut prev_start = 0u64;
    for _ in 0..window_count {
        let key = get_instance(&mut r, "instance_windows")?;
        let start = r.delta(prev_start, "instance_windows")?;
        let end = r.delta(start, "instance_windows")?;
        instance_windows.push((key, (start, end)));
        prev_start = start;
    }

    // Key + count, minimum 3 bytes per entry.
    let arrival_count = r.length(3, "instance_arrivals")?;
    let mut instance_arrivals = Vec::with_capacity(arrival_count);
    for _ in 0..arrival_count {
        let key = get_instance(&mut r, "instance_arrivals")?;
        let n = r.length(1, "instance_arrivals")?;
        let mut seq = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            let idx = r.delta(prev, "instance_arrivals")?;
            let idx32 = u32::try_from(idx).map_err(|_| CodecError::IntOutOfRange {
                context: "instance_arrivals",
            })?;
            if idx as usize >= dynamics.len() {
                return Err(CodecError::IntOutOfRange {
                    context: "instance_arrivals",
                });
            }
            seq.push(idx32);
            prev = idx;
        }
        instance_arrivals.push((key, seq));
    }

    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }

    Ok(ProfiledRequests {
        statics,
        init_count,
        dynamics,
        num_phases,
        window_len,
        instance_windows,
        instance_arrivals,
    })
}

// --- profile-delta codec -----------------------------------------------

const OP_COPY: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_RETIME: u8 = 3;
const OP_RESIZE: u8 = 4;

/// Appends one request with **absolute** fields (no cross-request delta
/// chain: delta ops interleave with copies, so there is no meaningful
/// predecessor). `te` still rides as a delta from the request's own `ts`.
fn put_request_abs(rec: &mut Record<'_>, r: &RequestEvent) {
    rec.byte(request_flags(r));
    rec.uvarint(r.size);
    rec.uvarint(r.ts);
    rec.delta(r.ts, r.te);
    rec.uvarint(r.ps as u64);
    rec.uvarint(r.pe as u64);
    put_request_keys(rec, r);
}

fn get_request_abs(r: &mut Reader<'_>, context: &'static str) -> Result<RequestEvent, CodecError> {
    let flags = r.take(1, context)?[0];
    if flags & !PROFILE_FLAGS_MASK != 0 {
        return Err(CodecError::IntOutOfRange { context });
    }
    let size = r.uvarint(context)?;
    let ts = r.uvarint(context)?;
    let te = r.delta(ts, context)?;
    let ps = r.u32_field(context)?;
    let pe = r.u32_field(context)?;
    let ls = if flags & PROFILE_FLAG_HAS_LS != 0 {
        Some(get_instance(r, context)?)
    } else {
        None
    };
    let le = if flags & PROFILE_FLAG_HAS_LE != 0 {
        Some(get_instance(r, context)?)
    } else {
        None
    };
    Ok(RequestEvent {
        size,
        ts,
        te,
        ps,
        pe,
        dynamic: flags & PROFILE_FLAG_DYNAMIC != 0,
        ls,
        le,
    })
}

fn put_signed(rec: &mut Record<'_>, v: i64) {
    rec.uvarint(zigzag(v));
}

/// Longest encoded op: an `Insert`, its tag byte then one request (plain
/// `size` and `ts` varints are no longer than deltas).
const MAX_OP: usize = 1 + MAX_REQUEST;

fn put_ops(buf: &mut Vec<u8>, ops: &[EditOp]) {
    put_uvarint(buf, ops.len() as u64);
    for op in ops {
        put_record(buf, MAX_OP, |rec| match op {
            EditOp::Copy { count } => {
                rec.byte(OP_COPY);
                rec.uvarint(*count as u64);
            }
            EditOp::Insert { request } => {
                rec.byte(OP_INSERT);
                put_request_abs(rec, request);
            }
            EditOp::Remove { count } => {
                rec.byte(OP_REMOVE);
                rec.uvarint(*count as u64);
            }
            EditOp::Retime { dts, dte, dps, dpe } => {
                rec.byte(OP_RETIME);
                put_signed(rec, *dts);
                put_signed(rec, *dte);
                put_signed(rec, *dps);
                put_signed(rec, *dpe);
            }
            EditOp::Resize { dsize } => {
                rec.byte(OP_RESIZE);
                put_signed(rec, *dsize);
            }
        });
    }
}

fn get_ops(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<EditOp>, CodecError> {
    // Tag byte + one single-byte operand, minimum.
    let len = r.length(2, context)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let tag = r.take(1, context)?[0];
        out.push(match tag {
            OP_COPY | OP_REMOVE => {
                let count = r.usize_field(context)?;
                // Zero-length runs encode nothing; accepting them would
                // give one script two byte forms.
                if count == 0 {
                    return Err(CodecError::IntOutOfRange { context });
                }
                if tag == OP_COPY {
                    EditOp::Copy { count }
                } else {
                    EditOp::Remove { count }
                }
            }
            OP_INSERT => EditOp::Insert {
                request: get_request_abs(r, context)?,
            },
            OP_RETIME => EditOp::Retime {
                dts: unzigzag(r.uvarint(context)?),
                dte: unzigzag(r.uvarint(context)?),
                dps: unzigzag(r.uvarint(context)?),
                dpe: unzigzag(r.uvarint(context)?),
            },
            OP_RESIZE => EditOp::Resize {
                dsize: unzigzag(r.uvarint(context)?),
            },
            _ => return Err(CodecError::IntOutOfRange { context }),
        });
    }
    Ok(out)
}

/// Encodes a profile delta to the `PROF-DELTA` binary wire format.
pub fn encode_profile_delta(delta: &ProfileDelta) -> Vec<u8> {
    let guess = 64 + 8 * (delta.statics.len() + delta.dynamics.len());
    let mut buf = Vec::with_capacity(guess);
    buf.extend_from_slice(&DELTA_MAGIC);
    buf.extend_from_slice(&DELTA_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&delta.base.0);
    put_record(&mut buf, 3 * MAX_VARINT, |rec| {
        rec.uvarint(delta.init_count as u64);
        rec.uvarint(delta.num_phases as u64);
        rec.uvarint(delta.window_len);
    });
    put_ops(&mut buf, &delta.statics);
    put_ops(&mut buf, &delta.dynamics);

    match &delta.instance_windows {
        None => buf.push(0),
        Some(windows) => {
            buf.push(1);
            put_windows(&mut buf, windows);
        }
    }
    match &delta.instance_arrivals {
        None => buf.push(0),
        Some(arrivals) => {
            buf.push(1);
            put_arrivals(&mut buf, arrivals);
        }
    }
    buf
}

/// Validates a `PROF-DELTA` header and returns the base-profile
/// fingerprint the stream edits — the server's cache-probe entry point:
/// one 22-byte peek decides whether the base is on hand before the full
/// script is decoded.
pub fn delta_base_fingerprint(bytes: &[u8]) -> Result<Fingerprint, CodecError> {
    let mut r = Reader::new(bytes);
    r.header(DELTA_MAGIC, DELTA_FORMAT_VERSION)?;
    let fp = r.take(16, "base")?;
    Ok(Fingerprint(fp.try_into().expect("16 bytes")))
}

/// Decodes a binary profile delta, rejecting anything malformed with a
/// typed error. Script *semantics* (cursor discipline, field ranges
/// against the base) are checked by `stalloc_core::apply_delta` on
/// application — the decoder has no base profile to check against.
pub fn decode_profile_delta(bytes: &[u8]) -> Result<ProfileDelta, CodecError> {
    let base = delta_base_fingerprint(bytes)?;
    let mut r = Reader::new(&bytes[22..]);

    let init_count = r.usize_field("init_count")?;
    let num_phases = r.u32_field("num_phases")?;
    let window_len = r.uvarint("window_len")?;
    let statics = get_ops(&mut r, "delta.statics")?;
    let dynamics = get_ops(&mut r, "delta.dynamics")?;

    let instance_windows = match r.take(1, "delta.windows_flag")?[0] {
        0 => None,
        1 => {
            let count = r.length(4, "instance_windows")?;
            let mut out = Vec::with_capacity(count);
            let mut prev_start = 0u64;
            for _ in 0..count {
                let key = get_instance(&mut r, "instance_windows")?;
                let start = r.delta(prev_start, "instance_windows")?;
                let end = r.delta(start, "instance_windows")?;
                out.push((key, (start, end)));
                prev_start = start;
            }
            Some(out)
        }
        _ => {
            return Err(CodecError::IntOutOfRange {
                context: "delta.windows_flag",
            })
        }
    };
    let instance_arrivals = match r.take(1, "delta.arrivals_flag")?[0] {
        0 => None,
        1 => {
            let count = r.length(3, "instance_arrivals")?;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let key = get_instance(&mut r, "instance_arrivals")?;
                let n = r.length(1, "instance_arrivals")?;
                let mut seq = Vec::with_capacity(n);
                let mut prev = 0u64;
                for _ in 0..n {
                    let idx = r.delta(prev, "instance_arrivals")?;
                    let idx32 = u32::try_from(idx).map_err(|_| CodecError::IntOutOfRange {
                        context: "instance_arrivals",
                    })?;
                    seq.push(idx32);
                    prev = idx;
                }
                out.push((key, seq));
            }
            Some(out)
        }
        _ => {
            return Err(CodecError::IntOutOfRange {
                context: "delta.arrivals_flag",
            })
        }
    };

    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }

    Ok(ProfileDelta {
        base,
        init_count,
        num_phases,
        window_len,
        statics,
        dynamics,
        instance_windows,
        instance_arrivals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        let alloc = |size, offset, ts, te| PlannedAlloc {
            size,
            offset,
            ts,
            te,
        };
        let key = |m, p| InstanceKey {
            module: trace_gen::ModuleId(m),
            phase: p,
        };
        Plan {
            pool_size: 1 << 20,
            init_allocs: vec![alloc(512, 0, 0, 100), alloc(512, 512, 0, 100)],
            iter_allocs: vec![
                alloc(1024, 1024, 3, 9),
                alloc(1024, 2048, 4, 8),
                alloc(4096, 1024, 10, 90),
            ],
            dynamic: DynamicPlan {
                groups: vec![DynGroup {
                    ls: key(7, 2),
                    le: key(7, 5),
                    t_range: (12, 44),
                    intervals: vec![(0, 1024), (8192, 4096)],
                    profiled_bytes: 12_800,
                }],
                instance_seq: vec![(key(7, 2), vec![0, 0, u32::MAX])],
            },
            stats: PlanStats {
                strategy: StrategyChoice::Lookahead,
                static_requests: 5,
                dynamic_requests: 3,
                phase_groups: 2,
                fused_groups: 1,
                layers: 1,
                gap_inserted: 0,
                homolayer_groups: 1,
                peak_static_demand: 6144,
                pool_size: 1 << 20,
            },
        }
    }

    #[test]
    fn roundtrip_and_stable_reencode() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        assert!(bytes.starts_with(&MAGIC));
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back, plan);
        assert_eq!(encode_plan(&back), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn empty_plan_roundtrips() {
        let plan = Plan::default();
        let back = decode_plan(&encode_plan(&plan)).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_plan(&sample_plan());
        for cut in 0..bytes.len() {
            let err = decode_plan(&bytes[..cut]).expect_err("prefix must not decode");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::BadMagic
                        | CodecError::LengthOverflow { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        assert_eq!(decode_plan(b"JSON{}"), Err(CodecError::BadMagic));
        let mut bytes = encode_plan(&sample_plan());
        bytes[4] = 0xff;
        bytes[5] = 0x7f;
        assert_eq!(
            decode_plan(&bytes),
            Err(CodecError::UnsupportedVersion(0x7fff))
        );
        // Older versions are foreign too: only the current one decodes.
        for old in [0u16, 1] {
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_plan(&bytes),
                Err(CodecError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn unknown_strategy_index_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_uvarint(&mut bytes, 0); // pool_size
        put_uvarint(&mut bytes, 99); // no such strategy
        assert_eq!(
            decode_plan(&bytes),
            Err(CodecError::IntOutOfRange {
                context: "stats.strategy"
            })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_plan(&sample_plan());
        bytes.push(0);
        assert_eq!(
            decode_plan(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn implausible_length_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // pool_size + strategy tag + 9 stats fields, then a giant alloc
        // count.
        bytes.extend_from_slice(&[0; 11]);
        put_uvarint(&mut bytes, u64::MAX);
        assert!(matches!(
            decode_plan(&bytes),
            Err(CodecError::LengthOverflow { .. } | CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // pool_size = 0 encoded non-canonically as 0x80 0x00.
        bytes.extend_from_slice(&[0x80, 0x00]);
        assert_eq!(
            decode_plan(&bytes),
            Err(CodecError::NonCanonicalVarint { offset: 6 })
        );
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // 11 continuation bytes: > 64 bits of payload.
        bytes.extend_from_slice(&[0xff; 11]);
        assert!(matches!(
            decode_plan(&bytes),
            Err(CodecError::VarintOverflow { .. })
        ));
    }

    fn sample_profile() -> ProfiledRequests {
        let key = |m, p| InstanceKey {
            module: trace_gen::ModuleId(m),
            phase: p,
        };
        let req = |size, ts, te, ps, pe, dynamic, ls: Option<InstanceKey>, le| RequestEvent {
            size,
            ts,
            te,
            ps,
            pe,
            dynamic,
            ls,
            le,
        };
        ProfiledRequests {
            statics: vec![
                req(4096, 0, 100, 0, 3, false, None, None),
                req(4096, 0, 100, 0, 3, false, None, None),
                req(512, 7, 12, 1, 1, false, Some(key(3, 1)), Some(key(4, 1))),
            ],
            init_count: 2,
            dynamics: vec![
                req(8192, 9, 11, 1, 1, true, Some(key(5, 1)), Some(key(5, 1))),
                req(1024, 40, 90, 2, 2, true, Some(key(5, 2)), None),
            ],
            num_phases: 2,
            window_len: 100,
            instance_windows: vec![
                (key(3, 1), (5, 20)),
                (key(5, 1), (8, 15)),
                (key(5, 2), (35, 95)),
            ],
            instance_arrivals: vec![(key(5, 1), vec![0]), (key(5, 2), vec![1])],
        }
    }

    #[test]
    fn profile_roundtrip_and_stable_reencode() {
        let profile = sample_profile();
        let bytes = encode_profile(&profile);
        assert!(bytes.starts_with(&PROFILE_MAGIC));
        assert_eq!(decode_plan(&bytes), Err(CodecError::BadMagic));
        let back = decode_profile(&bytes).unwrap();
        assert_eq!(back, profile);
        assert_eq!(encode_profile(&back), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn empty_profile_roundtrips() {
        let profile = ProfiledRequests::default();
        let bytes = encode_profile(&profile);
        let back = decode_profile(&bytes).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn workload_sized_streams_encode_without_regrowing() {
        // The benchmark's `moe-dyn` job (a 260 KB profile stream, dynamics
        // and instance tables included; an 85 KB plan, a quarter of it
        // instance sequences) and a dense one: each stream must fit the
        // buffer `encode_profile` / `encode_plan` pre-sized, or every
        // request pays a reallocation and a copy of most of it. The plan
        // guess is typical, not worst-case: well under twice the stream.
        use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
        let moe = TrainJob::new(
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(2, 2, 2).with_ep(4),
            OptimConfig::r(),
        )
        .with_mbs(8)
        .with_seq(2048)
        .with_microbatches(8);
        let dense = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::naive(),
        )
        .with_microbatches(8);
        for job in [moe, dense] {
            let profile = stalloc_core::profile_trace(&job.build_trace().unwrap(), 1).unwrap();
            let bytes = encode_profile(&profile);
            let (body, estimate) = (
                profile_body(&bytes).unwrap().len(),
                stalloc_core::profile_body_capacity(&profile),
            );
            assert!(
                body <= estimate,
                "{body} B body outgrew its {estimate} B estimate"
            );
            let plan = stalloc_core::synthesize(&profile, &stalloc_core::SynthConfig::default());
            let (len, guess) = (encode_plan(&plan).len(), plan_len_guess(&plan));
            assert!(len <= guess, "{len} B plan outgrew its {guess} B guess");
            assert!(guess < 2 * len, "{guess} B guess for a {len} B plan");
        }
    }

    #[test]
    fn profile_body_is_the_fingerprint_walk() {
        // The PROF body and the canonical fingerprint walk must be the
        // same bytes — the property that allows fingerprinting a
        // received binary profile without decoding it.
        let profile = sample_profile();
        let bytes = encode_profile(&profile);
        let mut walk = Vec::new();
        stalloc_core::write_profile_body(&profile, &mut walk);
        assert_eq!(profile_body(&bytes).unwrap(), &walk[..]);

        let config = stalloc_core::SynthConfig::default();
        assert_eq!(
            stalloc_core::fingerprint_job_body(profile_body(&bytes).unwrap(), &config),
            stalloc_core::fingerprint_job(&profile, &config),
        );
    }

    #[test]
    fn profile_every_truncation_is_a_typed_error() {
        let bytes = encode_profile(&sample_profile());
        for cut in 0..bytes.len() {
            let err = decode_profile(&bytes[..cut]).expect_err("prefix must not decode");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::BadMagic
                        | CodecError::LengthOverflow { .. }
                        | CodecError::IntOutOfRange { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn profile_bad_magic_and_version() {
        assert_eq!(decode_profile(b"JSON{}"), Err(CodecError::BadMagic));
        // A plan stream is not a profile.
        assert_eq!(
            decode_profile(&encode_plan(&sample_plan())),
            Err(CodecError::BadMagic)
        );
        let mut bytes = encode_profile(&sample_profile());
        bytes[4] = 0x42;
        bytes[5] = 0x42;
        assert_eq!(
            decode_profile(&bytes),
            Err(CodecError::UnsupportedVersion(0x4242))
        );
    }

    #[test]
    fn profile_reserved_flag_bits_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PROFILE_MAGIC);
        bytes.extend_from_slice(&PROFILE_FORMAT_VERSION.to_le_bytes());
        put_uvarint(&mut bytes, 0); // init_count
        put_uvarint(&mut bytes, 1); // num_phases
        put_uvarint(&mut bytes, 10); // window_len
        put_uvarint(&mut bytes, 1); // statics: one request
        bytes.push(0x80); // flags with a reserved bit set
        bytes.extend_from_slice(&[0; 8]); // enough bytes for the fields
        assert!(matches!(
            decode_profile(&bytes),
            Err(CodecError::IntOutOfRange { .. } | CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn profile_init_count_beyond_statics_rejected() {
        let mut profile = sample_profile();
        profile.init_count = profile.statics.len() + 1;
        let bytes = encode_profile(&profile);
        assert_eq!(
            decode_profile(&bytes),
            Err(CodecError::IntOutOfRange {
                context: "init_count"
            })
        );
    }

    #[test]
    fn profile_arrival_index_out_of_range_rejected() {
        let mut profile = sample_profile();
        profile.instance_arrivals[0].1 = vec![99]; // no such dynamic
        let bytes = encode_profile(&profile);
        assert_eq!(
            decode_profile(&bytes),
            Err(CodecError::IntOutOfRange {
                context: "instance_arrivals"
            })
        );
    }

    #[test]
    fn profile_trailing_bytes_rejected() {
        let mut bytes = encode_profile(&sample_profile());
        bytes.push(0);
        assert_eq!(
            decode_profile(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn profile_random_byte_flips_never_panic() {
        let bytes = encode_profile(&sample_profile());
        let mut state = 0xfeed_f00d_dead_beefu64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % bytes.len();
            let mask = (state >> 8) as u8 | 1;
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let _ = decode_profile(&corrupt); // must return, never panic
        }
    }

    #[test]
    fn random_byte_flips_never_panic() {
        let bytes = encode_plan(&sample_plan());
        // Deterministic pseudo-random walk over (position, mask) pairs.
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % bytes.len();
            let mask = (state >> 8) as u8 | 1;
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let _ = decode_plan(&corrupt); // must return, never panic
        }
    }

    fn sample_delta() -> ProfileDelta {
        // A delta exercising every op tag plus both wholesale sections.
        let base = sample_profile();
        let mut next = base.clone();
        next.statics[0].size += 512; // Resize
        next.statics[2].ts += 1; // Retime
        next.statics.push(RequestEvent {
            size: 2048,
            ts: 50,
            te: 60,
            ps: 1,
            pe: 2,
            dynamic: false,
            ls: None,
            le: None,
        }); // Insert
        next.dynamics.remove(1); // Remove
        next.instance_arrivals = vec![(next.instance_arrivals[0].0, vec![0])];
        let delta = stalloc_core::diff_profiles(&base, &next);
        assert!(delta
            .statics
            .iter()
            .any(|op| matches!(op, EditOp::Resize { .. })));
        assert!(delta
            .statics
            .iter()
            .any(|op| matches!(op, EditOp::Retime { .. })));
        assert!(delta
            .statics
            .iter()
            .any(|op| matches!(op, EditOp::Insert { .. })));
        assert!(delta
            .dynamics
            .iter()
            .any(|op| matches!(op, EditOp::Remove { .. })));
        assert!(delta.instance_arrivals.is_some());
        delta
    }

    #[test]
    fn delta_roundtrip_and_stable_reencode() {
        let delta = sample_delta();
        let bytes = encode_profile_delta(&delta);
        assert!(bytes.starts_with(&DELTA_MAGIC));
        assert_eq!(decode_profile(&bytes), Err(CodecError::BadMagic));
        assert_eq!(decode_plan(&bytes), Err(CodecError::BadMagic));
        let back = decode_profile_delta(&bytes).unwrap();
        assert_eq!(back, delta);
        assert_eq!(
            encode_profile_delta(&back),
            bytes,
            "re-encode is byte-identical"
        );
    }

    #[test]
    fn delta_base_fingerprint_peek_matches_decode() {
        let delta = sample_delta();
        let bytes = encode_profile_delta(&delta);
        assert_eq!(delta_base_fingerprint(&bytes).unwrap(), delta.base);
        assert_eq!(
            delta_base_fingerprint(&bytes).unwrap(),
            stalloc_core::fingerprint_profile(&sample_profile()),
        );
    }

    #[test]
    fn empty_delta_roundtrips() {
        // The identity script: all-copy, sections inherited from base.
        let base = sample_profile();
        let delta = stalloc_core::diff_profiles(&base, &base);
        assert!(delta.instance_windows.is_none());
        assert!(delta.instance_arrivals.is_none());
        let bytes = encode_profile_delta(&delta);
        assert_eq!(decode_profile_delta(&bytes).unwrap(), delta);
    }

    #[test]
    fn delta_every_truncation_is_a_typed_error() {
        let bytes = encode_profile_delta(&sample_delta());
        for cut in 0..bytes.len() {
            let err = decode_profile_delta(&bytes[..cut]).expect_err("prefix must not decode");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::BadMagic
                        | CodecError::LengthOverflow { .. }
                        | CodecError::IntOutOfRange { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn delta_bad_magic_and_version() {
        assert_eq!(decode_profile_delta(b"JSON{}"), Err(CodecError::BadMagic));
        // Neither a plan nor a profile stream is a delta.
        assert_eq!(
            decode_profile_delta(&encode_plan(&sample_plan())),
            Err(CodecError::BadMagic)
        );
        assert_eq!(
            decode_profile_delta(&encode_profile(&sample_profile())),
            Err(CodecError::BadMagic)
        );
        let mut bytes = encode_profile_delta(&sample_delta());
        bytes[4] = 0x42;
        bytes[5] = 0x42;
        assert_eq!(
            decode_profile_delta(&bytes),
            Err(CodecError::UnsupportedVersion(0x4242))
        );
    }

    fn delta_header(statics_ops: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&DELTA_MAGIC);
        bytes.extend_from_slice(&DELTA_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]); // base fingerprint
        put_uvarint(&mut bytes, 0); // init_count
        put_uvarint(&mut bytes, 1); // num_phases
        put_uvarint(&mut bytes, 10); // window_len
        bytes.extend_from_slice(statics_ops);
        bytes
    }

    #[test]
    fn delta_unknown_op_tag_rejected() {
        let mut ops = Vec::new();
        put_uvarint(&mut ops, 1); // one op
        ops.push(9); // no such tag
        ops.push(0);
        assert_eq!(
            decode_profile_delta(&delta_header(&ops)),
            Err(CodecError::IntOutOfRange {
                context: "delta.statics"
            })
        );
    }

    #[test]
    fn delta_zero_length_run_rejected() {
        for tag in [0u8, 2u8] {
            let mut ops = Vec::new();
            put_uvarint(&mut ops, 1);
            ops.push(tag);
            put_uvarint(&mut ops, 0); // empty Copy/Remove run
            assert_eq!(
                decode_profile_delta(&delta_header(&ops)),
                Err(CodecError::IntOutOfRange {
                    context: "delta.statics"
                }),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn delta_bad_section_flag_rejected() {
        let mut bytes = delta_header(&[]);
        put_uvarint(&mut bytes, 0); // statics: no ops
        put_uvarint(&mut bytes, 0); // dynamics: no ops
        bytes.push(7); // windows flag must be 0|1
        assert_eq!(
            decode_profile_delta(&bytes),
            Err(CodecError::IntOutOfRange {
                context: "delta.windows_flag"
            })
        );
        let last = bytes.len() - 1;
        bytes[last] = 0;
        bytes.push(7); // arrivals flag must be 0|1
        assert_eq!(
            decode_profile_delta(&bytes),
            Err(CodecError::IntOutOfRange {
                context: "delta.arrivals_flag"
            })
        );
    }

    #[test]
    fn delta_trailing_bytes_rejected() {
        let mut bytes = encode_profile_delta(&sample_delta());
        bytes.push(0);
        assert_eq!(
            decode_profile_delta(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn delta_random_byte_flips_never_panic() {
        let bytes = encode_profile_delta(&sample_delta());
        let mut state = 0x0dd0_c0de_5eed_f00du64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % bytes.len();
            let mask = (state >> 8) as u8 | 1;
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let _ = decode_profile_delta(&corrupt); // must return, never panic
        }
    }

    #[test]
    fn delta_decode_then_apply_reproduces_next() {
        // End-to-end over the codec: diff → encode → decode → apply.
        let base = sample_profile();
        let mut next = base.clone();
        next.statics[1].size = 1 << 16;
        next.dynamics.push(RequestEvent {
            size: 4096,
            ts: 20,
            te: 30,
            ps: 1,
            pe: 1,
            dynamic: true,
            ls: None,
            le: None,
        });
        next.instance_arrivals = vec![
            (base.instance_arrivals[0].0, vec![0]),
            (base.instance_arrivals[1].0, vec![1, 2]),
        ];
        let wire = encode_profile_delta(&stalloc_core::diff_profiles(&base, &next));
        let applied = stalloc_core::apply_delta(&base, &decode_profile_delta(&wire).unwrap())
            .expect("delta applies");
        assert_eq!(applied, next);
        assert_eq!(
            stalloc_core::fingerprint_profile(&applied),
            stalloc_core::fingerprint_profile(&next),
        );
    }
}
