//! The codecs give the bytes and the verdicts of the code they replaced.
//!
//! The writer used to push one byte at a time into the output `Vec`, and
//! the reader fetched every varint byte through a bounds-checked `get`.
//! Both are kept below, verbatim, as the oracle (`oracle::*`). The shipped
//! writer stores each record — a request, an arrival run, a plan
//! decision — into space grown once for it
//! (`stalloc_core::fingerprint::put_record`); the shipped reader returns a
//! one-byte varint at once and decodes a longer one in one loop over the
//! at most ten bytes it may span. They must agree with the oracle:
//!
//! * byte for byte on every encode: `write_profile_body` (behind
//!   `encode_profile` and the job fingerprint) and `encode_plan`, on the
//!   model zoo and on random plans and profiles whose fields take every
//!   varint length from 1 to 10 bytes;
//! * on every decode, the same `Ok` value or the same `CodecError` —
//!   variant, offset and context: every truncation of a zoo stream, and
//!   streams mutated with flipped bytes, overlong varints, 10- and
//!   11-byte varints, runs of continuation bytes, and all of it near the
//!   end of the stream, where fewer than ten bytes are left.
//!
//! CI runs this file with `PROPTEST_CASES=512`.

use std::sync::OnceLock;

use proptest::prelude::*;
use stalloc_core::plan::{DynGroup, DynamicPlan, PlanStats};
use stalloc_core::{
    profile_trace, synthesize, InstanceKey, Plan, PlannedAlloc, ProfiledRequests, RequestEvent,
    StrategyChoice, SynthConfig,
};
use stalloc_store::codec::{decode_plan, decode_profile, encode_plan, encode_profile};
use trace_gen::{ModelSpec, ModuleId, OptimConfig, ParallelConfig, TrainJob};

// --- inputs ------------------------------------------------------------

/// Small zoo jobs: dense (GPT-2, Llama2 with recomputation) and a MoE job
/// with dynamic requests, arrival runs and HomoLayer groups.
fn zoo_profiles() -> &'static [ProfiledRequests] {
    static PROFILES: OnceLock<Vec<ProfiledRequests>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        let jobs = [
            (
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 2, 1),
                OptimConfig::naive(),
            ),
            (
                ModelSpec::llama2_7b(),
                ParallelConfig::new(2, 2, 1),
                OptimConfig::r(),
            ),
            (
                ModelSpec::qwen15_moe_a27b(),
                ParallelConfig::new(1, 1, 4).with_ep(4),
                OptimConfig::naive(),
            ),
        ];
        jobs.into_iter()
            .map(|(model, parallel, optim)| {
                let trace = TrainJob::new(model, parallel, optim)
                    .with_mbs(1)
                    .with_seq(256)
                    .with_microbatches(parallel.pp)
                    .with_iterations(1)
                    .build_trace()
                    .unwrap();
                profile_trace(&trace, 1).unwrap()
            })
            .collect()
    })
}

/// Every zoo profile planned by every concrete strategy.
fn zoo_plans() -> &'static [Plan] {
    static PLANS: OnceLock<Vec<Plan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        zoo_profiles()
            .iter()
            .flat_map(|p| {
                StrategyChoice::CONCRETE.into_iter().map(move |strategy| {
                    let config = SynthConfig {
                        strategy,
                        ..SynthConfig::default()
                    };
                    synthesize(p, &config)
                })
            })
            .collect()
    })
}

/// A value of every varint length: `raw` shifted right by `shift` bits
/// is 64 − `shift` bits wide at most.
type Wide = (u32, u64);

fn wide() -> impl Strategy<Value = Wide> {
    (0u32..64, 0u64..=u64::MAX)
}

fn value((shift, raw): Wide) -> u64 {
    raw >> shift
}

fn value32(w: Wide) -> u32 {
    (value(w) >> 32) as u32
}

fn key(w: Wide) -> InstanceKey {
    let v = value(w);
    InstanceKey {
        module: ModuleId((v >> 32) as u32),
        phase: v as u32,
    }
}

/// A plan from raw fields: four wide words per decision, a few groups
/// with intervals, arrival sequences with wide `u32` entries.
fn random_plan(allocs: &[(Wide, Wide, Wide, Wide)], words: &[Wide], split: usize) -> Plan {
    let decisions: Vec<PlannedAlloc> = allocs
        .iter()
        .map(|&(size, offset, ts, te)| PlannedAlloc {
            size: value(size),
            offset: value(offset),
            ts: value(ts),
            te: value(te),
        })
        .collect();
    let split = split.min(decisions.len());
    let word = |i: usize| {
        words
            .get(i % words.len().max(1))
            .copied()
            .unwrap_or((63, 1))
    };
    let groups = (0..words.len() % 4)
        .map(|g| DynGroup {
            ls: key(word(g)),
            le: key(word(g + 1)),
            t_range: (value(word(g + 2)), value(word(g + 3))),
            intervals: (0..g + 1)
                .map(|i| (value(word(g + i)), value(word(g + i + 4))))
                .collect(),
            profiled_bytes: value(word(g + 5)),
        })
        .collect();
    let instance_seq = (0..words.len() % 3)
        .map(|s| {
            (
                key(word(s + 6)),
                words.iter().map(|&w| value32(w)).collect(),
            )
        })
        .collect();
    Plan {
        pool_size: value(word(7)),
        init_allocs: decisions[..split].to_vec(),
        iter_allocs: decisions[split..].to_vec(),
        dynamic: DynamicPlan {
            groups,
            instance_seq,
        },
        stats: PlanStats {
            strategy: StrategyChoice::CONCRETE[words.len() % StrategyChoice::CONCRETE.len()],
            static_requests: value(word(8)) as usize,
            dynamic_requests: value(word(9)) as usize,
            phase_groups: value(word(10)) as usize,
            fused_groups: value(word(11)) as usize,
            layers: value(word(12)) as usize,
            gap_inserted: value(word(13)) as usize,
            homolayer_groups: value(word(14)) as usize,
            peak_static_demand: value(word(15)),
            pool_size: value(word(16)),
        },
    }
}

/// A profile from raw fields: wide sizes and ticks, `u32` phases, keys
/// present or not, windows and arrival runs (whose indices may point
/// past the dynamics — a decode error both readers must agree on).
fn random_profile(
    requests: &[(Wide, Wide, Wide, Wide, u8)],
    words: &[Wide],
    split: usize,
) -> ProfiledRequests {
    let events: Vec<RequestEvent> = requests
        .iter()
        .map(|&(size, ts, te, p, flags)| RequestEvent {
            size: value(size),
            ts: value(ts),
            te: value(te),
            ps: value32(p),
            pe: p.0,
            dynamic: flags & 1 != 0,
            ls: (flags & 2 != 0).then(|| key(size)),
            le: (flags & 4 != 0).then(|| key(te)),
        })
        .collect();
    let split = split.min(events.len());
    let word = |i: usize| {
        words
            .get(i % words.len().max(1))
            .copied()
            .unwrap_or((63, 1))
    };
    let dynamics = events.len() - split;
    ProfiledRequests {
        statics: events[..split].to_vec(),
        init_count: value(word(0)) as usize % (split + 2),
        dynamics: events[split..].to_vec(),
        num_phases: value32(word(1)),
        window_len: value(word(2)),
        instance_windows: words
            .iter()
            .take(3)
            .map(|&w| (key(w), (value(w), value(word(3)))))
            .collect(),
        instance_arrivals: (0..words.len() % 4)
            .map(|a| {
                let run = words
                    .iter()
                    .map(|&w| (value(w) % (dynamics as u64 + 2)) as u32);
                (key(word(a)), run.collect())
            })
            .collect(),
    }
}

// --- mutations ---------------------------------------------------------

/// One edit of a stream: `(kind, position, byte)`.
type Mutation = (u8, usize, u8);

fn mutate(bytes: &mut Vec<u8>, (kind, pos, byte): Mutation) {
    let at = pos % (bytes.len() + 1);
    let insert = |bytes: &mut Vec<u8>, run: &[u8]| {
        bytes.splice(at..at, run.iter().copied());
    };
    match kind {
        // A flipped byte.
        0 if !bytes.is_empty() => {
            let last = bytes.len() - 1;
            bytes[at.min(last)] ^= byte | 1;
        }
        // A truncation.
        1 => bytes.truncate(at),
        // An overlong varint: a terminal byte continued by a zero byte.
        2 if at < bytes.len() => {
            bytes[at] |= 0x80;
            insert(bytes, &[0]);
        }
        // Ten bytes: u64::MAX, 2^63, or a tenth byte holding more than
        // bit 63.
        3 => insert(
            bytes,
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        ),
        4 => insert(
            bytes,
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
        ),
        5 => insert(
            bytes,
            &[
                0x80,
                0x80,
                0x80,
                0x80,
                0x80,
                0x80,
                0x80,
                0x80,
                0x80,
                2 | byte & 0x7f,
            ],
        ),
        // Eleven bytes, and a zero-padded ten.
        6 => insert(
            bytes,
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00,
            ],
        ),
        7 => insert(
            bytes,
            &[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ),
        // A run of continuation bytes, 1 to 12 long.
        8 => insert(bytes, &vec![0x80 | byte; 1 + byte as usize % 12]),
        // Any byte at all.
        _ => insert(bytes, &[byte]),
    }
}

/// Mutations land anywhere, or within the last twelve bytes.
fn mutations() -> impl Strategy<Value = Vec<(Mutation, bool)>> {
    prop::collection::vec(
        ((0u8..10, 0usize..1 << 20, 0u8..=255), prop::bool::ANY),
        1..4,
    )
}

fn apply(stream: &[u8], edits: &[(Mutation, bool)]) -> Vec<u8> {
    let mut bytes = stream.to_vec();
    for &((kind, pos, byte), near_end) in edits {
        let pos = if near_end {
            bytes.len().saturating_sub(pos % 12)
        } else {
            pos
        };
        mutate(&mut bytes, (kind, pos, byte));
    }
    bytes
}

// --- properties --------------------------------------------------------

#[test]
fn zoo_streams_are_byte_identical_and_decode_alike() {
    for profile in zoo_profiles() {
        let stream = encode_profile(profile);
        assert_eq!(stream, oracle::encode_profile(profile));
        let mut body = Vec::new();
        stalloc_core::write_profile_body(profile, &mut body);
        let mut old = Vec::new();
        oracle::write_profile_body(profile, &mut old);
        assert_eq!(body, old);
        assert_eq!(decode_profile(&stream), oracle::decode_profile(&stream));
        assert_eq!(decode_profile(&stream).as_ref(), Ok(profile));
    }
    for plan in zoo_plans() {
        let stream = encode_plan(plan);
        assert_eq!(stream, oracle::encode_plan(plan));
        assert_eq!(decode_plan(&stream), oracle::decode_plan(&stream));
        assert_eq!(decode_plan(&stream).as_ref(), Ok(plan));
    }
}

/// The first few records of every section of the MoE job's profile and
/// of one of its plans: small streams that still hold dynamic requests,
/// arrival runs, HomoLayer groups and arrival sequences.
fn trimmed_moe_streams() -> (Vec<u8>, Vec<u8>) {
    const KEEP: usize = 40;
    let mut profile = zoo_profiles()[2].clone();
    profile.statics.truncate(KEEP);
    profile.init_count = profile.init_count.min(KEEP);
    profile.dynamics.truncate(KEEP);
    profile.instance_windows.truncate(4);
    profile.instance_arrivals.truncate(4);
    for (_, run) in &mut profile.instance_arrivals {
        run.retain(|&i| (i as usize) < KEEP);
    }
    let mut plan = zoo_plans()[2 * StrategyChoice::CONCRETE.len()].clone();
    plan.init_allocs.truncate(KEEP);
    plan.iter_allocs.truncate(KEEP);
    plan.dynamic.groups.truncate(4);
    plan.dynamic.instance_seq.truncate(4);
    for (_, seq) in &mut plan.dynamic.instance_seq {
        seq.truncate(KEEP);
    }
    assert!(!profile
        .instance_arrivals
        .iter()
        .all(|(_, run)| run.is_empty()));
    assert!(!plan.dynamic.groups.is_empty());
    (encode_profile(&profile), encode_plan(&plan))
}

#[test]
fn every_truncation_fails_alike() {
    let (moe_profile, moe_plan) = trimmed_moe_streams();
    let profiles = [encode_profile(&zoo_profiles()[0]), moe_profile];
    let plans = [encode_plan(&zoo_plans()[0]), moe_plan];
    for stream in &profiles {
        assert!(decode_profile(stream).is_ok());
        for cut in 0..stream.len() {
            let prefix = &stream[..cut];
            assert_eq!(
                decode_profile(prefix),
                oracle::decode_profile(prefix),
                "PROF cut at {cut}"
            );
        }
    }
    for stream in &plans {
        assert!(decode_plan(stream).is_ok());
        for cut in 0..stream.len() {
            let prefix = &stream[..cut];
            assert_eq!(
                decode_plan(prefix),
                oracle::decode_plan(prefix),
                "STPL cut at {cut}"
            );
        }
    }
}

proptest! {
    #[test]
    fn random_plans_encode_and_decode_alike(
        allocs in prop::collection::vec((wide(), wide(), wide(), wide()), 0..24),
        words in prop::collection::vec(wide(), 0..20),
        split in 0usize..24,
        edits in mutations(),
    ) {
        let plan = random_plan(&allocs, &words, split);
        let stream = encode_plan(&plan);
        prop_assert_eq!(&stream, &oracle::encode_plan(&plan));
        prop_assert_eq!(decode_plan(&stream), Ok(plan));
        let mutated = apply(&stream, &edits);
        prop_assert_eq!(decode_plan(&mutated), oracle::decode_plan(&mutated));
    }

    #[test]
    fn random_profiles_encode_and_decode_alike(
        requests in prop::collection::vec((wide(), wide(), wide(), wide(), 0u8..8), 0..24),
        words in prop::collection::vec(wide(), 0..20),
        split in 0usize..24,
        edits in mutations(),
    ) {
        let profile = random_profile(&requests, &words, split);
        let stream = encode_profile(&profile);
        prop_assert_eq!(&stream, &oracle::encode_profile(&profile));
        prop_assert_eq!(decode_profile(&stream), oracle::decode_profile(&stream));
        let mutated = apply(&stream, &edits);
        prop_assert_eq!(decode_profile(&mutated), oracle::decode_profile(&mutated));
    }

    #[test]
    fn mutated_zoo_streams_decode_alike(
        pick in 0usize..64,
        edits in mutations(),
    ) {
        let profile = &zoo_profiles()[pick % zoo_profiles().len()];
        let mutated = apply(&encode_profile(profile), &edits);
        prop_assert_eq!(decode_profile(&mutated), oracle::decode_profile(&mutated));
        let plan = &zoo_plans()[pick % zoo_plans().len()];
        let mutated = apply(&encode_plan(plan), &edits);
        prop_assert_eq!(decode_plan(&mutated), oracle::decode_plan(&mutated));
    }
}

/// The writer and the reader as they shipped before the per-record
/// writer and the bounded varint reader.
mod oracle {
    use stalloc_core::plan::{
        DynGroup, DynamicPlan, Plan, PlanStats, PlannedAlloc, StrategyChoice,
    };
    use stalloc_core::{
        InstanceKey, ProfiledRequests, RequestEvent, PROFILE_FLAG_DYNAMIC, PROFILE_FLAG_HAS_LE,
        PROFILE_FLAG_HAS_LS,
    };
    use stalloc_store::codec::{
        CodecError, FORMAT_VERSION, MAGIC, PROFILE_FORMAT_VERSION, PROFILE_MAGIC,
    };

    /// Appends a canonical LEB128 varint (see the `stalloc-store::codec`
    /// spec: 7 payload bits per byte, high bit = continuation, no overlong
    /// encodings emitted).
    pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Maps a signed delta to unsigned so small values of either sign
    /// varint-encode in one byte: `(v << 1) ^ (v >> 63)`.
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Appends the signed delta between two unsigned values, zigzag-varint
    /// encoded (two's-complement wrapping subtraction).
    pub fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
        put_uvarint(out, zigzag(cur.wrapping_sub(prev) as i64));
    }

    /// Appends an instance key: `module` then `phase`, both varints.
    pub fn put_instance(out: &mut Vec<u8>, k: &InstanceKey) {
        put_uvarint(out, k.module.0 as u64);
        put_uvarint(out, k.phase as u64);
    }

    fn put_request(out: &mut Vec<u8>, prev_size: u64, prev_ts: u64, r: &RequestEvent) {
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
        out.push(flags);
        put_delta(out, prev_size, r.size);
        put_delta(out, prev_ts, r.ts);
        put_delta(out, r.ts, r.te);
        put_uvarint(out, r.ps as u64);
        put_uvarint(out, r.pe as u64);
        if let Some(ls) = &r.ls {
            put_instance(out, ls);
        }
        if let Some(le) = &r.le {
            put_instance(out, le);
        }
    }

    fn put_requests(out: &mut Vec<u8>, requests: &[RequestEvent]) {
        put_uvarint(out, requests.len() as u64);
        let (mut size, mut ts) = (0u64, 0u64);
        for r in requests {
            put_request(out, size, ts, r);
            size = r.size;
            ts = r.ts;
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
        put_uvarint(out, profile.init_count as u64);
        put_uvarint(out, profile.num_phases as u64);
        put_uvarint(out, profile.window_len);

        put_requests(out, &profile.statics);
        put_requests(out, &profile.dynamics);

        put_uvarint(out, profile.instance_windows.len() as u64);
        let mut prev_start = 0u64;
        for (k, (start, end)) in &profile.instance_windows {
            put_instance(out, k);
            put_delta(out, prev_start, *start);
            put_delta(out, *start, *end);
            prev_start = *start;
        }

        put_uvarint(out, profile.instance_arrivals.len() as u64);
        for (k, seq) in &profile.instance_arrivals {
            put_instance(out, k);
            put_uvarint(out, seq.len() as u64);
            let mut prev = 0u64;
            for &i in seq {
                put_delta(out, prev, i as u64);
                prev = i as u64;
            }
        }
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

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

        fn uvarint(&mut self, context: &'static str) -> Result<u64, CodecError> {
            let start = self.pos;
            let mut out = 0u64;
            let mut shift = 0u32;
            loop {
                let Some(&byte) = self.bytes.get(self.pos) else {
                    return Err(CodecError::Truncated {
                        offset: self.pos,
                        context,
                    });
                };
                self.pos += 1;
                let payload = (byte & 0x7f) as u64;
                if shift == 63 && payload > 1 {
                    return Err(CodecError::VarintOverflow { offset: start });
                }
                out |= payload << shift;
                if byte & 0x80 == 0 {
                    // The encoder never emits a zero terminal byte after a
                    // continuation; such padding would make two distinct
                    // streams decode to the same plan.
                    if payload == 0 && shift > 0 {
                        return Err(CodecError::NonCanonicalVarint { offset: start });
                    }
                    return Ok(out);
                }
                shift += 7;
                if shift > 63 {
                    return Err(CodecError::VarintOverflow { offset: start });
                }
            }
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

    fn put_allocs(buf: &mut Vec<u8>, allocs: &[PlannedAlloc]) {
        put_uvarint(buf, allocs.len() as u64);
        let (mut size, mut offset, mut ts) = (0u64, 0u64, 0u64);
        for a in allocs {
            put_delta(buf, size, a.size);
            put_delta(buf, offset, a.offset);
            put_delta(buf, ts, a.ts);
            put_delta(buf, a.ts, a.te);
            size = a.size;
            offset = a.offset;
            ts = a.ts;
        }
    }

    fn get_allocs(
        r: &mut Reader<'_>,
        context: &'static str,
    ) -> Result<Vec<PlannedAlloc>, CodecError> {
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

    /// Encodes a plan to the binary wire format.
    pub fn encode_plan(plan: &Plan) -> Vec<u8> {
        // Rough pre-size: header + a few bytes per decision.
        let guess = 64
            + 6 * (plan.init_allocs.len() + plan.iter_allocs.len())
            + 32 * plan.dynamic.groups.len();
        let mut buf = Vec::with_capacity(guess);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

        put_uvarint(&mut buf, plan.pool_size);

        let s = &plan.stats;
        put_uvarint(&mut buf, s.strategy.index() as u64);
        put_uvarint(&mut buf, s.static_requests as u64);
        put_uvarint(&mut buf, s.dynamic_requests as u64);
        put_uvarint(&mut buf, s.phase_groups as u64);
        put_uvarint(&mut buf, s.fused_groups as u64);
        put_uvarint(&mut buf, s.layers as u64);
        put_uvarint(&mut buf, s.gap_inserted as u64);
        put_uvarint(&mut buf, s.homolayer_groups as u64);
        put_uvarint(&mut buf, s.peak_static_demand);
        put_uvarint(&mut buf, s.pool_size);

        put_allocs(&mut buf, &plan.init_allocs);
        put_allocs(&mut buf, &plan.iter_allocs);

        put_uvarint(&mut buf, plan.dynamic.groups.len() as u64);
        for g in &plan.dynamic.groups {
            put_instance(&mut buf, &g.ls);
            put_instance(&mut buf, &g.le);
            put_uvarint(&mut buf, g.t_range.0);
            put_delta(&mut buf, g.t_range.0, g.t_range.1);
            put_uvarint(&mut buf, g.intervals.len() as u64);
            let mut prev_start = 0u64;
            for &(start, len) in &g.intervals {
                put_delta(&mut buf, prev_start, start);
                put_uvarint(&mut buf, len);
                prev_start = start;
            }
            put_uvarint(&mut buf, g.profiled_bytes);
        }

        put_uvarint(&mut buf, plan.dynamic.instance_seq.len() as u64);
        for (key, seq) in &plan.dynamic.instance_seq {
            put_instance(&mut buf, key);
            put_uvarint(&mut buf, seq.len() as u64);
            for &v in seq {
                put_uvarint(&mut buf, v as u64);
            }
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
        write_profile_body(profile, &mut buf);
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
}
