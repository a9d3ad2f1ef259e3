//! Plan artifacts for the STAlloc reproduction: a compact binary codec
//! for [`Plan`](stalloc_core::Plan)s and a content-addressed on-disk
//! cache keyed by job fingerprint.
//!
//! STAlloc's premise is that planning runs ahead of time and is amortized
//! across thousands of identical training iterations — which makes the
//! computed plan a reusable *artifact*, not a transient in-memory value.
//! This crate supplies the two missing pieces:
//!
//! * [`codec`] — versioned, magic-numbered wire formats for the two
//!   large artifacts: plans (`STPL`) and profiles (`PROF`). Offsets,
//!   sizes, and timesteps of consecutive records are near-sorted, so
//!   zigzag-delta + varint encoding shrinks both to a fraction of their
//!   JSON form. The decoders return typed [`CodecError`]s (never panic)
//!   on truncated or corrupt input, and the module documentation is the
//!   normative byte-level spec of both formats. The `PROF` body doubles
//!   as the canonical fingerprint walk, so a job can be fingerprinted
//!   from its encoded profile without decoding ([`profile_body`] +
//!   `stalloc_core::fingerprint_job_body`).
//! * [`store`] — a [`PlanStore`] directory of `<fingerprint>.stplan`
//!   artifacts, each written atomically; the directory is its own index.
//!   Lookup is by the [`Fingerprint`](stalloc_core::Fingerprint) of the
//!   profiled job, so [`synthesize_cached`] makes repeat planning O(1).
//!   Content addressing is what makes concurrent writers (threads or
//!   processes) safe without a lock: two writers of one fingerprint
//!   write the same bytes, and nobody else touches that file.
//! * [`lru`] — a [`ShardedLru`] of decoded plans to put in front of the
//!   disk store when many requests share one process (the
//!   `stalloc-served` daemon), skipping the read + decode on hot jobs.
//!
//! # Example
//!
//! ```
//! use stalloc_core::{profile_trace, synthesize, SynthConfig};
//! use stalloc_store::{decode_plan, encode_plan, synthesize_cached, CacheOutcome, PlanStore};
//! use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
//!
//! let job = TrainJob::new(
//!     ModelSpec::gpt2_345m(),
//!     ParallelConfig::new(1, 2, 1),
//!     OptimConfig::naive(),
//! )
//! .with_mbs(1)
//! .with_seq(256)
//! .with_microbatches(2);
//! let trace = job.build_trace().unwrap();
//! let profile = profile_trace(&trace, 1).unwrap();
//!
//! // Lossless, compact round-trip.
//! let plan = synthesize(&profile, &SynthConfig::default());
//! let bytes = encode_plan(&plan);
//! assert_eq!(decode_plan(&bytes).unwrap(), plan);
//! assert!(bytes.len() < plan.to_json().len() / 4);
//!
//! // Cached planning: second call skips synthesis.
//! let dir = std::env::temp_dir().join(format!("stalloc-doc-{}", std::process::id()));
//! let store = PlanStore::open(&dir).unwrap();
//! let (_, _, first) =
//!     synthesize_cached(&profile, &SynthConfig::default(), &store, synthesize).unwrap();
//! let (_, _, second) =
//!     synthesize_cached(&profile, &SynthConfig::default(), &store, synthesize).unwrap();
//! assert_eq!(first, CacheOutcome::Miss);
//! assert_eq!(second, CacheOutcome::Hit);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

pub mod codec;
pub mod lru;
pub mod store;

pub use codec::{
    decode_plan, decode_profile, decode_profile_delta, delta_base_fingerprint, encode_plan,
    encode_profile, encode_profile_delta, profile_body, CodecError, DELTA_FORMAT_VERSION,
    DELTA_MAGIC, FORMAT_VERSION, MAGIC, PROFILE_FORMAT_VERSION, PROFILE_MAGIC,
};
pub use lru::{ShardedLru, DEFAULT_LRU_SHARDS};
pub use store::{
    synthesize_cached, CacheOutcome, GcReport, PlanStore, StoreEntry, StoreError, PLAN_EXT,
};
