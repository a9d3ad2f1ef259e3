//! Observability primitives for the serving path.
//!
//! Everything here is built for a hot request loop: recording must be
//! wait-free-ish and allocation-free, while *reading* (snapshots,
//! quantiles, rendering) may be as leisurely as it likes.
//!
//! * [`ShardedCounter`] — a monotonic (or up/down) counter spread over
//!   cache-line-padded shards, so uncontended worker threads do not
//!   bounce one cache line around the socket.
//! * [`LatencyHistogram`] — 65 log2 buckets of atomic counts. Recording
//!   a sample is two relaxed `fetch_add`s; p50/p90/p99 are derived from
//!   the buckets at read time, so no per-sample state is ever kept.
//! * [`Span`] — a `Copy` per-request phase-timing record over a
//!   [`PhaseSet`]: [`RequestSpan`] times the server's phases,
//!   [`ClientSpan`] the client's half (connect, encode, write, await,
//!   read, decode).
//! * [`SpanRing`] — a pre-allocated ring that retains both the most
//!   recent server spans and the slowest-N ever seen.
//! * [`TraceLog`] — an opt-in JSONL sink writing one structured record
//!   per request, for offline replay of a loaded server.
//! * [`TraceContext`] / [`IdGen`] — wire-propagable trace identity
//!   (128-bit trace id, 64-bit span ids) minted without ever reading a
//!   clock.
//! * [`chrome`] — an exporter laying client and/or server spans out as
//!   Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! The crate is transport-free and server-free on purpose: `stalloc-core`
//! embeds the serializable snapshots ([`HistogramSnapshot`],
//! [`SpanSnapshot`]) in its wire types, and `stalloc-served` owns the
//! live instances.

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

pub mod chrome;
mod client;
mod context;
mod counter;
mod histogram;
mod span;
mod trace;

pub use client::{ClientPhase, ClientSpan, CLIENT_PHASE_COUNT};
pub use context::{id_gen, parse_span_id, parse_trace_id, IdGen, TraceContext};
pub use counter::ShardedCounter;
pub use histogram::{bucket_index, bucket_range, HistogramSnapshot, LatencyHistogram, NUM_BUCKETS};
pub use span::{Phase, PhaseSet, RequestSpan, Span, SpanRing, SpanSnapshot, PHASE_COUNT};
pub use trace::{rotated_path, TraceLog};
