//! `stalloc-served`: the plan-synthesis service.
//!
//! STAlloc plans are pure functions of `(ProfiledRequests, SynthConfig)`
//! and get amortized across thousands of identical training iterations —
//! PR 2 turned them into content-addressed artifacts. This crate shares
//! the *synthesis* too: a multi-threaded TCP daemon in front of one
//! [`PlanStore`](stalloc_store::PlanStore), so N identical jobs — across
//! processes, users, machines — cost one synthesis.
//!
//! * [`frame`] — length-prefixed JSONL framing with typed errors.
//! * [`server`] — the daemon: hand-rolled worker pool (no async runtime),
//!   bounded accept queue with `Busy` backpressure, four tiers walked in
//!   order (sharded in-process LRU → shared disk store → in-process
//!   patch of a cached base plan for `PlanDelta` → strategy-aware
//!   synthesis via `stalloc_core::synthesize_reported`, portfolio
//!   included), and
//!   single-flight deduplication of concurrent identical jobs. Binary
//!   (`ProfileBin`) requests are fingerprinted from their canonical
//!   `PROF` bytes, so a cache hit never decodes the profile; cache
//!   entries memoize the plan's binary encoding, so a hit never
//!   re-encodes the plan either — a hot binary round trip is pure frame
//!   I/O plus an LRU lookup.
//! * [`client`] — a blocking keep-alive client that re-validates every
//!   received plan. Both big payloads travel in the binary codecs by
//!   default: requests send the profile as a `ProfileBin` header frame
//!   plus one raw `PROF` frame, responses return the plan as a `PlanBin`
//!   header frame plus one raw `STPL` frame — both transparent;
//!   `PlanClient::with_encoding` / `with_profile_encoding` opt back into
//!   inline JSON per direction.
//!
//! The wire-facing request/response types live in
//! [`stalloc_core::wire`], so speaking the protocol does not require
//! this crate.
//!
//! # Example
//!
//! ```
//! use stalloc_core::{profile_trace, SynthConfig};
//! use stalloc_served::{PlanClient, PlanServer, ServeConfig};
//! use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
//!
//! // An in-memory server on a free loopback port.
//! let server = PlanServer::start(ServeConfig::default()).unwrap();
//!
//! let trace = TrainJob::new(
//!     ModelSpec::gpt2_345m(),
//!     ParallelConfig::new(1, 2, 1),
//!     OptimConfig::naive(),
//! )
//! .with_mbs(1)
//! .with_seq(256)
//! .with_microbatches(2)
//! .build_trace()
//! .unwrap();
//! let profile = profile_trace(&trace, 1).unwrap();
//!
//! let mut client = PlanClient::connect(server.addr()).unwrap();
//! let first = client.plan(&profile, &SynthConfig::default()).unwrap();
//! let second = client.plan(&profile, &SynthConfig::default()).unwrap();
//! assert!(!first.source.is_hit(), "first request synthesizes");
//! assert!(second.source.is_hit(), "second request is served from cache");
//! assert_eq!(first.plan, second.plan);
//! assert_eq!(server.stats().misses, 1);
//!
//! server.shutdown();
//! ```

// A request handler that outgrows one screen is the shape this crate was
// refactored out of; CI's `clippy -D warnings` keeps it from regrowing.
#![warn(clippy::too_many_lines)]

pub mod client;
pub mod frame;
pub mod prometheus;
pub mod server;

pub use client::{ClientError, PlanClient, RemotePlan};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use prometheus::render_prometheus;
pub use server::{PlanServer, ServeConfig, ServeError, ServerHandle};
