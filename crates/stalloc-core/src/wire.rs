//! Wire-facing types of the plan-synthesis service (`stalloc-served`).
//!
//! The planning daemon and its clients exchange these types as JSON
//! payloads inside length-prefixed frames (the framing itself lives in
//! `stalloc-served::frame`; this module is deliberately transport-free so
//! that any crate can speak the protocol without pulling in the server).
//!
//! A request is either a full planning job `(ProfiledRequests,
//! SynthConfig)` — with the profile inline as JSON (`Plan`) or in a
//! follow-up `PROF` binary-codec frame (`ProfileBin`, see
//! [`ProfileEncoding`]) — the next job of a profile family as a
//! `PROF-DELTA` edit script against a base the server has seen
//! (`PlanDelta`), the recent spans of one trace (`TraceGet`), a
//! [`ServeMetrics`] report request (counters, latency distributions,
//! slowest spans), or a liveness ping. Responses carry the plan plus
//! provenance ([`PlanSource`]: which cache tier answered, or whether
//! this request rode on another request's in-flight synthesis),
//! per-request timing, and typed errors ([`WireErrorKind`]) for protocol
//! violations.
//!
//! Client and server are built from one workspace, so there is one
//! protocol and no version negotiation. Every field is required except
//! the `Option`s, whose absence has a documented meaning (`encoding`:
//! `Json`; `trace`: server-minted ids). A document missing a required
//! key is a decode error — `BadFrame` at the server, a protocol error at
//! the client — and unknown keys are skipped.

use serde::{Deserialize, Serialize};
use stalloc_obs::{HistogramSnapshot, SpanSnapshot, TraceContext};

use crate::plan::{Plan, SynthConfig};
use crate::profiler::ProfiledRequests;

/// How a plan should travel in the response.
///
/// `Json` embeds the plan inside the JSON response document (simple,
/// `nc`-debuggable). `Binary` answers with a [`PlanResponse::PlanBin`]
/// header frame followed by one *raw* frame holding the plan in the
/// `stalloc-store` binary codec — about a sixth of the JSON bytes, and
/// a server's memoized encoding goes out as is.
///
/// The request field is optional on the wire: a frame without an
/// `encoding` key (say, one written by hand for `nc`) is served `Json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanEncoding {
    /// Plan embedded in the JSON response.
    Json,
    /// Plan in a follow-up binary-codec frame.
    #[default]
    Binary,
}

/// How the profile of a `Plan` job travels in the request.
///
/// `Json` embeds the profile inside the JSON [`PlanRequest::Plan`]
/// frame. `Binary` sends a [`PlanRequest::ProfileBin`] header frame
/// followed by one *raw* frame holding the profile in the
/// `stalloc-store` `PROF` binary codec — a tenth of the JSON bytes, and a server fingerprints
/// them as they arrive, so a cache hit decodes no profile at all (the
/// profile is by far the largest recurring payload of the protocol).
///
/// The default is `Binary`: that is what clients (`PlanClient`,
/// `stalloc plan --remote`) send unless told otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileEncoding {
    /// Profile embedded in the JSON `Plan` request (the implied encoding
    /// of every `Plan` frame).
    Json,
    /// Profile in a follow-up `PROF` binary-codec frame, announced by a
    /// `ProfileBin` header frame.
    #[default]
    Binary,
}

/// One client request to the planning service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlanRequest {
    /// Plan this job: answer from cache on a fingerprint hit, synthesize
    /// (with single-flight deduplication) on a miss.
    Plan {
        /// The profiled request set (paper §4 output).
        profile: ProfiledRequests,
        /// Synthesizer switches; part of the cache key.
        config: SynthConfig,
        /// Response encoding; absent means `Json`.
        encoding: Option<PlanEncoding>,
        /// Distributed-tracing context; absent means the server mints
        /// its own ids.
        trace: Option<TraceContext>,
    },
    /// Plan this job, profile in [`ProfileEncoding::Binary`]: this header
    /// frame is immediately followed by one raw frame whose payload is
    /// the profile in the `stalloc-store` `PROF` binary codec (`bytes`
    /// long, checked before the read). Semantically identical to
    /// [`PlanRequest::Plan`] — same fingerprint, same caches, same
    /// single-flight — only the profile's wire form differs.
    ProfileBin {
        /// Synthesizer switches; part of the cache key (tiny, stays
        /// JSON).
        config: SynthConfig,
        /// Response encoding; absent means `Json`, exactly as on `Plan`.
        encoding: Option<PlanEncoding>,
        /// Payload length of the follow-up binary profile frame.
        bytes: u64,
        /// Distributed-tracing context; absent means server-minted ids,
        /// exactly as on `Plan`.
        trace: Option<TraceContext>,
    },
    /// Plan the *next* job of a profile family, sent as an edit script:
    /// this header frame is immediately followed by one raw frame whose
    /// payload is a `PROF-DELTA` binary edit script (`bytes` long)
    /// against a base profile the server has seen before, identified by
    /// the fingerprint inside the script. A server that still holds the
    /// base patches the cached base plan in-process (the `patched` tier)
    /// instead of synthesizing; one that does not answers
    /// `NotFound { fingerprint: <base profile hex> }`, and the client
    /// sends the full profile on the same connection.
    PlanDelta {
        /// Synthesizer switches; part of the cache key (tiny, stays
        /// JSON).
        config: SynthConfig,
        /// Response encoding; absent means `Json`, exactly as on `Plan`.
        encoding: Option<PlanEncoding>,
        /// Payload length of the follow-up binary delta frame.
        bytes: u64,
        /// Distributed-tracing context; absent means server-minted ids,
        /// exactly as on `Plan`.
        trace: Option<TraceContext>,
    },
    /// Return the spans of one trace still in the server's recent-span
    /// ring, oldest first (empty once they have been overwritten — the
    /// ring is bounded, so callers query promptly after their request).
    TraceGet {
        /// 32-hex-digit trace id, as minted by `stalloc_obs::IdGen`.
        trace_id: String,
    },
    /// Report the server's cumulative counters ([`ServeStats`]) with
    /// its latency distributions: per-phase and per-cache-tier
    /// histograms plus the slowest retained request spans.
    Metrics,
    /// Liveness check.
    Ping,
}

impl PlanRequest {
    /// The trace context this request carries, if any. `Metrics`,
    /// `Ping`, and `TraceGet` serialize as bare strings or
    /// id-only payloads with no room for one, so only the plan-serving
    /// verbs propagate context; the server mints ids for the rest.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            PlanRequest::Plan { trace, .. }
            | PlanRequest::ProfileBin { trace, .. }
            | PlanRequest::PlanDelta { trace, .. } => *trace,
            PlanRequest::TraceGet { .. } | PlanRequest::Metrics | PlanRequest::Ping => None,
        }
    }
}

/// Which tier of the serving stack produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// In-process sharded LRU in front of the disk store.
    Lru,
    /// Decoded from the shared on-disk `PlanStore`.
    Store,
    /// Synthesized by this request (the single-flight leader).
    Synthesized,
    /// Waited on an identical in-flight synthesis started by another
    /// request (a single-flight follower).
    Coalesced,
    /// Patched in-process from a cached base plan (a `PlanDelta`
    /// request whose base fingerprint was still on hand) — the
    /// synthesizer never ran. Only `PlanDelta` requests are answered
    /// from this tier.
    Patched,
}

impl PlanSource {
    /// Whether the plan was served without running the synthesizer for
    /// this request (coalesced followers count as hits: the synthesis
    /// cost was paid once, by the leader; patched plans skip it
    /// entirely).
    pub fn is_hit(self) -> bool {
        !matches!(self, PlanSource::Synthesized)
    }
}

/// Typed protocol-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorKind {
    /// The frame could not be parsed (bad length header, missing
    /// terminator, or a payload that is not a valid request).
    BadFrame,
    /// The declared payload length exceeds the server's frame limit.
    Oversized,
    /// The request decoded but cannot be served (e.g. an unparseable
    /// fingerprint).
    BadRequest,
    /// The server's accept queue is full; retry later.
    Busy,
    /// The server is shutting down.
    ShuttingDown,
    /// Unexpected server-side failure (e.g. storage error).
    Internal,
}

impl std::fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireErrorKind::BadFrame => "bad frame",
            WireErrorKind::Oversized => "oversized frame",
            WireErrorKind::BadRequest => "bad request",
            WireErrorKind::Busy => "server busy",
            WireErrorKind::ShuttingDown => "server shutting down",
            WireErrorKind::Internal => "internal server error",
        };
        f.write_str(s)
    }
}

/// Cumulative server counters, the `stats` section of the `Metrics`
/// verb's payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Total requests decoded (all verbs).
    pub requests: u64,
    /// Planning requests (`Plan`, `ProfileBin`, `PlanDelta`).
    pub plan_requests: u64,
    /// Planning requests answered from the in-process LRU.
    pub lru_hits: u64,
    /// Planning requests answered from the on-disk store.
    pub store_hits: u64,
    /// Planning requests that ran the synthesizer (single-flight
    /// leaders).
    pub misses: u64,
    /// Planning requests that waited on an identical in-flight
    /// synthesis.
    pub coalesced: u64,
    /// Connections rejected with `Busy` because the accept queue was full.
    pub rejected: u64,
    /// Requests answered with a protocol or server error.
    pub errors: u64,
    /// Requests currently being processed by workers.
    pub in_flight: u64,
    /// Connections currently waiting in the accept queue.
    pub queue_depth: u64,
    /// Size of the worker pool.
    pub workers: u64,
    /// `Metrics` requests served.
    pub metrics_requests: u64,
    /// Capacity of the slowest-span retention list (`serve --slowest`).
    pub slowest_capacity: u64,
    /// `PlanDelta` requests decoded.
    pub delta_requests: u64,
    /// `PlanDelta` requests whose *next* plan was already cached
    /// (LRU/store) — also counted in `lru_hits`/`store_hits`, this
    /// counter only attributes them to the delta path.
    pub delta_hits: u64,
    /// `PlanDelta` requests answered by patching a cached base plan
    /// in-process (the `patched` tier).
    pub delta_patched: u64,
}

impl ServeStats {
    /// All cache hits (LRU + store + coalesced followers + patched
    /// plans — every plan served without running the synthesizer).
    pub fn hits(&self) -> u64 {
        self.lru_hits + self.store_hits + self.coalesced + self.delta_patched
    }

    /// Fraction of plan-serving requests answered without running the
    /// synthesizer for the caller (0.0 when none have been served).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// A latency histogram labelled with what it measures (a phase name or
/// a cache-tier name).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Stable label: a `stalloc_obs::Phase::name` or a tier name
    /// (`"lru"`, `"store"`, `"miss"`, `"coalesced"`, `"patched"`).
    pub name: String,
    /// The distribution (microseconds).
    pub hist: HistogramSnapshot,
}

/// One strategy's aggregated synthesis accounting in the `Metrics`
/// verb's `solver` section: counters summed over every synthesis run the
/// server performed with that strategy (including losing portfolio
/// racers), plus the distribution of its wall-clock times.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolverStrategyMetrics {
    /// Stable strategy name (`"baseline"`, `"bestfit"`, ...).
    pub strategy: String,
    /// Synthesis runs (portfolio races count each racer once).
    pub runs: u64,
    /// Runs whose plan was selected (the winning candidate).
    pub wins: u64,
    /// Runs whose candidate failed validation or panicked.
    pub invalid: u64,
    /// Total request ordering / grouping time, µs.
    pub layout_micros: u64,
    /// Total packer (gap scan + placement) time, µs.
    pub pack_micros: u64,
    /// Total plan assembly time, µs.
    pub finish_micros: u64,
    /// Placement candidates examined.
    pub candidates_evaluated: u64,
    /// Placements committed.
    pub placements_tried: u64,
    /// Candidates examined but passed over.
    pub placements_rejected: u64,
    /// Distribution of end-to-end per-run wall time, microseconds.
    pub elapsed: HistogramSnapshot,
}

/// The `Metrics` verb's payload: the server's counters plus latency
/// distributions and the slowest retained request spans.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Counter snapshot.
    pub stats: ServeStats,
    /// Per-phase request-time distributions, one per
    /// `stalloc_obs::Phase`, recorded only for requests that entered the
    /// phase.
    pub phases: Vec<NamedHistogram>,
    /// End-to-end latency distributions keyed by the cache tier that
    /// answered (`"lru"`, `"store"`, `"miss"`, `"coalesced"`,
    /// `"patched"`); each tier's `count` matches the corresponding
    /// `ServeStats` counter.
    pub tiers: Vec<NamedHistogram>,
    /// The slowest retained request spans, slowest first.
    pub slowest: Vec<SpanSnapshot>,
    /// Per-strategy synthesis accounting, in `StrategyChoice::CONCRETE`
    /// order; strategies the server never ran are absent.
    pub solver: Vec<SolverStrategyMetrics>,
}

impl ServeMetrics {
    /// The named phase histogram, if present.
    pub fn phase(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.phases.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// The named tier histogram, if present.
    pub fn tier(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.tiers.iter().find(|h| h.name == name).map(|h| &h.hist)
    }
}

/// One server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlanResponse {
    /// A plan, from cache or synthesis.
    Plan {
        /// Hex fingerprint of the job.
        fingerprint: String,
        /// Which tier produced the plan.
        source: PlanSource,
        /// Server-side handling time, microseconds.
        micros: u64,
        /// The plan itself.
        plan: Plan,
    },
    /// A plan served with [`PlanEncoding::Binary`]: this header frame is
    /// immediately followed by one raw frame whose payload is the plan in
    /// the `stalloc-store` binary codec (`bytes` long, for sanity
    /// checking before the read).
    PlanBin {
        /// Hex fingerprint of the job.
        fingerprint: String,
        /// Which tier produced the plan.
        source: PlanSource,
        /// Server-side handling time, microseconds.
        micros: u64,
        /// Payload length of the follow-up binary frame.
        bytes: u64,
    },
    /// `PlanDelta` miss: the server does not hold the base profile the
    /// edit script names.
    NotFound {
        /// The base profile's fingerprint.
        fingerprint: String,
    },
    /// Counters, latency distributions and slowest spans (the `Metrics`
    /// verb).
    Metrics {
        /// The metrics at response time.
        metrics: ServeMetrics,
    },
    /// The `TraceGet` reply: every span of the requested trace still in
    /// the recent-span ring, oldest first.
    Trace {
        /// The 32-hex-digit trace id that was asked for.
        trace_id: String,
        /// Matching spans, oldest first; empty if none survive in the
        /// ring.
        spans: Vec<SpanSnapshot>,
    },
    /// `Ping` reply.
    Pong,
    /// Typed failure.
    Error {
        /// Machine-readable failure class.
        kind: WireErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let ids = stalloc_obs::IdGen::seeded(41);
        let reqs = [
            PlanRequest::PlanDelta {
                config: SynthConfig::default(),
                encoding: Some(PlanEncoding::Json),
                bytes: 7,
                trace: None,
            },
            PlanRequest::ProfileBin {
                config: SynthConfig::default(),
                encoding: Some(PlanEncoding::Binary),
                bytes: 8,
                trace: Some(ids.root().child(&ids)),
            },
            PlanRequest::TraceGet {
                trace_id: ids.root().trace_hex(),
            },
            PlanRequest::Metrics,
            PlanRequest::Ping,
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: PlanRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(format!("{r:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn plan_request_carries_profile_and_config() {
        let r = PlanRequest::Plan {
            profile: ProfiledRequests::default(),
            config: SynthConfig::default(),
            encoding: Some(PlanEncoding::Binary),
            trace: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: PlanRequest = serde_json::from_str(&json).unwrap();
        match back {
            PlanRequest::Plan {
                profile,
                config,
                encoding,
                ..
            } => {
                assert_eq!(profile.statics.len(), 0);
                assert_eq!(config, SynthConfig::default());
                assert_eq!(encoding, Some(PlanEncoding::Binary));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn absent_options_decode_and_absent_required_keys_are_rejected() {
        // `encoding` and `trace` may be left out (a hand-written `nc`
        // frame does): the plan then travels as JSON under server-minted
        // ids.
        let config = serde_json::to_string(&SynthConfig::default()).unwrap();
        let header = format!(r#"{{"ProfileBin": {{"config": {config}, "bytes": 9}}}}"#);
        match serde_json::from_str::<PlanRequest>(&header).unwrap() {
            PlanRequest::ProfileBin {
                encoding, trace, ..
            } => {
                assert_eq!(encoding, None);
                assert_eq!(trace, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // Every other key is required. A config without `strategy` names
        // no job, so the request is rejected rather than guessed at.
        let profile = serde_json::to_string(&ProfiledRequests::default()).unwrap();
        let no_strategy = format!(
            r#"{{"Plan": {{"profile": {profile}, "config": {{"enable_fusion": true, "enable_gap_insertion": true, "ascending_sizes": false}}}}}}"#
        );
        let err = serde_json::from_str::<PlanRequest>(&no_strategy).unwrap_err();
        assert!(err.to_string().contains("`strategy`"), "{err}");

        // Responses too: a `ServeStats` document short of a counter is
        // rejected.
        let err = serde_json::from_str::<ServeStats>(r#"{"requests": 9}"#).unwrap_err();
        assert!(err.to_string().contains("`plan_requests`"), "{err}");
    }

    #[test]
    fn profile_bin_header_roundtrips() {
        let r = PlanRequest::ProfileBin {
            config: SynthConfig::default(),
            encoding: Some(PlanEncoding::Binary),
            bytes: 12_345,
            trace: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        match serde_json::from_str::<PlanRequest>(&json).unwrap() {
            PlanRequest::ProfileBin {
                config,
                encoding,
                bytes,
                ..
            } => {
                assert_eq!(config, SynthConfig::default());
                assert_eq!(encoding, Some(PlanEncoding::Binary));
                assert_eq!(bytes, 12_345);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Clients send binary profiles unless told otherwise.
        assert_eq!(ProfileEncoding::default(), ProfileEncoding::Binary);
    }

    #[test]
    fn plan_delta_header_roundtrips() {
        let ids = stalloc_obs::IdGen::seeded(45);
        let r = PlanRequest::PlanDelta {
            config: SynthConfig::default(),
            encoding: Some(PlanEncoding::Binary),
            bytes: 222,
            trace: Some(ids.root()),
        };
        assert!(r.trace_context().is_some());
        let json = serde_json::to_string(&r).unwrap();
        match serde_json::from_str::<PlanRequest>(&json).unwrap() {
            PlanRequest::PlanDelta {
                config,
                encoding,
                bytes,
                trace,
            } => {
                assert_eq!(config, SynthConfig::default());
                assert_eq!(encoding, Some(PlanEncoding::Binary));
                assert_eq!(bytes, 222);
                assert!(trace.is_some());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // The header without optional fields — what a minimal client
        // sends — also decodes, with Json response encoding implied.
        let config = serde_json::to_string(&SynthConfig::default()).unwrap();
        let minimal = format!(r#"{{"PlanDelta": {{"config": {config}, "bytes": 9}}}}"#);
        match serde_json::from_str::<PlanRequest>(&minimal).unwrap() {
            PlanRequest::PlanDelta {
                encoding, trace, ..
            } => {
                assert_eq!(encoding, None);
                assert_eq!(trace, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn plan_bin_header_roundtrips() {
        let resp = PlanResponse::PlanBin {
            fingerprint: "7".repeat(32),
            source: PlanSource::Store,
            micros: 77,
            bytes: 4096,
        };
        let json = serde_json::to_string(&resp).unwrap();
        match serde_json::from_str::<PlanResponse>(&json).unwrap() {
            PlanResponse::PlanBin {
                source,
                micros,
                bytes,
                ..
            } => {
                assert_eq!(source, PlanSource::Store);
                assert_eq!(micros, 77);
                assert_eq!(bytes, 4096);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(PlanEncoding::default(), PlanEncoding::Binary);
    }

    #[test]
    fn responses_roundtrip_through_json() {
        let resp = PlanResponse::Plan {
            fingerprint: "0".repeat(32),
            source: PlanSource::Coalesced,
            micros: 1234,
            plan: Plan::default(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        match serde_json::from_str::<PlanResponse>(&json).unwrap() {
            PlanResponse::Plan { source, micros, .. } => {
                assert_eq!(source, PlanSource::Coalesced);
                assert_eq!(micros, 1234);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let err = PlanResponse::Error {
            kind: WireErrorKind::Oversized,
            message: "too big".into(),
        };
        let json = serde_json::to_string(&err).unwrap();
        match serde_json::from_str::<PlanResponse>(&json).unwrap() {
            PlanResponse::Error { kind, message } => {
                assert_eq!(kind, WireErrorKind::Oversized);
                assert_eq!(message, "too big");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn metrics_roundtrip_through_json() {
        use stalloc_obs::{LatencyHistogram, Phase, RequestSpan, SpanSnapshot};

        let hist = LatencyHistogram::new();
        for v in [69, 70, 147_000] {
            hist.record(v);
        }
        let mut span = RequestSpan::new("Plan");
        span.seq = 3;
        span.tier = "miss";
        span.total_micros = 147_000;
        span.record(Phase::Synthesis, 146_500);

        let metrics = ServeMetrics {
            stats: ServeStats {
                requests: 3,
                misses: 1,
                lru_hits: 2,
                metrics_requests: 1,
                ..ServeStats::default()
            },
            phases: vec![NamedHistogram {
                name: Phase::Synthesis.name().into(),
                hist: hist.snapshot(),
            }],
            tiers: vec![NamedHistogram {
                name: "lru".into(),
                hist: hist.snapshot(),
            }],
            slowest: vec![SpanSnapshot::from(&span)],
            solver: vec![SolverStrategyMetrics {
                strategy: "bestfit".into(),
                runs: 1,
                wins: 1,
                layout_micros: 120,
                pack_micros: 4_400,
                finish_micros: 300,
                candidates_evaluated: 900,
                placements_tried: 450,
                placements_rejected: 450,
                elapsed: hist.snapshot(),
                ..SolverStrategyMetrics::default()
            }],
        };
        let request = serde_json::to_string(&PlanRequest::Metrics).unwrap();
        match serde_json::from_str::<PlanRequest>(&request).unwrap() {
            PlanRequest::Metrics => {}
            other => panic!("wrong variant: {other:?}"),
        }
        let json = serde_json::to_string(&PlanResponse::Metrics {
            metrics: metrics.clone(),
        })
        .unwrap();
        match serde_json::from_str::<PlanResponse>(&json).unwrap() {
            PlanResponse::Metrics { metrics: back } => {
                assert_eq!(back, metrics);
                assert_eq!(back.phase("synthesis").unwrap().total(), 3);
                assert_eq!(
                    back.tier("lru").unwrap().quantile(0.5),
                    hist.snapshot().quantile(0.5)
                );
                assert!(back.phase("nope").is_none());
                assert_eq!(back.slowest[0].tier, "miss");
                let [solver] = &back.solver[..] else {
                    panic!("one strategy row: {:?}", back.solver);
                };
                assert_eq!(solver.strategy, "bestfit");
                assert_eq!((solver.runs, solver.wins), (1, 1));
                assert_eq!(solver.candidates_evaluated, 900);
                assert_eq!(solver.elapsed.total(), 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn trace_context_rides_the_plan_serving_verbs() {
        let ids = stalloc_obs::IdGen::seeded(43);
        let ctx = ids.root().child(&ids);
        let r = PlanRequest::ProfileBin {
            config: SynthConfig::default(),
            encoding: None,
            bytes: 9,
            trace: Some(ctx),
        };
        assert_eq!(r.trace_context(), Some(ctx));
        assert_eq!(PlanRequest::Metrics.trace_context(), None);
        assert_eq!(PlanRequest::Ping.trace_context(), None);

        // The wire form is the fixed-width hex object, and it survives a
        // round trip.
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains(&format!("\"trace_id\":\"{}\"", ctx.trace_hex())));
        match serde_json::from_str::<PlanRequest>(&json).unwrap() {
            PlanRequest::ProfileBin { trace, .. } => assert_eq!(trace, Some(ctx)),
            other => panic!("wrong variant: {other:?}"),
        }

        // Unit verbs are bare strings, with no room for a context.
        assert_eq!(
            serde_json::to_string(&PlanRequest::Ping).unwrap(),
            "\"Ping\""
        );
    }

    #[test]
    fn unknown_request_fields_are_skipped() {
        // The decoder looks fields up by name and skips the rest, so a
        // key it does not know is no error.
        let config = serde_json::to_string(&SynthConfig::default()).unwrap();
        let extra = format!(
            r#"{{"ProfileBin": {{"config": {config}, "bytes": 32,
            "trace": {{"trace_id": "000102030405060708090a0b0c0d0e0f",
                      "span_id": "0001020304050607",
                      "parent_span_id": "0000000000000000"}},
            "field_nobody_knows": 7}}}}"#
        );
        match serde_json::from_str::<PlanRequest>(&extra).unwrap() {
            PlanRequest::ProfileBin { bytes, trace, .. } => {
                assert_eq!(bytes, 32);
                let ctx = trace.expect("trace decodes");
                assert_eq!(ctx.trace_id, 0x000102030405060708090a0b0c0d0e0f);
                assert_eq!(ctx.span_id, 0x0001020304050607);
                assert_eq!(ctx.parent_span_id, 0);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn trace_get_roundtrips_and_trace_response_carries_spans() {
        use stalloc_obs::{IdGen, RequestSpan, SpanSnapshot};
        let ids = IdGen::seeded(44);
        let ctx = ids.root();
        let req = PlanRequest::TraceGet {
            trace_id: ctx.trace_hex(),
        };
        let json = serde_json::to_string(&req).unwrap();
        match serde_json::from_str::<PlanRequest>(&json).unwrap() {
            PlanRequest::TraceGet { trace_id } => assert_eq!(trace_id, ctx.trace_hex()),
            other => panic!("wrong variant: {other:?}"),
        }

        let mut span = RequestSpan::new("Plan");
        span.trace = ctx;
        span.total_micros = 99;
        let resp = PlanResponse::Trace {
            trace_id: ctx.trace_hex(),
            spans: vec![SpanSnapshot::from(&span)],
        };
        let json = serde_json::to_string(&resp).unwrap();
        match serde_json::from_str::<PlanResponse>(&json).unwrap() {
            PlanResponse::Trace { trace_id, spans } => {
                assert_eq!(trace_id, ctx.trace_hex());
                assert_eq!(spans.len(), 1);
                assert_eq!(spans[0].trace_id, ctx.trace_hex());
                assert_eq!(spans[0].total_micros, 99);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn hit_ratio_is_total_over_plan_serving_requests() {
        let s = ServeStats {
            lru_hits: 2,
            store_hits: 1,
            coalesced: 1,
            misses: 1,
            ..ServeStats::default()
        };
        assert!((s.hit_ratio() - 0.8).abs() < 1e-9);
        assert_eq!(ServeStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn stats_hit_accounting() {
        let s = ServeStats {
            lru_hits: 2,
            store_hits: 3,
            coalesced: 5,
            misses: 7,
            delta_patched: 4,
            ..ServeStats::default()
        };
        assert_eq!(s.hits(), 14);
        assert!(PlanSource::Lru.is_hit());
        assert!(PlanSource::Store.is_hit());
        assert!(PlanSource::Coalesced.is_hit());
        assert!(PlanSource::Patched.is_hit());
        assert!(!PlanSource::Synthesized.is_hit());
    }
}
