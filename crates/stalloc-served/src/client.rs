//! Blocking client for the planning daemon.
//!
//! One [`PlanClient`] wraps one keep-alive TCP connection; requests on it
//! are sequential (open more clients for concurrency). Responses are
//! distrusted: plans are re-validated on receipt, so a corrupt or
//! malicious server cannot push an unsound plan into a training run.
//!
//! Both large payloads travel binary-encoded by default: served plans
//! come back as a `PlanBin` header frame plus one raw `STPL` codec frame
//! ([`PlanEncoding::Binary`]), and the *request's profile* goes out as a
//! `ProfileBin` header frame plus one raw `PROF` codec frame
//! ([`ProfileEncoding::Binary`]) — a sixth to a tenth of the JSON bytes,
//! and the server identifies the job from the raw `PROF` bytes without
//! decoding them. The client encodes/decodes transparently; [`PlanClient::with_encoding`] and
//! [`PlanClient::with_profile_encoding`] switch either direction back to
//! inline JSON (handy when eavesdropping on the wire with `nc`).
//!
//! Every request is traced: the client mints one trace id per
//! connection ([`PlanClient::with_trace_id`] overrides it), records a
//! [`ClientSpan`] per request (readable via [`PlanClient::last_span`]),
//! and sends each planning verb a child [`TraceContext`] so the
//! server's span links back to the client's.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use stalloc_core::wire::{
    PlanEncoding, PlanRequest, PlanResponse, PlanSource, ProfileEncoding, ServeMetrics,
    WireErrorKind,
};
use stalloc_core::{diff_profiles, Fingerprint, Plan, ProfiledRequests, SynthConfig};
use stalloc_obs::{id_gen, ClientPhase, ClientSpan, SpanSnapshot, TraceContext};
use stalloc_store::{decode_plan, encode_profile, encode_profile_delta, profile_body};

use crate::frame::{read_announced, read_frame, write_announced, FrameError, DEFAULT_MAX_FRAME};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server's frame could not be decoded.
    Frame(FrameError),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable failure class.
        kind: WireErrorKind,
        /// Server-provided detail.
        message: String,
    },
    /// The server broke the protocol (closed mid-exchange, wrong variant,
    /// unsound plan).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "plan server i/o: {e}"),
            ClientError::Frame(e) => write!(f, "plan server frame: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "plan server error ({kind}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "plan server protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A successfully served plan with its provenance.
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// The validated plan.
    pub plan: Plan,
    /// Job fingerprint the server keyed it by.
    pub fingerprint: Fingerprint,
    /// Cache tier (or synthesis) that produced it.
    pub source: PlanSource,
    /// Server-side handling time, microseconds.
    pub micros: u64,
}

/// One connection to a `stalloc-served` daemon.
pub struct PlanClient {
    stream: TcpStream,
    encoding: PlanEncoding,
    profile_encoding: ProfileEncoding,
    /// This connection's root context: every request span is its child,
    /// and every wire context is that span's child.
    root: TraceContext,
    /// Connect + socket setup time, folded into the first request's
    /// span (keep-alive requests never reconnect).
    pending_connect_micros: u64,
    last_span: Option<ClientSpan>,
}

/// The server answered with a variant the verb does not expect.
fn unexpected(want: &str, got: &PlanResponse) -> ClientError {
    ClientError::Protocol(format!("expected {want} response, got {got:?}"))
}

impl PlanClient {
    /// Connects to a daemon at `addr` (e.g. `"127.0.0.1:4547"`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let connect_start = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Generous default: plan synthesis for large jobs takes a while
        // and the server answers Busy fast when overloaded.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(PlanClient {
            stream,
            encoding: PlanEncoding::default(),
            profile_encoding: ProfileEncoding::default(),
            root: id_gen().root(),
            pending_connect_micros: connect_start.elapsed().as_micros() as u64,
            last_span: None,
        })
    }

    /// Chooses how served plans travel (default: [`PlanEncoding::Binary`]).
    pub fn with_encoding(mut self, encoding: PlanEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Chooses how this client's profiles travel (default:
    /// [`ProfileEncoding::Binary`]). [`ProfileEncoding::Json`] puts the
    /// profile inline in the `Plan` request, readable on the wire.
    pub fn with_profile_encoding(mut self, profile_encoding: ProfileEncoding) -> Self {
        self.profile_encoding = profile_encoding;
        self
    }

    /// Tags every request on this client with `trace_id` instead of the
    /// connection-minted one — so a whole experiment's requests, across
    /// connections, share one trace.
    pub fn with_trace_id(mut self, trace_id: u128) -> Self {
        self.root.trace_id = trace_id;
        self
    }

    /// The context identifying this connection; every request span is
    /// its child.
    pub fn trace_context(&self) -> TraceContext {
        self.root
    }

    /// The client-side span of the most recent request (complete even
    /// when the request failed). [`Self::trace_get`] does not overwrite
    /// it — it is the span-fetching verb, so a caller can plan, read
    /// `last_span`, then pull the matching server spans.
    pub fn last_span(&self) -> Option<ClientSpan> {
        self.last_span
    }

    /// Runs one request under its own span and publishes the span as
    /// [`Self::last_span`], whatever the outcome. The span context is a
    /// child of the connection root, and the context handed to `request`
    /// to *send on the wire* is the span's own child — so server-side
    /// spans parent onto the client span, not onto the connection.
    fn traced<T>(
        &mut self,
        verb: &'static str,
        request: impl FnOnce(&mut Self, TraceContext, &mut ClientSpan) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let span_ctx = self.root.child(id_gen());
        let wire_ctx = span_ctx.child(id_gen());
        let mut span = ClientSpan::new(verb);
        span.trace = span_ctx;
        if self.pending_connect_micros > 0 {
            span.record(ClientPhase::Connect, self.pending_connect_micros);
            self.pending_connect_micros = 0;
        }
        let started = Instant::now();
        let result = request(self, wire_ctx, &mut span);
        // Connect time is part of the total: the caller paid for it on
        // this request.
        span.total_micros = span.phase_micros(ClientPhase::Connect).unwrap_or(0)
            + started.elapsed().as_micros() as u64;
        self.last_span = Some(span);
        result
    }

    /// One request — its JSON frame and, behind it, the raw frame that
    /// request announces (if it does) — and one response. A typed error
    /// response comes back as [`ClientError::Server`]; a server that
    /// closes the connection at a frame boundary instead of answering
    /// broke the protocol.
    fn exchange(
        &mut self,
        request: &PlanRequest,
        raw: Option<&[u8]>,
        span: &mut ClientSpan,
    ) -> Result<PlanResponse, ClientError> {
        self.send(request, raw, span)?;
        self.receive(span)
    }

    /// The request half of [`Self::exchange`].
    fn send(
        &mut self,
        request: &PlanRequest,
        raw: Option<&[u8]>,
        span: &mut ClientSpan,
    ) -> Result<(), ClientError> {
        let encode = Instant::now();
        let payload = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("encode request: {e}")))?;
        span.record_since(ClientPhase::Encode, encode);
        let write = Instant::now();
        write_announced(&mut self.stream, payload.as_bytes(), raw)?;
        span.record_since(ClientPhase::Write, write);
        Ok(())
    }

    /// The response half of [`Self::exchange`].
    fn receive(&mut self, span: &mut ClientSpan) -> Result<PlanResponse, ClientError> {
        // Await covers blocking for + reading the response header frame:
        // both network legs plus the whole server-side span.
        let await_start = Instant::now();
        let frame = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)?
            .ok_or_else(|| ClientError::Protocol("server closed before responding".into()))?;
        span.record_since(ClientPhase::Await, await_start);
        let decode = Instant::now();
        let text = std::str::from_utf8(&frame)
            .map_err(|e| ClientError::Protocol(format!("non-UTF-8 response: {e}")))?;
        let response: PlanResponse = serde_json::from_str(text)
            .map_err(|e| ClientError::Protocol(format!("undecodable response: {e}")))?;
        span.record_since(ClientPhase::Decode, decode);
        match response {
            PlanResponse::Error { kind, message } => Err(ClientError::Server { kind, message }),
            response => Ok(response),
        }
    }

    /// Accepts a plan-bearing response (`Ok(None)` for `NotFound`),
    /// distrusting the server three ways: the raw frame behind a
    /// `PlanBin` header must have the length that header declared — a
    /// mismatch means the stream is unsynchronized; the echoed
    /// fingerprint must match the one we compute locally — so a server-side mixup cannot hand this job another
    /// job's plan; and the plan must pass the soundness check.
    fn accept(
        &mut self,
        expected: Fingerprint,
        response: PlanResponse,
        span: &mut ClientSpan,
    ) -> Result<Option<RemotePlan>, ClientError> {
        let (fingerprint, source, micros, plan) = match response {
            PlanResponse::Plan {
                fingerprint,
                source,
                micros,
                plan,
            } => (fingerprint, source, micros, plan),
            PlanResponse::PlanBin {
                fingerprint,
                source,
                micros,
                bytes,
            } => {
                let read = Instant::now();
                let frame = read_announced(&mut self.stream, DEFAULT_MAX_FRAME, bytes)
                    .map_err(|e| match e {
                        FrameError::BadHeader(m) => ClientError::Protocol(m),
                        e => ClientError::Frame(e),
                    })?
                    .ok_or_else(|| {
                        ClientError::Protocol("server closed before plan payload".into())
                    })?;
                span.record_since(ClientPhase::Read, read);
                let decode = Instant::now();
                let plan = decode_plan(&frame)
                    .map_err(|e| ClientError::Protocol(format!("undecodable binary plan: {e}")));
                span.record_since(ClientPhase::Decode, decode);
                (fingerprint, source, micros, plan?)
            }
            PlanResponse::NotFound { .. } => return Ok(None),
            other => return Err(unexpected("Plan/NotFound", &other)),
        };
        let fingerprint = Fingerprint::from_hex(&fingerprint)
            .ok_or_else(|| ClientError::Protocol(format!("bad fingerprint '{fingerprint}'")))?;
        if fingerprint != expected {
            return Err(ClientError::Protocol(format!(
                "server answered for job {fingerprint}, expected {expected}"
            )));
        }
        let check = Instant::now();
        let verdict = plan.validate();
        span.record_since(ClientPhase::Validate, check);
        verdict.map_err(|e| ClientError::Protocol(format!("server sent unsound plan: {e}")))?;
        Ok(Some(RemotePlan {
            plan,
            fingerprint,
            source,
            micros,
        }))
    }

    /// Plans a job remotely: cache hit, coalesced wait, or synthesis —
    /// the server decides; the response says which ([`RemotePlan::source`]).
    ///
    /// The profile travels per [`Self::with_profile_encoding`]: inline JSON
    /// in a `Plan` request, or (the default) a `ProfileBin` header frame
    /// followed by one raw `PROF` codec frame — the fingerprint, cache
    /// behaviour, and response are identical either way.
    pub fn plan(
        &mut self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> Result<RemotePlan, ClientError> {
        self.traced("Plan", |client, wire, span| {
            client.plan_full(profile, config, wire, span)
        })
    }

    fn plan_full(
        &mut self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
        wire: TraceContext,
        span: &mut ClientSpan,
    ) -> Result<RemotePlan, ClientError> {
        let (expected, response) = match self.profile_encoding {
            ProfileEncoding::Json => {
                let request = PlanRequest::Plan {
                    profile: profile.clone(),
                    config: *config,
                    encoding: Some(self.encoding),
                    trace: Some(wire),
                };
                let expected = stalloc_core::fingerprint_job(profile, config);
                (expected, self.exchange(&request, None, span)?)
            }
            ProfileEncoding::Binary => {
                // One canonical encode serves both purposes: the wire
                // payload and the fingerprint (the `PROF` body is the
                // fingerprint walk, so hashing the bytes equals
                // `fingerprint_job` on the profile).
                let encode = Instant::now();
                let raw = encode_profile(profile);
                span.record_since(ClientPhase::Encode, encode);
                let header = PlanRequest::ProfileBin {
                    config: *config,
                    encoding: Some(self.encoding),
                    bytes: raw.len() as u64,
                    trace: Some(wire),
                };
                self.send(&header, Some(&raw), span)?;
                // Only the answer is checked against the fingerprint: the
                // bytes are digested while the server works on them.
                let encode = Instant::now();
                let body = profile_body(&raw)
                    .map_err(|e| ClientError::Protocol(format!("encode profile: {e}")))?;
                let expected = stalloc_core::fingerprint_job_body(body, config);
                span.record_since(ClientPhase::Encode, encode);
                (expected, self.receive(span)?)
            }
        };
        self.accept(expected, response, span)?
            .ok_or_else(|| ClientError::Protocol("expected Plan response, got NotFound".into()))
    }

    /// Plans the *next* job of a profile family by sending only its
    /// edit script against `base` (a profile the server has already
    /// seen, e.g. via a previous [`Self::plan`] call on this server).
    ///
    /// A server that has evicted the base answers `NotFound`, and the
    /// full profile is sent on the same connection — so this is safe to
    /// call unconditionally: the caller gets the same validated plan a
    /// [`Self::plan`] call for `next` would produce, and only
    /// [`RemotePlan::source`] tells the paths apart
    /// ([`PlanSource::Patched`] when the server patched in-process).
    /// Every other failure is the caller's to see: a transport error or
    /// a typed rejection is never retried behind its back.
    pub fn plan_delta(
        &mut self,
        base: &ProfiledRequests,
        next: &ProfiledRequests,
        config: &SynthConfig,
    ) -> Result<RemotePlan, ClientError> {
        self.traced("PlanDelta", |client, wire, span| {
            let encode = Instant::now();
            let raw = encode_profile_delta(&diff_profiles(base, next));
            span.record_since(ClientPhase::Encode, encode);
            let header = PlanRequest::PlanDelta {
                config: *config,
                encoding: Some(client.encoding),
                bytes: raw.len() as u64,
                trace: Some(wire),
            };
            client.send(&header, Some(&raw), span)?;
            // As for a full profile: fingerprinted while the server works.
            let encode = Instant::now();
            let expected = stalloc_core::fingerprint_job(next, config);
            span.record_since(ClientPhase::Encode, encode);
            let response = client.receive(span)?;
            match client.accept(expected, response, span)? {
                Some(plan) => Ok(plan),
                // The server no longer holds the base profile. The
                // stream is still synchronized (both frames were
                // consumed), so send the full profile on this very
                // connection.
                None => client.plan_full(next, config, wire, span),
            }
        })
    }

    /// Fetches the server-side spans the recent ring holds for a trace
    /// id (32 hex digits, e.g. [`TraceContext::trace_hex`]).
    pub fn trace_get(&mut self, trace_id: &str) -> Result<Vec<SpanSnapshot>, ClientError> {
        let request = PlanRequest::TraceGet {
            trace_id: trace_id.to_string(),
        };
        // Recorded into a throw-away span: see [`Self::last_span`].
        let mut unpublished = ClientSpan::new("TraceGet");
        match self.exchange(&request, None, &mut unpublished)? {
            PlanResponse::Trace { spans, .. } => Ok(spans),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Fetches the server's metrics: its cumulative counters, per-phase
    /// and per-tier latency histograms, and slowest spans.
    pub fn metrics(&mut self) -> Result<ServeMetrics, ClientError> {
        let response = self.traced("Metrics", |client, _, span| {
            client.exchange(&PlanRequest::Metrics, None, span)
        })?;
        match response {
            PlanResponse::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let response = self.traced("Ping", |client, _, span| {
            client.exchange(&PlanRequest::Ping, None, span)
        })?;
        match response {
            PlanResponse::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }
}
