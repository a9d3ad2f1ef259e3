//! Per-request phase spans and their retention ring.
//!
//! A [`Span`] is a `Copy` value with a fixed-size phase array — recording
//! into it, and pushing a [`RequestSpan`] into the pre-allocated
//! [`SpanRing`], allocates nothing. It is generic over the [`PhaseSet`]
//! it times: the server's [`Phase`]s here, the client's
//! [`crate::ClientPhase`]s next door. The serializable [`SpanSnapshot`]
//! (heap-backed strings/vectors) exists only on the read side, when a
//! `Metrics` response or trace line is being built.

use crate::context::TraceContext;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// A closed set of request phases, declared in wall-clock order: what a
/// [`Span`] keeps one accumulator each for. Implemented by
/// the `phase_set!` macro only.
pub trait PhaseSet: Copy + std::fmt::Debug + 'static {
    /// `[u64; N]`, one slot per phase.
    type Micros: Copy + Default + std::fmt::Debug + AsRef<[u64]> + AsMut<[u64]>;
    /// Every phase, in declaration (= wall-clock) order.
    const PHASES: &'static [Self];
    /// Stable wire/report name (snake_case).
    fn name(self) -> &'static str;
    /// Index into per-phase arrays (= position in [`Self::PHASES`]).
    fn index(self) -> usize;
}

/// Declares a phase enum — variants in wall-clock order, each with its
/// report name — plus its variant count, its inherent `ALL` / `name` /
/// `index`, and its [`PhaseSet`] impl, so order, names and count are
/// written once.
macro_rules! phase_set {
    (
        $(#[$meta:meta])*
        $name:ident, $count:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        #[doc = concat!("Number of [`", stringify!($name), "`] variants.")]
        pub const $count: usize = [$($label),+].len();

        impl $name {
            /// Every phase, in declaration (= wall-clock) order.
            pub const ALL: [$name; $count] = [$($name::$variant),+];

            /// Stable wire/report name (snake_case).
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Index into per-phase arrays (= position in `ALL`).
            pub fn index(self) -> usize {
                self as usize
            }
        }

        impl $crate::span::PhaseSet for $name {
            type Micros = [u64; $count];
            const PHASES: &'static [Self] = &Self::ALL;
            fn name(self) -> &'static str {
                $name::name(self)
            }
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}
pub(crate) use phase_set;

phase_set! {
    /// The phases of one served request, in wall-clock order.
    Phase, PHASE_COUNT {
        /// Accept-queue residency before a worker picked the connection up
        /// (first request on a connection only; later ones never queued).
        QueueWait => "queue_wait",
        /// First byte of the request frame → complete frame (keep-alive idle
        /// time between requests is *not* counted).
        FrameRead => "frame_read",
        /// JSON request payload → typed `PlanRequest`.
        Decode => "decode",
        /// Job fingerprint computation (profile walk or raw-byte hash).
        Fingerprint => "fingerprint",
        /// In-process LRU probe.
        LruLookup => "lru_lookup",
        /// On-disk plan-store probe (only on an LRU miss).
        StoreLookup => "store_lookup",
        /// Delta application + plan patching on a `PlanDelta` request whose
        /// base was cached.
        Replan => "replan",
        /// Plan synthesis — the leader's run, or a follower's coalesced wait
        /// on it.
        Synthesis => "synthesis",
        /// Response serialization (JSON document, and the plan's binary
        /// encoding when it is computed for this response).
        Encode => "encode",
        /// Response frame(s) → socket.
        FrameWrite => "frame_write",
    }
}

/// One request's phase timings, in microseconds. `Copy`, fixed-size,
/// allocation-free — built on the caller's stack (and, server-side,
/// copied into the ring).
#[derive(Debug, Clone, Copy)]
pub struct Span<P: PhaseSet> {
    /// Server-assigned sequence number (order of completion); 0 on a
    /// span no server numbered.
    pub seq: u64,
    /// The ids this request ran under. Server-side: propagated from the
    /// client when the request carried a context, minted otherwise.
    /// Client-side: `span_id` is the client span itself; the context
    /// *sent* to the server is its child. All-zero
    /// (`TraceContext::NONE`) only in unit tests and throw-away spans.
    pub trace: TraceContext,
    /// Request verb name (`"ProfileBin"`, `"Metrics"`, ...).
    pub verb: &'static str,
    /// Cache tier that answered (`"lru"`, `"store"`, `"miss"`,
    /// `"coalesced"`), or `""` for verbs that serve no plan and for
    /// client spans.
    pub tier: &'static str,
    /// End-to-end latency. Server-side: queue wait + frame read +
    /// handling + write; client-side: as the caller experienced it.
    pub total_micros: u64,
    phase_micros: P::Micros,
    touched: u16,
}

/// The server's span of one request.
pub type RequestSpan = Span<Phase>;

impl<P: PhaseSet> Span<P> {
    pub fn new(verb: &'static str) -> Self {
        Span {
            seq: 0,
            trace: TraceContext::NONE,
            verb,
            tier: "",
            total_micros: 0,
            phase_micros: P::Micros::default(),
            touched: 0,
        }
    }

    /// Adds `micros` to a phase (phases accumulate: a retried lookup or
    /// a second frame read or write folds into the same slot).
    pub fn record(&mut self, phase: P, micros: u64) {
        self.phase_micros.as_mut()[phase.index()] += micros;
        self.touched |= 1 << phase.index();
    }

    /// Records the elapsed time since `start` into a phase.
    pub fn record_since(&mut self, phase: P, start: Instant) {
        self.record(phase, start.elapsed().as_micros() as u64);
    }

    /// A phase's accumulated time; `None` if the request never entered
    /// it (distinct from "entered and took 0µs").
    pub fn phase_micros(&self, phase: P) -> Option<u64> {
        if self.touched & (1 << phase.index()) != 0 {
            Some(self.phase_micros.as_ref()[phase.index()])
        } else {
            None
        }
    }

    /// The phases this request actually entered, with their timings.
    pub fn entered(&self) -> impl Iterator<Item = (P, u64)> + '_ {
        P::PHASES
            .iter()
            .filter_map(|&p| self.phase_micros(p).map(|us| (p, us)))
    }
}

/// The serializable form of a span, for `Metrics` responses and trace
/// lines. `phase_micros` is parallel to the span's phase set —
/// [`Phase::ALL`] on everything a server sends (a phase the request
/// never entered reports 0).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Server-assigned completion sequence number.
    pub seq: u64,
    /// 32-hex-digit trace id, `""` when untraced.
    pub trace_id: String,
    /// 16-hex-digit span id, `""` when untraced.
    pub span_id: String,
    /// 16-hex-digit parent span id (`0000…` for a root span), `""` when
    /// untraced.
    pub parent_span_id: String,
    /// Request verb name.
    pub verb: String,
    /// Cache tier that answered, or `""`.
    pub tier: String,
    /// End-to-end latency, microseconds.
    pub total_micros: u64,
    /// Per-phase microseconds, parallel to the phase set.
    pub phase_micros: Vec<u64>,
}

impl<P: PhaseSet> From<&Span<P>> for SpanSnapshot {
    fn from(s: &Span<P>) -> Self {
        let [trace_id, span_id, parent_span_id] = if s.trace.is_set() {
            [
                s.trace.trace_hex(),
                s.trace.span_hex(),
                s.trace.parent_hex(),
            ]
        } else {
            Default::default()
        };
        SpanSnapshot {
            seq: s.seq,
            trace_id,
            span_id,
            parent_span_id,
            verb: s.verb.to_string(),
            tier: s.tier.to_string(),
            total_micros: s.total_micros,
            phase_micros: s.phase_micros.as_ref().to_vec(),
        }
    }
}

/// Bounded span retention: the most recent `capacity` spans (a circular
/// overwrite) plus the slowest `slowest_capacity` spans ever seen (by
/// `total_micros`). Both vectors are allocated once, up front; a push
/// copies one `RequestSpan` and never allocates.
pub struct SpanRing {
    inner: Mutex<RingInner>,
}

struct RingInner {
    recent: Vec<RequestSpan>,
    capacity: usize,
    next: usize,
    slowest: Vec<RequestSpan>,
    slowest_capacity: usize,
}

impl SpanRing {
    pub fn new(capacity: usize, slowest_capacity: usize) -> Self {
        SpanRing {
            inner: Mutex::new(RingInner {
                recent: Vec::with_capacity(capacity),
                capacity,
                next: 0,
                slowest: Vec::with_capacity(slowest_capacity),
                slowest_capacity,
            }),
        }
    }

    pub fn push(&self, span: RequestSpan) {
        let mut inner = self.inner.lock().expect("span ring lock");
        if inner.capacity > 0 {
            if inner.recent.len() < inner.capacity {
                inner.recent.push(span);
            } else {
                let at = inner.next;
                inner.recent[at] = span;
            }
            inner.next = (inner.next + 1) % inner.capacity;
        }
        if inner.slowest_capacity > 0 {
            if inner.slowest.len() < inner.slowest_capacity {
                inner.slowest.push(span);
            } else {
                // Tiny N: a linear min-scan beats heap bookkeeping.
                let (mi, fastest) = inner
                    .slowest
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.total_micros)
                    .map(|(i, s)| (i, s.total_micros))
                    .expect("slowest non-empty at capacity");
                if span.total_micros > fastest {
                    inner.slowest[mi] = span;
                }
            }
        }
    }

    /// The retained recent spans, oldest first.
    pub fn recent(&self) -> Vec<RequestSpan> {
        let inner = self.inner.lock().expect("span ring lock");
        if inner.recent.len() < inner.capacity {
            inner.recent.clone()
        } else {
            let mut out = Vec::with_capacity(inner.recent.len());
            out.extend_from_slice(&inner.recent[inner.next..]);
            out.extend_from_slice(&inner.recent[..inner.next]);
            out
        }
    }

    /// The retained recent spans belonging to one trace, oldest first.
    /// Retention-bounded: a span that has been overwritten in the ring
    /// is gone, which is why `TraceGet` callers query promptly.
    pub fn by_trace(&self, trace_id: u128) -> Vec<RequestSpan> {
        self.recent()
            .into_iter()
            .filter(|s| s.trace.trace_id == trace_id && trace_id != 0)
            .collect()
    }

    /// The slowest retained spans, slowest first.
    pub fn slowest(&self) -> Vec<RequestSpan> {
        let inner = self.inner.lock().expect("span ring lock");
        let mut out = inner.slowest.clone();
        out.sort_by_key(|s| std::cmp::Reverse(s.total_micros));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_matches_indices_and_names_are_unique() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: std::collections::BTreeSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn spans_distinguish_untouched_from_zero() {
        let mut s = RequestSpan::new("Plan");
        s.record(Phase::Decode, 0);
        assert_eq!(s.phase_micros(Phase::Decode), Some(0));
        assert_eq!(s.phase_micros(Phase::Synthesis), None);
        s.record(Phase::Decode, 7);
        assert_eq!(s.phase_micros(Phase::Decode), Some(7), "accumulates");
        let entered: Vec<_> = s.entered().collect();
        assert_eq!(entered, vec![(Phase::Decode, 7)]);
    }

    #[test]
    fn ring_retains_recent_in_order() {
        let ring = SpanRing::new(4, 2);
        for i in 0..10u64 {
            let mut s = RequestSpan::new("Ping");
            s.seq = i;
            s.total_micros = i;
            ring.push(s);
        }
        let seqs: Vec<u64> = ring.recent().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_retains_slowest_by_total() {
        let ring = SpanRing::new(2, 3);
        for (seq, total) in [(0, 5), (1, 900), (2, 10), (3, 800), (4, 1), (5, 850)] {
            let mut s = RequestSpan::new("Plan");
            s.seq = seq;
            s.total_micros = total;
            ring.push(s);
        }
        let slow: Vec<(u64, u64)> = ring
            .slowest()
            .iter()
            .map(|s| (s.seq, s.total_micros))
            .collect();
        assert_eq!(slow, vec![(1, 900), (5, 850), (3, 800)]);
    }

    #[test]
    fn zero_capacity_ring_is_a_sink() {
        let ring = SpanRing::new(0, 0);
        ring.push(RequestSpan::new("Ping"));
        assert!(ring.recent().is_empty());
        assert!(ring.slowest().is_empty());
    }

    #[test]
    fn by_trace_finds_only_that_traces_spans() {
        let ids = crate::context::IdGen::seeded(21);
        let ring = SpanRing::new(8, 2);
        let ctx_a = ids.root();
        let ctx_b = ids.root();
        for (i, ctx) in [(0, ctx_a), (1, ctx_b), (2, ctx_a)] {
            let mut s = RequestSpan::new("Plan");
            s.seq = i;
            s.trace = ctx;
            ring.push(s);
        }
        let found: Vec<u64> = ring
            .by_trace(ctx_a.trace_id)
            .iter()
            .map(|s| s.seq)
            .collect();
        assert_eq!(found, vec![0, 2]);
        assert!(ring.by_trace(0).is_empty(), "untraced spans never match");
    }

    #[test]
    fn snapshot_carries_hex_trace_ids() {
        let ids = crate::context::IdGen::seeded(22);
        let mut s = RequestSpan::new("Plan");
        s.trace = ids.root().child(&ids);
        let snap = SpanSnapshot::from(&s);
        assert_eq!(snap.trace_id, s.trace.trace_hex());
        assert_eq!(snap.span_id, s.trace.span_hex());
        assert_eq!(snap.parent_span_id, s.trace.parent_hex());

        let untraced = SpanSnapshot::from(&RequestSpan::new("Ping"));
        assert_eq!(untraced.trace_id, "");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut s = RequestSpan::new("Plan");
        s.seq = 42;
        s.tier = "lru";
        s.total_micros = 123;
        s.record(Phase::FrameRead, 5);
        s.record(Phase::LruLookup, 2);
        let snap = SpanSnapshot::from(&s);
        assert_eq!(snap.phase_micros.len(), PHASE_COUNT);
        assert_eq!(snap.phase_micros[Phase::FrameRead.index()], 5);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SpanSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
