//! Wire-propagable trace identity: a 128-bit trace id plus 64-bit span
//! and parent-span ids, in the style of W3C `traceparent`.
//!
//! Id generation never consults a clock. [`IdGen`] is a splitmix64
//! stream whose default seed comes from the OS-random keys behind
//! `std::collections::hash_map::RandomState` (mixed with the process
//! id), so two processes started in the same instant still diverge,
//! while tests can pin [`IdGen::seeded`] for reproducible timelines.
//!
//! On the wire a context is a JSON object of fixed-width lowercase hex
//! strings — `{"trace_id":"<32 hex>","span_id":"<16 hex>",
//! "parent_span_id":"<16 hex>"}` — because JSON numbers cannot carry
//! 128 bits, and hex is what every tracing UI expects. An all-zero id
//! means "absent"; the generator never emits it.

use serde::{Deserialize, Error, Serialize, Value};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The identity one request carries across the wire: which trace it
/// belongs to, which span it *is*, and which span caused it.
///
/// `Copy` and 32 bytes, so it embeds in the allocation-free
/// [`crate::RequestSpan`] hot path. The default value (all zeros) means
/// "untraced".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit id shared by every span of one logical operation.
    pub trace_id: u128,
    /// This span's own 64-bit id.
    pub span_id: u64,
    /// The span that caused this one; 0 for a root span.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The "untraced" sentinel: all ids zero.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
    };

    /// Whether this context carries a real trace id.
    pub fn is_set(&self) -> bool {
        self.trace_id != 0
    }

    /// A child context in the same trace: fresh span id, this span as
    /// parent. This is what a client sends to the server.
    pub fn child(&self, ids: &IdGen) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: ids.next_span_id(),
            parent_span_id: self.span_id,
        }
    }

    /// The trace id as 32 lowercase hex digits.
    pub fn trace_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The span id as 16 lowercase hex digits.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// The parent span id as 16 lowercase hex digits.
    pub fn parent_hex(&self) -> String {
        format!("{:016x}", self.parent_span_id)
    }
}

/// Parses a 32-hex-digit trace id (the wire form). Rejects anything
/// that is not exactly 32 hex digits, so a truncated id cannot silently
/// alias another trace.
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Parses a 16-hex-digit span id (the wire form).
pub fn parse_span_id(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl Serialize for TraceContext {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("trace_id".to_string(), Value::Str(self.trace_hex())),
            ("span_id".to_string(), Value::Str(self.span_hex())),
            ("parent_span_id".to_string(), Value::Str(self.parent_hex())),
        ])
    }
}

impl Deserialize for TraceContext {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let hex = |name: &str| -> Result<String, Error> {
            match v.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                Some(other) => Err(Error::custom(format!(
                    "trace context field `{name}`: expected hex string, got {other:?}"
                ))),
                None => Err(Error::custom(format!(
                    "trace context missing field `{name}`"
                ))),
            }
        };
        let trace = hex("trace_id")?;
        let span = hex("span_id")?;
        let parent = hex("parent_span_id")?;
        Ok(TraceContext {
            trace_id: parse_trace_id(&trace)
                .ok_or_else(|| Error::custom(format!("bad trace_id {trace:?}")))?,
            span_id: parse_span_id(&span)
                .ok_or_else(|| Error::custom(format!("bad span_id {span:?}")))?,
            parent_span_id: parse_span_id(&parent)
                .ok_or_else(|| Error::custom(format!("bad parent_span_id {parent:?}")))?,
        })
    }
}

/// Per-process entropy that does not come from a clock: the OS-random
/// SipHash keys `RandomState` draws at first use, folded with the
/// process id.
fn process_entropy() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let state = std::collections::hash_map::RandomState::new();
        let mut h = state.build_hasher();
        h.write_u32(std::process::id());
        h.write_u64(0x5354_414c_4c4f_4321); // "STALLOC!" domain tag
        h.finish()
    })
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lock-free id source: a shared splitmix64 counter stream. `next_*`
/// performs one relaxed `fetch_add` plus arithmetic — no heap, no
/// clock, no lock — so minting ids is safe inside the allocation-free
/// request path.
#[derive(Debug)]
pub struct IdGen {
    state: AtomicU64,
}

impl IdGen {
    /// A generator seeded from per-process OS entropy.
    pub fn new() -> IdGen {
        IdGen::seeded(process_entropy())
    }

    /// A deterministic generator for tests and replayable harness runs.
    pub fn seeded(seed: u64) -> IdGen {
        IdGen {
            state: AtomicU64::new(seed),
        }
    }

    fn next_raw(&self) -> u64 {
        let x = self
            .state
            .fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed)
            .wrapping_add(SPLITMIX_GAMMA);
        splitmix_mix(x)
    }

    /// A fresh nonzero 64-bit span id.
    pub fn next_span_id(&self) -> u64 {
        loop {
            let id = self.next_raw();
            if id != 0 {
                return id;
            }
        }
    }

    /// A fresh nonzero 128-bit trace id.
    pub fn next_trace_id(&self) -> u128 {
        ((self.next_span_id() as u128) << 64) | self.next_span_id() as u128
    }

    /// A fresh root context: new trace, new span, no parent.
    pub fn root(&self) -> TraceContext {
        TraceContext {
            trace_id: self.next_trace_id(),
            span_id: self.next_span_id(),
            parent_span_id: 0,
        }
    }
}

impl Default for IdGen {
    fn default() -> Self {
        IdGen::new()
    }
}

/// The shared process-wide generator, for callers that do not carry
/// their own (CLI one-shots, the harness).
pub fn id_gen() -> &'static IdGen {
    static GEN: OnceLock<IdGen> = OnceLock::new();
    GEN.get_or_init(IdGen::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generator_is_deterministic_and_nonzero() {
        let a = IdGen::seeded(7);
        let b = IdGen::seeded(7);
        for _ in 0..100 {
            let ia = a.next_span_id();
            assert_eq!(ia, b.next_span_id());
            assert_ne!(ia, 0);
        }
        assert_eq!(a.next_trace_id(), b.next_trace_id());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = IdGen::seeded(1).next_trace_id();
        let b = IdGen::seeded(2).next_trace_id();
        assert_ne!(a, b);
    }

    #[test]
    fn child_keeps_trace_and_links_parent() {
        let ids = IdGen::seeded(42);
        let root = ids.root();
        assert!(root.is_set());
        assert_eq!(root.parent_span_id, 0);
        let child = root.child(&ids);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn hex_roundtrips_fixed_width() {
        let ctx = TraceContext {
            trace_id: 0xabc,
            span_id: 5,
            parent_span_id: 0,
        };
        assert_eq!(ctx.trace_hex().len(), 32);
        assert_eq!(ctx.span_hex().len(), 16);
        assert_eq!(parse_trace_id(&ctx.trace_hex()), Some(0xabc));
        assert_eq!(parse_span_id(&ctx.span_hex()), Some(5));
        assert_eq!(parse_trace_id("abc"), None, "short ids are rejected");
        assert_eq!(parse_span_id("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn wire_form_is_hex_strings_and_roundtrips() {
        let ids = IdGen::seeded(9);
        let ctx = ids.root().child(&ids);
        let json = serde_json::to_string(&ctx).unwrap();
        assert!(json.contains("\"trace_id\""));
        assert!(json.contains(&ctx.span_hex()));
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);

        // An untraced request carries no context; it must stay `None`.
        let opt: Option<TraceContext> = serde_json::from_str("null").unwrap();
        assert_eq!(opt, None);

        // Malformed ids are a decode error, not a silent zero.
        assert!(serde_json::from_str::<TraceContext>(
            r#"{"trace_id":"xyz","span_id":"0","parent_span_id":"0"}"#
        )
        .is_err());
    }

    #[test]
    fn process_generator_mints_distinct_ids_across_threads() {
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(|| {
                (0..64).map(|_| id_gen().next_span_id()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256, "no id collisions across threads");
    }
}
