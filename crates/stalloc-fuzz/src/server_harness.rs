//! Loopback server harness: fires mutated request streams at a live
//! `PlanServer` and checks *recovery*, not just rejection — a worker
//! that rejects a malformed frame must answer the next well-formed
//! request correctly, on a fresh connection (frame-level corruption
//! closes the stream) or on the same one (request-level corruption keeps
//! it open).

use crate::mutate::Mutator;
use rand::{Rng, SeedableRng, StdRng};
use stalloc_core::wire::{PlanEncoding, PlanRequest, PlanResponse, WireErrorKind};
use stalloc_core::{diff_profiles, fingerprint_job, SynthConfig};
use stalloc_served::{read_frame, write_frame, PlanServer, ServeConfig};
use stalloc_store::{encode_profile, encode_profile_delta};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Response shapes the harness must observe for full coverage: liveness,
/// real planning, and each typed rejection class the server can emit at
/// this trust boundary.
pub const REQUIRED_RESPONSES: &[&str] = &[
    "Pong",
    "Plan",
    "Metrics",
    "Trace",
    "NotFound",
    "Error:BadFrame",
    "Error:Oversized",
    "Error:BadRequest",
];

/// Per-request cap the harness server runs with (small, so an oversized
/// probe is cheap to express).
const HARNESS_MAX_FRAME: usize = 1 << 20;

const IO_TIMEOUT: Duration = Duration::from_secs(5);

pub struct ServerFuzzOutcome {
    pub executed: u64,
    pub violations: Vec<String>,
    pub missing: Vec<String>,
}

/// Runs the loopback harness for `iters` scenarios (capped at 256 — each
/// is a real TCP round trip). Deterministic for a given seed.
pub fn fuzz_server(iters: u64, seed: u64) -> ServerFuzzOutcome {
    let handle = match PlanServer::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        max_frame: HARNESS_MAX_FRAME,
        store_dir: None,
        lru_capacity: 16,
        poll_tick: Duration::from_millis(10),
        idle_timeout: Duration::from_secs(10),
        trace_log: None,
        trace_log_max_bytes: None,
        slowest: 16,
        metrics_addr: None,
    }) {
        Ok(h) => h,
        Err(e) => {
            return ServerFuzzOutcome {
                executed: 0,
                violations: vec![format!("server failed to start: {e}")],
                missing: REQUIRED_RESPONSES.iter().map(|s| s.to_string()).collect(),
            }
        }
    };
    let addr = handle.addr();

    // One tiny job, synthesized once server-side then a cache hit.
    let profile = crate::corpus::zoo_profile(0);
    let config = SynthConfig::default();
    let expected_fp = fingerprint_job(&profile, &config).to_hex();
    let prof_bytes = encode_profile(&profile);
    // Deterministic trace ids: the seed frames carry a wire trace
    // context so mutation probes the trace-field decode path too.
    let ids = stalloc_obs::IdGen::seeded(seed ^ 0x7ace_7ace);
    let plan_req = serde_json::to_string(&PlanRequest::Plan {
        profile: profile.clone(),
        config,
        encoding: Some(PlanEncoding::Json),
        trace: Some(ids.root().child(&ids)),
    })
    .expect("request serializes")
    .into_bytes();
    let mut framed_plan_req = Vec::new();
    write_frame(&mut framed_plan_req, &plan_req).expect("vec write");
    // Every verb the protocol knows is a mutation seed: corruption near a
    // short `Metrics`/`Ping` frame probes different decoder branches
    // than the big `Plan` payload does.
    // The delta family member the PlanDelta scenarios plan: a couple of
    // grown activations against the base profile above.
    let next_profile = {
        let mut p = profile.clone();
        for r in p.statics.iter_mut().skip(p.init_count).take(2) {
            r.size += 4096;
        }
        p
    };
    let delta_bytes = encode_profile_delta(&diff_profiles(&profile, &next_profile));
    let mut seeds: Vec<Vec<u8>> = vec![framed_plan_req];
    for verb in [
        PlanRequest::Metrics,
        PlanRequest::Ping,
        PlanRequest::TraceGet {
            trace_id: ids.root().trace_hex(),
        },
        // The PlanDelta header + its PRFD frame as one stream: mutation
        // probes both the header decode and the edit-script decode.
        PlanRequest::PlanDelta {
            config,
            encoding: Some(PlanEncoding::Json),
            bytes: delta_bytes.len() as u64,
            trace: None,
        },
    ] {
        let mut framed = Vec::new();
        let payload = serde_json::to_string(&verb).expect("verb serializes");
        write_frame(&mut framed, payload.as_bytes()).expect("vec write");
        if matches!(verb, PlanRequest::PlanDelta { .. }) {
            write_frame(&mut framed, &delta_bytes).expect("vec write");
        }
        seeds.push(framed);
    }

    let n = iters.clamp(1, 256);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_5e4e);
    let mut mutator = Mutator::new(seed ^ 0x00ba_df00);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut violations = Vec::new();

    for i in 0..n {
        let scenario = rng.gen_range(0u32..10);
        let result = match scenario {
            0 => garbage_then_recover(addr, &mut mutator, &seeds, &mut seen),
            1 => bad_payload_is_typed(addr, &mut seen),
            2 => oversized_header_is_typed(addr, &mut seen),
            3 => corrupt_profile_keeps_connection(addr, &prof_bytes, &config, &mut seen),
            4 => valid_plan_request(addr, &plan_req, &expected_fp, &mut seen),
            5 => metrics_is_consistent(addr, &plan_req, &mut seen),
            6 => valid_profile_bin(addr, &prof_bytes, &config, &expected_fp, &mut seen),
            7 => plan_delta_patches(
                addr,
                &plan_req,
                &next_profile,
                &delta_bytes,
                &config,
                &mut seen,
            ),
            8 => delta_unknown_base_is_not_found(addr, &profile, &next_profile, &config, &mut seen),
            _ => trace_get_finds_the_span(addr, &profile, &config, &ids, &mut seen),
        };
        if let Err(v) = result {
            violations.push(format!("iter {i} scenario {scenario}: {v}"));
            if violations.len() >= 8 {
                break;
            }
        }
    }

    handle.shutdown();
    let missing = REQUIRED_RESPONSES
        .iter()
        .filter(|r| !seen.contains(**r))
        .map(|r| r.to_string())
        .collect();
    ServerFuzzOutcome {
        executed: n,
        violations,
        missing,
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

fn read_response(s: &mut TcpStream) -> Result<Option<PlanResponse>, String> {
    match read_frame(s, HARNESS_MAX_FRAME) {
        Ok(Some(payload)) => {
            let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
            let resp: PlanResponse =
                serde_json::from_str(text).map_err(|e| format!("unparseable response: {e}"))?;
            Ok(Some(resp))
        }
        Ok(None) => Ok(None),
        Err(e) => Err(format!("reading response: {e}")),
    }
}

fn record(seen: &mut BTreeSet<String>, resp: &PlanResponse) {
    let label = match resp {
        PlanResponse::Pong => "Pong".to_string(),
        PlanResponse::Plan { .. } => "Plan".to_string(),
        PlanResponse::PlanBin { .. } => "PlanBin".to_string(),
        PlanResponse::NotFound { .. } => "NotFound".to_string(),
        PlanResponse::Metrics { .. } => "Metrics".to_string(),
        PlanResponse::Trace { .. } => "Trace".to_string(),
        PlanResponse::Error { kind, .. } => format!("Error:{kind:?}"),
    };
    seen.insert(label);
}

fn ping(s: &mut TcpStream, seen: &mut BTreeSet<String>) -> Result<(), String> {
    let payload = serde_json::to_string(&PlanRequest::Ping)
        .expect("ping serializes")
        .into_bytes();
    write_frame(s, &payload).map_err(|e| format!("sending ping: {e}"))?;
    match read_response(s)? {
        Some(PlanResponse::Pong) => {
            seen.insert("Pong".into());
            Ok(())
        }
        Some(other) => Err(format!("ping answered with {other:?}")),
        None => Err("connection closed instead of Pong".into()),
    }
}

/// Scenario: a mutated request stream. Any typed error, valid response,
/// or connection drop is acceptable *for this connection* — the oracle
/// is that a fresh connection immediately after must serve Ping.
fn garbage_then_recover(
    addr: SocketAddr,
    mutator: &mut Mutator,
    seeds: &[Vec<u8>],
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let seed = &seeds[mutator.pick_index(seeds.len())];
    let garbage = mutator.mutate(seed);
    if let Ok(mut s) = connect(addr) {
        let _ = s.write_all(&garbage);
        let _ = s.shutdown(Shutdown::Write);
        // Best-effort read: the server may answer typed, or the close
        // may race the response away (RST after unread input). Either
        // way the stream is done; what matters is recovery below.
        if let Ok(Some(resp)) = read_response(&mut s) {
            record(seen, &resp);
        }
    }
    let mut fresh = connect(addr)?;
    ping(&mut fresh, seen)
        .map_err(|e| format!("worker did not recover after a malformed stream: {e}"))
}

/// Well-formed frames that are not requests: plain garbage, and the two
/// shapes that are hostile to the JSON parser itself — nesting deep enough
/// to overflow a parser that recurses per bracket (which aborts the
/// daemon; no `catch_unwind` stops that), and one string long enough to
/// stall a parser that is not linear in it.
fn not_a_request_payloads() -> [Vec<u8>; 3] {
    [
        b"this is not a request".to_vec(),
        vec![b'['; 100_000],
        format!("\"{}\"", "x".repeat(256 << 10)).into_bytes(),
    ]
}

/// Scenario: a well-formed frame whose payload is not a request. The
/// server consumes the whole frame, so the typed `BadFrame` answer is
/// deterministic; the connection then closes (stream unsynchronized).
fn bad_payload_is_typed(addr: SocketAddr, seen: &mut BTreeSet<String>) -> Result<(), String> {
    for payload in not_a_request_payloads() {
        let mut s = connect(addr)?;
        write_frame(&mut s, &payload).map_err(|e| e.to_string())?;
        match read_response(&mut s)? {
            Some(
                resp @ PlanResponse::Error {
                    kind: WireErrorKind::BadFrame,
                    ..
                },
            ) => {
                record(seen, &resp);
            }
            other => return Err(format!("expected BadFrame error, got {other:?}")),
        }
        // The stream must be closed now.
        match read_response(&mut s) {
            Ok(None) | Err(_) => {}
            Ok(Some(r)) => return Err(format!("connection stayed open after BadFrame: {r:?}")),
        }
        let mut fresh = connect(addr)?;
        ping(&mut fresh, seen)?;
    }
    Ok(())
}

/// Scenario: a header declaring more than the server's frame cap. The
/// server rejects before reading the payload — sending *only* the header
/// keeps the socket drained, so the typed answer is deterministic.
fn oversized_header_is_typed(addr: SocketAddr, seen: &mut BTreeSet<String>) -> Result<(), String> {
    let mut s = connect(addr)?;
    s.write_all(format!("{}\n", HARNESS_MAX_FRAME + 1).as_bytes())
        .map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(
            resp @ PlanResponse::Error {
                kind: WireErrorKind::Oversized,
                ..
            },
        ) => {
            record(seen, &resp);
        }
        other => return Err(format!("expected Oversized error, got {other:?}")),
    }
    let mut fresh = connect(addr)?;
    ping(&mut fresh, seen)
}

/// Scenario: a `ProfileBin` header whose follow-up frame is a corrupt
/// `PROF` stream. This is *request*-level corruption — framing stayed
/// intact — so the typed answer is `BadRequest` and the **same**
/// connection must serve the next request.
fn corrupt_profile_keeps_connection(
    addr: SocketAddr,
    prof_bytes: &[u8],
    config: &SynthConfig,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let mut corrupt = prof_bytes.to_vec();
    corrupt[4] = 0xff; // version 0xff__: UnsupportedVersion, guaranteed
    let header = serde_json::to_string(&PlanRequest::ProfileBin {
        config: *config,
        encoding: Some(PlanEncoding::Json),
        bytes: corrupt.len() as u64,
        trace: None,
    })
    .expect("header serializes")
    .into_bytes();

    let mut s = connect(addr)?;
    write_frame(&mut s, &header).map_err(|e| e.to_string())?;
    write_frame(&mut s, &corrupt).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(
            resp @ PlanResponse::Error {
                kind: WireErrorKind::BadRequest,
                ..
            },
        ) => {
            record(seen, &resp);
        }
        other => return Err(format!("expected BadRequest error, got {other:?}")),
    }
    // In-connection recovery: same socket, next request answers.
    ping(&mut s, seen).map_err(|e| format!("connection did not survive a BadRequest: {e}"))
}

/// Scenario: a valid JSON `Plan` request; the response fingerprint must
/// match the locally computed one (the client-side trust check).
fn valid_plan_request(
    addr: SocketAddr,
    plan_req: &[u8],
    expected_fp: &str,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let mut s = connect(addr)?;
    write_frame(&mut s, plan_req).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => {
            if let PlanResponse::Plan { fingerprint, .. } = &resp {
                if fingerprint != expected_fp {
                    return Err(format!(
                        "fingerprint mismatch: server {fingerprint}, local {expected_fp}"
                    ));
                }
            }
            record(seen, &resp);
            Ok(())
        }
        other => Err(format!("expected Plan response, got {other:?}")),
    }
}

/// Scenario: a `Plan` then a `Metrics` on the *same* keep-alive
/// connection. The worker records the plan's span before it reads the
/// next frame, so the metrics snapshot must already include it — and the
/// per-tier histogram counts can never run ahead of the counters they
/// mirror (spans are recorded strictly after the counter bump).
fn metrics_is_consistent(
    addr: SocketAddr,
    plan_req: &[u8],
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let mut s = connect(addr)?;
    write_frame(&mut s, plan_req).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => record(seen, &resp),
        other => return Err(format!("expected Plan response, got {other:?}")),
    }
    let payload = serde_json::to_string(&PlanRequest::Metrics)
        .expect("metrics serializes")
        .into_bytes();
    write_frame(&mut s, &payload).map_err(|e| e.to_string())?;
    let metrics = match read_response(&mut s)? {
        Some(resp @ PlanResponse::Metrics { .. }) => {
            record(seen, &resp);
            match resp {
                PlanResponse::Metrics { metrics } => metrics,
                _ => unreachable!(),
            }
        }
        other => return Err(format!("expected Metrics response, got {other:?}")),
    };
    let stats = metrics.stats;
    let tier_sum: u64 = metrics.tiers.iter().map(|t| t.hist.total()).sum();
    let counter_sum =
        stats.lru_hits + stats.store_hits + stats.misses + stats.coalesced + stats.delta_patched;
    if tier_sum == 0 {
        return Err("tier histograms empty right after a served Plan".into());
    }
    if tier_sum > counter_sum {
        return Err(format!(
            "tier histogram counts ({tier_sum}) ran ahead of the \
             hit/miss counters ({counter_sum})"
        ));
    }
    // The span ring must have retained something, and every snapshot it
    // hands out carries one slot per phase.
    if metrics.slowest.is_empty() {
        return Err("no slowest spans retained after a served Plan".into());
    }
    for span in &metrics.slowest {
        if span.phase_micros.len() != stalloc_obs::PHASE_COUNT {
            return Err(format!(
                "span #{} carries {} phase slots, expected {}",
                span.seq,
                span.phase_micros.len(),
                stalloc_obs::PHASE_COUNT
            ));
        }
    }
    Ok(())
}

/// Scenario: the same job over the binary profile path.
fn valid_profile_bin(
    addr: SocketAddr,
    prof_bytes: &[u8],
    config: &SynthConfig,
    expected_fp: &str,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let header = serde_json::to_string(&PlanRequest::ProfileBin {
        config: *config,
        encoding: Some(PlanEncoding::Json),
        bytes: prof_bytes.len() as u64,
        trace: None,
    })
    .expect("header serializes")
    .into_bytes();
    let mut s = connect(addr)?;
    write_frame(&mut s, &header).map_err(|e| e.to_string())?;
    write_frame(&mut s, prof_bytes).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => {
            if let PlanResponse::Plan { fingerprint, .. } = &resp {
                if fingerprint != expected_fp {
                    return Err(format!(
                        "fingerprint mismatch over binary path: server {fingerprint}, local {expected_fp}"
                    ));
                }
            }
            record(seen, &resp);
            Ok(())
        }
        other => Err(format!("expected Plan response, got {other:?}")),
    }
}

/// Scenario: a `Plan` for the base (seeding the server's base plan and
/// profile), then a `PlanDelta` edit script on the *same* connection.
/// The answer must be a `Plan` whose fingerprint matches the locally
/// computed fingerprint of the *next* profile — the client-side trust
/// check that the server applied the script to the right base.
fn plan_delta_patches(
    addr: SocketAddr,
    plan_req: &[u8],
    next_profile: &stalloc_core::ProfiledRequests,
    delta_bytes: &[u8],
    config: &SynthConfig,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let mut s = connect(addr)?;
    write_frame(&mut s, plan_req).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => record(seen, &resp),
        other => {
            return Err(format!(
                "expected Plan response for the base, got {other:?}"
            ))
        }
    }
    let header = serde_json::to_string(&PlanRequest::PlanDelta {
        config: *config,
        encoding: Some(PlanEncoding::Json),
        bytes: delta_bytes.len() as u64,
        trace: None,
    })
    .expect("header serializes")
    .into_bytes();
    write_frame(&mut s, &header).map_err(|e| e.to_string())?;
    write_frame(&mut s, delta_bytes).map_err(|e| e.to_string())?;
    let expected = fingerprint_job(next_profile, config).to_hex();
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => {
            if let PlanResponse::Plan { fingerprint, .. } = &resp {
                if *fingerprint != expected {
                    return Err(format!(
                        "delta answered fingerprint {fingerprint}, locally computed {expected}"
                    ));
                }
            }
            record(seen, &resp);
        }
        other => return Err(format!("expected a patched Plan response, got {other:?}")),
    }
    // The connection stays synchronized after the two-frame verb.
    ping(&mut s, seen).map_err(|e| format!("connection did not survive a PlanDelta: {e}"))
}

/// Scenario: an edit script against a base the server has never seen.
/// The typed answer is `NotFound` carrying the base fingerprint — the
/// signal a real client turns into a transparent full retry — and the
/// same connection must serve the next request.
fn delta_unknown_base_is_not_found(
    addr: SocketAddr,
    profile: &stalloc_core::ProfiledRequests,
    next_profile: &stalloc_core::ProfiledRequests,
    config: &SynthConfig,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    // A stranger base: a profile variant never sent to the server.
    let mut stranger = profile.clone();
    if let Some(r) = stranger.statics.first_mut() {
        r.size += 1;
    }
    let delta = diff_profiles(&stranger, next_profile);
    let bytes = encode_profile_delta(&delta);
    let header = serde_json::to_string(&PlanRequest::PlanDelta {
        config: *config,
        encoding: Some(PlanEncoding::Json),
        bytes: bytes.len() as u64,
        trace: None,
    })
    .expect("header serializes")
    .into_bytes();
    let mut s = connect(addr)?;
    write_frame(&mut s, &header).map_err(|e| e.to_string())?;
    write_frame(&mut s, &bytes).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::NotFound { .. }) => {
            if let PlanResponse::NotFound { fingerprint } = &resp {
                let expected = delta.base.to_hex();
                if *fingerprint != expected {
                    return Err(format!(
                        "NotFound names {fingerprint}, sent base {expected}"
                    ));
                }
            }
            record(seen, &resp);
        }
        other => {
            return Err(format!(
                "expected NotFound for a stranger base, got {other:?}"
            ))
        }
    }
    ping(&mut s, seen).map_err(|e| format!("connection did not survive a NotFound: {e}"))
}

/// Scenario: a `Plan` carrying a fresh wire trace context, then a
/// `TraceGet` for that trace id on the *same* connection. The worker
/// records the span — propagated ids intact, not server-minted — before
/// reading the next frame, so the `Trace` response must already hold
/// exactly that span.
fn trace_get_finds_the_span(
    addr: SocketAddr,
    profile: &stalloc_core::ProfiledRequests,
    config: &SynthConfig,
    ids: &stalloc_obs::IdGen,
    seen: &mut BTreeSet<String>,
) -> Result<(), String> {
    let ctx = ids.root().child(ids);
    let req = serde_json::to_string(&PlanRequest::Plan {
        profile: profile.clone(),
        config: *config,
        encoding: Some(PlanEncoding::Json),
        trace: Some(ctx),
    })
    .expect("request serializes")
    .into_bytes();
    let mut s = connect(addr)?;
    write_frame(&mut s, &req).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Plan { .. }) => record(seen, &resp),
        other => return Err(format!("expected Plan response, got {other:?}")),
    }
    let tg = serde_json::to_string(&PlanRequest::TraceGet {
        trace_id: ctx.trace_hex(),
    })
    .expect("trace-get serializes")
    .into_bytes();
    write_frame(&mut s, &tg).map_err(|e| e.to_string())?;
    match read_response(&mut s)? {
        Some(resp @ PlanResponse::Trace { .. }) => {
            if let PlanResponse::Trace { trace_id, spans } = &resp {
                if *trace_id != ctx.trace_hex() {
                    return Err(format!(
                        "Trace echoed id {trace_id}, asked for {}",
                        ctx.trace_hex()
                    ));
                }
                if spans.is_empty() {
                    return Err("TraceGet found no span for a just-served traced Plan".into());
                }
                for span in spans {
                    if span.trace_id != ctx.trace_hex() || span.span_id != ctx.span_hex() {
                        return Err(format!(
                            "server recorded ids {}/{} instead of the propagated {}/{}",
                            span.trace_id,
                            span.span_id,
                            ctx.trace_hex(),
                            ctx.span_hex()
                        ));
                    }
                }
            }
            record(seen, &resp);
            Ok(())
        }
        other => Err(format!("expected Trace response, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_harness_passes_with_full_coverage() {
        let outcome = fuzz_server(48, 7);
        assert_eq!(outcome.violations, Vec::<String>::new());
        assert_eq!(outcome.missing, Vec::<String>::new());
        assert_eq!(outcome.executed, 48);
    }

    #[test]
    fn the_not_a_request_scenario_sends_both_hostile_shapes() {
        let payloads = not_a_request_payloads();
        assert!(payloads
            .iter()
            .any(|p| p.len() >= 100_000 && p.iter().all(|&b| b == b'[')));
        assert!(payloads
            .iter()
            .any(|p| p.len() >= 256 << 10 && p.starts_with(b"\"x") && p.ends_with(b"x\"")));

        let server = PlanServer::start(ServeConfig {
            max_frame: HARNESS_MAX_FRAME,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut seen = BTreeSet::new();
        bad_payload_is_typed(server.addr(), &mut seen).unwrap();
        assert_eq!(server.stats().errors, payloads.len() as u64);
        assert!(seen.contains("Error:BadFrame") && seen.contains("Pong"));
        server.shutdown();
    }
}
