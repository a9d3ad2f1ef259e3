//! Distributed tracing over the wire trust boundary:
//!
//! * a request with no `trace` field still gets server-minted root ids,
//!   so its trace-log line is addressable;
//! * against a server that rejects every verb, the failure is typed and
//!   the client's own span is complete regardless;
//! * client → server (loopback): the propagated trace id shows up
//!   verbatim in the server's span ring and its JSONL trace log,
//!   parented on the client's span.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use stalloc_core::wire::{PlanRequest, PlanResponse, PlanSource, WireErrorKind};
use stalloc_core::{profile_trace, SynthConfig};
use stalloc_obs::ClientPhase;
use stalloc_served::{
    read_frame, write_frame, ClientError, PlanClient, PlanServer, ServeConfig, DEFAULT_MAX_FRAME,
};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn sample_profile() -> stalloc_core::ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(2)
    .with_iterations(1)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// Reads `path` until `needle` shows up (the server logs a span *after*
/// writing the response, so the line can trail the reply briefly).
fn wait_for_log_line(path: &std::path::Path, needle: &str) -> String {
    for _ in 0..50 {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(line) = text.lines().find(|l| l.contains(needle)) {
                return line.to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "no line containing {needle:?} appeared in {}",
        path.display()
    );
}

fn log_field(line: &str, key: &str) -> String {
    let v: serde::Value = serde_json::from_str(line).unwrap();
    match v.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("{key} in {line}: {other:?}"),
    }
}

/// A `Plan` request with no `trace` key at all: the server must mint
/// root ids so the request is still addressable in the trace log and
/// span ring.
#[test]
fn request_without_trace_context_gets_server_minted_ids() {
    let dir = std::env::temp_dir().join(format!("stalloc-trc-old-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_p = dir.join("trace.jsonl");

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        trace_log: Some(log_p.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    // A Plan request with the trace key spliced out (covers both
    // encoders — ones that skip a `None` and ones that write `null`).
    let request = PlanRequest::Plan {
        profile: sample_profile(),
        config: SynthConfig::default(),
        encoding: None,
        trace: None,
    };
    let json = serde_json::to_string(&request)
        .unwrap()
        .replace(",\"trace\":null", "")
        .replace("\"trace\":null,", "");
    assert!(
        !json.contains("trace"),
        "the request must carry no trace key"
    );

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(&mut stream, json.as_bytes()).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("a response, not a dropped connection")
        .expect("a response frame, not EOF");
    let response: PlanResponse =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(
        matches!(response, PlanResponse::Plan { .. }),
        "traceless requests still plan: {response:?}"
    );

    // The log line carries fresh, nonzero, *root* ids.
    let line = wait_for_log_line(&log_p, "\"verb\":\"Plan\"");
    let trace_id = log_field(&line, "trace_id");
    assert_eq!(trace_id.len(), 32, "{line}");
    assert_ne!(trace_id, "0".repeat(32), "a real minted id");
    assert_eq!(
        log_field(&line, "parent_span_id"),
        "0000000000000000",
        "server-minted ids are a trace root"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server that answers every verb with a typed `BadFrame` — and
/// whatever the server does, the client's own span stays complete, so a
/// one-sided timeline is always available.
#[test]
fn server_rejecting_every_verb_leaves_a_complete_client_span() {
    // A fake server: rejects every verb the way the real one rejects a
    // verb it does not have, then hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().unwrap();
            while let Ok(Some(_)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
                let reply = serde_json::to_string(&PlanResponse::Error {
                    kind: WireErrorKind::BadFrame,
                    message: "unknown verb".into(),
                })
                .unwrap();
                if write_frame(&mut conn, reply.as_bytes()).is_err() {
                    break;
                }
                let _ = conn.flush();
            }
        }
    });

    // The span-fetching verb itself: a typed error, not a hang/panic.
    let mut client = PlanClient::connect(addr).unwrap();
    let err = client.trace_get(&"a".repeat(32)).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { .. }),
        "the rejection is typed: {err}"
    );

    // A traced request against the same server: the call fails typed,
    // but the client half of the trace is fully recorded. (Drop first —
    // shadowing would keep connection 1 open and stall the accept loop.)
    drop(client);
    let mut client = PlanClient::connect(addr).unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err}");
    let span = client.last_span().expect("span recorded despite the error");
    assert_eq!(span.verb, "Ping");
    assert!(span.total_micros > 0, "a finished span has a total");
    for phase in [ClientPhase::Encode, ClientPhase::Write, ClientPhase::Await] {
        assert!(
            span.phase_micros(phase).is_some(),
            "{} was entered even though the server balked",
            phase.name()
        );
    }
    assert!(span.trace.is_set(), "client ids minted locally");

    // Close connection 2 so the fake's blocking read sees EOF.
    drop(client);
    fake.join().unwrap();
}

/// Loopback end to end: the trace id the client minted rides the wire,
/// lands in the server's span ring parented on the client's span, and
/// is written verbatim to the JSONL trace log.
#[test]
fn loopback_propagates_the_client_trace_id_end_to_end() {
    let dir = std::env::temp_dir().join(format!("stalloc-trc-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_p = dir.join("trace.jsonl");

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        slowest: 5,
        trace_log: Some(log_p.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    // The retention knob is on the stats wire for `stalloc serve
    // --slowest` to introspect.
    assert_eq!(server.stats().slowest_capacity, 5);

    let mut client = PlanClient::connect(server.addr()).unwrap();
    client
        .plan(&sample_profile(), &SynthConfig::default())
        .unwrap();
    let client_span = client.last_span().expect("plan records a client span");
    let trace_hex = client.trace_context().trace_hex();

    // Same keep-alive connection: the worker recorded the plan's span
    // before reading this next frame, so the lookup is deterministic.
    let spans = client.trace_get(&trace_hex).unwrap();
    assert!(!spans.is_empty(), "the plan span is in the ring");
    for span in &spans {
        assert_eq!(span.trace_id, trace_hex, "propagated id, not minted");
    }
    // The wire verb depends on the profile encoding the client picked
    // (binary profiles arrive as `ProfileBin`).
    let plan_span = spans
        .iter()
        .find(|s| s.verb == "Plan" || s.verb == "ProfileBin")
        .unwrap();
    assert_eq!(
        plan_span.parent_span_id,
        client_span.trace.span_hex(),
        "server span parented on the client request span"
    );

    // The same id is on disk for offline `stalloc trace chrome` merges.
    let line = wait_for_log_line(&log_p, &trace_hex);
    assert_eq!(log_field(&line, "verb"), plan_span.verb);
    assert_eq!(log_field(&line, "trace_id"), trace_hex);

    // An unknown (but well-formed) id answers empty, not an error; a
    // malformed id is a typed rejection.
    let spans = client.trace_get(&"f".repeat(32)).unwrap();
    assert!(spans.is_empty());
    let err = client.trace_get("zz").unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The client span says where a request's time went: on a binary plan
/// response the seven phases add up to (nearly) the total, the client's
/// soundness check of the received plan included — it is billed to
/// `Validate`, apart from `Decode`. Measured on LRU hits, where the
/// server's share (`Await`) is smallest and client time nobody clocked
/// would show most.
#[test]
fn client_span_phases_account_for_a_binary_plan_response() {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1).with_vpp(2),
        OptimConfig::r(),
    )
    .with_mbs(2)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(1)
    .build_trace()
    .unwrap();
    let profile = profile_trace(&trace, 1).unwrap();
    let config = SynthConfig::default();

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = PlanClient::connect(server.addr()).unwrap();
    client.plan(&profile, &config).unwrap();

    // Best of five: a preemption between two phases is not a hole in the
    // accounting, a phase that never starts its clock is in all five.
    let mut best = 0.0f64;
    for _ in 0..5 {
        let remote = client.plan(&profile, &config).unwrap();
        assert_eq!(remote.source, PlanSource::Lru);
        let span = client.last_span().expect("plan records a client span");
        assert!(
            span.phase_micros(ClientPhase::Read).is_some(),
            "the plan came as a raw binary frame"
        );
        for phase in [ClientPhase::Decode, ClientPhase::Validate] {
            assert!(
                span.phase_micros(phase).is_some(),
                "{} is clocked on its own",
                phase.name()
            );
        }
        let clocked: u64 = span.entered().map(|(_, micros)| micros).sum();
        best = best.max(clocked as f64 / span.total_micros as f64);
    }
    assert!(
        best >= 0.9,
        "the phases cover {:.0}% of the request, the rest is attributable to nothing",
        best * 100.0
    );

    server.shutdown();
}
