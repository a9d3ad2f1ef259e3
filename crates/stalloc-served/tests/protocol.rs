//! Wire-protocol robustness: malformed frames, oversized payloads, and
//! mid-stream disconnects must produce typed errors and never poison a
//! worker — the same worker pool must keep serving well-formed traffic
//! afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;

use stalloc_core::wire::WireErrorKind;
use stalloc_core::{profile_trace, ProfiledRequests, SynthConfig};
use stalloc_served::{read_frame, ClientError, PlanClient, PlanServer, ServeConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn small_profile() -> ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(2)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// Reads the server's one response frame off a raw socket as a string.
fn read_error_frame(stream: &mut TcpStream) -> String {
    let frame = read_frame(stream, 1 << 20)
        .expect("server answers with a frame")
        .expect("server answers before closing");
    String::from_utf8(frame).expect("responses are JSON text")
}

/// The server must still serve a real request — proof the worker that saw
/// the malformed traffic is not poisoned.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = PlanClient::connect(addr).unwrap();
    client
        .ping()
        .expect("server still answers after bad client");
}

#[test]
fn malformed_header_gets_typed_error_and_worker_survives() {
    // One worker: the same thread that sees the garbage must serve the
    // follow-up request.
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"this is not a length header\n").unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("BadFrame"), "typed error, got: {resp}");
    // The stream is unsynchronized; the server closes it.
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no further frames after a bad header");

    assert_still_serving(server.addr());
    assert!(server.stats().errors >= 1);
    server.shutdown();
}

#[test]
fn oversized_payload_is_rejected_before_read() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        max_frame: 1024,
        ..ServeConfig::default()
    })
    .unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // Declare 1 MiB against a 1 KiB limit; send no payload. The server
    // must reject on the header alone.
    raw.write_all(b"1048576\n").unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("Oversized"), "typed error, got: {resp}");

    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn bad_json_payload_gets_typed_error() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // Not a request at all, and a verb this server does not have.
    for payload in [&b"{\"not\": \"a request\"}"[..], br#""VerbFromTheFuture""#] {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        stalloc_served::write_frame(&mut raw, payload).unwrap();
        let resp = read_error_frame(&mut raw);
        assert!(resp.contains("BadFrame"), "typed error, got: {resp}");
        assert_still_serving(server.addr());
    }
    server.shutdown();
}

#[test]
fn hostile_json_frames_get_bad_frame_and_the_daemon_survives() {
    // Both frames are well-formed and far under `max_frame`. The first
    // used to overflow the worker's stack in the JSON parser, which
    // aborts the whole process (no `catch_unwind` stops that); the second
    // used to pin the worker for hours re-validating the string per
    // character.
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    let hostile = ["[".repeat(100_000), format!("\"{}\"", "x".repeat(1 << 20))];
    for (i, payload) in hostile.iter().enumerate() {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        stalloc_served::write_frame(&mut raw, payload.as_bytes()).unwrap();
        // The error text quotes only the head of the value that is not a
        // request: the answer to the 1 MiB string frame used to be 1 MiB.
        let resp = read_frame(&mut raw, stalloc_served::DEFAULT_MAX_FRAME)
            .expect("server answers with a frame")
            .expect("server answers before closing");
        assert!(resp.len() < 1024, "a {}-byte answer", resp.len());
        let resp = String::from_utf8_lossy(&resp).into_owned();
        assert!(resp.contains("BadFrame"), "typed error, got: {resp}");
        assert_eq!(server.stats().errors, i as u64 + 1);
        assert_still_serving(server.addr());
    }
    server.shutdown();
}

#[test]
fn midstream_disconnect_does_not_poison_worker() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // Promise 64 KiB, deliver 10 bytes, vanish.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"65536\n0123456789").unwrap();
        raw.flush().unwrap();
    } // dropped: RST/EOF mid-payload

    // And once more with zero payload bytes after the header.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"65536\n").unwrap();
        raw.flush().unwrap();
    }

    assert_still_serving(server.addr());
    server.shutdown();
}

#[test]
fn bad_trace_id_is_bad_request_and_connection_survives() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // The typed client cannot produce a malformed trace id, so speak
    // the protocol by hand.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    stalloc_served::write_frame(&mut raw, br#"{"TraceGet": {"trace_id": "wat"}}"#).unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("BadRequest"), "typed error, got: {resp}");

    // A BadRequest leaves the frame boundary intact: the *same*
    // connection keeps working.
    stalloc_served::write_frame(&mut raw, br#""Ping""#).unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("Pong"), "connection survives: {resp}");

    server.shutdown();
}

/// `Stats` and `Get` are not verbs: a peer that still sends one gets a
/// typed `BadFrame`, as for any other unknown request, and the server
/// keeps serving.
#[test]
fn retired_verbs_are_bad_frames() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let fingerprint = "a".repeat(32);
    let get = format!(r#"{{"Get": {{"fingerprint": "{fingerprint}"}}}}"#);
    for frame in [r#""Stats""#, get.as_str()] {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        stalloc_served::write_frame(&mut raw, frame.as_bytes()).unwrap();
        let resp = read_error_frame(&mut raw);
        assert!(resp.contains("BadFrame"), "{frame}: got {resp}");
    }
    assert_still_serving(server.addr());
    assert_eq!(server.stats().errors, 2);
    server.shutdown();
}

#[test]
fn every_wire_encoding_pair_serves_one_cache_entry() {
    use stalloc_core::wire::{PlanEncoding, ProfileEncoding};

    let server = PlanServer::start(ServeConfig::default()).unwrap();
    let profile = small_profile();
    let config = SynthConfig::default();

    // The client default (binary both ways) plans first and synthesizes;
    // every other pair of profile and plan encodings is the same job.
    // Binary profiles are fingerprinted from their raw `PROF` bytes and
    // JSON ones from the decoded value, so the three later requests hit
    // only if both walks give one digest.
    let mut served = Vec::new();
    let mut first = None;
    for profile_enc in [ProfileEncoding::Binary, ProfileEncoding::Json] {
        for plan_enc in [PlanEncoding::Binary, PlanEncoding::Json] {
            let mut client = PlanClient::connect(server.addr())
                .unwrap()
                .with_profile_encoding(profile_enc)
                .with_encoding(plan_enc);
            let remote = client.plan(&profile, &config).unwrap();
            let pair = format!("{profile_enc:?}/{plan_enc:?}");
            assert_eq!(remote.source.is_hit(), first.is_some(), "{pair}");
            served.push((pair, remote));
            first.get_or_insert(client);
        }
    }
    let (_, reference) = &served[0];
    let reference_bytes = stalloc_store::encode_plan(&reference.plan);
    for (pair, remote) in &served[1..] {
        assert_eq!(remote.fingerprint, reference.fingerprint, "{pair}");
        assert_eq!(
            stalloc_store::encode_plan(&remote.plan),
            reference_bytes,
            "{pair}"
        );
    }
    let stats = server.stats();
    assert_eq!((stats.misses, stats.hits()), (1, 3), "{stats:?}");

    // The first keep-alive connection stays frame-synchronized after
    // its binary exchange.
    first.unwrap().ping().unwrap();
    server.shutdown();
}

#[test]
fn profile_bin_length_mismatch_is_typed_and_closes() {
    use stalloc_core::wire::PlanRequest;
    use stalloc_served::write_frame;

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    let raw_profile = stalloc_store::encode_profile(&small_profile());
    let header = PlanRequest::ProfileBin {
        config: SynthConfig::default(),
        encoding: None,
        bytes: raw_profile.len() as u64 + 7, // lie about the length
        trace: None,
    };
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, serde_json::to_string(&header).unwrap().as_bytes()).unwrap();
    write_frame(&mut raw, &raw_profile).unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("BadFrame"), "typed error, got: {resp}");
    // The stream is unsynchronized; the server closes it.
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no further frames after the error");

    // The same worker keeps serving, and real binary requests work.
    assert_still_serving(server.addr());
    let mut client = PlanClient::connect(server.addr()).unwrap();
    client
        .plan(&small_profile(), &SynthConfig::default())
        .unwrap();
    server.shutdown();
}

#[test]
fn corrupt_binary_profile_is_bad_request_and_connection_survives() {
    use stalloc_core::wire::PlanRequest;
    use stalloc_served::write_frame;

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // Well-framed, correctly sized — but not a PROF stream.
    let garbage = b"these bytes are not a profile".to_vec();
    let header = PlanRequest::ProfileBin {
        config: SynthConfig::default(),
        encoding: None,
        bytes: garbage.len() as u64,
        trace: None,
    };
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, serde_json::to_string(&header).unwrap().as_bytes()).unwrap();
    write_frame(&mut raw, &garbage).unwrap();
    let resp = read_error_frame(&mut raw);
    assert!(resp.contains("BadRequest"), "typed error, got: {resp}");

    // Frames stayed synchronized, so the same connection keeps working.
    write_frame(&mut raw, br#""Ping""#).unwrap();
    let pong = read_error_frame(&mut raw);
    assert!(pong.contains("Pong"), "keep-alive after BadRequest: {pong}");
    server.shutdown();
}

#[test]
fn zero_queue_depth_sheds_load_with_busy() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    })
    .unwrap();

    let mut client = PlanClient::connect(server.addr()).unwrap();
    match client.ping() {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, WireErrorKind::Busy),
        other => panic!("expected Busy rejection, got {other:?}"),
    }
    assert!(server.stats().rejected >= 1);
    server.shutdown();
}

#[test]
fn keep_alive_connection_serves_many_verbs() {
    let dir = std::env::temp_dir().join(format!("stalloc-served-proto-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = PlanServer::start(ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    let profile = small_profile();
    let config = SynthConfig::default();
    let mut client = PlanClient::connect(server.addr()).unwrap();

    client.ping().unwrap();
    let first = client.plan(&profile, &config).unwrap();
    assert!(!first.source.is_hit());
    // The same job again on the same connection is a cache hit.
    let again = client.plan(&profile, &config).unwrap();
    assert_eq!(again.plan, first.plan);
    assert!(again.source.is_hit());

    let stats = client.metrics().unwrap().stats;
    assert_eq!(stats.misses, 1);
    assert!(stats.hits() >= 1);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 1, "the metrics request itself");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
