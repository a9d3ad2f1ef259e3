//! Version-interop matrix over the wire trust boundary.
//!
//! One planning job is pushed through every combination of
//!
//! * profile wire encoding — inline JSON vs `PROF` binary frames,
//! * plan response encoding — inline JSON vs `STPL` binary frames,
//! * config age — the current `SynthConfig` vs a legacy pre-`strategy`
//!   JSON document (no `strategy` key, as written by old clients),
//!
//! and every combination must land on the **same cache entry**: one
//! synthesis, identical fingerprint, identical plan. Anything a peer can
//! get wrong — unknown strategy tags, future `STPL`/`PROF` versions, a
//! `ProfileBin` header whose length lies — must surface as a *typed*
//! error, never a silent mismatch. The `STPL` v1/v2 axis is covered by
//! rebuilding the served plan as a v1 stream and decoding it back to an
//! identical value.

use stalloc_core::wire::{
    PlanEncoding, PlanRequest, PlanResponse, ProfileEncoding, ServeMetrics, ServeStats,
    WireErrorKind,
};
use stalloc_core::{
    fingerprint_job, profile_trace, StrategyChoice, SynthConfig, FINGERPRINT_VERSION,
};
use stalloc_served::{
    read_frame, write_frame, PlanClient, PlanServer, ServeConfig, DEFAULT_MAX_FRAME,
};
use stalloc_store::{decode_plan, encode_plan, encode_profile, CodecError};
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

/// A config as an old client would send it: serialized before the
/// `strategy` field existed. Deserializing must fill in `Baseline` (the
/// only packer of that era), making it *the same job* as the current
/// default config — not a near-miss that silently forks the cache.
fn legacy_config() -> SynthConfig {
    let legacy_json = r#"{
        "enable_fusion": true,
        "enable_gap_insertion": true,
        "ascending_sizes": false
    }"#;
    serde_json::from_str(legacy_json).expect("legacy config document still deserializes")
}

#[test]
fn all_wire_combinations_share_one_cache_entry() {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        lru_capacity: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let profile = sample_profile();
    let current = SynthConfig::default();
    let legacy = legacy_config();
    assert_eq!(
        legacy, current,
        "a legacy config document must mean the same job as today's default"
    );
    let expected_fp = fingerprint_job(&profile, &current);

    let mut served = Vec::new();
    for profile_enc in [ProfileEncoding::Json, ProfileEncoding::Binary] {
        for plan_enc in [PlanEncoding::Json, PlanEncoding::Binary] {
            for (age, config) in [("current", current), ("legacy", legacy)] {
                let mut client = PlanClient::connect(addr)
                    .unwrap()
                    .with_profile_encoding(profile_enc)
                    .with_encoding(plan_enc);
                let remote = client
                    .plan(&profile, &config)
                    .unwrap_or_else(|e| panic!("{profile_enc:?}/{plan_enc:?}/{age} failed: {e}"));
                assert_eq!(
                    remote.fingerprint, expected_fp,
                    "{profile_enc:?}/{plan_enc:?}/{age}: fingerprint diverged"
                );
                remote.plan.validate().unwrap();
                served.push(remote.plan);
            }
        }
    }

    // Every combination produced the byte-identical plan...
    let reference = encode_plan(&served[0]);
    for plan in &served[1..] {
        assert_eq!(encode_plan(plan), reference, "served plans diverged");
    }
    // ...from a single synthesis: 1 miss, 7 hits, regardless of wire form.
    let stats = server.stats();
    assert_eq!(stats.misses, 1, "exactly one synthesis expected: {stats:?}");
    assert_eq!(stats.hits(), 7, "seven cache hits expected: {stats:?}");
    assert_eq!(stats.errors, 0, "no errors expected: {stats:?}");

    // STPL version axis: the served plan, rewound to a v1 stream (strategy
    // varint dropped, header version 1), still decodes — to the identical
    // plan, because this job's winner is the Baseline strategy v1 implies.
    assert_eq!(served[0].stats.strategy, StrategyChoice::Baseline);
    let v2 = reference;
    let pool_len = {
        // pool_size varint starts at offset 6; find its end.
        let mut end = 6;
        while v2[end] & 0x80 != 0 {
            end += 1;
        }
        end + 1 - 6
    };
    let mut v1 = Vec::with_capacity(v2.len() - 1);
    v1.extend_from_slice(&v2[..4]);
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&v2[6..6 + pool_len]);
    v1.extend_from_slice(&v2[6 + pool_len + 1..]); // skip the strategy byte
    assert_eq!(
        decode_plan(&v1).unwrap(),
        served[0],
        "a v1 artifact must decode to the same plan under v2 rules"
    );

    server.shutdown();
}

#[test]
fn foreign_version_artifacts_fail_typed_not_silent() {
    let profile = sample_profile();
    let plan = stalloc_core::synthesize(&profile, &SynthConfig::default());

    // A plan tagged with a strategy index this build does not know.
    let mut unknown_strategy = encode_plan(&plan);
    // pool_size varint starts at 6; the strategy varint follows it.
    let mut i = 6;
    while unknown_strategy[i] & 0x80 != 0 {
        i += 1;
    }
    assert_eq!(
        unknown_strategy[i + 1],
        0x00,
        "baseline plans carry strategy tag 0"
    );
    unknown_strategy[i + 1] = 99;
    assert!(
        matches!(
            decode_plan(&unknown_strategy),
            Err(CodecError::IntOutOfRange { .. })
        ),
        "an unknown strategy tag must be a typed rejection"
    );

    // A plan from a future format version.
    let mut future_plan = encode_plan(&plan);
    future_plan[4] = 0x03;
    assert_eq!(
        decode_plan(&future_plan),
        Err(CodecError::UnsupportedVersion(3))
    );

    // A profile from a future format version.
    let mut future_profile = encode_profile(&profile);
    future_profile[4] = 0x02;
    assert_eq!(
        stalloc_store::decode_profile(&future_profile),
        Err(CodecError::UnsupportedVersion(2))
    );

    // The fingerprint version axis: v5 is pinned into every job digest, so
    // a cache produced by an older walk can never alias today's entries.
    assert_eq!(FINGERPRINT_VERSION, 5);
}

/// The `Stats`/`Metrics` compatibility matrix, both directions:
///
/// * an old client against a new server — the `Stats` verb still works,
///   and the old client's decoder simply ignores the new
///   `metrics_requests` key on the wire;
/// * a new client against an old server — an old-shape `ServeStats`
///   document (no `metrics_requests` key) must keep decoding via
///   `#[serde(default)]`, and a `Metrics`-rejecting peer must surface as
///   a typed `BadFrame`, the same rejection today's server gives verbs
///   from *its* future.
#[test]
fn stats_and_metrics_are_compatible_across_versions() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let profile = sample_profile();
    let config = SynthConfig::default();

    let mut client = PlanClient::connect(addr).unwrap();
    client.plan(&profile, &config).unwrap();
    client.plan(&profile, &config).unwrap();

    // Old verb, new server: `Stats` answers as ever, now with the new
    // counter riding along.
    let stats = client.stats().unwrap();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits(), 1);

    // The wire document carries the new key; strip it to produce exactly
    // what an old server would send (or what an old client would keep
    // after ignoring unknown keys) and decode — the default must kick in
    // while every old field survives.
    let doc = serde_json::to_value(&stats).unwrap();
    let serde::Value::Map(mut fields) = doc else {
        panic!("ServeStats serializes as a map");
    };
    let before = fields.len();
    fields.retain(|(k, _)| k != "metrics_requests");
    assert_eq!(fields.len(), before - 1, "metrics_requests is on the wire");
    let old_doc = serde_json::to_string(&serde::Value::Map(fields)).unwrap();
    let old_shape: ServeStats = serde_json::from_str(&old_doc).unwrap();
    assert_eq!(old_shape.metrics_requests, 0, "absent key defaults to 0");
    assert_eq!(old_shape.hits(), stats.hits());
    assert_eq!(old_shape.misses, stats.misses);

    // A future server could likewise add sections to `ServeMetrics`: its
    // vector fields all default, so a stats-only document decodes.
    let skeleton: ServeMetrics = serde_json::from_str(&format!("{{\"stats\":{old_doc}}}")).unwrap();
    assert!(skeleton.phases.is_empty() && skeleton.tiers.is_empty());

    // New verb, new server: the same connection serves `Metrics`.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.stats.misses, 1);
    assert!(metrics.phase("synthesis").is_some());
    assert!(metrics.tier("miss").is_some());

    // The old-server direction of the verb itself: an unknown verb is a
    // typed `BadFrame`, never a silent drop. Today's server demonstrates
    // the exact mechanism an old one applies to `Metrics`. (Close the
    // keep-alive client first: the single worker is still parked on it.)
    drop(client);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, br#""VerbFromTheFuture""#).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("a typed error, not a dropped connection")
        .expect("a response frame, not EOF");
    let response: PlanResponse =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    match response {
        PlanResponse::Error { kind, .. } => assert_eq!(kind, WireErrorKind::BadFrame),
        other => panic!("expected a typed error, got {other:?}"),
    }

    server.shutdown();
}

/// The `PlanDelta` axis, old client → new server: a pre-delta client's
/// exchange is untouched by the feature. The minimal old-shape `Plan`
/// document (no `encoding`, no `trace` keys) still decodes and serves,
/// the response carries exactly the four keys it always had, the served
/// plan is byte-identical before and after delta traffic on the same
/// server, and the `source` tier is never the post-delta `Patched`
/// variant an old client could not parse.
#[test]
fn old_client_exchange_is_byte_identical_around_delta_traffic() {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let profile = sample_profile();
    let config = SynthConfig::default();

    // An old client: raw frames, inline-JSON profile, none of the keys
    // added since (encoding / trace).
    let old_request = format!(
        r#"{{"Plan":{{"profile":{},"config":{}}}}}"#,
        serde_json::to_string(&profile).unwrap(),
        serde_json::to_string(&config).unwrap()
    );
    let exchange = || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .unwrap();
        write_frame(&mut s, old_request.as_bytes()).unwrap();
        let payload = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap().unwrap();
        serde_json::from_str::<serde::Value>(std::str::from_utf8(&payload).unwrap()).unwrap()
    };

    let before = exchange();

    // Delta traffic from a modern client on the same server: plan a
    // neighbour via an edit script, landing on the patched tier.
    let next = {
        let mut p = profile.clone();
        if let Some(r) = p.statics.last_mut() {
            r.size += 4096;
        }
        p
    };
    let mut modern = PlanClient::connect(addr).unwrap();
    let patched = modern.plan_delta(&profile, &next, &config).unwrap();
    assert_eq!(patched.source, stalloc_core::PlanSource::Patched);

    let after = exchange();

    let plan_of = |doc: &serde::Value| -> (String, String, Vec<u8>) {
        let serde::Value::Map(outer) = doc else {
            panic!("externally tagged response expected")
        };
        assert_eq!(outer.len(), 1);
        let (tag, body) = &outer[0];
        assert_eq!(tag, "Plan");
        let serde::Value::Map(fields) = body else {
            panic!("struct variant expected")
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["fingerprint", "micros", "plan", "source"],
            "the old response shape grew a key"
        );
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let serde::Value::Str(fp) = get("fingerprint") else {
            panic!("fingerprint is a string")
        };
        let serde::Value::Str(source) = get("source") else {
            panic!("source is a bare string for every pre-delta tier")
        };
        let plan: stalloc_core::Plan =
            serde_json::from_str(&serde_json::to_string(&get("plan")).unwrap()).unwrap();
        (fp, source, encode_plan(&plan))
    };

    let (fp_before, source_before, plan_before) = plan_of(&before);
    let (fp_after, source_after, plan_after) = plan_of(&after);
    assert_eq!(fp_before, fingerprint_job(&profile, &config).to_hex());
    assert_eq!(fp_before, fp_after);
    assert_eq!(
        plan_before, plan_after,
        "delta traffic changed what an old client is served"
    );
    assert_eq!(source_before, "Synthesized");
    assert_eq!(source_after, "Lru", "the repeat is a plain cache hit");
    for source in [&source_before, &source_after] {
        assert_ne!(
            source.as_str(),
            "Patched",
            "old clients must never see the post-delta tier"
        );
    }

    server.shutdown();
}

/// A `ProfileBin` header whose declared length disagrees with the actual
/// follow-up frame must produce a typed protocol error — the server must
/// not guess which of the two lengths to trust.
#[test]
fn profile_bin_length_mismatch_is_a_typed_error() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let profile = sample_profile();
    let prof_bytes = encode_profile(&profile);
    let header = serde_json::to_string(&PlanRequest::ProfileBin {
        config: SynthConfig::default(),
        encoding: Some(PlanEncoding::Json),
        bytes: (prof_bytes.len() as u64) + 7, // lies about the length
        trace: None,
    })
    .unwrap();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, header.as_bytes()).unwrap();
    write_frame(&mut stream, &prof_bytes).unwrap();

    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("a typed error response, not a dropped connection")
        .expect("a response frame, not EOF");
    let response: PlanResponse =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    match response {
        PlanResponse::Error { kind, .. } => {
            assert_eq!(kind, WireErrorKind::BadFrame, "mismatch must be BadFrame");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    server.shutdown();
}
