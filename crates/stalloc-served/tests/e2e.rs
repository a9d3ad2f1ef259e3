//! End-to-end acceptance: an in-process server under a concurrent load of
//! ≥ 32 plan requests over a mix of 3 job configs. Every response must
//! decode to a valid plan, each unique fingerprint must be synthesized
//! exactly once (single-flight), and the `stats` verb must agree with the
//! observed hit/miss split.

use std::sync::{Arc, Barrier};
use std::thread;

use stalloc_core::{fingerprint_job, profile_trace, ProfiledRequests, SynthConfig};
use stalloc_served::{PlanClient, PlanServer, ServeConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn profile() -> ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(4)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

fn three_configs() -> [SynthConfig; 3] {
    [
        SynthConfig::default(),
        SynthConfig {
            enable_gap_insertion: false,
            ..SynthConfig::default()
        },
        SynthConfig {
            ascending_sizes: true,
            ..SynthConfig::default()
        },
    ]
}

#[test]
fn concurrent_mixed_load_is_single_flight_and_accounted() {
    const CLIENTS: usize = 33;

    let dir = std::env::temp_dir().join(format!("stalloc-served-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = PlanServer::start(ServeConfig {
        workers: 8,
        queue_depth: CLIENTS,
        store_dir: Some(dir.clone()),
        lru_capacity: 64,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let profile = Arc::new(profile());
    let configs = three_configs();
    let expected_fps: Vec<String> = configs
        .iter()
        .map(|c| fingerprint_job(&profile, c).to_hex())
        .collect();

    // 33 clients, 11 per config, all released at once.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let profile = Arc::clone(&profile);
            let config = configs[i % configs.len()];
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                barrier.wait();
                // PlanClient::plan re-validates the plan on receipt, so an
                // Ok here certifies `Plan::validate`.
                client.plan(&profile, &config).expect("plan request")
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results.len(), CLIENTS);

    // All responses carry sound plans for the expected fingerprints, and
    // identical jobs received identical plans.
    for r in &results {
        r.plan.validate().expect("response plan is valid");
        assert!(expected_fps.contains(&r.fingerprint.to_hex()));
    }
    for fp in &expected_fps {
        let group: Vec<_> = results
            .iter()
            .filter(|r| &r.fingerprint.to_hex() == fp)
            .collect();
        assert_eq!(group.len(), CLIENTS / configs.len());
        for r in &group[1..] {
            assert_eq!(r.plan, group[0].plan, "divergent plans for {fp}");
        }
    }

    // Single-flight: exactly one synthesis per unique fingerprint, and
    // the client-observed sources agree.
    let synthesized = results
        .iter()
        .filter(|r| !r.source.is_hit())
        .map(|r| r.fingerprint.to_hex())
        .collect::<std::collections::BTreeSet<_>>();
    let observed_misses = results.iter().filter(|r| !r.source.is_hit()).count();
    assert_eq!(
        observed_misses,
        configs.len(),
        "each unique job synthesized exactly once"
    );
    assert_eq!(synthesized.len(), configs.len());

    // The server's counters agree with what the clients saw.
    let mut stats_client = PlanClient::connect(addr).unwrap();
    let stats = stats_client.metrics().unwrap().stats;
    assert_eq!(stats.plan_requests, CLIENTS as u64);
    assert_eq!(stats.misses, configs.len() as u64);
    assert_eq!(
        stats.hits(),
        (CLIENTS - configs.len()) as u64,
        "hits + misses cover every plan request: {stats:?}"
    );
    assert_eq!(stats.in_flight, 1, "only the metrics request is in flight");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.workers, 8);

    // The local handle agrees with the wire snapshot.
    let local = server.stats();
    assert_eq!(local.misses, stats.misses);
    assert_eq!(local.plan_requests, stats.plan_requests);
    assert_eq!(local.in_flight, 0, "quiesced after responses");

    // The plans landed in the shared store: a fresh server over the same
    // directory (cold LRU) serves them as store hits.
    server.shutdown();
    let server2 = PlanServer::start(ServeConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = PlanClient::connect(server2.addr()).unwrap();
    let again = client.plan(&profile, &configs[0]).unwrap();
    assert!(again.source.is_hit(), "persisted plan survives restart");
    assert_eq!(server2.stats().misses, 0);
    server2.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_under_idle_connections() {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    // Two idle keep-alive connections parked on workers, one queued.
    let c1 = PlanClient::connect(server.addr()).unwrap();
    let c2 = PlanClient::connect(server.addr()).unwrap();
    let c3 = PlanClient::connect(server.addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Shutdown must return despite the parked connections (the workers'
    // patient reads notice the flag at the next poll tick).
    server.shutdown();
    drop((c1, c2, c3));
}

#[test]
fn delta_requests_patch_chain_and_fall_back() {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = PlanClient::connect(server.addr()).unwrap();
    let config = SynthConfig::default();

    // Cold plan for the family's base: teaches the server both the plan
    // and the base profile bytes.
    let base = profile();
    let cold = client.plan(&base, &config).unwrap();
    assert!(!cold.source.is_hit());

    // Profile N+1: one activation grows, one scratch tensor appears.
    let mut next = base.clone();
    next.statics[next.init_count].size += 4096;
    next.statics.push(stalloc_core::RequestEvent {
        size: 1 << 20,
        ts: 5,
        te: 30,
        ps: 0,
        pe: 0,
        dynamic: false,
        ls: None,
        le: None,
    });

    // The delta request lands on the patched tier, and the response is
    // the plan a full request for `next` would be keyed under.
    let patched = client.plan_delta(&base, &next, &config).unwrap();
    assert_eq!(patched.source, stalloc_core::PlanSource::Patched);
    assert_eq!(patched.fingerprint, fingerprint_job(&next, &config));
    patched.plan.validate().unwrap();
    assert_eq!(
        patched.plan.stats.peak_static_demand,
        next.peak_static_demand()
    );

    // Same delta again: the patched plan is cached now, so this is a
    // delta-attributed LRU hit, not another patch.
    let hit = client.plan_delta(&base, &next, &config).unwrap();
    assert_eq!(hit.source, stalloc_core::PlanSource::Lru);
    assert_eq!(hit.plan, patched.plan);

    // Chained delta: N+2 diffed against N+1, whose profile the server
    // learned by *applying* the previous delta — no full profile for
    // `next` was ever sent.
    let mut next2 = next.clone();
    next2.statics[next2.init_count + 1].size += 8192;
    let chained = client.plan_delta(&next, &next2, &config).unwrap();
    assert_eq!(chained.source, stalloc_core::PlanSource::Patched);
    chained.plan.validate().unwrap();

    // Patching read the base plan and left it alone: the base job is
    // still a plain LRU hit on the plan it was first served.
    let again = client.plan(&base, &config).unwrap();
    assert_eq!(again.source, stalloc_core::PlanSource::Lru);
    assert_eq!(again.plan, cold.plan);

    // A delta against a base the server never saw: NotFound inside, but
    // the client transparently retries full on the same connection.
    let mut stranger = base.clone();
    for r in &mut stranger.statics {
        r.size += 512;
    }
    let mut stranger_next = stranger.clone();
    stranger_next.statics[0].size += 512;
    let fallback = client
        .plan_delta(&stranger, &stranger_next, &config)
        .unwrap();
    assert_eq!(fallback.source, stalloc_core::PlanSource::Synthesized);
    assert_eq!(
        fallback.fingerprint,
        fingerprint_job(&stranger_next, &config)
    );

    // Counters and histograms tell the same story.
    let metrics = client.metrics().unwrap();
    let stats = metrics.stats;
    assert_eq!(stats.delta_requests, 4);
    assert_eq!(stats.delta_patched, 2);
    assert_eq!(stats.delta_hits, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(metrics.tier("patched").unwrap().total(), 2);
    assert!(
        metrics.phase("replan").unwrap().total() >= 2,
        "replan phase populated: {:?}",
        metrics.phase("replan")
    );
    // The patched tier must be far below a cold synthesis: same job
    // family, same process, so the comparison is apples-to-apples.
    let patched_p50 = metrics.tier("patched").unwrap().quantile(0.5).unwrap();
    let miss_p50 = metrics.tier("miss").unwrap().quantile(0.5).unwrap();
    assert!(
        patched_p50 < miss_p50,
        "patched {patched_p50}µs vs cold {miss_p50}µs"
    );
    server.shutdown();
}

/// Bytes nothing has decoded must never become a delta base: a
/// `ProfileBin` with a sound `PROF` header over a garbage body is the
/// client's mistake (`BadRequest`), and so is a `PlanDelta` naming those
/// bytes as its base — `NotFound`, the documented full-profile fallback,
/// not an `Internal` error charged to the server.
#[test]
fn undecodable_profile_bytes_never_become_a_delta_base() {
    use stalloc_core::wire::{PlanRequest, PlanResponse, WireErrorKind};
    use stalloc_served::{read_frame, write_frame, DEFAULT_MAX_FRAME};

    let server = PlanServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut exchange = |header: PlanRequest, raw: &[u8]| -> PlanResponse {
        write_frame(
            &mut stream,
            serde_json::to_string(&header).unwrap().as_bytes(),
        )
        .unwrap();
        write_frame(&mut stream, raw).unwrap();
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().unwrap();
        serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap()
    };
    let config = SynthConfig::default();

    // A real header, then varints that never end.
    let base = profile();
    let mut garbage = stalloc_store::encode_profile(&base);
    garbage.truncate(6);
    garbage.extend_from_slice(&[0xff; 64]);
    assert!(stalloc_store::decode_profile(&garbage).is_err());
    let response = exchange(
        PlanRequest::ProfileBin {
            config,
            encoding: None,
            bytes: garbage.len() as u64,
            trace: None,
        },
        &garbage,
    );
    assert!(
        matches!(
            response,
            PlanResponse::Error {
                kind: WireErrorKind::BadRequest,
                ..
            }
        ),
        "{response:?}"
    );
    let errors = server.stats().errors;
    assert_eq!(errors, 1);

    // A well-formed edit script against exactly those bytes.
    let garbage_fp =
        stalloc_core::fingerprint_profile_body(stalloc_store::profile_body(&garbage).unwrap());
    let mut delta = stalloc_core::diff_profiles(&base, &base);
    delta.base = garbage_fp;
    let script = stalloc_store::encode_profile_delta(&delta);
    let response = exchange(
        PlanRequest::PlanDelta {
            config,
            encoding: None,
            bytes: script.len() as u64,
            trace: None,
        },
        &script,
    );
    match response {
        PlanResponse::NotFound { fingerprint } => assert_eq!(fingerprint, garbage_fp.to_hex()),
        other => panic!("expected NotFound, got {other:?}"),
    }
    assert_eq!(server.stats().errors, errors, "not the server's failure");
    server.shutdown();
}
