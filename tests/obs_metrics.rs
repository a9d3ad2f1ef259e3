//! End-to-end observability check: a 32-client loopback run against a
//! live `stalloc serve` daemon must yield a `Metrics` response whose
//! per-tier histogram counts sum exactly to the `ServeStats` hit/miss
//! counters — the cross-check that ties the new latency surface to the
//! counters the protocol has always reported.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stalloc_core::wire::ServeMetrics;
use stalloc_core::{profile_trace, ProfiledRequests, SynthConfig};
use stalloc_obs::{Phase, SpanSnapshot};
use stalloc_served::{PlanClient, PlanServer, ServeConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

const CLIENTS: usize = 32;

fn sample_profile() -> ProfiledRequests {
    profile_with_microbatches(2)
}

fn profile_with_microbatches(microbatches: u32) -> ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(microbatches)
    .with_iterations(1)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// A distinct-fingerprint variant of `base` (so some clients are misses).
fn salted(base: &ProfiledRequests, salt: u64) -> ProfiledRequests {
    let mut p = base.clone();
    if let Some(r) = p.statics.first_mut() {
        r.size += 512 * (salt + 1);
    }
    p
}

/// A request's span is recorded just *after* its response is written, so
/// a snapshot taken the instant the last client returns may still miss a
/// recording in flight. Poll until the books balance (they must, within
/// a breath of the run finishing).
fn converged_metrics(addr: std::net::SocketAddr) -> ServeMetrics {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = PlanClient::connect(addr)
            .unwrap()
            .metrics()
            .expect("Metrics verb answers");
        let s = metrics.stats;
        let tier_sum: u64 = metrics.tiers.iter().map(|t| t.hist.total()).sum();
        let counter_sum = s.lru_hits + s.store_hits + s.misses + s.coalesced;
        if tier_sum == counter_sum {
            return metrics;
        }
        assert!(
            Instant::now() < deadline,
            "tier histogram counts ({tier_sum}) never converged to the \
             hit/miss counters ({counter_sum})"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn thirty_two_client_run_reports_consistent_metrics() {
    let server = PlanServer::start(ServeConfig {
        workers: 4,
        queue_depth: CLIENTS * 2,
        lru_capacity: 64,
        // Room for every request of the run: each miss keeps its span.
        slowest: 2 * CLIENTS,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let base = Arc::new(sample_profile());
    let config = SynthConfig::default();

    // Warm the base job: one synthesis every repeat below can hit.
    PlanClient::connect(addr)
        .unwrap()
        .plan(&base, &config)
        .unwrap();

    // 32 concurrent clients: most repeat the warm job (cache hits), every
    // eighth plans a fresh fingerprint (a genuine miss).
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let base = Arc::clone(&base);
            thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                let profile = if i % 8 == 0 {
                    salted(&base, i as u64)
                } else {
                    (*base).clone()
                };
                let config = SynthConfig::default();
                let remote = client.plan(&profile, &config).expect("plan");
                remote.plan.validate().expect("served plan is sound");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let metrics = converged_metrics(addr);
    let stats = metrics.stats;

    // 1 warm miss + 4 salted misses; the other 28 requests were hits (or
    // coalesced onto an in-flight synthesis, which counts as a hit).
    assert_eq!(stats.plan_requests, (CLIENTS + 1) as u64);
    assert!(stats.misses >= 1, "{stats:?}");
    assert!(
        stats.hit_ratio() > 0.5,
        "hit ratio {:.3} with stats {stats:?}",
        stats.hit_ratio()
    );

    // Per-tier histograms: the miss tier saw every synthesis, the hit
    // tiers the rest. (That a miss round trip is slower than a hit is
    // asserted by the serial test below: here 32 clients share 4 workers,
    // so both tiers' round trips are mostly the same queue.)
    let miss = metrics.tier("miss").expect("miss tier reported");
    assert_eq!(miss.total(), stats.misses);
    let hit_total: u64 = ["lru", "store", "coalesced"]
        .iter()
        .map(|t| metrics.tier(t).map_or(0, |h| h.total()))
        .sum();
    assert_eq!(hit_total, stats.hits());

    // Per-phase histograms: every request crossed the framed-I/O phases;
    // only the misses ran the synthesizer.
    for phase in ["frame_read", "decode", "encode", "frame_write"] {
        let h = metrics.phase(phase).expect("phase reported");
        assert!(h.total() > 0, "phase {phase} never recorded");
    }
    let synthesis = metrics.phase("synthesis").expect("synthesis reported");
    assert!(synthesis.total() >= stats.misses);
    // A synthesis is orders of magnitude slower than a cache lookup, and
    // under any load every miss must show it: each one probed the LRU and
    // then synthesized, and its span carries both phases. Compared within
    // a span, not as medians of two log2-bucket histograms, which can
    // share a bucket.
    let misses: Vec<&SpanSnapshot> = metrics
        .slowest
        .iter()
        .filter(|s| s.tier == "miss")
        .collect();
    assert_eq!(misses.len() as u64, stats.misses, "every miss span kept");
    for s in misses {
        let micros = |p: Phase| s.phase_micros[p.index()];
        assert!(
            micros(Phase::Synthesis) > micros(Phase::LruLookup),
            "a synthesis must be slower than the LRU lookup before it: {s:?}"
        );
    }

    // The slowest-span ring retained the expensive requests, each span
    // carrying the full phase vector.
    assert!(!metrics.slowest.is_empty());
    assert!(metrics.slowest[0].total_micros >= metrics.slowest.last().unwrap().total_micros);

    server.shutdown();
}

/// A synthesis is orders of magnitude slower than a cache hit, and the
/// tier round-trip medians must reflect that. One client, one request in
/// flight: a tier's round trip is then the work the tier names, not the
/// queue it waited in.
#[test]
fn serial_miss_round_trip_is_slower_than_an_lru_hit() {
    const JOBS: u64 = 8;
    let server = PlanServer::start(ServeConfig {
        workers: 4,
        lru_capacity: 64,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let base = profile_with_microbatches(8);
    let config = SynthConfig::default();

    // Each fresh fingerprint is planned twice, back to back: a miss, then
    // an LRU hit on the plan the miss just cached.
    let mut client = PlanClient::connect(addr).unwrap();
    for salt in 0..JOBS {
        let profile = salted(&base, salt);
        client.plan(&profile, &config).expect("cold plan");
        client.plan(&profile, &config).expect("warm plan");
    }

    let metrics = converged_metrics(addr);
    let miss = metrics.tier("miss").expect("miss tier reported");
    let lru = metrics.tier("lru").expect("lru tier reported");
    assert_eq!(miss.total(), JOBS);
    assert_eq!(lru.total(), JOBS);
    assert!(
        miss.quantile(0.5) > lru.quantile(0.5),
        "a median synthesis must be slower than a median LRU hit: \
         miss {:?} vs lru {:?}",
        miss.quantile(0.5),
        lru.quantile(0.5)
    );

    server.shutdown();
}
