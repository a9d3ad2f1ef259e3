//! Live-server acceptance for the Prometheus exposition endpoint: a
//! `PlanServer` started with `metrics_addr` serves `GET /metrics` over
//! plain HTTP/1.1, and after one synthesized plan the text body carries
//! a nonzero `stalloc_synthesis_seconds_bucket` sample plus the
//! per-strategy solver section.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use stalloc_core::{profile_trace, SynthConfig};
use stalloc_served::{PlanClient, PlanServer, ServeConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn profile() -> stalloc_core::ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(2)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// Issues one HTTP/1.1 request and returns (status line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics port");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: stalloc\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

#[test]
fn metrics_endpoint_serves_prometheus_text_after_a_plan() {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .unwrap();
    let maddr = server.metrics_http_addr().expect("metrics listener bound");

    // Scrape before any traffic: valid exposition, all counters zero.
    let (status, headers, body) = http_get(maddr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "prometheus content type: {headers}"
    );
    assert!(body.contains("stalloc_requests_total 0"));
    assert!(
        !body.contains("stalloc_solver_runs_total"),
        "no solver section before any synthesis"
    );

    // One plan request forces a synthesis (miss) through the solver.
    let profile = profile();
    let mut client = PlanClient::connect(server.addr()).unwrap();
    let got = client.plan(&profile, &SynthConfig::default()).unwrap();
    assert!(!got.source.is_hit());

    // The worker records its span *after* writing the response, so an
    // immediate scrape can race it; retry briefly until the span lands.
    let mut body = String::new();
    for _ in 0..50 {
        body = http_get(maddr, "/metrics").2;
        if body.contains("stalloc_synthesis_seconds_count 1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(body.contains("stalloc_plan_requests_total 1"));
    assert!(body.contains("stalloc_plans_served_total{tier=\"miss\"} 1"));
    // The CI smoke grep: a nonzero cumulative synthesis bucket.
    assert!(
        body.lines()
            .any(|l| l.starts_with("stalloc_synthesis_seconds_bucket") && !l.ends_with(" 0")),
        "nonzero synthesis bucket in:\n{body}"
    );
    // Solver-phase profiling made it from the strategy through the wire:
    // at least one strategy ran and tried placements.
    assert!(body.contains("# TYPE stalloc_solver_runs_total counter"));
    let tried: f64 = body
        .lines()
        .filter_map(|l| l.strip_prefix("stalloc_solver_placements_tried_total"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum();
    assert!(tried > 0.0, "placements_tried exported: \n{body}");

    // The root path aliases /metrics; anything else is a 404.
    let (status, _, root_body) = http_get(maddr, "/");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(root_body.contains("stalloc_requests_total"));
    let (status, _, _) = http_get(maddr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
}

/// One live patched delta shows up in the served-plans family, so the
/// family keeps summing to the plans served; the delta counters are
/// exported beside it.
#[test]
fn metrics_endpoint_counts_a_patched_delta() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .unwrap();
    let maddr = server.metrics_http_addr().expect("metrics listener bound");

    let base = profile();
    let mut next = base.clone();
    next.statics[next.init_count].size += 4096;
    let config = SynthConfig::default();
    let mut client = PlanClient::connect(server.addr()).unwrap();
    client.plan(&base, &config).unwrap();
    let patched = client.plan_delta(&base, &next, &config).unwrap();
    assert_eq!(patched.source, stalloc_core::PlanSource::Patched);

    // Counters are bumped before the response is written, so they are
    // already visible; only spans (not read here) can trail the reply.
    let body = http_get(maddr, "/metrics").2;
    assert!(
        body.contains("stalloc_plans_served_total{tier=\"patched\"} 1"),
        "patched tier exported:\n{body}"
    );
    assert!(body.contains("stalloc_plans_served_total{tier=\"miss\"} 1"));
    assert!(body.contains("stalloc_delta_requests_total 1"));
    assert!(body.contains("stalloc_delta_hits_total 0"));

    server.shutdown();
}

#[test]
fn shutdown_joins_the_metrics_thread() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .unwrap();
    let maddr = server.metrics_http_addr().unwrap();
    let (status, _, _) = http_get(maddr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Must return promptly (the handle self-connects to unblock accept).
    server.shutdown();
    // The listener is gone: a fresh connection is refused or hangs up
    // without an HTTP response.
    let refused = match TcpStream::connect(maddr) {
        Err(_) => true,
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf)
                .map(|_| buf.is_empty())
                .unwrap_or(true)
        }
    };
    assert!(refused, "metrics port closed after shutdown");
}

#[test]
fn bad_metrics_addr_fails_fast() {
    let err = PlanServer::start(ServeConfig {
        workers: 1,
        metrics_addr: Some("definitely-not-an-addr".into()),
        ..ServeConfig::default()
    });
    assert!(err.is_err(), "unbindable metrics addr rejected at start");
}
