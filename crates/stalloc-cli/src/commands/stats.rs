//! `stalloc stats` and `stalloc top`: a live server's counters and
//! latency histograms, once or as a refreshing dashboard.

use std::fmt::Write;

use stalloc_core::wire::NamedHistogram;
use stalloc_core::{ServeMetrics, ServeStats, SolverStrategyMetrics};
use stalloc_obs::Phase;
use stalloc_served::PlanClient;

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::render::{fmt_micros, out, Table};

pub const STATS: Command = Command {
    name: "stats",
    summary: "show a live server's counters and latency histograms",
    help: "\
usage: stalloc stats ADDR [--slowest N] [--format text|json]
  queries the `stalloc serve` daemon at ADDR for its live counters and
  latency histograms (the `Metrics` wire verb) and renders hit ratios
  plus p50/p90/p99 per cache tier and per request phase
  --slowest N       also show the N slowest retained requests
                    (default 3; 0 hides the section)
  --format F        text (default): the rendered tables; json: the raw
                    `Metrics` document on stdout, one line, for scripts",
    spec: FlagSpec {
        value_flags: &["slowest", "format"],
        positionals: Some(("ADDR", "the server address")),
        ..FlagSpec::NONE
    },
    run: stats,
};

pub const TOP: Command = Command {
    name: "top",
    summary: "refreshing live dashboard for a plan server",
    help: "\
usage: stalloc top ADDR [--interval SECS] [--count N]
  polls the `stalloc serve` daemon at ADDR (the `Metrics` wire verb)
  and keeps a refreshing dashboard: request counters, per-tier and
  per-phase latency, and per-strategy solver-phase profiles
  --interval SECS   seconds between refreshes (default 2)
  --count N         stop after N frames (default: refresh until
                    interrupted; 1 prints a single frame and exits)",
    spec: FlagSpec {
        value_flags: &["interval", "count"],
        positionals: Some(("ADDR", "the server address")),
        ..FlagSpec::NONE
    },
    run: top,
};

fn fetch(addr: &str) -> Result<ServeMetrics, String> {
    PlanClient::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("{addr}: {e}"))
}

fn stats(args: &Args) -> Result<(), String> {
    let addr = args.pos(0);
    let slowest = args.num("slowest", 3usize)?;
    let json = match args.get("format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("--format: expected text|json, got '{other}'")),
    };
    let metrics = fetch(addr)?;
    if json {
        let doc = serde_json::to_string(&metrics).map_err(|e| e.to_string())?;
        out(&format!("{doc}\n"))
    } else {
        out(&render_metrics(addr, &metrics, slowest))
    }
}

fn top(args: &Args) -> Result<(), String> {
    let addr = args.pos(0);
    let interval_s = args.num("interval", 2u64)?;
    let count = args.num("count", 0u64)?;
    let mut frame = 0u64;
    loop {
        // A fresh connection per frame: the dashboard must not pin a
        // worker slot between refreshes.
        let metrics = fetch(addr)?;
        frame += 1;
        // Clear + home between frames (single-frame runs stay pipeable).
        let clear = if count != 1 { "\x1b[2J\x1b[H" } else { "" };
        out(&format!(
            "{clear}stalloc top — {addr} · frame {frame} · every {interval_s}s{}\n{}",
            if count == 0 { " · Ctrl-C to quit" } else { "" },
            render_metrics(addr, &metrics, 3)
        ))?;
        if count > 0 && frame >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval_s));
    }
}

/// The counters block at the head of the rendered metrics.
fn render_counters(s: &ServeStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "requests {} · plan {} · hits {} (lru {}, store {}, coalesced {}) · \
         misses {} · hit ratio {:.1}%",
        s.requests,
        s.plan_requests,
        s.hits(),
        s.lru_hits,
        s.store_hits,
        s.coalesced,
        s.misses,
        s.hit_ratio() * 100.0
    );
    if s.delta_requests > 0 {
        let _ = writeln!(
            out,
            "delta {} · patched {} · already cached {}",
            s.delta_requests, s.delta_patched, s.delta_hits
        );
    }
    let _ = writeln!(
        out,
        "errors {} · rejected {} · metrics {} · in flight {} · queued {} · {} workers",
        s.errors, s.rejected, s.metrics_requests, s.in_flight, s.queue_depth, s.workers
    );
    out
}

/// One aligned histogram table (`tier` or `phase` rows).
fn render_histogram_table(title: &str, rows: &[NamedHistogram]) -> String {
    let mut table = Table::new(&[title, "count", "p50", "p90", "p99", "mean"]);
    for row in rows {
        let h = &row.hist;
        let [p50, p90, p99, mean] = match h.percentiles() {
            Some((p50, p90, p99)) => [p50, p90, p99, h.mean()].map(fmt_micros),
            None => ["-"; 4].map(String::from),
        };
        table.row(&[&row.name, &h.total(), &p50, &p90, &p99, &mean]);
    }
    table.render("")
}

/// Renders a full `Metrics` response: counters, per-tier and per-phase
/// latency tables, and the slowest retained requests.
pub fn render_metrics(addr: &str, m: &ServeMetrics, slowest: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "stalloc serve at {addr}");
    out.push_str(&render_counters(&m.stats));
    out.push('\n');
    out.push_str(&render_histogram_table("tier", &m.tiers));
    out.push('\n');
    out.push_str(&render_histogram_table("phase", &m.phases));
    if !m.solver.is_empty() {
        out.push('\n');
        out.push_str(&render_solver_table(&m.solver));
    }
    if slowest > 0 && !m.slowest.is_empty() {
        let _ = writeln!(out, "\nslowest requests:");
        for span in m.slowest.iter().take(slowest) {
            let tier = if span.tier.is_empty() {
                String::new()
            } else {
                format!(" {}", span.tier)
            };
            // Phases the request never entered report 0 and are elided.
            let phases = Phase::ALL
                .iter()
                .zip(span.phase_micros.iter())
                .filter(|(_, &us)| us > 0)
                .map(|(p, &us)| format!("{} {}", p.name(), fmt_micros(us)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  #{} {}{tier} {} ({phases})",
                span.seq,
                span.verb,
                fmt_micros(span.total_micros)
            );
        }
    }
    out
}

/// Per-strategy solver table (the `solver` section of a `Metrics`
/// payload): run counts, phase-time split, and placement work.
pub fn render_solver_table(rows: &[SolverStrategyMetrics]) -> String {
    let mut table = Table::new(&[
        "solver",
        "runs",
        "wins",
        "invalid",
        "layout",
        "pack",
        "finish",
        "candidates",
        "tried",
        "rejected",
        "p50",
        "p99",
    ]);
    for r in rows {
        let (p50, p99) = match (r.elapsed.quantile(0.50), r.elapsed.quantile(0.99)) {
            (Some(a), Some(b)) => (fmt_micros(a), fmt_micros(b)),
            _ => ("-".into(), "-".into()),
        };
        table.row(&[
            &r.strategy,
            &r.runs,
            &r.wins,
            &r.invalid,
            &fmt_micros(r.layout_micros),
            &fmt_micros(r.pack_micros),
            &fmt_micros(r.finish_micros),
            &r.candidates_evaluated,
            &r.placements_tried,
            &r.placements_rejected,
            &p50,
            &p99,
        ]);
    }
    table.render("")
}

#[cfg(test)]
mod tests {
    use super::super::{argv, dispatch};
    use super::*;

    #[test]
    fn stats_help_and_errors() {
        for line in ["help stats", "stats --help", "stats -h", "stats help"] {
            dispatch(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let err = dispatch(&argv("stats")).unwrap_err();
        assert!(err.contains("address"), "{err}");
        // Flags after the positional address are validated like any
        // other command's.
        let err = dispatch(&argv("stats 127.0.0.1:1 --slowset 2")).unwrap_err();
        assert!(err.contains("did you mean '--slowest'"), "{err}");
        // A typo'd command still suggests it.
        let err = dispatch(&argv("stts")).unwrap_err();
        assert!(err.contains("did you mean 'stats'"), "{err}");
    }

    #[test]
    fn top_and_serve_flag_errors() {
        let err = dispatch(&argv("top")).unwrap_err();
        assert!(err.contains("address"), "{err}");
        // The rotation cap is meaningless without a trace log.
        let err = dispatch(&argv("serve --trace-log-max-bytes 4096")).unwrap_err();
        assert!(err.contains("--trace-log"), "{err}");
        // A typo'd new command still suggests it.
        let err = dispatch(&argv("explian")).unwrap_err();
        assert!(err.contains("did you mean 'explain'"), "{err}");
    }

    #[test]
    fn flags_before_the_address_reach_a_live_server() {
        use stalloc_served::{PlanServer, ServeConfig};
        let server = PlanServer::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        for line in [
            format!("stats --slowest 0 {addr}"),
            format!("stats --format json {addr} --slowest 0"),
            format!("top --count 1 {addr}"),
            format!("top {addr} --count 1"),
        ] {
            dispatch(&argv(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert_eq!(server.stats().metrics_requests, 4);
        server.shutdown();
    }

    #[test]
    fn render_metrics_formats_counters_tables_and_slowest() {
        use stalloc_core::wire::NamedHistogram;
        use stalloc_core::ServeStats;
        use stalloc_obs::{LatencyHistogram, Phase, SpanSnapshot, PHASE_COUNT};

        let lru = LatencyHistogram::new();
        for _ in 0..9 {
            lru.record(70);
        }
        let miss = LatencyHistogram::new();
        miss.record(150_000);
        let mut phase_micros = vec![0u64; PHASE_COUNT];
        phase_micros[Phase::Synthesis.index()] = 149_000;
        phase_micros[Phase::Encode.index()] = 400;
        let m = ServeMetrics {
            stats: ServeStats {
                requests: 11,
                plan_requests: 10,
                lru_hits: 9,
                misses: 1,
                workers: 4,
                metrics_requests: 1,
                ..ServeStats::default()
            },
            tiers: vec![
                NamedHistogram {
                    name: "lru".into(),
                    hist: lru.snapshot(),
                },
                NamedHistogram {
                    name: "miss".into(),
                    hist: miss.snapshot(),
                },
                NamedHistogram {
                    name: "store".into(),
                    hist: LatencyHistogram::new().snapshot(),
                },
            ],
            phases: vec![NamedHistogram {
                name: "synthesis".into(),
                hist: miss.snapshot(),
            }],
            slowest: vec![SpanSnapshot {
                seq: 7,
                trace_id: String::new(),
                span_id: String::new(),
                parent_span_id: String::new(),
                verb: "Plan".into(),
                tier: "miss".into(),
                total_micros: 150_000,
                phase_micros,
            }],
            solver: vec![],
        };
        let text = render_metrics("127.0.0.1:4547", &m, 3);
        assert!(text.contains("hit ratio 90.0%"), "{text}");
        // No PlanDelta traffic → the delta counter line stays hidden.
        assert!(!text.contains("delta "), "{text}");
        assert!(text.contains("lru"), "{text}");
        // An empty histogram renders dashes, not zeros-as-latency.
        let store_row = text.lines().find(|l| l.starts_with("store")).unwrap();
        assert!(store_row.contains('-'), "{store_row}");
        // µs and ms units both appear; the slow span lists only the
        // phases it entered.
        assert!(text.contains("µs"), "{text}");
        assert!(text.contains("ms"), "{text}");
        assert!(text.contains("#7 Plan miss 150.0ms"), "{text}");
        assert!(text.contains("synthesis 149.0ms"), "{text}");
        assert!(!text.contains("frame_read 0"), "{text}");
        // slowest = 0 hides the section entirely.
        let quiet = render_metrics("addr", &m, 0);
        assert!(!quiet.contains("slowest"), "{quiet}");
    }

    #[test]
    fn render_counters_shows_delta_line_once_deltas_flow() {
        use stalloc_core::ServeStats;
        let text = render_counters(&ServeStats {
            requests: 3,
            plan_requests: 3,
            delta_requests: 2,
            delta_patched: 1,
            delta_hits: 1,
            ..ServeStats::default()
        });
        assert!(
            text.contains("delta 2 · patched 1 · already cached 1"),
            "{text}"
        );
    }
}
