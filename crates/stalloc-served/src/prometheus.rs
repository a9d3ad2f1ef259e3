//! Prometheus text-format exposition of a [`ServeMetrics`] snapshot.
//!
//! [`render_prometheus`] is a pure function over the wire payload, so it
//! is testable without a server and usable by any client that already
//! speaks the `Metrics` verb. The format is the Prometheus text format
//! v0.0.4: `# TYPE` metadata lines, one sample per line, histograms as
//! cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
//!
//! Times are exported in **seconds** (the Prometheus base unit); the
//! log2 microsecond buckets map to `le` bounds of `2^i − 1` µs ÷ 10⁶.
//! Per-phase request histograms become one family each
//! (`stalloc_<phase>_seconds`), so dashboards can query
//! `stalloc_synthesis_seconds_bucket` directly.

use std::fmt::Write;

use stalloc_core::wire::ServeMetrics;
use stalloc_obs::{bucket_range, HistogramSnapshot};

use crate::server::TIERS;

/// Appends one histogram's cumulative `_bucket`/`_sum`/`_count` series.
///
/// `extra` is either empty or a `key="value",` prefix merged into every
/// sample's label set. Bucket lines stop at the highest non-empty bucket
/// (the `+Inf` bucket always closes the series with the total), so an
/// idle histogram stays three lines instead of sixty-eight.
fn histogram(out: &mut String, name: &str, extra: &str, h: &HistogramSnapshot) {
    let total = h.total();
    let highest = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(|i| i.min(63))
        .unwrap_or(0);
    let mut cum = 0u64;
    for i in 0..=highest {
        cum = cum.saturating_add(h.buckets.get(i).copied().unwrap_or(0));
        let le = bucket_range(i).1 as f64 / 1e6;
        let _ = writeln!(out, "{name}_bucket{{{extra}le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{extra}le=\"+Inf\"}} {total}");
    // `_sum`/`_count` carry only the child labels: no braces when bare.
    let bare = extra.strip_suffix(',').unwrap_or(extra);
    let labels = if bare.is_empty() {
        String::new()
    } else {
        format!("{{{bare}}}")
    };
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum as f64 / 1e6);
    let _ = writeln!(out, "{name}_count{labels} {total}");
}

/// Appends `# TYPE ... histogram` ahead of [`histogram`].
fn histogram_family(out: &mut String, name: &str, extra: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    histogram(out, name, extra, h);
}

/// Renders a `Metrics` payload as Prometheus text format v0.0.4.
pub fn render_prometheus(m: &ServeMetrics) -> String {
    let mut out = String::with_capacity(8192);
    let s = &m.stats;

    // Flat counters and point-in-time gauges.
    for (name, kind, value) in [
        ("stalloc_requests_total", "counter", s.requests),
        ("stalloc_plan_requests_total", "counter", s.plan_requests),
        (
            "stalloc_metrics_requests_total",
            "counter",
            s.metrics_requests,
        ),
        ("stalloc_rejected_total", "counter", s.rejected),
        ("stalloc_errors_total", "counter", s.errors),
        ("stalloc_delta_requests_total", "counter", s.delta_requests),
        ("stalloc_delta_hits_total", "counter", s.delta_hits),
        ("stalloc_in_flight", "gauge", s.in_flight),
        ("stalloc_queue_depth", "gauge", s.queue_depth),
        ("stalloc_workers", "gauge", s.workers),
    ] {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }

    // Plans served, labelled by the answering tier — the server's own
    // tier list, so the family always sums to the plans served.
    let _ = writeln!(out, "# TYPE stalloc_plans_served_total counter");
    for (tier, served) in TIERS {
        let n = served(s);
        let _ = writeln!(out, "stalloc_plans_served_total{{tier=\"{tier}\"}} {n}");
    }

    // One histogram family per request phase.
    for phase in &m.phases {
        histogram_family(
            &mut out,
            &format!("stalloc_{}_seconds", phase.name),
            "",
            &phase.hist,
        );
    }

    // End-to-end latency by answering tier, one family with a label.
    if !m.tiers.is_empty() {
        let _ = writeln!(out, "# TYPE stalloc_tier_seconds histogram");
        for tier in &m.tiers {
            histogram(
                &mut out,
                "stalloc_tier_seconds",
                &format!("tier=\"{}\",", tier.name),
                &tier.hist,
            );
        }
    }

    // Solver section: per-strategy synthesis accounting.
    if !m.solver.is_empty() {
        for (name, pick) in [
            ("stalloc_solver_runs_total", 0usize),
            ("stalloc_solver_wins_total", 1),
            ("stalloc_solver_invalid_total", 2),
            ("stalloc_solver_candidates_evaluated_total", 3),
            ("stalloc_solver_placements_tried_total", 4),
            ("stalloc_solver_placements_rejected_total", 5),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            for sv in &m.solver {
                let v = [
                    sv.runs,
                    sv.wins,
                    sv.invalid,
                    sv.candidates_evaluated,
                    sv.placements_tried,
                    sv.placements_rejected,
                ][pick];
                let _ = writeln!(out, "{name}{{strategy=\"{}\"}} {v}", sv.strategy);
            }
        }
        let _ = writeln!(out, "# TYPE stalloc_solver_phase_seconds_total counter");
        for sv in &m.solver {
            for (phase, micros) in [
                ("layout", sv.layout_micros),
                ("pack", sv.pack_micros),
                ("finish", sv.finish_micros),
            ] {
                let _ = writeln!(
                    out,
                    "stalloc_solver_phase_seconds_total{{strategy=\"{}\",phase=\"{phase}\"}} {}",
                    sv.strategy,
                    micros as f64 / 1e6
                );
            }
        }
        let _ = writeln!(out, "# TYPE stalloc_solver_elapsed_seconds histogram");
        for sv in &m.solver {
            histogram(
                &mut out,
                "stalloc_solver_elapsed_seconds",
                &format!("strategy=\"{}\",", sv.strategy),
                &sv.elapsed,
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stalloc_core::wire::{NamedHistogram, ServeStats, SolverStrategyMetrics};
    use stalloc_obs::LatencyHistogram;
    use std::collections::HashMap;

    /// One parsed sample line: metric name, label pairs, value.
    type Sample = (String, Vec<(String, String)>, f64);

    /// A minimal Prometheus text parser: samples as
    /// `(metric, sorted-label-string) -> value`, plus the `# TYPE` map.
    struct Parsed {
        types: HashMap<String, String>,
        samples: Vec<Sample>,
    }

    fn parse(text: &str) -> Parsed {
        let mut types = HashMap::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("type name").to_string();
                let kind = it.next().expect("type kind").to_string();
                types.insert(name, kind);
                continue;
            }
            assert!(!line.starts_with('#'), "only TYPE comments are emitted");
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().unwrap_or_else(|_| {
                assert_eq!(value, "+Inf", "only +Inf is non-numeric");
                f64::INFINITY
            });
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closed label set");
                    let labels = body
                        .split(',')
                        .filter(|kv| !kv.is_empty())
                        .map(|kv| {
                            let (k, v) = kv.split_once('=').expect("label k=v");
                            let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                            (k.to_string(), v.expect("quoted label").to_string())
                        })
                        .collect();
                    (name.to_string(), labels)
                }
            };
            samples.push((name, labels, value));
        }
        Parsed { types, samples }
    }

    impl Parsed {
        fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
            self.samples
                .iter()
                .find(|(n, ls, _)| {
                    n == name
                        && ls.len() == labels.len()
                        && labels
                            .iter()
                            .all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .map(|&(_, _, v)| v)
        }

        /// The `_bucket` series of one histogram child, in emission
        /// order, as `(le, cumulative_count)`.
        fn buckets(&self, family: &str, label: Option<(&str, &str)>) -> Vec<(f64, f64)> {
            let name = format!("{family}_bucket");
            self.samples
                .iter()
                .filter(|(n, ls, _)| {
                    *n == name
                        && match label {
                            None => ls.iter().all(|(k, _)| k == "le"),
                            Some((k, v)) => ls.iter().any(|(lk, lv)| lk == k && lv == v),
                        }
                })
                .map(|(_, ls, v)| {
                    let le = ls.iter().find(|(k, _)| k == "le").expect("le label");
                    let le = if le.1 == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.1.parse().expect("numeric le")
                    };
                    (le, *v)
                })
                .collect()
        }
    }

    fn synthetic_metrics() -> ServeMetrics {
        let hist = LatencyHistogram::new();
        for v in [70, 80, 90, 147_000] {
            hist.record(v);
        }
        ServeMetrics {
            stats: ServeStats {
                requests: 9,
                plan_requests: 5,
                lru_hits: 2,
                store_hits: 1,
                misses: 1,
                coalesced: 1,
                workers: 4,
                metrics_requests: 2,
                delta_requests: 3,
                delta_hits: 1,
                delta_patched: 2,
                ..ServeStats::default()
            },
            phases: vec![NamedHistogram {
                name: "synthesis".into(),
                hist: hist.snapshot(),
            }],
            tiers: vec![
                NamedHistogram {
                    name: "lru".into(),
                    hist: hist.snapshot(),
                },
                NamedHistogram {
                    name: "miss".into(),
                    hist: HistogramSnapshot::default(),
                },
            ],
            slowest: vec![],
            solver: vec![SolverStrategyMetrics {
                strategy: "bestfit".into(),
                runs: 3,
                wins: 2,
                invalid: 0,
                layout_micros: 1_500,
                pack_micros: 250_000,
                finish_micros: 9_000,
                candidates_evaluated: 1_000,
                placements_tried: 600,
                placements_rejected: 400,
                elapsed: hist.snapshot(),
            }],
        }
    }

    #[test]
    fn counters_round_trip_with_declared_types() {
        let p = parse(&render_prometheus(&synthetic_metrics()));
        assert_eq!(p.types["stalloc_requests_total"], "counter");
        assert_eq!(p.types["stalloc_workers"], "gauge");
        assert_eq!(p.value("stalloc_requests_total", &[]), Some(9.0));
        assert_eq!(
            p.value("stalloc_plans_served_total", &[("tier", "lru")]),
            Some(2.0)
        );
        assert_eq!(
            p.value("stalloc_plans_served_total", &[("tier", "coalesced")]),
            Some(1.0)
        );
        assert_eq!(p.value("stalloc_workers", &[]), Some(4.0));
        assert_eq!(
            p.value("stalloc_solver_runs_total", &[("strategy", "bestfit")]),
            Some(3.0)
        );
        assert_eq!(
            p.value("stalloc_solver_wins_total", &[("strategy", "bestfit")]),
            Some(2.0)
        );
    }

    /// The served-plans family covers every answering tier — patched
    /// included — so it sums to the plans served, like `ServeStats` and
    /// the tier histograms do; the delta counters ride along.
    #[test]
    fn plans_served_family_sums_to_the_plans_served() {
        let m = synthetic_metrics();
        assert!(m.stats.delta_patched > 0);
        let p = parse(&render_prometheus(&m));
        let served: f64 = p
            .samples
            .iter()
            .filter(|(name, _, _)| name == "stalloc_plans_served_total")
            .map(|&(_, _, v)| v)
            .sum();
        assert_eq!(served, (m.stats.hits() + m.stats.misses) as f64);
        assert_eq!(
            p.value("stalloc_plans_served_total", &[("tier", "patched")]),
            Some(2.0)
        );
        assert_eq!(p.types["stalloc_delta_requests_total"], "counter");
        assert_eq!(p.value("stalloc_delta_requests_total", &[]), Some(3.0));
        assert_eq!(p.value("stalloc_delta_hits_total", &[]), Some(1.0));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_at_inf() {
        let p = parse(&render_prometheus(&synthetic_metrics()));
        assert_eq!(p.types["stalloc_synthesis_seconds"], "histogram");
        for (family, label) in [
            ("stalloc_synthesis_seconds", None),
            ("stalloc_tier_seconds", Some(("tier", "lru"))),
            (
                "stalloc_solver_elapsed_seconds",
                Some(("strategy", "bestfit")),
            ),
        ] {
            let buckets = p.buckets(family, label);
            assert!(buckets.len() >= 2, "{family}: bucket series present");
            // `le` strictly ascending, counts monotonically non-decreasing.
            for w in buckets.windows(2) {
                assert!(w[0].0 < w[1].0, "{family}: le ascends");
                assert!(w[0].1 <= w[1].1, "{family}: cumulative counts");
            }
            let (last_le, last_count) = *buckets.last().unwrap();
            assert_eq!(last_le, f64::INFINITY, "{family}: +Inf closes the series");
            assert_eq!(last_count, 4.0, "{family}: +Inf holds every sample");
            assert_eq!(
                p.value(
                    &format!("{family}_count"),
                    &label.into_iter().collect::<Vec<_>>()
                ),
                Some(4.0)
            );
        }
        // The 147ms sample lands in a bucket whose bound exceeds 0.1s.
        let synth = p.buckets("stalloc_synthesis_seconds", None);
        assert!(synth.iter().any(|&(le, c)| le > 0.1 && c == 4.0));
        // A nonzero synthesis bucket line exists verbatim — what the CI
        // smoke test greps for.
        let text = render_prometheus(&synthetic_metrics());
        assert!(text
            .lines()
            .any(|l| l.starts_with("stalloc_synthesis_seconds_bucket") && !l.ends_with(" 0")));
    }

    #[test]
    fn empty_tier_histogram_stays_minimal() {
        let p = parse(&render_prometheus(&synthetic_metrics()));
        let miss = p.buckets("stalloc_tier_seconds", Some(("tier", "miss")));
        // One le="0" bucket plus +Inf: an idle tier costs three lines.
        assert_eq!(miss.len(), 2);
        assert_eq!(miss.last().unwrap().1, 0.0);
    }

    #[test]
    fn solver_phase_seconds_convert_micros() {
        let p = parse(&render_prometheus(&synthetic_metrics()));
        let pack = p
            .value(
                "stalloc_solver_phase_seconds_total",
                &[("strategy", "bestfit"), ("phase", "pack")],
            )
            .unwrap();
        assert!((pack - 0.25).abs() < 1e-12);
    }

    #[test]
    fn default_metrics_render_without_panicking() {
        let text = render_prometheus(&ServeMetrics::default());
        assert!(text.contains("stalloc_requests_total 0"));
        assert!(
            !text.contains("stalloc_solver"),
            "no solver section when empty"
        );
        parse(&text);
    }
}
