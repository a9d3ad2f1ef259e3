//! `stalloc plan`: synthesize the allocation plan for a profile —
//! locally, through a plan cache, or against a plan server — and
//! `stalloc strategies`, the packers it can use.

use stalloc_core::{
    fingerprint_profile, Plan, PlanSource, ProfiledRequests, StrategyChoice, SynthConfig,
};
use stalloc_obs::chrome::{merged_request_timeline, SpanView};
use stalloc_served::PlanClient;
use stalloc_solver::{registry, synthesize_strategy, Portfolio, PortfolioOutcome};
use stalloc_store::{encode_plan, synthesize_cached, CacheOutcome, PlanStore};

use super::Command;
use crate::args::{nearest, Args, FlagSpec};
use crate::files::read_profile;
use crate::render::{emit, fmt_micros, gib, out};

pub const PLAN: Command = Command {
    name: "plan",
    summary: "synthesize the allocation plan (paper section 5),\n\
              locally or against a plan server (--remote; add --trace\n\
              FILE for a merged client+server Chrome timeline, or\n\
              --delta-base BASE to send a PROF-DELTA edit script)",
    help: "\
usage: stalloc plan --input PROFILE --output FILE [flags]
  --input PROFILE   PROF profile written by `stalloc profile`
  --output FILE     plan destination (binary STPL, whatever the
                    file's extension)
  --strategy S      packing strategy: baseline|bestfit|tmp-order|
                    lookahead, or `portfolio` to race them all and keep
                    the best plan (default baseline; see
                    `stalloc strategies`)
  --cache DIR       consult/populate a plan cache: on a fingerprint hit
                    the plan is loaded and synthesis is skipped
  --remote ADDR     plan via a `stalloc serve` daemon at ADDR instead of
                    synthesizing locally (mutually exclusive with --cache)
  --trace FILE      with --remote: write the request as a merged
                    client+server Chrome trace-event timeline to FILE
                    (load in chrome://tracing or Perfetto; the server's
                    phase spans nest inside the client's await slice,
                    the unaccounted remainder is `net_queue_micros`)
  --delta-base BASE with --remote: send the profile as a PROF-DELTA
                    edit script against the PROF profile in file BASE
                    instead of in full — a server holding the base
                    patches its cached plan in place of a cold
                    synthesis; against a base the server does not hold
                    the client transparently retries as a full request
  --no-gaps         disable gap insertion (ablation; baseline only)
  --ascending       process size classes ascending (ablation;
                    baseline only)",
    spec: FlagSpec {
        value_flags: &[
            "input",
            "output",
            "strategy",
            "cache",
            "remote",
            "trace",
            "delta-base",
        ],
        bool_flags: &["no-gaps", "ascending"],
        positionals: None,
    },
    run: plan,
};

pub const STRATEGIES: Command = Command {
    name: "strategies",
    summary: "list the registered plan-synthesis strategies",
    help: "\
usage: stalloc strategies
  lists the registered plan-synthesis strategies (usable as
  `stalloc plan --strategy NAME`) plus the `portfolio` meta-strategy
  that races all of them in parallel and keeps the best plan",
    spec: FlagSpec::NONE,
    run: strategies,
};

fn strategies(_args: &Args) -> Result<(), String> {
    let mut text =
        String::from("registered plan-synthesis strategies (stalloc plan --strategy NAME):\n");
    for s in registry() {
        text.push_str(&format!("  {:<10} {}\n", s.name(), s.description));
    }
    text.push_str(&format!(
        "  {:<10} race all of the above on parallel workers; the valid\n  {:<10} \
         plan with the smallest (pool, fragmentation, name) wins\n",
        StrategyChoice::Portfolio.name(),
        ""
    ));
    out(&text)
}

/// Parses `--strategy`, suggesting the nearest name on a typo.
fn parse_strategy(name: &str) -> Result<StrategyChoice, String> {
    StrategyChoice::parse(name).ok_or_else(|| {
        let names = StrategyChoice::ALL.iter().map(|c| c.name());
        match nearest(name, names) {
            Some(s) => format!("unknown strategy '{name}' (did you mean '{s}'?)"),
            None => format!(
                "unknown strategy '{name}' (see `stalloc strategies` for the registered set)"
            ),
        }
    })
}

/// The note for ablation switches `config.strategy` never reads: only
/// `baseline` does (in a portfolio race, its `baseline` racer). The
/// switches still key the job fingerprint, so the no-op is made visible.
fn ignored_switches_note(config: &SynthConfig) -> Option<String> {
    let switched = !config.enable_gap_insertion || config.ascending_sizes;
    let reads_switches = matches!(
        config.strategy,
        StrategyChoice::Baseline | StrategyChoice::Portfolio
    );
    (switched && !reads_switches).then(|| {
        format!(
            "note: --strategy {} ignores --no-gaps/--ascending \
             (they steer the baseline pipeline only)",
            config.strategy
        )
    })
}

fn plan(args: &Args) -> Result<(), String> {
    let remote = args.get("remote");
    if remote.is_some() && args.get("cache").is_some() {
        return Err(
            "--remote and --cache are mutually exclusive (the server owns its cache)".into(),
        );
    }
    for (flag, why) in [
        (
            "trace",
            " (the merged timeline pairs the client's span with a live server's)",
        ),
        ("delta-base", " (local synthesis has no base plan to patch)"),
    ] {
        if args.get(flag).is_some() && remote.is_none() {
            return Err(format!("--{flag} only applies to --remote planning{why}"));
        }
    }
    let profile = read_profile(args.require("input")?)?;
    let strategy = match args.get("strategy") {
        Some(name) => parse_strategy(name)?,
        None => StrategyChoice::Baseline,
    };
    let config = SynthConfig {
        enable_gap_insertion: !args.flag("no-gaps"),
        ascending_sizes: args.flag("ascending"),
        strategy,
    };
    if let Some(note) = ignored_switches_note(&config) {
        eprintln!("{note}");
    }
    let output = args.require("output")?;

    let plan = match remote {
        Some(addr) => plan_remote(args, addr, &profile, &config)?,
        None => plan_local(args.get("cache"), &profile, &config)?,
    };
    plan.validate()?;
    let s = plan.stats;
    eprintln!(
        "plan: strategy {}, pool {:.3} GiB, packing {:.3}, {} layers, \
         {} gap insertions, {} HomoLayer groups",
        s.strategy.name(),
        gib(s.pool_size),
        s.packing_efficiency(),
        s.layers,
        s.gap_inserted,
        s.homolayer_groups
    );
    emit(Some(output), &encode_plan(&plan), "STPL")
}

/// Plans through the `stalloc serve` daemon at `addr`: the profile in
/// full, or as an edit script against `--delta-base`.
fn plan_remote(
    args: &Args,
    addr: &str,
    profile: &ProfiledRequests,
    config: &SynthConfig,
) -> Result<Plan, String> {
    let remote_err = |e| format!("--remote {addr}: {e}");
    let mut client = PlanClient::connect(addr).map_err(remote_err)?;
    let r = match args.get("delta-base") {
        Some(base_path) => {
            let base = read_profile(base_path)?;
            eprintln!(
                "plan server {addr}: sending PROF-DELTA against base {}",
                fingerprint_profile(&base).to_hex()
            );
            client.plan_delta(&base, profile, config)
        }
        None => client.plan(profile, config),
    }
    .map_err(remote_err)?;
    let verdict = if r.source == PlanSource::Patched {
        "patched"
    } else if r.source.is_hit() {
        "hit"
    } else {
        "miss"
    };
    eprintln!(
        "plan server {addr}: {verdict} {} ({:?}, {} µs server-side)",
        r.fingerprint, r.source, r.micros
    );
    if let Some(trace_file) = args.get("trace") {
        write_request_trace(&mut client, trace_file)?;
    }
    Ok(r.plan)
}

/// Synthesizes in this process: through the plan cache at `cache`, as a
/// reported portfolio race, or plainly.
fn plan_local(
    cache: Option<&str>,
    profile: &ProfiledRequests,
    config: &SynthConfig,
) -> Result<Plan, String> {
    if let Some(dir) = cache {
        let store = PlanStore::open(dir).map_err(|e| e.to_string())?;
        let (plan, fp, outcome) = synthesize_cached(profile, config, &store, synthesize_strategy)
            .map_err(|e| e.to_string())?;
        match outcome {
            CacheOutcome::Hit => eprintln!("plan cache: hit {fp} — synthesis skipped"),
            CacheOutcome::Miss => eprintln!("plan cache: miss {fp} — synthesized and stored"),
        }
        Ok(plan)
    } else if config.strategy == StrategyChoice::Portfolio {
        let outcome = Portfolio::standard().run(profile, config);
        report_portfolio(&outcome);
        Ok(outcome.winner)
    } else {
        Ok(synthesize_strategy(profile, config))
    }
}

/// A local portfolio run reports every candidate, the winner marked.
fn report_portfolio(outcome: &PortfolioOutcome) {
    for c in &outcome.candidates {
        let verdict = if !c.valid {
            "invalid".to_string()
        } else {
            format!(
                "packing {:.4}, pool {:.3} GiB",
                c.packing_efficiency,
                gib(c.pool_size)
            )
        };
        let p = &c.profile;
        eprintln!(
            "  {:<10} {verdict} ({} ms){}",
            c.strategy.name(),
            c.elapsed.as_millis(),
            if c.winner { "  ← winner" } else { "" }
        );
        eprintln!(
            "  {:<10} layout {} · pack {} · finish {} · {} candidates, \
             {} placed, {} rejected",
            "",
            fmt_micros(p.layout_micros),
            fmt_micros(p.pack_micros),
            fmt_micros(p.finish_micros),
            p.candidates_evaluated,
            p.placements_tried,
            p.placements_rejected
        );
    }
}

/// Exports the request that just ran on `client` as a merged
/// client+server Chrome timeline at `path`: the client span on one pid
/// lane, the server's matching span centered inside its `await` slice
/// on another, `net_queue_micros` covering the difference.
///
/// Works on the same keep-alive connection as the plan on purpose: the
/// server records a request's span before reading the next frame, so
/// the follow-up `TraceGet` deterministically sees it.
fn write_request_trace(client: &mut PlanClient, path: &str) -> Result<(), String> {
    let span = client
        .last_span()
        .ok_or("--trace: no client span recorded for the request")?;
    let trace_hex = client.trace_context().trace_hex();
    let server_spans = client
        .trace_get(&trace_hex)
        .map_err(|e| format!("--trace: {e}"))?;
    // The wire context we sent was a child of the client span, so the
    // matching server span names it as parent.
    let parent_hex = span.trace.span_hex();
    let server_view = server_spans
        .iter()
        .find(|s| s.parent_span_id == parent_hex)
        .map(SpanView::from);
    let trace = merged_request_timeline(&SpanView::from(&span), server_view.as_ref());
    let note = format!("{} events, trace {trace_hex}", trace.len());
    emit(Some(path), trace.to_json().as_bytes(), &note)
}

#[cfg(test)]
mod tests {
    use super::super::stats::{render_metrics, render_solver_table};
    use super::super::{argv, dispatch};
    use super::*;
    use crate::files::read_plan;
    use std::fs;

    #[test]
    fn strategy_flag_parses_and_suggests() {
        assert_eq!(
            parse_strategy("portfolio").unwrap(),
            StrategyChoice::Portfolio
        );
        assert_eq!(
            parse_strategy("tmp-order").unwrap(),
            StrategyChoice::TmpOrder
        );
        let err = parse_strategy("basline").unwrap_err();
        assert!(err.contains("did you mean 'baseline'"), "{err}");
        let err = parse_strategy("zzzzz").unwrap_err();
        assert!(err.contains("stalloc strategies"), "{err}");
    }

    #[test]
    fn plan_strategy_portfolio_end_to_end() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-strat-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.prof").to_string_lossy().to_string();
        let base_p = dir.join("base.stplan").to_string_lossy().to_string();
        let port_p = dir.join("port.stplan").to_string_lossy().to_string();
        let port2_p = dir.join("port2.stplan").to_string_lossy().to_string();

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();

        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {base_p} --strategy baseline"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {port_p} --strategy portfolio"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {port2_p} --strategy portfolio"
        )))
        .unwrap();

        let base = read_plan(&base_p).unwrap();
        let port = read_plan(&port_p).unwrap();
        assert!(
            port.pool_size <= base.pool_size,
            "portfolio never loses to baseline"
        );
        assert_ne!(port.stats.strategy, StrategyChoice::Portfolio);
        // Deterministic winner: repeated portfolio runs are byte-identical.
        assert_eq!(fs::read(&port_p).unwrap(), fs::read(&port2_p).unwrap());

        let err = dispatch(&argv(&format!(
            "plan --input {prof_p} --output {port_p} --strategy lookahed"
        )))
        .unwrap_err();
        assert!(err.contains("did you mean 'lookahead'"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    /// Only `baseline`, alone or as the portfolio's racer, reads
    /// `--no-gaps` and `--ascending`; every other strategy says it
    /// ignores them.
    #[test]
    fn switches_a_strategy_ignores_are_noted() {
        for strategy in StrategyChoice::ALL {
            let reads = matches!(
                strategy,
                StrategyChoice::Baseline | StrategyChoice::Portfolio
            );
            for (gaps, ascending) in [(true, false), (false, false), (true, true)] {
                let config = SynthConfig {
                    enable_gap_insertion: gaps,
                    ascending_sizes: ascending,
                    strategy,
                };
                let switched = !gaps || ascending;
                let noted = ignored_switches_note(&config).is_some();
                assert_eq!(noted, switched && !reads, "{config:?}");
            }
        }
        let note = ignored_switches_note(&SynthConfig {
            enable_gap_insertion: false,
            strategy: StrategyChoice::TmpOrder,
            ..SynthConfig::default()
        });
        let note = note.expect("tmp-order ignores --no-gaps");
        assert!(note.contains("--strategy tmp-order ignores"), "{note}");
    }

    #[test]
    fn remote_and_cache_are_mutually_exclusive() {
        let err = dispatch(&argv(
            "plan --input p.json --output x.json --cache c --remote 127.0.0.1:1",
        ))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn remote_plan_against_live_server() {
        use stalloc_served::{PlanServer, ServeConfig};

        let dir = std::env::temp_dir().join(format!("stalloc-cli-remote-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.prof").to_string_lossy().to_string();
        let plan_p = dir.join("pl.stplan").to_string_lossy().to_string();
        let store_d = dir.join("served-store");

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();

        let server = PlanServer::start(ServeConfig {
            workers: 2,
            store_dir: Some(store_d),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();

        // First remote plan synthesizes on the server; the second is a
        // cache hit (the CI smoke test exercises the same pair through
        // the real binary).
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr}"
        )))
        .unwrap();
        let stats = server.stats();
        assert_eq!(stats.plan_requests, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits(), 1);

        // The remotely planned artifact is a normal local plan file.
        let plan = read_plan(&plan_p).unwrap();
        plan.validate().unwrap();

        // The profile and the plan have one form each: there is no
        // switch to another.
        for flag in ["--wire json", "--format json"] {
            let err = dispatch(&argv(&format!(
                "plan --input {prof_p} --output {plan_p} --remote {addr} {flag}"
            )))
            .unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(err.contains(&format!("unknown flag '{name}'")), "{err}");
        }

        // `stalloc stats` renders the live server's counters and
        // histograms end to end (one miss + one hit are on the books),
        // and `stalloc top --count 1` prints a single dashboard frame.
        dispatch(&argv(&format!("stats {addr}"))).unwrap();
        dispatch(&argv(&format!("stats {addr} --slowest 0"))).unwrap();
        dispatch(&argv(&format!("stats {addr} --format json"))).unwrap();
        dispatch(&argv(&format!("top {addr} --count 1"))).unwrap();

        // The one miss ran the solver: its per-strategy profile is on
        // the Metrics wire and renders as the solver table.
        let metrics = PlanClient::connect(addr)
            .and_then(|mut c| c.metrics())
            .unwrap();
        assert!(!metrics.solver.is_empty(), "solver section populated");
        let table = render_solver_table(&metrics.solver);
        assert!(table.contains("baseline"), "{table}");
        let text = render_metrics(&addr.to_string(), &metrics, 0);
        assert!(text.contains("solver"), "{text}");

        // An unreachable server is a clean error, not a hang or panic.
        server.shutdown();
        let err = dispatch(&argv(&format!("stats {addr}"))).unwrap_err();
        assert!(err.contains(&addr.to_string()), "{err}");
        let err = dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr}"
        )))
        .unwrap_err();
        assert!(err.contains("--remote"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_trace_flag_is_remote_only_and_values_are_checked() {
        let err =
            dispatch(&argv("plan --input p.json --output x.json --trace t.json")).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = dispatch(&argv("serve --slowest nope")).unwrap_err();
        assert!(err.contains("--slowest"), "{err}");
        // The format check fires before any connection attempt.
        let err = dispatch(&argv("stats 127.0.0.1:1 --format xml")).unwrap_err();
        assert!(err.contains("--format"), "{err}");
    }

    #[test]
    fn remote_plan_trace_writes_a_merged_chrome_timeline() {
        use stalloc_served::{PlanServer, ServeConfig};

        let dir = std::env::temp_dir().join(format!("stalloc-cli-mtrace-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.prof").to_string_lossy().to_string();
        let plan_p = dir.join("pl.stplan").to_string_lossy().to_string();
        let log_p = dir.join("server-trace.jsonl");
        let merged_p = dir.join("merged.json").to_string_lossy().to_string();
        let conv_p = dir.join("converted.json").to_string_lossy().to_string();

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();

        let server = PlanServer::start(ServeConfig {
            workers: 2,
            trace_log: Some(log_p.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();

        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr} --trace {merged_p}"
        )))
        .unwrap();

        let events =
            match serde_json::from_str::<serde::Value>(&fs::read_to_string(&merged_p).unwrap())
                .unwrap()
            {
                serde::Value::Seq(events) => events,
                other => panic!("expected array, got {other:?}"),
            };
        assert!(events.len() >= 8, "thin timeline: {} events", events.len());

        let str_of = |e: &serde::Value, k: &str| match e.get(k) {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let u64_of =
            |e: &serde::Value, k: &str| e.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        let slices: Vec<&serde::Value> = events.iter().filter(|e| str_of(e, "ph") == "X").collect();
        let pids: std::collections::BTreeSet<u64> =
            slices.iter().map(|e| u64_of(e, "pid")).collect();
        assert_eq!(
            pids.into_iter().collect::<Vec<_>>(),
            vec![1, 2],
            "client and server lanes"
        );

        // Root slices are the ones carrying a `verb` arg; phases carry
        // none. The client planned over the binary profile wire, so the
        // server side of the same request is the ProfileBin verb.
        let root_of = |pid: u64| {
            slices
                .iter()
                .find(|e| {
                    u64_of(e, "pid") == pid && e.get("args").and_then(|a| a.get("verb")).is_some()
                })
                .copied()
                .unwrap_or_else(|| panic!("no root slice on pid {pid}"))
        };
        let client_root = root_of(1);
        let server_root = root_of(2);
        assert_eq!(str_of(client_root, "name"), "Plan");
        assert_eq!(str_of(server_root, "name"), "ProfileBin");

        // One trace id end to end, client and server.
        let args_of = |e: &serde::Value| e.get("args").unwrap().clone();
        let trace_id = match args_of(client_root).get("trace_id") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("client trace_id arg: {other:?}"),
        };
        assert_eq!(trace_id.len(), 32, "{trace_id}");
        match args_of(server_root).get("trace_id") {
            Some(serde::Value::Str(s)) => assert_eq!(*s, trace_id),
            other => panic!("server trace_id arg: {other:?}"),
        }
        // The server span descends from the client span: its parent is
        // the wire context's parent, i.e. the client span itself.
        match (
            args_of(server_root).get("parent_span_id"),
            args_of(client_root).get("span_id"),
        ) {
            (Some(serde::Value::Str(parent)), Some(serde::Value::Str(span))) => {
                assert_eq!(parent, span, "server span parented on the client span")
            }
            other => panic!("id args missing: {other:?}"),
        }

        // The server span obeys the layout law: inside the client's
        // await slice when it fits there, otherwise end-aligned with
        // the await end (the head overlaps the client's write — the
        // frames pipeline), otherwise pinned inside the client root,
        // otherwise laid after it. The unaccounted remainder of the
        // wait is reported as net_queue_micros.
        let await_slice = slices
            .iter()
            .find(|e| u64_of(e, "pid") == 1 && str_of(e, "name") == "await")
            .expect("client await slice");
        let (a_ts, a_dur) = (u64_of(await_slice, "ts"), u64_of(await_slice, "dur"));
        let (c_ts, c_dur) = (u64_of(client_root, "ts"), u64_of(client_root, "dur"));
        assert!(c_ts + c_dur >= a_ts + a_dur, "await nests in the root");
        let (s_ts, s_dur) = (u64_of(server_root, "ts"), u64_of(server_root, "dur"));
        if s_dur <= a_dur {
            assert!(
                s_ts >= a_ts && s_ts + s_dur <= a_ts + a_dur,
                "server span [{s_ts}, {}] escapes the await window [{a_ts}, {}]",
                s_ts + s_dur,
                a_ts + a_dur
            );
        } else if s_dur <= a_ts + a_dur {
            assert_eq!(s_ts + s_dur, a_ts + a_dur, "end-aligned with the await end");
        } else if s_dur <= c_ts + c_dur {
            assert_eq!(s_ts, c_ts, "pinned to the client root start");
        } else {
            assert_eq!(s_ts, c_ts + c_dur + 1, "disjoint fallback");
        }
        // The server's phase slices always nest inside its own root.
        for s in slices.iter().filter(|e| u64_of(e, "pid") == 2) {
            let (ts, dur) = (u64_of(s, "ts"), u64_of(s, "dur"));
            assert!(
                ts >= s_ts && ts + dur <= s_ts + s_dur,
                "server phase [{ts}, {}] escapes its root [{s_ts}, {}]",
                ts + dur,
                s_ts + s_dur
            );
        }
        let net_queue: u64 = match args_of(client_root).get("net_queue_micros") {
            Some(serde::Value::Str(s)) => s.parse().unwrap(),
            other => panic!("net_queue_micros arg: {other:?}"),
        };
        assert_eq!(net_queue, a_dur.saturating_sub(s_dur));

        // The same trace id is on the server's own JSONL trace log (the
        // span was recorded before our TraceGet got its answer)...
        let log = fs::read_to_string(&log_p).unwrap();
        assert!(log.contains(&trace_id), "trace id in server log:\n{log}");
        // ...and that log converts to a standalone Chrome timeline.
        dispatch(&argv(&format!(
            "trace chrome {} --output {conv_p}",
            log_p.display()
        )))
        .unwrap();
        let conv = fs::read_to_string(&conv_p).unwrap();
        assert!(serde_json::from_str::<serde::Value>(&conv).is_ok());
        assert!(conv.contains(&trace_id));

        server.shutdown();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_timelines_list_server_phases_in_the_order_they_ran() {
        use stalloc_served::{PlanServer, ServeConfig};

        // The order a request lives its phases in, spelled out: the
        // timeline must not merely agree with whatever `Phase::ALL` says.
        const ORDER: [&str; 10] = [
            "queue_wait",
            "frame_read",
            "decode",
            "fingerprint",
            "lru_lookup",
            "store_lookup",
            "replan",
            "synthesis",
            "encode",
            "frame_write",
        ];
        let dir = std::env::temp_dir().join(format!("stalloc-cli-order-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().to_string();
        for stage in [0, 1] {
            dispatch(&argv(&format!(
                "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 --iterations 2 \
                 --stage {stage} --output {}",
                path(&format!("t{stage}.json"))
            )))
            .unwrap();
            dispatch(&argv(&format!(
                "profile --input {} --output {}",
                path(&format!("t{stage}.json")),
                path(&format!("p{stage}.prof"))
            )))
            .unwrap();
        }
        let server = PlanServer::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let remote = format!("--remote {} --output {}", server.addr(), path("pl.stplan"));

        // A cold miss, then its neighbouring stage as a patched delta.
        for (request, marker) in [
            (format!("--input {}", path("p0.prof")), "synthesis"),
            (
                format!(
                    "--input {} --delta-base {}",
                    path("p1.prof"),
                    path("p0.prof")
                ),
                "replan",
            ),
        ] {
            let timeline = path(&format!("{marker}.json"));
            dispatch(&argv(&format!(
                "plan {request} {remote} --trace {timeline}"
            )))
            .unwrap();
            let doc = fs::read_to_string(&timeline).unwrap();
            let serde::Value::Seq(events) = serde_json::from_str(&doc).unwrap() else {
                panic!("expected array: {doc}");
            };
            // Server-lane phase slices: pid 2, no `verb` arg.
            let phases: Vec<(u64, usize)> = events
                .iter()
                .filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(2))
                .filter(|e| e.get("args").is_some_and(|a| a.get("verb").is_none()))
                .filter_map(|e| match (e.get("ts")?.as_u64()?, e.get("name")?) {
                    (ts, serde::Value::Str(name)) => {
                        Some((ts, ORDER.iter().position(|p| p == name)?))
                    }
                    _ => None,
                })
                .collect();
            assert!(phases.len() >= 5, "{marker}: thin server lane in {doc}");
            for pair in phases.windows(2) {
                assert!(
                    pair[0].0 <= pair[1].0 && pair[0].1 < pair[1].1,
                    "{marker}: {} laid before {} in {doc}",
                    ORDER[pair[0].1],
                    ORDER[pair[1].1]
                );
            }
            assert!(doc.contains(marker), "{marker} missing from {doc}");
        }
        server.shutdown();
        fs::remove_dir_all(&dir).ok();
    }
}
