//! Subcommand implementations for the `stalloc` tool.

use std::fs;

use gpu_sim::DeviceSpec;
use harness::{run, AllocatorKind};
use stalloc_core::wire::NamedHistogram;
use stalloc_core::{
    diff_profiles, fingerprint_profile, profile_trace, EditOp, Plan, ProfileEncoding,
    ProfiledRequests, ServeMetrics, StrategyChoice, SynthConfig, FINGERPRINT_VERSION,
    SYNTH_ALGO_VERSION,
};
use stalloc_obs::chrome::{lanes_timeline, merged_request_timeline, Lane, SpanView};
use stalloc_obs::{ClientSpanSnapshot, Phase};
use stalloc_served::{ClientError, PlanClient, PlanServer, ServeConfig};
use stalloc_solver::{registry, synthesize_portfolio, synthesize_strategy};
use stalloc_store::{
    decode_plan, decode_profile, encode_plan, encode_profile, encode_profile_delta, is_binary_plan,
    is_binary_profile, synthesize_cached,
};
use stalloc_store::{CacheOutcome, PlanStore};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, Trace, TrainJob};

use crate::args::{nearest, Args, FlagSpec};

/// Usage text printed on errors and by `stalloc --help`.
pub const USAGE: &str = "\
usage: stalloc <command> [--flags]
       stalloc <command> --help   for per-command details

commands:
  trace       generate a training memory trace, or convert trace-log
              JSONL files to a Chrome timeline (trace merge|chrome)
  profile     characterize one iteration's requests (paper section 4)
  plan        synthesize the allocation plan (paper section 5),
              locally or against a plan server (--remote; add --trace
              FILE for a merged client+server Chrome timeline, or
              --delta-base BASE to send a PROF-DELTA edit script)
  diff-prof   diff two profiles into the PROF-DELTA edit script and
              summarize its ops and wire size
  show        render a plan's occupancy as ASCII art
  explain     replay a plan into a fragmentation/occupancy timeline
              (table, JSON, or SVG memory map)
  replay      replay a trace through an allocator (paper section 9 metrics)
  serve       run the plan-synthesis daemon over a shared plan cache
  stats       show a live server's counters and latency histograms
  top         refreshing live dashboard for a plan server
  cache       inspect a plan cache directory (ls | gc | clear)
  strategies  list the registered plan-synthesis strategies
  fuzz        fuzz the wire decoders and the plan server (deterministic)
  version     print tool and planner-algorithm versions";

struct Command {
    name: &'static str,
    help: &'static str,
    spec: FlagSpec,
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "trace",
        help: "\
usage: stalloc trace --model M --output FILE [flags]
  --model M         gpt2|llama2-7b|qwen2.5-{7b,14b,32b,72b}|qwen1.5-moe
  --output FILE     trace destination (JSON)
  --tp/--pp/--dp N  tensor/pipeline/data parallel degree (default 1)
  --ep N            expert parallel degree (default 1)
  --vpp N           virtual pipeline stages
  --mbs N           micro-batch size (default 1)
  --seq N           sequence length (default: model native)
  --microbatches N  microbatches per iteration (default 4*pp)
  --stage N         pipeline stage the trace observes, 0-based (default
                    0, the most memory-loaded stage under 1F1B; varying
                    it yields the Chronos-style per-stage profile
                    family that `plan --delta-base` serves as deltas)
  --iterations N    iterations to emit (default 3)
  --seed N          workload RNG seed (default 42)
  --optim C         N|R|V|VR|ZR|ZOR optimization combo (default N)

`stalloc trace merge|chrome FILE... [--output OUT.json]` instead
converts `stalloc serve --trace-log` JSONL files into one Chrome
trace-event timeline (see `stalloc trace merge --help`)",
        spec: FlagSpec {
            value_flags: &[
                "model",
                "output",
                "tp",
                "pp",
                "dp",
                "ep",
                "vpp",
                "mbs",
                "seq",
                "microbatches",
                "stage",
                "iterations",
                "seed",
                "optim",
            ],
            bool_flags: &[],
        },
        run: cmd_trace,
    },
    Command {
        name: "profile",
        help: "\
usage: stalloc profile --input TRACE --output FILE [--iteration N]
  --input TRACE     trace JSON produced by `stalloc trace`
  --output FILE     profile destination (JSON)
  --iteration N     1-based iteration to profile (default 1)",
        spec: FlagSpec {
            value_flags: &["input", "output", "iteration"],
            bool_flags: &[],
        },
        run: cmd_profile,
    },
    Command {
        name: "plan",
        help: "\
usage: stalloc plan --input PROFILE --output FILE [flags]
  --input PROFILE   profile JSON produced by `stalloc profile`
  --output FILE     plan destination
  --format F        bin|json (default: bin when FILE ends in
                    .stplan/.bin, else json)
  --strategy S      packing strategy: baseline|bestfit|tmp-order|
                    lookahead, or `portfolio` to race them all and keep
                    the best plan (default baseline; see
                    `stalloc strategies`)
  --cache DIR       consult/populate a plan cache: on a fingerprint hit
                    the plan is loaded and synthesis is skipped
  --remote ADDR     plan via a `stalloc serve` daemon at ADDR instead of
                    synthesizing locally (mutually exclusive with --cache)
  --wire W          with --remote: how the profile travels — `bin`
                    (default: PROF binary codec in a raw frame) or
                    `json` (inline, for pre-binary servers / nc
                    debugging)
  --trace FILE      with --remote: write the request as a merged
                    client+server Chrome trace-event timeline to FILE
                    (load in chrome://tracing or Perfetto; the server's
                    phase spans nest inside the client's await slice,
                    the unaccounted remainder is `net_queue_micros`)
  --delta-base BASE with --remote: send the profile as a PROF-DELTA
                    edit script against the base profile in file BASE
                    (JSON or binary PROF) instead of in full — a server
                    holding the base patches its cached plan in place
                    of a cold synthesis; against a base the server does
                    not hold (or a pre-PlanDelta server) the client
                    transparently retries as a full request
  --no-fusion       disable HomoPhase fusion (ablation; steers the
                    grouped pipelines — baseline, tmp-order — only)
  --no-gaps         disable gap insertion (ablation; baseline only)
  --ascending       process size classes ascending (ablation;
                    baseline only)",
        spec: FlagSpec {
            value_flags: &[
                "input",
                "output",
                "format",
                "strategy",
                "cache",
                "remote",
                "wire",
                "trace",
                "delta-base",
            ],
            bool_flags: &["no-fusion", "no-gaps", "ascending"],
        },
        run: cmd_plan,
    },
    Command {
        name: "strategies",
        help: "\
usage: stalloc strategies
  lists the registered plan-synthesis strategies (usable as
  `stalloc plan --strategy NAME`) plus the `portfolio` meta-strategy
  that races all of them in parallel and keeps the best plan",
        spec: FlagSpec {
            value_flags: &[],
            bool_flags: &[],
        },
        run: cmd_strategies,
    },
    Command {
        name: "show",
        help: "\
usage: stalloc show --input PLAN [--rows N] [--cols N]
  --input PLAN      plan file, binary (.stplan) or JSON — autodetected
  --rows N          occupancy rows (default 16)
  --cols N          occupancy columns (default 72)",
        spec: FlagSpec {
            value_flags: &["input", "rows", "cols"],
            bool_flags: &[],
        },
        run: cmd_show,
    },
    Command {
        name: "replay",
        help: "\
usage: stalloc replay --input TRACE [flags]
  --input TRACE     trace JSON produced by `stalloc trace`
  --allocator A     stalloc|stalloc-noreuse|torch20|torch23|torch26|
                    es|gmlake|native (default stalloc)
  --device D        a800|h200|mi210 (default a800)
  --frag-limit MiB  GMLake fragmentation limit (default 512)",
        spec: FlagSpec {
            value_flags: &["input", "allocator", "device", "frag-limit"],
            bool_flags: &[],
        },
        run: cmd_replay,
    },
    Command {
        name: "serve",
        help: "\
usage: stalloc serve [flags]
  --addr A          bind address (default 127.0.0.1:4547; port 0 picks
                    a free port, printed on startup)
  --workers N       worker threads (default 4)
  --cache DIR       shared on-disk plan store (default: in-memory only)
  --queue N         accept-queue bound before Busy rejections (default 64)
  --lru N           in-process LRU capacity in plans (default 128; 0 off)
  --max-frame-mib N largest accepted request frame (default 64)
  --trace-log FILE  append one JSON line per served request (seq, verb,
                    cache tier, total and per-phase µs) — `tail -f`
                    friendly; off by default
  --trace-log-max-bytes N
                    rotate the trace log when it would exceed N bytes
                    (FILE → FILE.1, one rotated file kept; default:
                    unbounded)
  --metrics-addr A  also serve Prometheus text-format metrics over HTTP
                    at A (`GET /metrics`; port 0 picks a free port,
                    printed on startup); off by default
  --slowest N       retain the N slowest-ever request spans for the
                    `Metrics` verb / `stalloc stats --slowest`
                    (default 16; 0 disables the list)

serves the length-prefixed JSONL plan protocol until killed; identical
concurrent jobs are deduplicated to one synthesis (single-flight);
`stalloc stats ADDR` shows its live counters and latency histograms,
`stalloc top ADDR` keeps a refreshing dashboard on them",
        spec: FlagSpec {
            value_flags: &[
                "addr",
                "workers",
                "cache",
                "queue",
                "lru",
                "max-frame-mib",
                "trace-log",
                "trace-log-max-bytes",
                "metrics-addr",
                "slowest",
            ],
            bool_flags: &[],
        },
        run: cmd_serve,
    },
    Command {
        name: "fuzz",
        help: "\
usage: stalloc fuzz [flags]
  --iters N         mutations per codec target (default 100000; the
                    server harness runs min(N, 256) live TCP scenarios)
  --seed N          master RNG seed (default 42) — same seed, same run,
                    any machine
  --target T        prof|stpl|delta|frame|server|all (default all)
  --corpus DIR      committed-seed corpus root (default: the corpus
                    shipped in crates/stalloc-fuzz/corpus)

replays the committed regression corpus, then fires structure-aware
mutants at the strict decoders, checking differential oracles
(decode→re-encode fixpoint, fingerprint-of-bytes == fingerprint-of-
value, STPL v1/v2 interop) and malformed-stream recovery on a live
loopback server; exits nonzero on any panic, oracle violation, or
never-exercised rejection variant (minimized failures land in
target/fuzz-failures/)",
        spec: FlagSpec {
            value_flags: &["iters", "seed", "target", "corpus"],
            bool_flags: &[],
        },
        run: cmd_fuzz,
    },
    Command {
        name: "version",
        help: "\
usage: stalloc version
  prints the tool version plus the planner-algorithm and profile
  fingerprint versions that key the plan caches (fingerprint v4: a
  client and the daemon it talks to must print the same one; store
  entries keyed by an older one are never served again and only
  `stalloc cache clear` reclaims them)",
        spec: FlagSpec {
            value_flags: &[],
            bool_flags: &[],
        },
        run: cmd_version,
    },
];

const STATS_HELP: &str = "\
usage: stalloc stats ADDR [--slowest N] [--format text|json]
  queries the `stalloc serve` daemon at ADDR for its live counters and
  latency histograms (the `Metrics` wire verb) and renders hit ratios
  plus p50/p90/p99 per cache tier and per request phase
  --slowest N       also show the N slowest retained requests
                    (default 3; 0 hides the section)
  --format F        text (default): the rendered tables; json: the raw
                    `Metrics` document on stdout, one line, for scripts

a server that predates the `Metrics` verb rejects it; this command then
falls back to the counters-only `Stats` verb and says so (on stderr
under --format json, whose stdout stays pure JSON)";

const STATS_SPEC: FlagSpec = FlagSpec {
    value_flags: &["slowest", "format"],
    bool_flags: &[],
};

const TRACE_CONVERT_HELP: &str = "\
usage: stalloc trace <merge|chrome> FILE... [--output OUT.json]
  converts `stalloc serve --trace-log` JSONL span logs into one Chrome
  trace-event JSON timeline (load in chrome://tracing or Perfetto):
  each FILE becomes its own pid lane named after the file, its spans
  laid back-to-back with per-phase child slices; `merge` and `chrome`
  are synonyms
  --output OUT.json  write the timeline to OUT.json (default: stdout)

to trace a single live request end to end — client and server lanes
merged on one clock — use `stalloc plan --remote ADDR --trace OUT.json`";

const TRACE_CONVERT_SPEC: FlagSpec = FlagSpec {
    value_flags: &["output"],
    bool_flags: &[],
};

const CACHE_HELP: &str = "\
usage: stalloc cache <ls|gc|clear> --dir DIR
  ls     list cached plans (fingerprint, size, pool, created)
         --long  also decode each artifact: strategy, codec version,
                 encoded plan size
  gc     remove corrupt or misnamed artifacts and stale temp files
  clear  remove every cached plan";

const CACHE_SPEC: FlagSpec = FlagSpec {
    value_flags: &["dir"],
    bool_flags: &["long"],
};

const EXPLAIN_HELP: &str = "\
usage: stalloc explain PLAN [--format table|json|svg] [flags]
  replays the plan's allocations into a fragmentation/occupancy
  timeline: per-tick live bytes, free-gap histogram, and stranded
  memory attributed to the tensors roofing each gap; the reported peak
  and fragmentation agree exactly with the plan's own stats
  --format F        table (default): occupancy sparkline + gap
                    histogram + stranded top-K; json: the full
                    timeline; svg: a memory-map rendering (offset x
                    time, colored by lifetime class)
  --top N           stranded tensors to attribute (default 5)
  --output FILE     write to FILE instead of stdout";

const EXPLAIN_SPEC: FlagSpec = FlagSpec {
    value_flags: &["format", "top", "output"],
    bool_flags: &[],
};

const DIFF_PROF_HELP: &str = "\
usage: stalloc diff-prof BASE NEXT [--output FILE]
  diffs two profiles (JSON or binary PROF, autodetected) into the
  PROF-DELTA edit script `stalloc plan --remote --delta-base` puts on
  the wire: prints the base fingerprint, per-op counts, the reused
  share of the request population, and the edit script's wire size
  against the full PROF encoding of NEXT
  --output FILE     also write the encoded PROF-DELTA frame to FILE";

const DIFF_PROF_SPEC: FlagSpec = FlagSpec {
    value_flags: &["output"],
    bool_flags: &[],
};

const TOP_HELP: &str = "\
usage: stalloc top ADDR [--interval SECS] [--count N]
  polls the `stalloc serve` daemon at ADDR (the `Metrics` wire verb)
  and keeps a refreshing dashboard: request counters, per-tier and
  per-phase latency, and per-strategy solver-phase profiles
  --interval SECS   seconds between refreshes (default 2)
  --count N         stop after N frames (default: refresh until
                    interrupted; 1 prints a single frame and exits)";

const TOP_SPEC: FlagSpec = FlagSpec {
    value_flags: &["interval", "count"],
    bool_flags: &[],
};

/// Dispatches `argv[0]` to its subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    match cmd.as_str() {
        "--version" | "-V" => cmd_version(&Args::default()),
        "help" | "--help" | "-h" => {
            // `stalloc help <command>` prints that command's help.
            if let Some(topic) = rest.first() {
                return print_command_help(topic);
            }
            println!("{USAGE}");
            Ok(())
        }
        // `trace` doubles as a command group: `trace merge|chrome` is
        // the log-to-Chrome converter, anything else the generator.
        "trace" if matches!(rest.first().map(String::as_str), Some("merge" | "chrome")) => {
            dispatch_trace_convert(&rest[1..])
        }
        "cache" => dispatch_cache(rest),
        "stats" => dispatch_stats(rest),
        "explain" => dispatch_explain(rest),
        "top" => dispatch_top(rest),
        "diff-prof" => dispatch_diff_prof(rest),
        name => {
            let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
                let candidates = COMMANDS.iter().map(|c| c.name).chain([
                    "cache",
                    "stats",
                    "explain",
                    "top",
                    "diff-prof",
                    "help",
                ]);
                return Err(match nearest(name, candidates) {
                    Some(s) => format!("unknown command '{name}' (did you mean '{s}'?)"),
                    None => format!("unknown command '{name}'"),
                });
            };
            let args = Args::parse(rest, &command.spec)?;
            if args.wants_help() {
                println!("{}", command.help);
                return Ok(());
            }
            (command.run)(&args)
        }
    }
}

fn print_command_help(topic: &str) -> Result<(), String> {
    if topic == "cache" {
        println!("{CACHE_HELP}");
        return Ok(());
    }
    if topic == "stats" {
        println!("{STATS_HELP}");
        return Ok(());
    }
    if topic == "explain" {
        println!("{EXPLAIN_HELP}");
        return Ok(());
    }
    if topic == "top" {
        println!("{TOP_HELP}");
        return Ok(());
    }
    if topic == "diff-prof" {
        println!("{DIFF_PROF_HELP}");
        return Ok(());
    }
    match COMMANDS.iter().find(|c| c.name == topic) {
        Some(c) => {
            println!("{}", c.help);
            Ok(())
        }
        None => Err(format!("no help for unknown command '{topic}'")),
    }
}

fn dispatch_cache(rest: &[String]) -> Result<(), String> {
    let Some((action, rest)) = rest.split_first() else {
        return Err("cache: no action given (ls|gc|clear)".into());
    };
    if action == "--help" || action == "-h" || action == "help" {
        println!("{CACHE_HELP}");
        return Ok(());
    }
    let args = Args::parse(rest, &CACHE_SPEC)?;
    if args.wants_help() {
        println!("{CACHE_HELP}");
        return Ok(());
    }
    match action.as_str() {
        "ls" => {
            let store = PlanStore::open(args.require("dir")?).map_err(|e| e.to_string())?;
            let entries = store.entries().map_err(|e| e.to_string())?;
            if entries.is_empty() {
                println!("(empty cache at {})", store.dir().display());
                return Ok(());
            }
            let long = args.flag("long");
            if long {
                println!(
                    "{:<32} {:>10} {:>12} {:>8} {:>12} {:>10} {:>5} {:>10}",
                    "fingerprint",
                    "bytes",
                    "pool (GiB)",
                    "statics",
                    "created",
                    "strategy",
                    "codec",
                    "plan bytes"
                );
            } else {
                println!(
                    "{:<32} {:>10} {:>12} {:>8} {:>12}",
                    "fingerprint", "bytes", "pool (GiB)", "statics", "created"
                );
            }
            for e in &entries {
                print!(
                    "{:<32} {:>10} {:>12.3} {:>8} {:>12}",
                    e.fingerprint,
                    e.bytes,
                    e.pool_size as f64 / (1u64 << 30) as f64,
                    e.static_requests,
                    e.created_unix
                );
                if long {
                    // The entry is the summary; the artifact's own bytes
                    // know the strategy and the codec version.
                    let detail = stalloc_core::Fingerprint::from_hex(&e.fingerprint)
                        .map(|fp| store.plan_path(fp))
                        .and_then(|p| fs::read(p).ok())
                        .and_then(|bytes| {
                            if !is_binary_plan(&bytes) || bytes.len() < 6 {
                                return None;
                            }
                            let version = u16::from_le_bytes([bytes[4], bytes[5]]);
                            let plan = decode_plan(&bytes).ok()?;
                            Some((plan.stats.strategy.name(), version, bytes.len()))
                        });
                    match detail {
                        Some((strategy, version, len)) => {
                            print!(" {strategy:>10} {version:>5} {len:>10}")
                        }
                        None => print!(" {:>10} {:>5} {:>10}", "?", "?", "?"),
                    }
                }
                println!();
            }
            println!("{} plan(s)", entries.len());
            Ok(())
        }
        "gc" => {
            let store = PlanStore::open(args.require("dir")?).map_err(|e| e.to_string())?;
            let r = store.gc().map_err(|e| e.to_string())?;
            println!(
                "gc: removed {} corrupt file(s) + {} stale temp file(s); reclaimed {} bytes",
                r.orphan_files, r.temp_files, r.reclaimed_bytes
            );
            Ok(())
        }
        "clear" => {
            let store = PlanStore::open(args.require("dir")?).map_err(|e| e.to_string())?;
            let n = store.clear().map_err(|e| e.to_string())?;
            println!("cleared {n} plan(s) from {}", store.dir().display());
            Ok(())
        }
        other => Err(match nearest(other, ["ls", "gc", "clear", "help"]) {
            Some(s) => format!("unknown cache action '{other}' (did you mean '{s}'?)"),
            None => format!("unknown cache action '{other}'"),
        }),
    }
}

/// `stalloc trace merge|chrome FILE... [--output OUT.json]`: convert
/// trace-log JSONL files into one Chrome timeline, one pid lane each.
fn dispatch_trace_convert(rest: &[String]) -> Result<(), String> {
    if rest
        .first()
        .is_some_and(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{TRACE_CONVERT_HELP}");
        return Ok(());
    }
    // Leading positional tokens are the files; flags follow.
    let split = rest
        .iter()
        .position(|a| a.starts_with('-'))
        .unwrap_or(rest.len());
    let (files, flags) = rest.split_at(split);
    let args = Args::parse(flags, &TRACE_CONVERT_SPEC)?;
    if args.wants_help() {
        println!("{TRACE_CONVERT_HELP}");
        return Ok(());
    }
    if files.is_empty() {
        return Err("trace merge: no trace-log files given \
             (try `stalloc trace merge server.jsonl --output out.json`)"
            .into());
    }
    let mut lanes = Vec::with_capacity(files.len());
    for file in files {
        let text = fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value: serde::Value =
                serde_json::from_str(line).map_err(|e| format!("{file}:{}: {e}", i + 1))?;
            match SpanView::from_trace_line(&value) {
                Some(v) => spans.push(v),
                None => {
                    return Err(format!(
                        "{file}:{}: not a trace-log line (no `verb` key)",
                        i + 1
                    ))
                }
            }
        }
        lanes.push(Lane {
            name: file.clone(),
            spans,
        });
    }
    let trace = lanes_timeline(&lanes);
    let json = trace.to_json();
    match args.get("output") {
        Some(out) => {
            fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
            eprintln!(
                "wrote {out} ({} events from {} lane(s))",
                trace.len(),
                lanes.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn dispatch_stats(rest: &[String]) -> Result<(), String> {
    // Like `cache`, the first token is positional: the server address.
    let Some((addr, rest)) = rest.split_first() else {
        return Err("stats: no server address given (try `stalloc stats 127.0.0.1:4547`)".into());
    };
    if addr == "--help" || addr == "-h" || addr == "help" {
        println!("{STATS_HELP}");
        return Ok(());
    }
    let args = Args::parse(rest, &STATS_SPEC)?;
    if args.wants_help() {
        println!("{STATS_HELP}");
        return Ok(());
    }
    cmd_stats(
        addr,
        args.num("slowest", 3usize)?,
        args.get("format").unwrap_or("text"),
    )
}

fn cmd_stats(addr: &str, slowest: usize, format: &str) -> Result<(), String> {
    let json = match format {
        "text" => false,
        "json" => true,
        other => return Err(format!("--format: expected text|json, got '{other}'")),
    };
    let mut client = PlanClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    match client.metrics() {
        Ok(metrics) => {
            if json {
                let doc = serde_json::to_string(&metrics).map_err(|e| e.to_string())?;
                println!("{doc}");
            } else {
                print!("{}", render_metrics(addr, &metrics, slowest));
            }
            Ok(())
        }
        Err(ClientError::Server { .. }) => {
            // A pre-`Metrics` server rejects the unknown verb (and drops
            // the connection): fall back to the counters-only view.
            let stats = PlanClient::connect(addr)
                .and_then(|mut c| c.stats())
                .map_err(|e| format!("{addr}: {e}"))?;
            // The note goes to stderr so `--format json` stdout stays
            // machine-readable.
            eprintln!("note: server at {addr} predates the Metrics verb; counters only");
            if json {
                let doc = serde_json::to_string(&stats).map_err(|e| e.to_string())?;
                println!("{doc}");
            } else {
                print!("{}", render_counters(&stats));
            }
            Ok(())
        }
        Err(e) => Err(format!("{addr}: {e}")),
    }
}

/// Human latency: `42µs`, `1.2ms`, `3.10s`.
fn fmt_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// The counters block shared by the full and fallback views.
fn render_counters(s: &stalloc_core::ServeStats) -> String {
    use std::fmt::Write;
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
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9}",
        title, "count", "p50", "p90", "p99", "mean"
    );
    for row in rows {
        let h = &row.hist;
        let Some((p50, p90, p99)) = h.percentiles() else {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9}",
                row.name, 0, "-", "-", "-", "-"
            );
            continue;
        };
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9}",
            row.name,
            h.total(),
            fmt_micros(p50),
            fmt_micros(p90),
            fmt_micros(p99),
            fmt_micros(h.mean())
        );
    }
    out
}

/// Renders a full `Metrics` response: counters, per-tier and per-phase
/// latency tables, and the slowest retained requests.
fn render_metrics(addr: &str, m: &ServeMetrics, slowest: usize) -> String {
    use std::fmt::Write;
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

/// Human bytes: `512 B`, `1.5 KiB`, `2.3 MiB`, `1.20 GiB`.
fn fmt_bytes(b: u64) -> String {
    if b < 1 << 10 {
        format!("{b} B")
    } else if b < 1 << 20 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else if b < 1 << 30 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    }
}

/// Per-strategy solver table (the `solver` section of a `Metrics`
/// payload): run counts, phase-time split, and placement work.
fn render_solver_table(rows: &[stalloc_core::SolverStrategyMetrics]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>5} {:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9}",
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
        "p99"
    );
    for r in rows {
        let (p50, p99) = match (r.elapsed.quantile(0.50), r.elapsed.quantile(0.99)) {
            (Some(a), Some(b)) => (fmt_micros(a), fmt_micros(b)),
            _ => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>5} {:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9}",
            r.strategy,
            r.runs,
            r.wins,
            r.invalid,
            fmt_micros(r.layout_micros),
            fmt_micros(r.pack_micros),
            fmt_micros(r.finish_micros),
            r.candidates_evaluated,
            r.placements_tried,
            r.placements_rejected,
            p50,
            p99
        );
    }
    out
}

fn dispatch_explain(rest: &[String]) -> Result<(), String> {
    // Like `stats`, the first token is positional: the plan file.
    let Some((path, rest)) = rest.split_first() else {
        return Err("explain: no plan file given (try `stalloc explain plan.stplan`)".into());
    };
    if path == "--help" || path == "-h" || path == "help" {
        println!("{EXPLAIN_HELP}");
        return Ok(());
    }
    let args = Args::parse(rest, &EXPLAIN_SPEC)?;
    if args.wants_help() {
        println!("{EXPLAIN_HELP}");
        return Ok(());
    }
    cmd_explain(path, &args)
}

fn cmd_explain(path: &str, args: &Args) -> Result<(), String> {
    let plan = read_plan(path)?;
    let top = args.num("top", 5usize)?;
    let timeline = stalloc_core::analyze_plan(&plan, top);
    let mut body = match args.get("format").unwrap_or("table") {
        "table" => render_timeline_table(path, &plan, &timeline),
        "json" => serde_json::to_string(&timeline).map_err(|e| e.to_string())?,
        "svg" => stalloc_core::render_svg(&plan, &timeline),
        other => return Err(format!("--format: expected table|json|svg, got '{other}'")),
    };
    if !body.ends_with('\n') {
        body.push('\n');
    }
    match args.get("output") {
        Some(file) => {
            fs::write(file, &body).map_err(|e| format!("{file}: {e}"))?;
            eprintln!("wrote {file} ({} bytes)", body.len());
        }
        None => print!("{body}"),
    }
    Ok(())
}

/// The `--format table` view: header, occupancy sparkline, free-gap
/// histogram, stranded-memory attribution.
fn render_timeline_table(path: &str, plan: &Plan, t: &stalloc_core::PlanTimeline) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let frag_pct = if t.pool_size > 0 {
        t.fragmentation as f64 * 100.0 / t.pool_size as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "{path}: strategy {} · pool {} · peak {} @ tick {} · fragmentation {} ({frag_pct:.1}%)",
        plan.stats.strategy.name(),
        fmt_bytes(t.pool_size),
        fmt_bytes(t.peak_live_bytes),
        t.peak_tick,
        fmt_bytes(t.fragmentation)
    );
    if t.samples.is_empty() {
        let _ = writeln!(out, "(empty plan: no allocations to replay)");
        return out;
    }

    // Occupancy over time, live bytes as a fraction of the pool.
    const BLOCKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    const COLS: usize = 64;
    let horizon = t.samples.last().map(|s| s.tick).unwrap_or(0);
    let _ = writeln!(
        out,
        "occupancy ({} samples over {} ticks, one column ≈ {} ticks):",
        t.samples.len(),
        horizon + 1,
        (horizon / COLS as u64).max(1)
    );
    let cols = COLS.min(t.samples.len());
    let mut line = String::with_capacity(cols + 2);
    for col in 0..cols {
        let s = &t.samples[col * t.samples.len() / cols];
        let level = if t.pool_size == 0 {
            0
        } else {
            ((s.live_bytes as u128 * 8).div_ceil(t.pool_size as u128) as usize).min(8)
        };
        line.push(BLOCKS[level]);
    }
    let _ = writeln!(out, "  [{line}]");

    // Interior free gaps seen at the sampled ticks.
    match (
        t.gap_sizes.quantile(0.50),
        t.gap_sizes.quantile(0.90),
        t.gap_sizes.quantile(0.99),
    ) {
        (Some(p50), Some(p90), Some(p99)) => {
            let _ = writeln!(
                out,
                "free gaps: {} observed · p50 {} · p90 {} · p99 {}",
                t.gap_sizes.total(),
                fmt_bytes(p50),
                fmt_bytes(p90),
                fmt_bytes(p99)
            );
        }
        _ => {
            let _ = writeln!(out, "free gaps: none observed (contiguous occupancy)");
        }
    }

    // Stranded-memory attribution: the tensors roofing the gaps.
    if !t.stranded.is_empty() {
        let _ = writeln!(
            out,
            "stranded memory, top {} by byte·ticks stranded beneath the tensor:",
            t.stranded.len()
        );
        let _ = writeln!(
            out,
            "  {:<6} {:>6} {:>10} {:>12} {:>18} {:>16}",
            "kind", "index", "size", "offset", "live [ts, te)", "byte·ticks"
        );
        for s in &t.stranded {
            let _ = writeln!(
                out,
                "  {:<6} {:>6} {:>10} {:>12} {:>18} {:>16}",
                s.kind,
                s.index,
                fmt_bytes(s.size),
                s.offset,
                format!("[{}, {})", s.ts, s.te),
                s.stranded_byte_ticks
            );
        }
    }
    out
}

fn dispatch_diff_prof(rest: &[String]) -> Result<(), String> {
    // Like `explain`, the leading tokens are positional: the two
    // profile files.
    if rest
        .first()
        .is_some_and(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{DIFF_PROF_HELP}");
        return Ok(());
    }
    let split = rest
        .iter()
        .position(|a| a.starts_with('-'))
        .unwrap_or(rest.len());
    let (files, flags) = rest.split_at(split);
    let args = Args::parse(flags, &DIFF_PROF_SPEC)?;
    if args.wants_help() {
        println!("{DIFF_PROF_HELP}");
        return Ok(());
    }
    let [base_p, next_p] = files else {
        return Err(format!(
            "diff-prof: expected exactly two profile files, got {} \
             (try `stalloc diff-prof base.json next.json`)",
            files.len()
        ));
    };
    cmd_diff_prof(base_p, next_p, &args)
}

fn cmd_diff_prof(base_p: &str, next_p: &str, args: &Args) -> Result<(), String> {
    let base = read_profile(base_p)?;
    let next = read_profile(next_p)?;
    let delta = diff_profiles(&base, &next);
    let bytes = encode_profile_delta(&delta);
    let full = encode_profile(&next);

    let (mut reused, mut inserted, mut removed, mut retimed, mut resized) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for op in delta.statics.iter().chain(delta.dynamics.iter()) {
        match op {
            EditOp::Copy { count } => reused += *count as u64,
            EditOp::Insert { .. } => inserted += 1,
            EditOp::Remove { count } => removed += *count as u64,
            EditOp::Retime { .. } => retimed += 1,
            EditOp::Resize { .. } => resized += 1,
        }
    }
    let population = (next.statics.len() + next.dynamics.len()) as u64;
    println!("base     {} ({base_p})", delta.base.to_hex());
    println!(
        "next     {} ({next_p})",
        fingerprint_profile(&next).to_hex()
    );
    println!(
        "requests {population} next vs {} base · {reused} reused ({:.1}%) · \
         {inserted} inserted · {removed} removed · {retimed} retimed · {resized} resized",
        base.statics.len() + base.dynamics.len(),
        if population > 0 {
            100.0 * reused as f64 / population as f64
        } else {
            100.0
        }
    );
    println!(
        "wire     PROF-DELTA {} B vs full PROF {} B ({:.1}%)",
        bytes.len(),
        full.len(),
        100.0 * bytes.len() as f64 / full.len() as f64
    );
    if let Some(out) = args.get("output") {
        fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out} ({} bytes, PROF-DELTA v1)", bytes.len());
    }
    Ok(())
}

fn dispatch_top(rest: &[String]) -> Result<(), String> {
    // Like `stats`, the first token is positional: the server address.
    let Some((addr, rest)) = rest.split_first() else {
        return Err("top: no server address given (try `stalloc top 127.0.0.1:4547`)".into());
    };
    if addr == "--help" || addr == "-h" || addr == "help" {
        println!("{TOP_HELP}");
        return Ok(());
    }
    let args = Args::parse(rest, &TOP_SPEC)?;
    if args.wants_help() {
        println!("{TOP_HELP}");
        return Ok(());
    }
    cmd_top(addr, args.num("interval", 2u64)?, args.num("count", 0u64)?)
}

fn cmd_top(addr: &str, interval_s: u64, count: u64) -> Result<(), String> {
    let mut frame = 0u64;
    loop {
        // A fresh connection per frame: the dashboard must not pin a
        // worker slot between refreshes.
        let metrics = PlanClient::connect(addr)
            .and_then(|mut c| c.metrics())
            .map_err(|e| format!("{addr}: {e}"))?;
        frame += 1;
        if count != 1 {
            // Clear + home between frames (single-frame runs stay pipeable).
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "stalloc top — {addr} · frame {frame} · every {interval_s}s{}",
            if count == 0 { " · Ctrl-C to quit" } else { "" }
        );
        print!("{}", render_metrics(addr, &metrics, 3));
        if count > 0 && frame >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval_s));
    }
}

fn parse_model(name: &str) -> Result<ModelSpec, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "gpt2" | "gpt-2" => ModelSpec::gpt2_345m(),
        "llama2-7b" | "llama2" => ModelSpec::llama2_7b(),
        "qwen2.5-7b" => ModelSpec::qwen25_7b(),
        "qwen2.5-14b" => ModelSpec::qwen25_14b(),
        "qwen2.5-32b" => ModelSpec::qwen25_32b(),
        "qwen2.5-72b" => ModelSpec::qwen25_72b(),
        "qwen1.5-moe" | "moe" => ModelSpec::qwen15_moe_a27b(),
        other => return Err(format!("unknown model '{other}'")),
    })
}

fn parse_optim(label: &str) -> Result<(OptimConfig, bool), String> {
    Ok(match label.to_ascii_uppercase().as_str() {
        "N" | "NAIVE" => (OptimConfig::naive(), false),
        "R" => (OptimConfig::r(), false),
        "V" => (OptimConfig::naive(), true),
        "VR" => (OptimConfig::r(), true),
        "ZR" => (OptimConfig::zr(), false),
        "ZOR" => (OptimConfig::zor(), false),
        other => return Err(format!("unknown optimization combo '{other}'")),
    })
}

fn parse_device(name: &str) -> Result<DeviceSpec, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "a800" => DeviceSpec::a800_80g(),
        "h200" => DeviceSpec::h200_141g(),
        "mi210" => DeviceSpec::mi210_64g(),
        other => return Err(format!("unknown device '{other}'")),
    })
}

fn parse_allocator(name: &str, frag_limit_mib: u64) -> Result<AllocatorKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "stalloc" => AllocatorKind::Stalloc,
        "stalloc-noreuse" => AllocatorKind::StallocNoReuse,
        "torch20" => AllocatorKind::Torch20,
        "torch23" => AllocatorKind::Torch23,
        "torch26" => AllocatorKind::Torch26,
        "es" | "expandable" => AllocatorKind::TorchEs,
        "gmlake" => AllocatorKind::GmLake(frag_limit_mib << 20),
        "native" => AllocatorKind::Native,
        other => return Err(format!("unknown allocator '{other}'")),
    })
}

/// Plan output encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanFormat {
    Json,
    Bin,
}

fn plan_format(args: &Args, output: &str) -> Result<PlanFormat, String> {
    match args.get("format") {
        Some("bin") => Ok(PlanFormat::Bin),
        Some("json") => Ok(PlanFormat::Json),
        Some(other) => Err(format!("--format: expected bin|json, got '{other}'")),
        None => {
            if output.ends_with(".stplan") || output.ends_with(".bin") {
                Ok(PlanFormat::Bin)
            } else {
                Ok(PlanFormat::Json)
            }
        }
    }
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let data = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let data = serde_json::to_string(value).map_err(|e| e.to_string())?;
    fs::write(path, &data).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path} ({} bytes)", data.len());
    Ok(())
}

/// Reads a profile from `path`, auto-detecting binary `PROF` vs JSON by
/// magic (profiles travel as JSON from `stalloc profile`, but the codec
/// round-trips binary artifacts too).
fn read_profile(path: &str) -> Result<ProfiledRequests, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if is_binary_profile(&bytes) {
        decode_profile(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Reads a plan from `path`, auto-detecting binary vs JSON by magic.
/// The plan is validated: a foreign file that decodes but carries
/// unsound decisions must not reach downstream consumers.
fn read_plan(path: &str) -> Result<Plan, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = if is_binary_plan(&bytes) {
        decode_plan(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        let text = String::from_utf8(bytes).map_err(|e| format!("{path}: {e}"))?;
        Plan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
    };
    plan.validate()
        .map_err(|e| format!("{path}: unsound plan: {e}"))?;
    Ok(plan)
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let model = parse_model(args.require("model")?)?;
    let (optim, vpp_on) = parse_optim(args.get("optim").unwrap_or("N"))?;
    let mut parallel = ParallelConfig::new(
        args.num("tp", 1u32)?,
        args.num("pp", 1u32)?,
        args.num("dp", 1u32)?,
    )
    .with_ep(args.num("ep", 1u32)?);
    let vpp = args.num("vpp", if vpp_on { 2u32 } else { 1 })?;
    if vpp > 1 {
        parallel = parallel.with_vpp(vpp);
    }
    let seq_default = model.seq_len;
    let job = TrainJob::new(model, parallel, optim)
        .with_mbs(args.num("mbs", 1u32)?)
        .with_seq(args.num("seq", seq_default)?)
        .with_microbatches(args.num("microbatches", 4 * parallel.pp)?)
        .with_stage(args.num("stage", 0u32)?)
        .with_iterations(args.num("iterations", 3u32)?)
        .with_seed(args.num("seed", 42u64)?);
    let trace = job.build_trace()?;
    eprintln!(
        "{} [{}]: {} requests/iteration, {} distinct sizes",
        job.model.name,
        job.label(),
        trace.allocs_in_iteration(1),
        trace.distinct_sizes(512).len()
    );
    write_json(args.require("output")?, &trace)
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("input")?)?;
    let iter = args.num("iteration", 1u32)?;
    let profile = profile_trace(&trace, iter).map_err(|e| e.to_string())?;
    eprintln!(
        "profiled iteration {iter}: {} static ({} persistent) + {} dynamic, {} phases",
        profile.statics.len(),
        profile.init_count,
        profile.dynamics.len(),
        profile.num_phases
    );
    write_json(args.require("output")?, &profile)
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

fn cmd_plan(args: &Args) -> Result<(), String> {
    if args.get("remote").is_some() && args.get("cache").is_some() {
        return Err(
            "--remote and --cache are mutually exclusive (the server owns its cache)".into(),
        );
    }
    if args.get("trace").is_some() && args.get("remote").is_none() {
        return Err(
            "--trace only applies to --remote planning (the merged timeline \
             pairs the client's span with a live server's)"
                .into(),
        );
    }
    if args.get("delta-base").is_some() && args.get("remote").is_none() {
        return Err(
            "--delta-base only applies to --remote planning (local synthesis \
             has no base plan to patch)"
                .into(),
        );
    }
    let profile: ProfiledRequests = read_json(args.require("input")?)?;
    let strategy = match args.get("strategy") {
        Some(name) => parse_strategy(name)?,
        None => StrategyChoice::Baseline,
    };
    let config = SynthConfig {
        enable_fusion: !args.flag("no-fusion"),
        enable_gap_insertion: !args.flag("no-gaps"),
        ascending_sizes: args.flag("ascending"),
        strategy,
    };
    // The ablation switches steer the grouped pipelines only; make the
    // no-op visible (the flags are still part of the job fingerprint).
    let ablations_on = args.flag("no-fusion") || args.flag("no-gaps") || args.flag("ascending");
    if ablations_on
        && matches!(
            strategy,
            StrategyChoice::BestFit | StrategyChoice::Lookahead
        )
    {
        eprintln!(
            "note: --strategy {strategy} ignores --no-fusion/--no-gaps/--ascending \
             (they steer the baseline and tmp-order pipelines only)"
        );
    }
    let output = args.require("output")?;
    let format = plan_format(args, output)?;

    let plan = if let Some(addr) = args.get("remote") {
        let wire = match args.get("wire") {
            None | Some("bin") => ProfileEncoding::Binary,
            Some("json") => ProfileEncoding::Json,
            Some(other) => {
                return Err(format!("--wire must be `bin` or `json`, got '{other}'"));
            }
        };
        let mut client = PlanClient::connect(addr)
            .map_err(|e| format!("--remote {addr}: {e}"))?
            .with_profile_encoding(wire);
        let r = match args.get("delta-base") {
            Some(base_path) => {
                let base = read_profile(base_path)?;
                eprintln!(
                    "plan server {addr}: sending PROF-DELTA against base {}",
                    fingerprint_profile(&base).to_hex()
                );
                client
                    .plan_delta(&base, &profile, &config)
                    .map_err(|e| format!("--remote {addr}: {e}"))?
            }
            None => client
                .plan(&profile, &config)
                .map_err(|e| format!("--remote {addr}: {e}"))?,
        };
        let verdict = if r.source == stalloc_core::PlanSource::Patched {
            "patched"
        } else if r.source.is_hit() {
            "hit"
        } else {
            "miss"
        };
        let wire_name = match wire {
            ProfileEncoding::Binary => "bin",
            ProfileEncoding::Json => "json",
        };
        eprintln!(
            "plan server {addr}: {verdict} {} ({:?}, {} µs server-side, profile wire: {wire_name})",
            r.fingerprint, r.source, r.micros
        );
        if let Some(trace_file) = args.get("trace") {
            write_request_trace(&mut client, trace_file)?;
        }
        r.plan
    } else if args.get("wire").is_some() {
        return Err("--wire only applies to --remote planning".into());
    } else if let Some(dir) = args.get("cache") {
        let store = PlanStore::open(dir).map_err(|e| e.to_string())?;
        let (plan, fp, outcome) = synthesize_cached(&profile, &config, &store, synthesize_strategy)
            .map_err(|e| e.to_string())?;
        match outcome {
            CacheOutcome::Hit => eprintln!("plan cache: hit {fp} — synthesis skipped"),
            CacheOutcome::Miss => eprintln!("plan cache: miss {fp} — synthesized and stored"),
        }
        plan
    } else if strategy == StrategyChoice::Portfolio {
        // Local portfolio run: report every candidate, then the winner.
        let outcome = synthesize_portfolio(&profile, &config);
        for c in &outcome.candidates {
            let verdict = if !c.valid {
                "invalid".to_string()
            } else {
                format!(
                    "packing {:.4}, pool {:.3} GiB",
                    c.packing_efficiency,
                    c.pool_size as f64 / (1u64 << 30) as f64
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
        outcome.winner
    } else {
        synthesize_strategy(&profile, &config)
    };
    plan.validate()?;
    let s = plan.stats;
    eprintln!(
        "plan: strategy {}, pool {:.3} GiB, packing {:.3}, {} layers, \
         {} gap insertions, {} HomoLayer groups",
        s.strategy.name(),
        s.pool_size as f64 / (1u64 << 30) as f64,
        s.packing_efficiency(),
        s.layers,
        s.gap_inserted,
        s.homolayer_groups
    );
    match format {
        PlanFormat::Json => write_json(output, &plan),
        PlanFormat::Bin => {
            let bytes = encode_plan(&plan);
            fs::write(output, &bytes).map_err(|e| format!("{output}: {e}"))?;
            eprintln!("wrote {output} ({} bytes, binary)", bytes.len());
            Ok(())
        }
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
    let client_view = SpanView::from(&ClientSpanSnapshot::from(&span));
    let trace_hex = client.trace_context().trace_hex();
    let server_spans = match client.trace_get(&trace_hex) {
        Ok(spans) => spans,
        Err(ClientError::Server { .. }) => {
            // A pre-`TraceGet` server rejects the verb: still useful to
            // keep the client's half of the story.
            eprintln!("note: server predates the TraceGet verb; writing a client-only timeline");
            Vec::new()
        }
        Err(e) => return Err(format!("--trace: {e}")),
    };
    // The wire context we sent was a child of the client span, so the
    // matching server span names it as parent; fall back to the newest
    // ring entry if an old peer dropped the ids.
    let parent_hex = span.trace.span_hex();
    let server_view = server_spans
        .iter()
        .find(|s| s.parent_span_id == parent_hex)
        .or_else(|| server_spans.last())
        .map(SpanView::from);
    let trace = merged_request_timeline(&client_view, server_view.as_ref());
    fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path} ({} events, trace {trace_hex})", trace.len());
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let plan = read_plan(args.require("input")?)?;
    let rows = args.num("rows", 16usize)?;
    let cols = args.num("cols", 72usize)?;
    println!("{}", stalloc_core::render_plan(&plan, rows, cols));
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:4547").to_string(),
        workers: args.num("workers", 4usize)?,
        queue_depth: args.num("queue", 64usize)?,
        lru_capacity: args.num("lru", 128usize)?,
        max_frame: args.num("max-frame-mib", 64usize)? << 20,
        store_dir: args.get("cache").map(std::path::PathBuf::from),
        trace_log: args.get("trace-log").map(std::path::PathBuf::from),
        trace_log_max_bytes: match args.get("trace-log-max-bytes") {
            Some(_) => Some(args.num("trace-log-max-bytes", 0u64)?),
            None => None,
        },
        metrics_addr: args.get("metrics-addr").map(String::from),
        slowest: args.num("slowest", 16usize)?,
        ..ServeConfig::default()
    };
    if config.trace_log_max_bytes.is_some() && config.trace_log.is_none() {
        return Err("--trace-log-max-bytes requires --trace-log".into());
    }
    let cache_desc = match &config.store_dir {
        Some(d) => format!("store {}", d.display()),
        None => "in-memory only".to_string(),
    };
    let trace_desc = match &config.trace_log {
        Some(p) => format!(", trace log {}", p.display()),
        None => String::new(),
    };
    let handle = PlanServer::start(config.clone()).map_err(|e| e.to_string())?;
    let metrics_desc = match handle.metrics_http_addr() {
        Some(a) => format!(", metrics http://{a}/metrics"),
        None => String::new(),
    };
    println!(
        "stalloc serve: listening on {} ({} workers, queue {}, lru {}, {}{}{})",
        handle.addr(),
        config.workers,
        config.queue_depth,
        config.lru_capacity,
        cache_desc,
        trace_desc,
        metrics_desc
    );
    handle.join();
    Ok(())
}

fn cmd_strategies(_args: &Args) -> Result<(), String> {
    println!("registered plan-synthesis strategies (stalloc plan --strategy NAME):");
    for s in registry() {
        println!("  {:<10} {}", s.name(), s.description());
    }
    println!(
        "  {:<10} race all of the above on parallel workers; the valid\n  {:<10} \
         plan with the smallest (pool, fragmentation, name) wins",
        StrategyChoice::Portfolio.name(),
        ""
    );
    Ok(())
}

fn cmd_version(_args: &Args) -> Result<(), String> {
    println!(
        "stalloc {} (planner algorithm v{SYNTH_ALGO_VERSION}, profile fingerprint \
         v{FINGERPRINT_VERSION})",
        env!("CARGO_PKG_VERSION")
    );
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let targets = match args.get("target").unwrap_or("all") {
        "all" => stalloc_fuzz::FuzzTarget::ALL.to_vec(),
        name => vec![stalloc_fuzz::FuzzTarget::parse(name).ok_or_else(|| {
            format!("unknown fuzz target '{name}' (expected prof|stpl|delta|frame|server|all)")
        })?],
    };
    let config = stalloc_fuzz::FuzzConfig {
        iters: args.num("iters", 100_000u64)?,
        seed: args.num("seed", 42u64)?,
        targets,
        corpus_dir: args.get("corpus").map(std::path::PathBuf::from),
        failure_dir: None,
    };
    // Decoder panics are caught and reported; silence the per-panic
    // stderr backtrace spam so the summary stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = stalloc_fuzz::run(&config);
    std::panic::set_hook(default_hook);
    println!("{}", report.summary());
    if report.ok() {
        Ok(())
    } else {
        Err("fuzzing found failures (see summary above)".into())
    }
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("input")?)?;
    let device = parse_device(args.get("device").unwrap_or("a800"))?;
    let frag = args.num("frag-limit", 512u64)?;
    let kind = parse_allocator(args.get("allocator").unwrap_or("stalloc"), frag)?;
    if kind.needs_vmm() && !device.supports_vmm {
        return Err(format!("{} requires VMM support", kind.label()));
    }
    let result = run(&trace, &device, kind);
    let r = &result.report;
    println!("allocator      : {}", r.allocator);
    println!("device         : {}", device.name);
    println!(
        "allocated (M_a): {:.3} GiB",
        r.peak_requested as f64 / (1u64 << 30) as f64
    );
    println!(
        "reserved  (M_r): {:.3} GiB",
        r.peak_reserved as f64 / (1u64 << 30) as f64
    );
    println!("efficiency     : {:.1}%", r.efficiency() * 100.0);
    println!("outcome        : {}", if r.oom { "OOM" } else { "ok" });
    if let Some(d) = &r.oom_detail {
        println!("oom detail     : {d}");
    }
    if let Some(t) = result.throughput {
        println!("iteration time : {:.3} s (modelled)", t.iter_time_s);
        println!("throughput     : {:.1} TFLOPS/GPU (modelled)", t.tflops);
    }
    if let Some(c) = result.counters {
        println!(
            "runtime        : {} planned, {} lookahead, {} static fallback, \
             {} dyn reused, {} dyn fallback",
            c.static_planned,
            c.lookahead_matches,
            c.static_fallback,
            c.dynamic_reused,
            c.dynamic_fallback
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parsers_cover_the_zoo() {
        assert!(parse_model("gpt2").is_ok());
        assert!(parse_model("qwen1.5-moe").unwrap().is_moe());
        assert!(parse_model("nope").is_err());
        assert!(parse_optim("zor").is_ok());
        assert!(parse_optim("X").is_err());
        assert!(parse_device("h200").is_ok());
        assert!(parse_device("tpu").is_err());
        assert_eq!(
            parse_allocator("gmlake", 64).unwrap(),
            AllocatorKind::GmLake(64 << 20)
        );
        assert!(parse_allocator("jemalloc", 0).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_command_with_suggestion() {
        let err = dispatch(&argv("fly")).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(dispatch(&[]).is_err());
        let err = dispatch(&argv("trce")).unwrap_err();
        assert!(err.contains("did you mean 'trace'"), "{err}");
        let err = dispatch(&argv("cashe")).unwrap_err();
        assert!(err.contains("did you mean 'cache'"), "{err}");
    }

    #[test]
    fn help_paths_succeed() {
        for line in [
            "--help",
            "-h",
            "help",
            "help plan",
            "help cache",
            "help serve",
            "help strategies",
            "help version",
            "strategies",
            "strategies --help",
            "trace --help",
            "profile -h",
            "plan --help",
            "show --help",
            "replay -h",
            "serve --help",
            "cache --help",
            "cache ls --help",
            "help explain",
            "help top",
            "explain --help",
            "explain -h",
            "top --help",
            "top help",
            "trace merge --help",
            "trace chrome -h",
            "trace merge help",
            "help diff-prof",
            "diff-prof --help",
            "diff-prof -h",
            "diff-prof help",
        ] {
            dispatch(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(dispatch(&argv("help fly")).is_err());
    }

    #[test]
    fn version_paths_succeed() {
        for line in ["version", "--version", "-V"] {
            dispatch(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // The help text for version mentions both cache-keying versions.
        assert!(dispatch(&argv("vresion")).unwrap_err().contains("version"));
    }

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
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
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
    fn explain_renders_timeline_from_plan_files() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-explain-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
        let plan_p = dir.join("pl.stplan").to_string_lossy().to_string();
        let table_p = dir.join("explain.txt").to_string_lossy().to_string();
        let json_p = dir.join("explain.json").to_string_lossy().to_string();
        let svg_p = dir.join("explain.svg").to_string_lossy().to_string();

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
            "plan --input {prof_p} --output {plan_p} --strategy bestfit"
        )))
        .unwrap();

        // Table view names the headline numbers (what CI greps for).
        dispatch(&argv(&format!("explain {plan_p} --output {table_p}"))).unwrap();
        let table = fs::read_to_string(&table_p).unwrap();
        assert!(table.contains("fragmentation"), "{table}");
        assert!(table.contains("occupancy"), "{table}");
        assert!(table.contains("strategy bestfit"), "{table}");

        // The JSON view is the full timeline, and its peak agrees
        // exactly with the plan's own stats.
        dispatch(&argv(&format!(
            "explain {plan_p} --format json --top 3 --output {json_p}"
        )))
        .unwrap();
        let timeline: stalloc_core::PlanTimeline =
            serde_json::from_str(&fs::read_to_string(&json_p).unwrap()).unwrap();
        let plan = read_plan(&plan_p).unwrap();
        assert_eq!(timeline.peak_live_bytes, plan.stats.peak_static_demand);
        assert_eq!(
            timeline.fragmentation,
            plan.pool_size - plan.stats.peak_static_demand
        );
        assert!(timeline.stranded.len() <= 3);

        // The SVG view is a standalone document.
        dispatch(&argv(&format!(
            "explain {plan_p} --format svg --output {svg_p}"
        )))
        .unwrap();
        let svg = fs::read_to_string(&svg_p).unwrap();
        assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(80)]);
        assert!(svg.trim_end().ends_with("</svg>"));

        // Errors: bad format, missing positional, unreadable file.
        let err = dispatch(&argv(&format!("explain {plan_p} --format png"))).unwrap_err();
        assert!(err.contains("--format"), "{err}");
        let err = dispatch(&argv("explain")).unwrap_err();
        assert!(err.contains("plan file"), "{err}");
        assert!(dispatch(&argv("explain /nonexistent.stplan")).is_err());

        fs::remove_dir_all(&dir).ok();
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
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(1288490189), "1.20 GiB");
    }

    #[test]
    fn fmt_micros_picks_units() {
        assert_eq!(fmt_micros(0), "0µs");
        assert_eq!(fmt_micros(999), "999µs");
        assert_eq!(fmt_micros(1_500), "1.5ms");
        assert_eq!(fmt_micros(999_949), "999.9ms");
        assert_eq!(fmt_micros(2_345_678), "2.35s");
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
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
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

        // A JSON-wire request (for pre-binary servers) is the same job:
        // another cache hit, same artifact.
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr} --wire json"
        )))
        .unwrap();
        assert_eq!(server.stats().hits(), 2);
        assert_eq!(read_plan(&plan_p).unwrap(), plan);

        // --wire is remote-only, and its values are checked.
        let err = dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --wire json"
        )))
        .unwrap_err();
        assert!(err.contains("--wire"), "{err}");
        let err = dispatch(&argv(&format!(
            "plan --input {prof_p} --output {plan_p} --remote {addr} --wire xml"
        )))
        .unwrap_err();
        assert!(err.contains("--wire"), "{err}");

        // `stalloc stats` renders the live server's counters and
        // histograms end to end (one miss + two hits are on the books),
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
    fn diff_prof_and_delta_base_remote_plan() {
        use stalloc_served::{PlanServer, ServeConfig};
        use stalloc_store::is_binary_delta;

        let dir = std::env::temp_dir().join(format!("stalloc-cli-delta-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let t0_p = dir.join("t0.json").to_string_lossy().to_string();
        let t1_p = dir.join("t1.json").to_string_lossy().to_string();
        let p0_p = dir.join("p0.json").to_string_lossy().to_string();
        let p1_p = dir.join("p1.json").to_string_lossy().to_string();
        let d_p = dir.join("d.prfd").to_string_lossy().to_string();
        let pl0_p = dir.join("pl0.stplan").to_string_lossy().to_string();
        let pl1_p = dir.join("pl1.stplan").to_string_lossy().to_string();

        // The Chronos-style family through the real CLI: the same job
        // observed from two pipeline stages.
        for (stage, trace_p) in [(0, &t0_p), (1, &t1_p)] {
            dispatch(&argv(&format!(
                "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
                 --iterations 2 --stage {stage} --output {trace_p}"
            )))
            .unwrap();
        }
        dispatch(&argv(&format!("profile --input {t0_p} --output {p0_p}"))).unwrap();
        dispatch(&argv(&format!("profile --input {t1_p} --output {p1_p}"))).unwrap();

        // diff-prof summarizes the pair and writes a real PRFD frame.
        dispatch(&argv(&format!("diff-prof {p0_p} {p1_p} --output {d_p}"))).unwrap();
        let frame = fs::read(&d_p).unwrap();
        assert!(is_binary_delta(&frame), "PRFD magic on the artifact");
        // Identity diff still works (everything reused).
        dispatch(&argv(&format!("diff-prof {p0_p} {p0_p}"))).unwrap();

        // Cold plan for the base teaches the server the base profile;
        // the delta request then patches instead of synthesizing.
        let server = PlanServer::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        dispatch(&argv(&format!(
            "plan --input {p0_p} --output {pl0_p} --remote {addr}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {p1_p} --output {pl1_p} --remote {addr} --delta-base {p0_p}"
        )))
        .unwrap();
        let stats = server.stats();
        assert_eq!(stats.delta_requests, 1);
        assert_eq!(stats.delta_patched, 1, "{stats:?}");
        // The patched artifact is a normal, sound plan file.
        read_plan(&pl1_p).unwrap();

        // Error paths: remote-only flag, wrong positional count, typo.
        server.shutdown();
        let err = dispatch(&argv(&format!(
            "plan --input {p1_p} --output {pl1_p} --delta-base {p0_p}"
        )))
        .unwrap_err();
        assert!(err.contains("--delta-base"), "{err}");
        let err = dispatch(&argv(&format!("diff-prof {p0_p}"))).unwrap_err();
        assert!(err.contains("two profile files"), "{err}");
        let err = dispatch(&argv("dif-prof a b")).unwrap_err();
        assert!(err.contains("did you mean 'diff-prof'"), "{err}");

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
    fn trace_convert_renders_jsonl_logs_as_chrome_lanes() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-tracecvt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let a_p = dir.join("a.jsonl").to_string_lossy().to_string();
        let b_p = dir.join("b.jsonl").to_string_lossy().to_string();
        let out_p = dir.join("out.json").to_string_lossy().to_string();

        fs::write(
            &a_p,
            concat!(
                r#"{"seq":1,"verb":"Plan","tier":"miss","total_micros":900,"#,
                r#""trace_id":"00000000000000000000000000000001","synthesis":800,"encode":100}"#,
                "\n",
                r#"{"seq":2,"verb":"Ping","total_micros":5}"#,
                "\n"
            ),
        )
        .unwrap();
        fs::write(
            &b_p,
            concat!(
                r#"{"seq":1,"verb":"Get","tier":"lru","total_micros":40,"encode":40}"#,
                "\n"
            ),
        )
        .unwrap();

        dispatch(&argv(&format!("trace merge {a_p} {b_p} --output {out_p}"))).unwrap();
        let doc = fs::read_to_string(&out_p).unwrap();
        let events = match serde_json::from_str::<serde::Value>(&doc).unwrap() {
            serde::Value::Seq(events) => events,
            other => panic!("expected array, got {other:?}"),
        };
        // One lane per file, named after it, in argument order.
        let lane_names: Vec<String> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(serde::Value::Str(s)) if s == "M"))
            .filter_map(|e| match e.get("args")?.get("name") {
                Some(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lane_names, vec![a_p.clone(), b_p.clone()]);
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(serde::Value::Str(s)) if s == "X"))
            .filter_map(|e| e.get("pid")?.as_u64())
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(doc.contains("00000000000000000000000000000001"), "{doc}");

        // `chrome` is a synonym; stdout is the default sink.
        dispatch(&argv(&format!("trace chrome {a_p}"))).unwrap();

        // Error paths: no files, unparseable JSON, a line with no verb.
        let err = dispatch(&argv("trace merge")).unwrap_err();
        assert!(err.contains("no trace-log files"), "{err}");
        let bad_p = dir.join("bad.jsonl").to_string_lossy().to_string();
        fs::write(&bad_p, "not json\n").unwrap();
        assert!(dispatch(&argv(&format!("trace merge {bad_p}"))).is_err());
        fs::write(&bad_p, "{\"no_verb\":1}\n").unwrap();
        let err = dispatch(&argv(&format!("trace merge {bad_p}"))).unwrap_err();
        assert!(err.contains("verb"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_plan_trace_writes_a_merged_chrome_timeline() {
        use stalloc_served::{PlanServer, ServeConfig};

        let dir = std::env::temp_dir().join(format!("stalloc-cli-mtrace-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
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
    fn unknown_flag_suggests_per_command() {
        let err = dispatch(&argv("plan --inptu p.json --output x.json")).unwrap_err();
        assert!(err.contains("did you mean '--input'"), "{err}");
        let err = dispatch(&argv("trace --modle gpt2 --output t.json")).unwrap_err();
        assert!(err.contains("did you mean '--model'"), "{err}");
    }

    #[test]
    fn end_to_end_pipeline_through_files() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
        let plan_p = dir.join("pl.json").to_string_lossy().to_string();

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --optim R --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!("plan --input {prof_p} --output {plan_p}"))).unwrap();
        dispatch(&argv(&format!("show --input {plan_p} --rows 4 --cols 20"))).unwrap();
        dispatch(&argv(&format!(
            "replay --input {trace_p} --allocator torch23 --device a800"
        )))
        .unwrap();

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_plans_and_cache_workflow() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-bin-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.json").to_string_lossy().to_string();
        let bin_p = dir.join("pl.stplan").to_string_lossy().to_string();
        let json_p = dir.join("pl.json").to_string_lossy().to_string();
        let cache_d = dir.join("cache").to_string_lossy().to_string();

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();

        // First cached plan: miss; second: hit. Binary output via the
        // .stplan extension, JSON via explicit --format.
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {bin_p} --cache {cache_d}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {json_p} --format json --cache {cache_d}"
        )))
        .unwrap();
        let store = PlanStore::open(&cache_d).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1, "same job cached once");

        // The binary artifact is a real binary plan, much smaller than
        // JSON, and `show` reads both formats transparently.
        let bin = fs::read(&bin_p).unwrap();
        let json = fs::read(&json_p).unwrap();
        assert!(is_binary_plan(&bin));
        assert!(
            bin.len() * 4 <= json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
        assert_eq!(read_plan(&bin_p).unwrap(), read_plan(&json_p).unwrap());
        dispatch(&argv(&format!("show --input {bin_p} --rows 4 --cols 20"))).unwrap();

        // cache ls / ls --long / gc / clear run end to end.
        dispatch(&argv(&format!("cache ls --dir {cache_d}"))).unwrap();
        dispatch(&argv(&format!("cache ls --long --dir {cache_d}"))).unwrap();
        dispatch(&argv(&format!("cache gc --dir {cache_d}"))).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1, "gc keeps live entries");
        dispatch(&argv(&format!("cache clear --dir {cache_d}"))).unwrap();
        assert!(store.entries().unwrap().is_empty());

        fs::remove_dir_all(&dir).ok();
    }
}
