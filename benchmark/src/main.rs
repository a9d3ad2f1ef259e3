//! `stalloc-bench`: one seeded, round-based benchmark of the offline
//! pipeline (trace → profile → plan → replay) and the plan daemon.
//!
//! ```text
//! stalloc-bench --workload W --seed S [--seconds N] [--trace 0|1]
//!               [--quick] [--trace-out FILE]
//! ```
//!
//! `--trace 0` (default) prints the end-to-end metrics, `--trace 1` the
//! per-layer ledger and writes a Chrome trace. The last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the exit code is non-zero when a check failed. See
//! `README.md` beside this crate for the glossary.

mod alloc;
mod awake;
mod ledger;
mod oracle;
mod round;
mod trace;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use round::{run_round, Checks, Reference, RoundOut, Timing, World};
use trace::Tracer;
use util::{median, quantile};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Every timing metric is read off at least this many rounds; a slow
/// machine overruns `--seconds` rather than report from fewer.
const MIN_ROUNDS: usize = 7;
/// The traced run alternates untraced and traced rounds, at least two of
/// each, and spends this share of `--seconds` on them; the rest is the
/// ledger's single-call measurements, which pace themselves by what is left.
const TRACED_MIN_ROUNDS: usize = 4;
const TRACED_ROUND_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: stalloc-bench --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>] \
         [--quick] [--trace-out <file>]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A metric row: name, value, unit.
type Row = (String, f64, &'static str);

/// One value per timing metric from the rounds' values: the quartile on
/// the undisturbed side, lower for a time and upper for the rate.
/// Interference only ever slows a round down, so the good quartile
/// estimates the undisturbed cost; a quarter of the rounds must agree, so
/// one lucky round cannot set it (the README compares it with the median
/// and the minimum on the same runs). Rounds without a sample of a tier
/// read NaN and are skipped.
fn over_rounds(rounds: &[RoundOut], f: fn(&Timing) -> f64, q: f64) -> f64 {
    let values: Vec<f64> = rounds
        .iter()
        .map(|r| f(&r.timing))
        .filter(|v| v.is_finite())
        .collect();
    if values.is_empty() {
        f64::NAN
    } else {
        quantile(&values, q)
    }
}

fn end_to_end(rounds: &[RoundOut], checks: &Checks) -> Vec<Row> {
    let d = &rounds[0].deterministic;
    let count = |tier: fn(&RoundOut) -> usize| rounds.iter().map(tier).sum::<usize>();
    println!(
        "# rtt_hit_p50_us over {} samples, rtt_patched_p50_us over {}",
        count(|r| r.rtts.lru.len()),
        count(|r| r.rtts.patched.len())
    );
    let row = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    let time = |f: fn(&Timing) -> f64| over_rounds(rounds, f, 0.25);
    vec![
        row("setup_s", time(|t| t.setup_s), "s"),
        row("plan_ms", time(|t| t.plan_ms), "ms"),
        row("solve_all_ms", time(|t| t.solve_all_ms), "ms"),
        row("replay_ns_per_op", time(|t| t.replay_ns_per_op), "ns"),
        row("rtt_hit_p50_us", time(|t| t.rtt_hit_p50_us), "us"),
        row("rtt_patched_p50_us", time(|t| t.rtt_patched_p50_us), "us"),
        row(
            "mix_req_per_s",
            over_rounds(rounds, |t| t.mix_req_per_s, 0.75),
            "1/s",
        ),
        row("efficiency", d.efficiency, "ratio"),
        row("frag_reduction", d.frag_reduction, "ratio"),
        row("reserved_gib", d.reserved_gib, "GiB"),
        row("pool_ratio", d.pool_ratio, "ratio"),
        row("best_pool_ratio", d.best_pool_ratio, "ratio"),
        row("tflops", d.tflops, "TFLOPS"),
        row("plan_bytes", d.plan_bytes, "B"),
        row(
            "ok_ratio",
            (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
            "ratio",
        ),
    ]
}

/// `stalloc trace → profile → plan → replay` through the built CLI, when
/// there is one at `target/release/stalloc` (`cargo build --workspace
/// --release` in the checkout): median of three runs in milliseconds. The
/// job is the ledger's fixed small one in every workload: the CLI's files
/// are JSON, and GPT-2 VR already takes 19 s per run, the MoE jobs minutes.
fn cli_pipeline_ms(work_dir: &Path) -> Option<f64> {
    let cli = Path::new("target/release/stalloc").canonicalize().ok()?;
    let steps = [
        "trace --model gpt2 --pp 4 --mbs 1 --seq 256 --microbatches 4 --iterations 2 \
         --output trace.json",
        "profile --input trace.json --output profile.json",
        "plan --input profile.json --output plan.json",
        "replay --input trace.json --allocator stalloc",
    ];
    let mut walls = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        for step in steps {
            let words = step.split_whitespace();
            let out = Command::new(&cli)
                .args(words)
                .current_dir(work_dir)
                .output()
                .ok()?;
            if !out.status.success() {
                return None;
            }
        }
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Some(median(&walls))
}

fn run(args: &Args, w: &Workload, work_dir: &Path) -> Result<(Vec<Row>, Checks), String> {
    let run_start = Instant::now();
    let plain = Tracer::new(false);
    let traced = Tracer::new(true);
    let mut reference: Option<Reference> = None;
    let mut checks = Checks::default();
    // With --trace 1 rounds alternate between the two tracers.
    let mut untraced: Vec<RoundOut> = Vec::new();
    let mut traced_rounds: Vec<RoundOut> = Vec::new();
    let mut world: Option<World> = None;

    let min_rounds = match (args.quick, args.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => MIN_ROUNDS,
        (false, true) => TRACED_MIN_ROUNDS,
    };
    let budget = args.seconds * if args.trace { TRACED_ROUND_SHARE } else { 1.0 };
    let deadline = run_start + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        let done = untraced.len() + traced_rounds.len();
        let elapsed = run_start.elapsed().as_secs_f64();
        // Stop when the next round would overrun the budget.
        let next_ends = elapsed + elapsed / done.max(1) as f64;
        if done >= min_rounds && (args.quick || next_ends > budget) {
            break;
        }
        let use_traced = args.trace && done % 2 == 1;
        let tr = if use_traced { &traced } else { &plain };
        let (out, this_world) = run_round(
            w,
            args.seed,
            done as u32,
            tr,
            &mut reference,
            args.trace,
            None,
        );
        checks.merge(&out.checks);
        println!("# round {done}: {}", out.timing.line());
        if use_traced {
            traced_rounds.push(out);
            world = Some(this_world);
        } else {
            untraced.push(out);
        }
    }

    // Same seed, same world: every round must agree on the numbers that
    // depend on inputs alone.
    let all_rounds = || untraced.iter().chain(&traced_rounds);
    let first = &untraced[0].deterministic;
    checks.check(all_rounds().all(|r| r.deterministic == *first), || {
        "deterministic metrics differ between rounds".into()
    });

    println!(
        "# rounds {}, wall {:.1} s",
        all_rounds().count(),
        run_start.elapsed().as_secs_f64()
    );
    let mut rows = if args.trace {
        let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
        let ledger = ledger::fill(
            w,
            args.seed,
            &traced,
            &traced_rounds,
            &untraced_wall,
            &world.expect("a traced round ran"),
            work_dir,
            run_start,
            deadline,
            &mut reference,
            &mut checks,
        );
        write_chrome_trace(args, w, &traced, work_dir)?;
        if let Some(ms) = cli_pipeline_ms(work_dir) {
            println!(
                "{:<48} {ms:>16.3} ms  (not in the JSON: needs the built CLI)",
                "stalloc-cli.pipeline_ms"
            );
        }
        ledger.0
    } else {
        end_to_end(&untraced, &checks)
    };
    // An end-to-end metric that reads 0 measured nothing.
    let unusable = |v: f64| !v.is_finite() || (!args.trace && v == 0.0);
    if let Some(bad) = rows.iter().find(|(_, v, _)| unusable(*v)) {
        return Err(format!("metric {} has no value", bad.0));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((rows, checks))
}

fn write_chrome_trace(
    args: &Args,
    w: &Workload,
    traced: &Tracer,
    work_dir: &Path,
) -> Result<(), String> {
    let path = args.trace_out.clone().unwrap_or_else(|| {
        work_dir
            .parent()
            .expect("work dir has a parent")
            .join(format!("stalloc-bench-trace-{}.json", w.name))
    });
    let describe = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(describe)?);
    traced
        .write_chrome(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(describe)?;
    println!(
        "# chrome trace: {} ({} spans)",
        path.display(),
        traced.span_count()
    );
    Ok(())
}

fn json_line(rows: &[Row], checks: &Checks) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed, args.quick) else {
        eprintln!("error: unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    // Scratch files (store dirs, the Chrome trace) live beside the
    // executable, which Cargo puts inside the checkout's target dir.
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let work_dir = exe_dir.join(format!("stalloc-bench-work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# workload {} seed {} trace {} quick {} threads {}",
        w.name,
        args.seed,
        args.trace as u8,
        args.quick,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    // See `awake.rs`: the CPUs must not halt while the clocks run.
    let awake = awake::KeepAwake::start();
    let outcome = run(&args, &w, &work_dir);
    println!("# idle-priority spinners: {}", awake.stop());
    std::fs::remove_dir_all(&work_dir).ok();
    let (rows, checks) = match outcome {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &rows {
        println!("{name:<48} {value:>16.4} {unit}");
    }
    for message in &checks.messages {
        eprintln!("check failed: {message}");
    }
    println!("{}", json_line(&rows, &checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
