//! `stalloc fuzz`: deterministic fuzzing of the wire decoders and the
//! plan server.

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::render::out;

pub const FUZZ: Command = Command {
    name: "fuzz",
    summary: "fuzz the wire decoders and the plan server (deterministic)",
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
value, a soundness verdict on every decoded plan) and malformed-stream
recovery on a live
loopback server; exits nonzero on any panic, oracle violation, or
never-exercised rejection variant (minimized failures land in
target/fuzz-failures/)",
    spec: FlagSpec {
        value_flags: &["iters", "seed", "target", "corpus"],
        ..FlagSpec::NONE
    },
    run: fuzz,
};

fn fuzz(args: &Args) -> Result<(), String> {
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
    out(&format!("{}\n", report.summary()))?;
    if report.ok() {
        Ok(())
    } else {
        Err("fuzzing found failures (see summary above)".into())
    }
}
