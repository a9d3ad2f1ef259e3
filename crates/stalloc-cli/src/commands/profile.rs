//! `stalloc profile`: characterize one iteration of a trace — and
//! `stalloc diff-prof`, the edit script between two profiles.

use stalloc_core::{diff_profiles, fingerprint_profile, profile_trace, EditOp};
use stalloc_store::{encode_profile, encode_profile_delta};
use trace_gen::Trace;

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::files::{read_json, read_profile};
use crate::render::{emit, out};

pub const PROFILE: Command = Command {
    name: "profile",
    summary: "characterize one iteration's requests (paper section 4)",
    help: "\
usage: stalloc profile --input TRACE --output FILE [--iteration N]
  --input TRACE     trace JSON produced by `stalloc trace`
  --output FILE     profile destination (binary PROF, whatever the
                    file's extension)
  --iteration N     1-based iteration to profile (default 1)",
    spec: FlagSpec {
        value_flags: &["input", "output", "iteration"],
        ..FlagSpec::NONE
    },
    run: profile,
};

pub const DIFF_PROF: Command = Command {
    name: "diff-prof",
    summary: "diff two profiles into the PROF-DELTA edit script and\n\
              summarize its ops and wire size",
    help: "\
usage: stalloc diff-prof BASE NEXT [--output FILE]
  diffs two PROF profiles (as `stalloc profile` writes them) into the
  PROF-DELTA edit script `stalloc plan --remote --delta-base` puts on
  the wire: prints the base fingerprint, per-op counts, the reused
  share of the request population, and the edit script's wire size
  against the full PROF encoding of NEXT
  --output FILE     also write the encoded PROF-DELTA frame to FILE",
    spec: FlagSpec {
        value_flags: &["output"],
        positionals: Some(("BASE NEXT", "two profile files")),
        ..FlagSpec::NONE
    },
    run: diff_prof,
};

fn profile(args: &Args) -> Result<(), String> {
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
    emit(
        Some(args.require("output")?),
        &encode_profile(&profile),
        "PROF",
    )
}

fn diff_prof(args: &Args) -> Result<(), String> {
    let (base_p, next_p) = (args.pos(0), args.pos(1));
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
    out(&format!(
        "base     {} ({base_p})\n\
         next     {} ({next_p})\n\
         requests {population} next vs {} base · {reused} reused ({:.1}%) · \
         {inserted} inserted · {removed} removed · {retimed} retimed · {resized} resized\n\
         wire     PROF-DELTA {} B vs full PROF {} B ({:.1}%)\n",
        delta.base.to_hex(),
        fingerprint_profile(&next).to_hex(),
        base.statics.len() + base.dynamics.len(),
        if population > 0 {
            100.0 * reused as f64 / population as f64
        } else {
            100.0
        },
        bytes.len(),
        full.len(),
        100.0 * bytes.len() as f64 / full.len() as f64
    ))?;
    match args.get("output") {
        Some(file) => emit(Some(file), &bytes, "PROF-DELTA v1"),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{argv, dispatch};
    use crate::files::read_plan;
    use std::fs;

    #[test]
    fn diff_prof_and_delta_base_remote_plan() {
        use stalloc_served::{PlanServer, ServeConfig};
        use stalloc_store::DELTA_MAGIC;

        let dir = std::env::temp_dir().join(format!("stalloc-cli-delta-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let t0_p = dir.join("t0.json").to_string_lossy().to_string();
        let t1_p = dir.join("t1.json").to_string_lossy().to_string();
        let p0_p = dir.join("p0.prof").to_string_lossy().to_string();
        let p1_p = dir.join("p1.prof").to_string_lossy().to_string();
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
        assert!(
            frame.starts_with(&DELTA_MAGIC),
            "PRFD magic on the artifact"
        );
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
}
