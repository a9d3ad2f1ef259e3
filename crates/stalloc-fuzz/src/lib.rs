//! Deterministic, structure-aware mutational fuzzing for the wire trust
//! boundary — the four strict decoders (`PROF` profiles, `STPL` plans,
//! `PROF-DELTA` edit scripts, the length-prefixed frame layer)
//! plus a loopback harness that fires mutated request streams at a live
//! `PlanServer`.
//!
//! Everything is offline and reproducible: mutation runs on the vendored
//! `rand` xoshiro stream, so `--seed 42` produces the same mutants on
//! every machine, release after release. There is no cargo-fuzz, no
//! network, no wall-clock dependence.
//!
//! A run is more than a panic hunt. Each target enforces [`oracle`]
//! differential checks on every accepted mutant (decode→re-encode
//! fixpoint, fingerprint-of-bytes == fingerprint-of-value,
//! malformed-stream recovery), tracks a [`coverage`] proxy over
//! the decoders' typed rejection classes — the run **fails** if a
//! required `CodecError`/`FrameError` variant is never produced — and
//! [`minimize`]s any failing input before reporting it, so a failure
//! lands as a few bytes ready to commit to the [`corpus`].
//!
//! Entry point: [`run`] with a [`FuzzConfig`]; the CLI front end is
//! `stalloc fuzz --iters N --seed N --target prof|stpl|delta|frame|server|all`.

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

pub mod corpus;
pub mod coverage;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod server_harness;

use coverage::CoverageLedger;
use mutate::Mutator;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

/// One fuzzable surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// The `PROF` binary profile decoder.
    Prof,
    /// The `STPL` binary plan decoder.
    Stpl,
    /// The `PROF-DELTA` binary edit-script decoder.
    Delta,
    /// The length-prefixed frame layer.
    Frame,
    /// The live loopback `PlanServer` harness.
    Server,
}

impl FuzzTarget {
    pub const ALL: [FuzzTarget; 5] = [
        FuzzTarget::Prof,
        FuzzTarget::Stpl,
        FuzzTarget::Delta,
        FuzzTarget::Frame,
        FuzzTarget::Server,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FuzzTarget::Prof => "prof",
            FuzzTarget::Stpl => "stpl",
            FuzzTarget::Delta => "delta",
            FuzzTarget::Frame => "frame",
            FuzzTarget::Server => "server",
        }
    }

    /// Corpus subdirectory name (same as [`Self::name`]; servers keep no
    /// byte corpus).
    pub fn dir_name(self) -> &'static str {
        self.name()
    }

    pub fn parse(s: &str) -> Option<FuzzTarget> {
        match s {
            "prof" => Some(FuzzTarget::Prof),
            "stpl" => Some(FuzzTarget::Stpl),
            "delta" => Some(FuzzTarget::Delta),
            "frame" => Some(FuzzTarget::Frame),
            "server" => Some(FuzzTarget::Server),
            _ => None,
        }
    }
}

/// One fuzzing run's shape.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Mutational iterations per codec target (the server harness runs
    /// `min(iters, 256)` real TCP scenarios).
    pub iters: u64,
    /// Master seed; every mutant derives from it deterministically.
    pub seed: u64,
    /// Targets to run, in order.
    pub targets: Vec<FuzzTarget>,
    /// Committed-corpus root; `None` = the in-repo corpus.
    pub corpus_dir: Option<PathBuf>,
    /// Where minimized failing inputs are written (best-effort);
    /// `None` = `target/fuzz-failures`.
    pub failure_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100_000,
            seed: 42,
            targets: FuzzTarget::ALL.to_vec(),
            corpus_dir: None,
            failure_dir: None,
        }
    }
}

/// Outcome for one target.
#[derive(Debug)]
pub struct TargetReport {
    pub target: &'static str,
    /// Inputs executed (corpus replays + seeds + mutants, or server
    /// scenarios).
    pub executed: u64,
    /// Inputs the decoder accepted (oracles ran on each).
    pub ok_decodes: u64,
    /// Decoder panics caught (always a bug).
    pub panics: u64,
    /// Oracle violations, truncated to the first few with a witness.
    pub violations: Vec<String>,
    /// Required error variants never produced (fails the run).
    pub missing_variants: Vec<String>,
    /// Distinct error variants seen.
    pub variants_seen: usize,
    /// Distinct `(variant, decoder-branch)` pairs seen.
    pub branches_seen: usize,
}

impl TargetReport {
    pub fn ok(&self) -> bool {
        self.panics == 0 && self.violations.is_empty() && self.missing_variants.is_empty()
    }
}

/// Whole-run outcome.
#[derive(Debug)]
pub struct FuzzReport {
    pub targets: Vec<TargetReport>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.targets.iter().all(TargetReport::ok)
    }

    /// One human-readable line per target plus a verdict.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for t in &self.targets {
            out.push_str(&format!(
                "{:<7} {:>8} execs  {:>7} accepted  coverage {} variants / {} branches  {} panics  {} violations{}\n",
                t.target,
                t.executed,
                t.ok_decodes,
                t.variants_seen,
                t.branches_seen,
                t.panics,
                t.violations.len(),
                if t.missing_variants.is_empty() {
                    String::new()
                } else {
                    format!("  MISSING: {}", t.missing_variants.join(", "))
                },
            ));
            for v in &t.violations {
                out.push_str(&format!("  violation: {v}\n"));
            }
        }
        out.push_str(if self.ok() {
            "fuzz: PASS (zero panics, zero oracle violations, full variant coverage)"
        } else {
            "fuzz: FAIL"
        });
        out
    }
}

/// Runs every configured target and aggregates the reports. Never
/// panics: decoder panics are caught, counted, minimized, and reported.
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let targets = config
        .targets
        .iter()
        .map(|&t| match t {
            FuzzTarget::Server => run_server_target(config),
            codec => run_codec_target(codec, config),
        })
        .collect();
    FuzzReport { targets }
}

fn run_server_target(config: &FuzzConfig) -> TargetReport {
    let outcome = server_harness::fuzz_server(config.iters, config.seed);
    TargetReport {
        target: FuzzTarget::Server.name(),
        executed: outcome.executed,
        ok_decodes: 0,
        panics: 0,
        violations: outcome.violations,
        missing_variants: outcome.missing,
        variants_seen: 0,
        branches_seen: 0,
    }
}

/// How one input fared, for the minimization predicate.
#[derive(PartialEq)]
enum Fate {
    Clean,
    Violation,
    Panic,
}

/// The differential oracle a codec target's inputs run through.
fn oracle_for(target: FuzzTarget) -> fn(&[u8], &mut CoverageLedger) -> Result<(), String> {
    match target {
        FuzzTarget::Prof => oracle::check_prof,
        FuzzTarget::Stpl => oracle::check_stpl,
        FuzzTarget::Delta => oracle::check_delta,
        FuzzTarget::Frame => oracle::check_frame,
        FuzzTarget::Server => unreachable!("server target has no byte oracle"),
    }
}

fn classify(target: FuzzTarget, bytes: &[u8], cov: &mut CoverageLedger) -> Fate {
    let check = oracle_for(target);
    match std::panic::catch_unwind(AssertUnwindSafe(|| check(bytes, cov))) {
        Ok(Ok(())) => Fate::Clean,
        Ok(Err(_)) => Fate::Violation,
        Err(_) => Fate::Panic,
    }
}

fn run_codec_target(target: FuzzTarget, config: &FuzzConfig) -> TargetReport {
    let corpus_dir = config
        .corpus_dir
        .clone()
        .unwrap_or_else(corpus::default_corpus_dir);
    let failure_dir = config
        .failure_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/fuzz-failures"));
    let mut run = CodecRun::new(target, failure_dir);

    // 1. Replay the committed regression corpus — every required variant
    //    is exercised before a single mutation runs.
    let committed = corpus::committed_seeds(&corpus_dir, target);
    for (path, bytes) in &committed {
        run.execute(bytes, &format!("corpus {}", path.display()));
    }

    // 2. Runtime zoo seeds: large valid artifacts for the oracles and as
    //    mutation base material.
    let seeds = corpus::runtime_seeds(target);
    for (i, bytes) in seeds.iter().enumerate() {
        run.execute(bytes, &format!("zoo seed {i}"));
    }

    // 3. The mutation loop, from everything above.
    let pool = committed.into_iter().map(|(_, b)| b).chain(seeds).collect();
    run.mutate_from(pool, config);
    run.report()
}

/// One codec target's run: the coverage ledger, and what failed so far.
struct CodecRun {
    target: FuzzTarget,
    failure_dir: PathBuf,
    cov: CoverageLedger,
    executed: u64,
    panics: u64,
    violations: Vec<String>,
    failure_no: u32,
}

impl CodecRun {
    fn new(target: FuzzTarget, failure_dir: PathBuf) -> Self {
        CodecRun {
            target,
            failure_dir,
            cov: CoverageLedger::new(),
            executed: 0,
            panics: 0,
            violations: Vec::new(),
            failure_no: 0,
        }
    }

    /// Runs one input through the target's oracle. A violation or a
    /// panic is minimized (to an input that fails the same way),
    /// persisted and reported.
    fn execute(&mut self, bytes: &[u8], origin: &str) {
        self.executed += 1;
        let check = oracle_for(self.target);
        let cov = &mut self.cov;
        let (fate, what) = match std::panic::catch_unwind(AssertUnwindSafe(|| check(bytes, cov))) {
            Ok(Ok(())) => return,
            Ok(Err(msg)) => (Fate::Violation, msg),
            Err(_) => {
                self.panics += 1;
                (Fate::Panic, "decoder panicked".to_string())
            }
        };
        let target = self.target;
        let min = minimize::minimize_bytes(
            bytes,
            |cand| {
                let mut scratch = CoverageLedger::new();
                classify(target, cand, &mut scratch) == fate
            },
            2_000,
        );
        let path = persist_failure(&self.failure_dir, target, self.failure_no, &min);
        self.failure_no += 1;
        if self.violations.len() < 8 {
            self.violations.push(format!(
                "{origin}: {what} (minimized to {} bytes{path})",
                min.len()
            ));
        }
    }

    /// The mutation loop. The pool evolves: inputs reaching new decoder
    /// branches join the base material (classic coverage-guided shape,
    /// with the typed-rejection ledger standing in for edge coverage).
    fn mutate_from(&mut self, mut pool: Vec<Vec<u8>>, config: &FuzzConfig) {
        let target = self.target;
        if pool.is_empty() {
            pool.push(Vec::new());
        }
        let mut mutator = Mutator::new(config.seed ^ fnv1a(target.name().as_bytes()));
        for i in 0..config.iters {
            let pick = pool[mutator.pick_index(pool.len())].clone();
            // Every 8th mutant is structure-aware: decode → tweak → re-encode
            // keeps it on the valid path, where the differential oracles live.
            let input = if i % 8 == 3 {
                match target {
                    FuzzTarget::Prof => mutate::structured_profile_mutant(&mut mutator, &pick),
                    FuzzTarget::Stpl => mutate::structured_plan_mutant(&mut mutator, &pick),
                    FuzzTarget::Delta => mutate::structured_delta_mutant(&mut mutator, &pick),
                    _ => None,
                }
                .unwrap_or_else(|| mutator.mutate(&pick))
            } else {
                mutator.mutate(&pick)
            };

            // Peek at coverage growth to decide pool admission.
            let before = (self.cov.variants(), self.cov.contexts());
            self.execute(&input, &format!("iter {i}"));
            if (self.cov.variants(), self.cov.contexts()) != before && pool.len() < 256 {
                pool.push(input);
            }
        }
    }

    fn report(self) -> TargetReport {
        let required: &[&str] = match self.target {
            FuzzTarget::Frame => oracle::REQUIRED_FRAME_VARIANTS,
            _ => oracle::REQUIRED_CODEC_VARIANTS,
        };
        TargetReport {
            target: self.target.name(),
            executed: self.executed,
            ok_decodes: self.cov.ok_decodes(),
            panics: self.panics,
            violations: self.violations,
            missing_variants: self.cov.missing(required),
            variants_seen: self.cov.variants(),
            branches_seen: self.cov.contexts(),
        }
    }
}

/// Best-effort persistence of a minimized failing input; returns a
/// display suffix for the report line.
fn persist_failure(dir: &std::path::Path, target: FuzzTarget, no: u32, bytes: &[u8]) -> String {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{}-{no:03}.bin", target.name()));
    match std::fs::write(&path, bytes) {
        Ok(()) => format!(", saved to {}", path.display()),
        Err(_) => String::new(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(target: FuzzTarget, iters: u64) -> FuzzConfig {
        FuzzConfig {
            iters,
            seed: 42,
            targets: vec![target],
            corpus_dir: None,
            failure_dir: Some(std::env::temp_dir().join("stalloc-fuzz-test-failures")),
        }
    }

    #[test]
    fn short_prof_run_is_clean_and_fully_covered() {
        let report = run(&quick_config(FuzzTarget::Prof, 1500));
        let t = &report.targets[0];
        assert!(t.ok(), "{}", report.summary());
        assert_eq!(t.missing_variants, Vec::<String>::new());
        assert!(t.ok_decodes > 0, "structure-aware mutants must decode");
    }

    #[test]
    fn short_stpl_run_is_clean_and_fully_covered() {
        let report = run(&quick_config(FuzzTarget::Stpl, 1500));
        let t = &report.targets[0];
        assert!(t.ok(), "{}", report.summary());
        assert!(t.ok_decodes > 0);
    }

    #[test]
    fn short_delta_run_is_clean_and_fully_covered() {
        let report = run(&quick_config(FuzzTarget::Delta, 1500));
        let t = &report.targets[0];
        assert!(t.ok(), "{}", report.summary());
        assert_eq!(t.missing_variants, Vec::<String>::new());
        assert!(
            t.ok_decodes > 0,
            "structure-aware delta mutants must decode"
        );
    }

    #[test]
    fn short_frame_run_is_clean_and_fully_covered() {
        let report = run(&quick_config(FuzzTarget::Frame, 1500));
        let t = &report.targets[0];
        assert!(t.ok(), "{}", report.summary());
        assert!(t.ok_decodes > 0);
    }

    #[test]
    fn reports_are_deterministic_for_a_seed() {
        let a = run(&quick_config(FuzzTarget::Frame, 400));
        let b = run(&quick_config(FuzzTarget::Frame, 400));
        assert_eq!(a.targets[0].ok_decodes, b.targets[0].ok_decodes);
        assert_eq!(a.targets[0].branches_seen, b.targets[0].branches_seen);
    }

    #[test]
    fn target_parsing_round_trips() {
        for t in FuzzTarget::ALL {
            assert_eq!(FuzzTarget::parse(t.name()), Some(t));
        }
        assert_eq!(FuzzTarget::parse("nope"), None);
    }

    /// The committed corpus is the ground truth for required-variant
    /// coverage: each seed must trigger exactly the (variant, context)
    /// its file name promises, and must already be minimal for it.
    #[test]
    fn committed_seeds_trigger_their_named_variant_and_are_minimal() {
        use stalloc_store::{decode_plan, decode_profile, decode_profile_delta};

        let dir = corpus::default_corpus_dir();
        for target in [FuzzTarget::Prof, FuzzTarget::Stpl, FuzzTarget::Delta] {
            let decode_key = |bytes: &[u8]| -> Option<(String, Option<String>)> {
                let e = match target {
                    FuzzTarget::Prof => decode_profile(bytes).err()?,
                    FuzzTarget::Delta => decode_profile_delta(bytes).err()?,
                    _ => decode_plan(bytes).err()?,
                };
                Some((
                    e.variant_name().to_string(),
                    e.context().map(str::to_string),
                ))
            };
            let seeds = corpus::committed_seeds(&dir, target);
            let mut variants_hit = std::collections::BTreeSet::new();
            for (path, bytes) in &seeds {
                let stem = path.file_stem().unwrap().to_string_lossy().to_string();
                let key = decode_key(bytes)
                    .unwrap_or_else(|| panic!("{} decodes cleanly", path.display()));
                assert_eq!(
                    kebab(&key.0),
                    stem,
                    "{} triggers {:?}, not its name",
                    path.display(),
                    key
                );
                variants_hit.insert(key.0.clone());
                let min = minimize::minimize_bytes(
                    bytes,
                    |cand| decode_key(cand).as_ref() == Some(&key),
                    50_000,
                );
                assert_eq!(
                    min.len(),
                    bytes.len(),
                    "{} is not minimal: {} -> {} bytes",
                    path.display(),
                    bytes.len(),
                    min.len()
                );
            }
            for v in oracle::REQUIRED_CODEC_VARIANTS {
                assert!(
                    variants_hit.contains(*v),
                    "{} corpus misses {v}",
                    target.name()
                );
            }
        }
    }

    #[test]
    fn committed_frame_seeds_trigger_their_named_variant() {
        use stalloc_served::read_frame;
        use std::io::Cursor;

        let dir = corpus::default_corpus_dir();
        let seeds = corpus::committed_seeds(&dir, FuzzTarget::Frame);
        let mut variants_hit = std::collections::BTreeSet::new();
        for (path, bytes) in &seeds {
            let stem = path.file_stem().unwrap().to_string_lossy().to_string();
            match read_frame(&mut Cursor::new(bytes.as_slice()), oracle::FRAME_FUZZ_MAX) {
                Ok(Some(_)) => assert!(
                    stem.starts_with("ok"),
                    "{} decodes cleanly but is named {stem}",
                    path.display()
                ),
                Ok(None) => panic!("{} is empty", path.display()),
                Err(e) => {
                    assert!(
                        stem.starts_with(&kebab(e.variant_name())),
                        "{} triggers {}, not its name",
                        path.display(),
                        e.variant_name()
                    );
                    variants_hit.insert(e.variant_name().to_string());
                }
            }
        }
        for v in oracle::REQUIRED_FRAME_VARIANTS {
            assert!(variants_hit.contains(*v), "frame corpus misses {v}");
        }
    }

    fn kebab(variant: &str) -> String {
        let mut out = String::new();
        for (i, c) in variant.chars().enumerate() {
            if c.is_ascii_uppercase() {
                if i > 0 {
                    out.push('-');
                }
                out.push(c.to_ascii_lowercase());
            } else {
                out.push(c);
            }
        }
        out
    }
}
