//! The subcommands of the `stalloc` tool: one module per command family,
//! each holding its rows — name, summary, help text, accepted arguments,
//! entry point — and one [`COMMANDS`] table over them. Dispatch, the
//! help rule, the usage text and typo suggestions all read the table and
//! nothing else.

mod cache;
mod explain;
mod fuzz;
mod plan;
mod profile;
mod replay;
mod serve;
mod stats;
mod trace;

use stalloc_core::{FINGERPRINT_VERSION, SYNTH_ALGO_VERSION};

use crate::args::{nearest, Args, FlagSpec};
use crate::render::out;

/// One row of the command table.
pub struct Command {
    /// The words that select the row; `a|b` in a word offers synonyms.
    name: &'static str,
    /// What the top-level usage says about it (a newline wraps).
    summary: &'static str,
    /// The `--help` text.
    help: &'static str,
    spec: FlagSpec,
    run: fn(&Args) -> Result<(), String>,
}

/// Every command, in the order the usage lists them.
const COMMANDS: &[Command] = &[
    trace::TRACE,
    trace::CONVERT,
    profile::PROFILE,
    plan::PLAN,
    profile::DIFF_PROF,
    explain::SHOW,
    explain::EXPLAIN,
    replay::REPLAY,
    serve::SERVE,
    stats::STATS,
    stats::TOP,
    cache::CACHE,
    plan::STRATEGIES,
    fuzz::FUZZ,
    VERSION,
];

const VERSION: Command = Command {
    name: "version",
    summary: "print tool and planner-algorithm versions",
    help: "\
usage: stalloc version
  prints the tool version plus the planner-algorithm and profile
  fingerprint versions that key the plan caches (fingerprint v5: a
  client and the daemon it talks to must print the same one; store
  entries keyed by an older one are never served again and only
  `stalloc cache clear` reclaims them)",
    spec: FlagSpec::NONE,
    run: version,
};

fn version(_args: &Args) -> Result<(), String> {
    out(&format!(
        "stalloc {} (planner algorithm v{SYNTH_ALGO_VERSION}, profile fingerprint \
         v{FINGERPRINT_VERSION})\n",
        env!("CARGO_PKG_VERSION")
    ))
}

impl Command {
    /// How many leading words of `argv` select this row, if they do.
    fn matched(&self, argv: &[String]) -> Option<usize> {
        let mut words = 0;
        for word in self.name.split(' ') {
            let given = argv.get(words)?;
            if !word.split('|').any(|w| w == given) {
                return None;
            }
            words += 1;
        }
        Some(words)
    }
}

/// The row `argv` starts with — the one matching the most words, so
/// `trace merge` is its own row and `trace --model` the generator's —
/// and the arguments left for it.
fn lookup(argv: &[String]) -> Option<(&'static Command, &[String])> {
    COMMANDS
        .iter()
        .filter_map(|c| c.matched(argv).map(|words| (c, &argv[words..])))
        .min_by_key(|(_, rest)| rest.len())
}

/// The usage text printed on argument errors and by `stalloc --help`.
fn usage() -> String {
    let mut text = String::from(
        "usage: stalloc <command> [--flags]\n       \
         stalloc <command> --help   for per-command details\n\ncommands:",
    );
    for c in COMMANDS {
        // Summaries hang at column 14; a name too wide for the gutter
        // takes a line of its own.
        let gutter = if c.name.len() > 11 {
            "\n             "
        } else {
            ""
        };
        let summary = c.summary.replace('\n', "\n              ");
        text.push_str(&format!("\n  {:<11}{gutter} {summary}", c.name));
    }
    text
}

/// An argument error: the message, then the usage text. A command that
/// fails at run time reports its one line alone.
fn usage_error(message: String) -> String {
    format!("{message}\n\n{}", usage())
}

/// Runs the command `argv` names. One rule answers help for every row:
/// `help <command>`, `<command> help`, and `--help`/`-h` anywhere among
/// the command's arguments.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (argv, help_topic) = match argv.first().map(String::as_str) {
        None => return Err(usage_error("no command given".into())),
        Some("--version" | "-V") => return version(&Args::default()),
        Some("help" | "--help" | "-h") if argv.len() == 1 => return out(&(usage() + "\n")),
        Some("help" | "--help" | "-h") => (&argv[1..], true),
        Some(_) => (argv, false),
    };
    let Some((command, rest)) = lookup(argv) else {
        let name = &argv[0];
        let known = COMMANDS.iter().filter_map(|c| c.name.split(' ').next());
        return Err(usage_error(match nearest(name, known.chain(["help"])) {
            Some(s) => format!("unknown command '{name}' (did you mean '{s}'?)"),
            None => format!("unknown command '{name}'"),
        }));
    };
    let args = if help_topic || rest.first().is_some_and(|a| a == "help") {
        None
    } else {
        Some(Args::parse(command.name, rest, &command.spec).map_err(usage_error)?)
            .filter(|a| !a.wants_help())
    };
    match args {
        Some(args) => (command.run)(&args),
        None => out(&format!("{}\n", command.help)),
    }
}

#[cfg(test)]
pub fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Every spelling of a row's name: `trace merge|chrome` is two.
    fn spellings(c: &Command) -> Vec<String> {
        let (head, last) = c
            .name
            .rsplit_once(' ')
            .map_or(("", c.name), |(h, l)| (h, l));
        last.split('|')
            .map(|w| format!("{head} {w}").trim().to_string())
            .collect()
    }

    #[test]
    fn unknown_command_is_rejected_with_a_suggestion() {
        let err = dispatch(&argv("fly")).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.ends_with(&usage()), "argument errors carry the usage");
        assert!(dispatch(&[]).unwrap_err().ends_with(&usage()));
        let err = dispatch(&argv("trce")).unwrap_err();
        assert!(err.contains("did you mean 'trace'"), "{err}");
        let err = dispatch(&argv("cashe")).unwrap_err();
        assert!(err.contains("did you mean 'cache'"), "{err}");
    }

    #[test]
    fn every_row_is_suggested_for_its_own_typo() {
        for c in COMMANDS {
            let name = spellings(c)[0].split(' ').next().unwrap().to_string();
            let typo = format!("{}x{}", &name[..1], &name[1..]);
            let err = dispatch(&[typo]).unwrap_err();
            assert!(err.contains(&format!("did you mean '{name}'")), "{err}");
        }
    }

    #[test]
    fn help_paths_succeed() {
        for line in ["--help", "-h", "help", "strategies", "--help plan"] {
            dispatch(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        for c in COMMANDS {
            for name in spellings(c) {
                for line in [
                    format!("help {name}"),
                    format!("{name} --help"),
                    format!("{name} -h"),
                    format!("{name} help"),
                ] {
                    dispatch(&argv(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
                    // The rule picks this row's text, not a neighbour's.
                    let words = argv(line.trim_start_matches("help "));
                    assert_eq!(lookup(&words).unwrap().0.help, c.help, "{line}");
                }
            }
        }
        // Help wins over a missing positional and sits anywhere.
        dispatch(&argv("cache ls --help")).unwrap();
        dispatch(&argv("stats --slowest 3 -h")).unwrap();
        assert!(dispatch(&argv("help fly")).is_err());
    }

    #[test]
    fn help_texts_name_every_flag_and_positional_of_their_row() {
        for c in COMMANDS {
            let usage_line = c.help.lines().next().unwrap();
            let word = c.name.split(' ').next().unwrap();
            assert!(
                usage_line.starts_with(&format!("usage: stalloc {word}")),
                "{}: {usage_line}",
                c.name
            );
            for flag in c.spec.value_flags.iter().chain(c.spec.bool_flags) {
                assert!(
                    c.help.contains(&format!("--{flag}")),
                    "{}: --{flag} is accepted but not in the help text",
                    c.name
                );
            }
            if let Some((placeholders, _)) = c.spec.positionals {
                assert!(
                    usage_line.contains(placeholders),
                    "{}: {usage_line}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn usage_names_every_row() {
        let usage = usage();
        for c in COMMANDS {
            assert!(usage.contains(&format!("\n  {}", c.name)), "{}", c.name);
        }
    }

    #[test]
    fn positional_count_errors_are_one_message_per_command() {
        for (lines, message) in [
            (
                ["stats", "stats a b"],
                "stats: expected ADDR (the server address)",
            ),
            (
                ["top", "top a b"],
                "top: expected ADDR (the server address)",
            ),
            (
                ["explain", "explain a b"],
                "explain: expected PLAN (a plan file)",
            ),
            (
                ["diff-prof a", "diff-prof a b c"],
                "diff-prof: expected BASE NEXT (two profile files)",
            ),
            (
                ["cache --dir d", "cache ls gc --dir d"],
                "cache: expected ls|gc|clear (an action)",
            ),
            (
                ["trace merge", "trace chrome --output o"],
                "trace merge|chrome: expected FILE... (one or more trace-log files)",
            ),
        ] {
            for line in lines {
                let err = dispatch(&argv(line)).unwrap_err();
                assert!(err.starts_with(message), "{line}: {err}");
            }
        }
        // Rows without positionals say so, as they always have.
        let err = dispatch(&argv("show plan.json")).unwrap_err();
        assert!(err.contains("unexpected positional argument"), "{err}");
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
    fn unknown_flag_suggests_per_command() {
        let err = dispatch(&argv("plan --inptu p.json --output x.json")).unwrap_err();
        assert!(err.contains("did you mean '--input'"), "{err}");
        assert!(err.ends_with(&usage()), "argument errors carry the usage");
        let err = dispatch(&argv("trace --modle gpt2 --output t.json")).unwrap_err();
        assert!(err.contains("did you mean '--model'"), "{err}");
    }

    #[test]
    fn run_time_failures_are_one_line() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-fail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.stplan");
        // A plan from a foreign `STPL` version: magic, then version 1.
        let foreign = dir.join("v1.stplan");
        fs::write(&foreign, b"STPL\x01\x00\x00\x00").unwrap();
        for (path, want) in [
            (&missing, "missing.stplan: "),
            (&foreign, "v1.stplan: unsupported format version 1"),
        ] {
            let err = dispatch(&argv(&format!("explain {}", path.display()))).unwrap_err();
            assert!(err.contains(want), "{err}");
            assert!(!err.contains('\n'), "one line, no usage: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Each artifact command reads one form. A file of another kind — a
    /// JSON profile, a trace or a plan where a `PROF` profile belongs, a
    /// JSON plan or a profile where an `STPL` plan belongs — is a
    /// one-line typed error naming the path and the form expected.
    #[test]
    fn wrong_artifact_is_a_typed_error_naming_the_path() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-wrong-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().to_string();
        let (trace_p, prof_p, plan_p) = (path("t.json"), path("p.prof"), path("pl.stplan"));
        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!("plan --input {prof_p} --output {plan_p}"))).unwrap();

        let json_prof_p = path("profile.json");
        let profile = crate::files::read_profile(&prof_p).unwrap();
        fs::write(&json_prof_p, serde_json::to_string(&profile).unwrap()).unwrap();
        let json_plan_p = path("plan.json");
        let plan = crate::files::read_plan(&plan_p).unwrap();
        fs::write(&json_plan_p, plan.to_json()).unwrap();

        let out_p = path("out.stplan");
        for (line, file, expected) in [
            (
                format!("plan --input {json_prof_p} --output {out_p}"),
                &json_prof_p,
                "a PROF profile",
            ),
            (
                format!("plan --input {trace_p} --output {out_p}"),
                &trace_p,
                "a PROF profile",
            ),
            (
                format!("plan --input {plan_p} --output {out_p}"),
                &plan_p,
                "a PROF profile",
            ),
            (
                format!("explain {json_plan_p}"),
                &json_plan_p,
                "an STPL plan",
            ),
            (
                format!("show --input {json_plan_p}"),
                &json_plan_p,
                "an STPL plan",
            ),
            (format!("show --input {prof_p}"), &prof_p, "an STPL plan"),
        ] {
            let err = dispatch(&argv(&line)).unwrap_err();
            assert_eq!(err, format!("{file}: not {expected} (bad magic)"), "{line}");
        }
        assert!(
            !dir.join("out.stplan").exists(),
            "no plan from a wrong input"
        );
        fs::remove_dir_all(&dir).ok();
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
        // A `.json` name holds the one binary form all the same: the form
        // is never chosen by extension.
        assert!(fs::read(&prof_p).unwrap().starts_with(b"PROF"));
        assert!(fs::read(&plan_p).unwrap().starts_with(b"STPL"));
        dispatch(&argv(&format!("show --input {plan_p} --rows 4 --cols 20"))).unwrap();
        dispatch(&argv(&format!(
            "replay --input {trace_p} --allocator torch23 --device a800"
        )))
        .unwrap();

        fs::remove_dir_all(&dir).ok();
    }
}
