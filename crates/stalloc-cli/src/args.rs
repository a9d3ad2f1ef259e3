//! Argument parsing for the `stalloc` tool: `--key value`, `--key=value`,
//! boolean `--flag`s, `--help`/`-h`, and positionals in any position
//! among them — validated against a per-command [`FlagSpec`] so unknown
//! flags fail fast with a nearest-match suggestion, and a missing or
//! surplus positional with the command's placeholders, instead of being
//! silently misparsed.

use std::collections::HashMap;

/// The arguments one subcommand accepts. `--help`/`-h` is always
/// accepted and never needs declaring.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flags that consume a value (`--key value` or `--key=value`).
    pub value_flags: &'static [&'static str],
    /// Boolean flags (`--flag`).
    pub bool_flags: &'static [&'static str],
    /// The positionals, as `(placeholders, what they are)` —
    /// `("BASE NEXT", "two profile files")`: one argument per
    /// placeholder, and a trailing `...` lets the last one repeat.
    /// `None`: the command takes flags only.
    pub positionals: Option<(&'static str, &'static str)>,
}

impl FlagSpec {
    /// No flags, no positionals: what a row's `..` falls back on.
    pub const NONE: FlagSpec = FlagSpec {
        value_flags: &[],
        bool_flags: &[],
        positionals: None,
    };

    fn is_value(&self, key: &str) -> bool {
        self.value_flags.contains(&key)
    }

    fn is_bool(&self, key: &str) -> bool {
        self.bool_flags.contains(&key)
    }

    /// Nearest known flag by edit distance, if any is close enough to be
    /// a plausible typo.
    pub fn suggest(&self, key: &str) -> Option<&'static str> {
        nearest(
            key,
            self.value_flags
                .iter()
                .chain(self.bool_flags.iter())
                .copied()
                .chain(std::iter::once("help")),
        )
    }
}

/// Nearest candidate to `key` by edit distance, if any is close enough to
/// be a plausible typo (shared by flag and command suggestions).
pub fn nearest<'a>(key: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let (best, dist) = candidates
        .into_iter()
        .map(|c| (c, edit_distance(key, c)))
        .min_by_key(|&(c, d)| (d, c))?;
    // A typo plausibly mangles up to ~a third of the word; anything
    // further is more likely a different word entirely.
    let budget = (key.len().max(best.len()) / 3).max(2);
    (dist <= budget).then_some(best)
}

/// Levenshtein distance between two ASCII flag names.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Parsed command-line arguments.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `command`'s `argv` against `spec`. Accepts `--key value`
    /// and `--key=value` for value flags (the `=` form lets values that
    /// themselves start with `--` through unambiguously), bare `--flag`
    /// for booleans, `--help`/`-h`, and — before, between or after the
    /// flags — as many positionals as `spec` has placeholders for (not
    /// counted when help was asked for).
    pub fn parse(command: &str, argv: &[String], spec: &FlagSpec) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if a == "-h" || a == "--help" {
                out.flags.push("help".into());
                i += 1;
                continue;
            }
            let Some(body) = a.strip_prefix("--") else {
                if spec.positionals.is_none() {
                    return Err(format!("unexpected positional argument '{a}'"));
                }
                out.positionals.push(a.clone());
                i += 1;
                continue;
            };
            if let Some((key, value)) = body.split_once('=') {
                if !spec.is_value(key) {
                    return Err(unknown_flag(key, spec, spec.is_bool(key)));
                }
                out.values.insert(key.to_string(), value.to_string());
                i += 1;
            } else if spec.is_value(body) {
                let Some(value) = argv.get(i + 1) else {
                    return Err(format!("--{body} expects a value"));
                };
                out.values.insert(body.to_string(), value.clone());
                i += 2;
            } else if spec.is_bool(body) || body == "help" {
                out.flags.push(body.to_string());
                i += 1;
            } else {
                return Err(unknown_flag(body, spec, false));
            }
        }
        if let (Some((placeholders, what)), false) = (spec.positionals, out.wants_help()) {
            let (wanted, got) = (placeholders.split(' ').count(), out.positionals.len());
            if got < wanted || (got > wanted && !placeholders.ends_with("...")) {
                return Err(format!(
                    "{command}: expected {placeholders} ({what}), got {got}"
                ));
            }
        }
        Ok(out)
    }

    /// The positionals, in the order given.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Positional `i`, which `parse` has checked is there.
    pub fn pos(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// String value of `--key`, or an error naming the flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed numeric value of `--key` with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    /// Whether the boolean `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Whether `--help`/`-h` was given.
    pub fn wants_help(&self) -> bool {
        self.flag("help")
    }
}

fn unknown_flag(key: &str, spec: &FlagSpec, is_bool_used_with_value: bool) -> String {
    if is_bool_used_with_value {
        return format!("--{key} is a boolean flag and takes no value");
    }
    match spec.suggest(key) {
        Some(s) => format!("unknown flag '--{key}' (did you mean '--{s}'?)"),
        None => format!("unknown flag '--{key}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FlagSpec = FlagSpec {
        value_flags: &["model", "mbs", "seq", "input", "x"],
        bool_flags: &["no-fusion"],
        positionals: None,
    };

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse("cmd", &argv("--model gpt2 --no-fusion --mbs 8"), &SPEC).unwrap();
        assert_eq!(a.get("model"), Some("gpt2"));
        assert!(a.flag("no-fusion"));
        assert_eq!(a.num::<u32>("mbs", 1).unwrap(), 8);
        assert_eq!(a.num::<u32>("seq", 4096).unwrap(), 4096);
    }

    #[test]
    fn parses_equals_syntax() {
        let a = Args::parse("cmd", &argv("--model=gpt2 --mbs=8"), &SPEC).unwrap();
        assert_eq!(a.get("model"), Some("gpt2"));
        assert_eq!(a.num::<u32>("mbs", 1).unwrap(), 8);
        // `=` carries values that would otherwise parse as flags.
        let a = Args::parse("cmd", &argv("--model=--weird--"), &SPEC).unwrap();
        assert_eq!(a.get("model"), Some("--weird--"));
        // Empty value and values containing '=' survive.
        let a = Args::parse("cmd", &argv("--model= --x=a=b"), &SPEC).unwrap();
        assert_eq!(a.get("model"), Some(""));
        assert_eq!(a.get("x"), Some("a=b"));
    }

    #[test]
    fn value_flags_consume_flag_like_values() {
        // The spec says --model takes a value, so the next token is the
        // value even though it starts with `--`.
        let a = Args::parse("cmd", &argv("--model --no-fusion"), &SPEC).unwrap();
        assert_eq!(a.get("model"), Some("--no-fusion"));
        assert!(!a.flag("no-fusion"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse("cmd", &argv("--model"), &SPEC)
            .unwrap_err()
            .contains("expects a value"));
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse("cmd", &argv("trace.json"), &SPEC).is_err());
    }

    #[test]
    fn positionals_commute_with_flags_and_are_counted() {
        let one = FlagSpec {
            positionals: Some(("ADDR", "the server address")),
            ..SPEC
        };
        let first = Args::parse("cmd", &argv("host:1 --mbs 2 --no-fusion"), &one).unwrap();
        assert_eq!(first.pos(0), "host:1");
        for line in ["--mbs 2 host:1 --no-fusion", "--mbs=2 --no-fusion host:1"] {
            assert_eq!(Args::parse("cmd", &argv(line), &one).unwrap(), first);
        }
        // A value flag still takes the next token, whatever it looks like.
        let a = Args::parse("cmd", &argv("--model host:1 host:2"), &one).unwrap();
        assert_eq!((a.get("model"), a.pos(0)), (Some("host:1"), "host:2"));
        // Missing and surplus are the same message; help is never counted.
        for line in ["--mbs 2", "a b"] {
            let err = Args::parse("cmd", &argv(line), &one).unwrap_err();
            assert!(
                err.starts_with("cmd: expected ADDR (the server address)"),
                "{err}"
            );
        }
        assert!(Args::parse("cmd", &argv("-h"), &one).unwrap().wants_help());

        let many = FlagSpec {
            positionals: Some(("BASE FILE...", "files")),
            ..SPEC
        };
        assert!(Args::parse("cmd", &argv("a"), &many).is_err());
        let a = Args::parse("cmd", &argv("a --mbs 1 b c"), &many).unwrap();
        assert_eq!(a.positionals(), ["a", "b", "c"]);
    }

    #[test]
    fn unknown_flag_suggests_nearest() {
        let err = Args::parse("cmd", &argv("--moderl gpt2"), &SPEC).unwrap_err();
        assert!(err.contains("did you mean '--model'"), "{err}");
        let err = Args::parse("cmd", &argv("--no-fuson"), &SPEC).unwrap_err();
        assert!(err.contains("did you mean '--no-fusion'"), "{err}");
        // Far-off garbage gets no suggestion.
        let err = Args::parse("cmd", &argv("--zzzzqqqqq 1"), &SPEC).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn bool_flag_with_equals_is_an_error() {
        let err = Args::parse("cmd", &argv("--no-fusion=yes"), &SPEC).unwrap_err();
        assert!(err.contains("takes no value"), "{err}");
    }

    #[test]
    fn help_is_always_known() {
        for form in ["-h", "--help"] {
            let a = Args::parse("cmd", &argv(form), &SPEC).unwrap();
            assert!(a.wants_help());
        }
    }

    #[test]
    fn require_reports_flag_name() {
        let a = Args::parse("cmd", &argv("--x 1"), &SPEC).unwrap();
        assert!(a.require("input").unwrap_err().contains("--input"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse("cmd", &argv("--mbs abc"), &SPEC).unwrap();
        assert!(a.num::<u32>("mbs", 1).is_err());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("model", "model"), 0);
        assert_eq!(edit_distance("model", "mode"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
