//! `stalloc trace`: generate a training memory trace — and `stalloc
//! trace merge|chrome`, which turns `serve --trace-log` span logs into a
//! Chrome timeline.

use std::fs;

use stalloc_obs::chrome::{lanes_timeline, Lane, SpanView};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::files::write_json;
use crate::render::emit;

pub const TRACE: Command = Command {
    name: "trace",
    summary: "generate a training memory trace",
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
        ..FlagSpec::NONE
    },
    run: trace,
};

pub const CONVERT: Command = Command {
    name: "trace merge|chrome",
    summary: "convert `serve --trace-log` JSONL files to a Chrome timeline",
    help: "\
usage: stalloc trace <merge|chrome> FILE... [--output OUT.json]
  converts `stalloc serve --trace-log` JSONL span logs into one Chrome
  trace-event JSON timeline (load in chrome://tracing or Perfetto):
  each FILE becomes its own pid lane named after the file, its spans
  laid back-to-back with per-phase child slices; `merge` and `chrome`
  are synonyms
  --output OUT.json  write the timeline to OUT.json (default: stdout)

to trace a single live request end to end — client and server lanes
merged on one clock — use `stalloc plan --remote ADDR --trace OUT.json`",
    spec: FlagSpec {
        value_flags: &["output"],
        positionals: Some(("FILE...", "one or more trace-log files")),
        ..FlagSpec::NONE
    },
    run: convert,
};

pub fn parse_model(name: &str) -> Result<ModelSpec, String> {
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

pub fn parse_optim(label: &str) -> Result<(OptimConfig, bool), String> {
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

fn trace(args: &Args) -> Result<(), String> {
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

/// One pid lane per trace-log file, in argument order.
fn convert(args: &Args) -> Result<(), String> {
    let mut lanes = Vec::new();
    for file in args.positionals() {
        let text = fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value: serde::Value =
                serde_json::from_str(line).map_err(|e| format!("{file}:{}: {e}", i + 1))?;
            spans.push(SpanView::from_trace_line(&value).ok_or_else(|| {
                format!("{file}:{}: not a trace-log line (no `verb` key)", i + 1)
            })?);
        }
        lanes.push(Lane {
            name: file.clone(),
            spans,
        });
    }
    let trace = lanes_timeline(&lanes);
    let note = format!("{} events from {} lane(s)", trace.len(), lanes.len());
    emit(args.get("output"), trace.to_json().as_bytes(), &note)
}

#[cfg(test)]
mod tests {
    use super::super::{argv, dispatch};
    use std::fs;

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
                r#"{"seq":1,"verb":"ProfileBin","tier":"lru","total_micros":40,"encode":40}"#,
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
        assert!(err.contains("trace-log files"), "{err}");
        let bad_p = dir.join("bad.jsonl").to_string_lossy().to_string();
        fs::write(&bad_p, "not json\n").unwrap();
        assert!(dispatch(&argv(&format!("trace merge {bad_p}"))).is_err());
        fs::write(&bad_p, "{\"no_verb\":1}\n").unwrap();
        let err = dispatch(&argv(&format!("trace merge {bad_p}"))).unwrap_err();
        assert!(err.contains("verb"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }
}
