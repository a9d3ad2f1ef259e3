//! `stalloc replay`: a trace through an allocator on a simulated device
//! (the paper's section 9 metrics).

use std::fmt::Write;

use gpu_sim::DeviceSpec;
use harness::{run, AllocatorKind};
use trace_gen::Trace;

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::files::read_json;
use crate::render::{gib, out};

pub const REPLAY: Command = Command {
    name: "replay",
    summary: "replay a trace through an allocator (paper section 9 metrics)",
    help: "\
usage: stalloc replay --input TRACE [flags]
  --input TRACE     trace JSON produced by `stalloc trace`
  --allocator A     stalloc|stalloc-noreuse|torch20|torch23|torch26|
                    es|gmlake|native (default stalloc)
  --device D        a800|h200|mi210 (default a800)
  --frag-limit MiB  GMLake fragmentation limit (default 512)",
    spec: FlagSpec {
        value_flags: &["input", "allocator", "device", "frag-limit"],
        ..FlagSpec::NONE
    },
    run: replay,
};

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

fn replay(args: &Args) -> Result<(), String> {
    let trace: Trace = read_json(args.require("input")?)?;
    let device = parse_device(args.get("device").unwrap_or("a800"))?;
    let frag = args.num("frag-limit", 512u64)?;
    let kind = parse_allocator(args.get("allocator").unwrap_or("stalloc"), frag)?;
    if kind.needs_vmm() && !device.supports_vmm {
        return Err(format!("{} requires VMM support", kind.label()));
    }
    let result = run(&trace, &device, kind);
    let r = &result.report;
    let mut text = String::new();
    let _ = writeln!(text, "allocator      : {}", r.allocator);
    let _ = writeln!(text, "device         : {}", device.name);
    let _ = writeln!(text, "allocated (M_a): {:.3} GiB", gib(r.peak_requested));
    let _ = writeln!(text, "reserved  (M_r): {:.3} GiB", gib(r.peak_reserved));
    let _ = writeln!(text, "efficiency     : {:.1}%", r.efficiency() * 100.0);
    let _ = writeln!(
        text,
        "outcome        : {}",
        if r.oom { "OOM" } else { "ok" }
    );
    if let Some(d) = &r.oom_detail {
        let _ = writeln!(text, "oom detail     : {d}");
    }
    if let Some(t) = result.throughput {
        let _ = writeln!(text, "iteration time : {:.3} s (modelled)", t.iter_time_s);
        let _ = writeln!(
            text,
            "throughput     : {:.1} TFLOPS/GPU (modelled)",
            t.tflops
        );
    }
    if let Some(c) = result.counters {
        let _ = writeln!(
            text,
            "runtime        : {} planned, {} lookahead, {} static fallback, \
             {} dyn reused, {} dyn fallback",
            c.static_planned,
            c.lookahead_matches,
            c.static_fallback,
            c.dynamic_reused,
            c.dynamic_fallback
        );
    }
    out(&text)
}

#[cfg(test)]
mod tests {
    use super::super::trace::{parse_model, parse_optim};
    use super::*;

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
}
