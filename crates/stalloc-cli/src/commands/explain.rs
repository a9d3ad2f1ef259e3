//! Plan introspection: `stalloc show` (occupancy as ASCII art) and
//! `stalloc explain` (the fragmentation/occupancy timeline).

use std::fmt::Write;

use stalloc_core::{Plan, PlanTimeline};

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::files::read_plan;
use crate::render::{emit, fmt_bytes, out, Table};

pub const SHOW: Command = Command {
    name: "show",
    summary: "render a plan's occupancy as ASCII art",
    help: "\
usage: stalloc show --input PLAN [--rows N] [--cols N]
  --input PLAN      STPL plan written by `stalloc plan`
  --rows N          occupancy rows (default 16)
  --cols N          occupancy columns (default 72)",
    spec: FlagSpec {
        value_flags: &["input", "rows", "cols"],
        ..FlagSpec::NONE
    },
    run: show,
};

pub const EXPLAIN: Command = Command {
    name: "explain",
    summary: "replay a plan into a fragmentation/occupancy timeline\n\
              (table, JSON, or SVG memory map)",
    help: "\
usage: stalloc explain PLAN [--format table|json|svg] [flags]
  replays the STPL plan's allocations into a fragmentation/occupancy
  timeline: per-tick live bytes, free-gap histogram, and stranded
  memory attributed to the tensors roofing each gap; the reported peak
  and fragmentation agree exactly with the plan's own stats
  --format F        table (default): occupancy sparkline + gap
                    histogram + stranded top-K; json: the full
                    timeline; svg: a memory-map rendering (offset x
                    time, colored by lifetime class)
  --top N           stranded tensors to attribute (default 5)
  --output FILE     write to FILE instead of stdout",
    spec: FlagSpec {
        value_flags: &["format", "top", "output"],
        positionals: Some(("PLAN", "a plan file")),
        ..FlagSpec::NONE
    },
    run: explain,
};

fn show(args: &Args) -> Result<(), String> {
    let plan = read_plan(args.require("input")?)?;
    let rows = args.num("rows", 16usize)?;
    let cols = args.num("cols", 72usize)?;
    out(&format!(
        "{}\n",
        stalloc_core::render_plan(&plan, rows, cols)
    ))
}

fn explain(args: &Args) -> Result<(), String> {
    let path = args.pos(0);
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
    emit(args.get("output"), body.as_bytes(), "")
}

/// The `--format table` view: header, occupancy sparkline, free-gap
/// histogram, stranded-memory attribution.
fn render_timeline_table(path: &str, plan: &Plan, t: &PlanTimeline) -> String {
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
        let mut table = Table::new(&[
            "kind",
            "index",
            "size",
            "offset",
            "live [ts, te)",
            "byte·ticks",
        ]);
        for s in &t.stranded {
            let live = format!("[{}, {})", s.ts, s.te);
            let size = fmt_bytes(s.size);
            table.row(&[
                &s.kind,
                &s.index,
                &size,
                &s.offset,
                &live,
                &s.stranded_byte_ticks,
            ]);
        }
        out.push_str(&table.render("  "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{argv, dispatch};
    use crate::files::read_plan;
    use std::fs;

    #[test]
    fn explain_renders_timeline_from_plan_files() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-explain-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.prof").to_string_lossy().to_string();
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
}
