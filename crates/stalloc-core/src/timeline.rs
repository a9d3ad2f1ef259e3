//! Plan introspection: replay a finished [`Plan`] into a fragmentation /
//! occupancy timeline.
//!
//! A plan is a set of placed rectangles in the time × address plane; this
//! module re-derives the quality picture the packer saw while placing
//! them — per-tick live bytes, the free-gap distribution, and *stranded*
//! memory: free bytes trapped below the occupied high-water mark, which
//! no same-tick allocation could use without moving something. Stranded
//! byte-ticks are attributed to the allocation sitting immediately above
//! each gap (the placement that "roofed over" the hole), so `stalloc
//! explain` can name the top offending tensors.
//!
//! The byte sweep is the profiler's own peak sweep, so
//! [`PlanTimeline::peak_live_bytes`] equals
//! [`PlanStats::peak_static_demand`](crate::PlanStats) by construction.
//! Gap walks are more expensive (a sort per tick), so they run at up to
//! [`MAX_SAMPLES`] evenly-strided distinct ticks.

use serde::{Deserialize, Serialize};
use stalloc_obs::{HistogramSnapshot, LatencyHistogram};

use crate::plan::{Plan, PlannedAlloc};
use crate::profiler::sweep_live_bytes;

/// Upper bound on gap-walked sample ticks (the byte sweep is exact
/// regardless).
pub const MAX_SAMPLES: usize = 512;

/// One sampled instant of the plan's life.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// The tick this sample describes (state *after* all events at it).
    pub tick: u64,
    /// Bytes of live static allocations.
    pub live_bytes: u64,
    /// Pool bytes not covered by a live allocation.
    pub free_bytes: u64,
    /// Interior free gaps below the occupied high-water mark.
    pub gap_count: u64,
    /// Largest free gap (interior or above the high-water mark), bytes.
    pub largest_gap: u64,
    /// Free bytes trapped below the occupied high-water mark.
    pub stranded_bytes: u64,
}

/// One allocation's share of the blame for stranded memory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrandedTensor {
    /// `"init"` (persistent prefix) or `"iter"` (iteration body).
    pub kind: String,
    /// Index within its alloc table.
    pub index: u64,
    /// Allocation size, bytes.
    pub size: u64,
    /// Planned offset.
    pub offset: u64,
    /// Lifetime start tick.
    pub ts: u64,
    /// Lifetime end tick.
    pub te: u64,
    /// Gap bytes × ticks charged to this allocation (it sat directly
    /// above the gap while the gap was open).
    pub stranded_byte_ticks: u64,
}

/// The replayed quality picture of one plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanTimeline {
    /// The plan's pool size, bytes.
    pub pool_size: u64,
    /// Maximum simultaneously-live static bytes — equals the plan's
    /// `stats.peak_static_demand` exactly.
    pub peak_live_bytes: u64,
    /// First tick at which the peak is reached.
    pub peak_tick: u64,
    /// `pool_size − peak_live_bytes`: bytes the pool carries beyond the
    /// information-theoretic lower bound.
    pub fragmentation: u64,
    /// Sampled occupancy/gap states, ascending by tick (≤ [`MAX_SAMPLES`]).
    pub samples: Vec<TimelineSample>,
    /// Log2 histogram of every interior gap observed at sampled ticks.
    pub gap_sizes: HistogramSnapshot,
    /// Top-K allocations by stranded byte-ticks, descending.
    pub stranded: Vec<StrandedTensor>,
}

/// The allocs of a plan with their table-of-origin tags, in
/// (init, iter) table order.
fn tagged_allocs(plan: &Plan) -> Vec<(&'static str, u64, &PlannedAlloc)> {
    let tables = [("init", &plan.init_allocs), ("iter", &plan.iter_allocs)];
    let tagged = tables
        .into_iter()
        .flat_map(|(kind, table)| (0..).zip(table).map(move |(i, a)| (kind, i, a)));
    tagged.collect()
}

/// Replays `plan` into its timeline, keeping the `top_k` worst stranded
/// allocations.
///
/// Liveness follows the profiler's sweep convention (`ts ≤ t < te`, raw
/// end ticks, not the planner's window rule): the peak found here is
/// `peak_static_demand`'s, by the same function. Degenerate allocations
/// (`te ≤ ts`) are never live at any tick under that convention and
/// contribute nothing.
pub fn analyze_plan(plan: &Plan, top_k: usize) -> PlanTimeline {
    let allocs = tagged_allocs(plan);

    // --- Exact byte sweep, keeping the live bytes at each distinct tick. ---
    let mut tick_live: Vec<(u64, u64)> = Vec::new();
    let lifetimes = allocs.iter().map(|(_, _, a)| (a.ts, a.te, a.size));
    let (peak, peak_tick) = sweep_live_bytes(lifetimes, |tick, live| tick_live.push((tick, live)));

    // --- Sampled gap walks. ---
    let stride = tick_live.len().div_ceil(MAX_SAMPLES).max(1);
    let sampled: Vec<(u64, u64)> = tick_live
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| i % stride == 0 || i == tick_live.len() - 1)
        .map(|(_, tl)| tl)
        .collect();

    let gap_hist = LatencyHistogram::new();
    let mut samples = Vec::with_capacity(sampled.len());
    let mut blame: Vec<u64> = vec![0; allocs.len()];
    for (si, &(tick, live_bytes)) in sampled.iter().enumerate() {
        // Ticks are open until the next sample; the final sample covers
        // one tick (the plan's state no longer changes after it).
        let dt = sampled
            .get(si + 1)
            .map(|&(nt, _)| nt - tick)
            .unwrap_or(1)
            .max(1);
        // Live address spans at this tick, ascending, tagged with the
        // alloc they belong to.
        let mut spans: Vec<(u64, u64, usize)> = allocs
            .iter()
            .enumerate()
            .filter(|(_, (_, _, a))| a.size > 0 && a.ts <= tick && tick < a.te)
            .map(|(ai, (_, _, a))| (a.offset, a.offset + a.size, ai))
            .collect();
        spans.sort_unstable();

        let mut gap_count = 0u64;
        let mut largest_gap = 0u64;
        let mut stranded = 0u64;
        let mut cursor = 0u64;
        for &(s, e, ai) in &spans {
            if s > cursor {
                let gap = s - cursor;
                gap_hist.record(gap);
                gap_count += 1;
                largest_gap = largest_gap.max(gap);
                stranded += gap;
                blame[ai] = blame[ai].saturating_add(gap.saturating_mul(dt));
            }
            cursor = cursor.max(e);
        }
        // The space above the high-water mark is free but not stranded.
        if plan.pool_size > cursor {
            largest_gap = largest_gap.max(plan.pool_size - cursor);
        }
        samples.push(TimelineSample {
            tick,
            live_bytes,
            free_bytes: plan.pool_size.saturating_sub(live_bytes),
            gap_count,
            largest_gap,
            stranded_bytes: stranded,
        });
    }

    let mut worst: Vec<usize> = (0..allocs.len()).filter(|&i| blame[i] > 0).collect();
    worst.sort_unstable_by_key(|&i| (u64::MAX - blame[i], i));
    worst.truncate(top_k);
    let stranded = worst
        .into_iter()
        .map(|i| {
            let (kind, index, a) = allocs[i];
            StrandedTensor {
                kind: kind.to_string(),
                index,
                size: a.size,
                offset: a.offset,
                ts: a.ts,
                te: a.te,
                stranded_byte_ticks: blame[i],
            }
        })
        .collect();

    PlanTimeline {
        pool_size: plan.pool_size,
        peak_live_bytes: peak,
        peak_tick,
        fragmentation: plan.pool_size.saturating_sub(peak),
        samples,
        gap_sizes: gap_hist.snapshot(),
        stranded,
    }
}

/// Lifetime classes for the SVG memory map's coloring.
fn lifetime_class(kind: &str, a: &PlannedAlloc, horizon: u64) -> &'static str {
    if kind == "init" {
        "#4e79a7" // persistent: blue
    } else if a.te.saturating_sub(a.ts) * 2 >= horizon {
        "#59a14f" // long-lived: green
    } else {
        "#f28e2b" // short-lived: orange
    }
}

/// Renders the plan as an SVG memory map: x = time (ticks), y = pool
/// offset (0 at the bottom), one rectangle per planned allocation,
/// colored by lifetime class (blue = persistent, green = long-lived,
/// orange = short-lived). A dashed line marks the peak static demand;
/// the top edge is the pool size. Self-contained — no scripts, no
/// external references.
pub fn render_svg(plan: &Plan, timeline: &PlanTimeline) -> String {
    use std::fmt::Write;
    const W: f64 = 960.0;
    const H: f64 = 540.0;
    const ML: f64 = 60.0; // left margin (offset axis labels)
    const MT: f64 = 28.0; // top margin (title)
    const MB: f64 = 24.0; // bottom margin (tick axis)
    let plot_w = W - ML - 8.0;
    let plot_h = H - MT - MB;

    let allocs = tagged_allocs(plan);
    let horizon = allocs
        .iter()
        .map(|(_, _, a)| a.window_end())
        .max()
        .unwrap_or(1)
        .max(1);
    let pool = plan.pool_size.max(1);
    let x = |t: u64| ML + t.min(horizon) as f64 / horizon as f64 * plot_w;
    let y = |off: u64| MT + plot_h - (off.min(pool) as f64 / pool as f64 * plot_h);

    let mut svg = String::with_capacity(4096 + allocs.len() * 96);
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"##
    );
    let _ = write!(
        svg,
        r##"<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>"##
    );
    let _ = write!(
        svg,
        r##"<text x="{ML}" y="18" font-family="monospace" font-size="13">{} · pool {} B · peak {} B · fragmentation {} B</text>"##,
        plan.stats.strategy.name(),
        plan.pool_size,
        timeline.peak_live_bytes,
        timeline.fragmentation,
    );
    // Plot frame.
    let _ = write!(
        svg,
        r##"<rect x="{ML}" y="{MT}" width="{plot_w}" height="{plot_h}" fill="#f4f4f4" stroke="#888"/>"##
    );
    for (kind, _, a) in &allocs {
        if a.size == 0 {
            continue;
        }
        let rx = x(a.ts);
        let rw = (x(a.window_end()) - rx).max(0.5);
        let ry = y(a.offset + a.size);
        let rh = (y(a.offset) - ry).max(0.5);
        let _ = write!(
            svg,
            r##"<rect x="{rx:.2}" y="{ry:.2}" width="{rw:.2}" height="{rh:.2}" fill="{}" fill-opacity="0.8" stroke="#333" stroke-width="0.3"/>"##,
            lifetime_class(kind, a, horizon),
        );
    }
    // Peak static demand line.
    let py = y(timeline.peak_live_bytes);
    let _ = write!(
        svg,
        r##"<line x1="{ML}" y1="{py:.2}" x2="{:.2}" y2="{py:.2}" stroke="#e15759" stroke-dasharray="6,3" stroke-width="1.2"/>"##,
        ML + plot_w,
    );
    let _ = write!(
        svg,
        r##"<text x="{ML}" y="{:.2}" font-family="monospace" font-size="11" fill="#e15759">peak</text>"##,
        py - 4.0,
    );
    // Axis labels: pool extremes and the time horizon.
    let _ = write!(
        svg,
        r##"<text x="4" y="{:.2}" font-family="monospace" font-size="11">{pool}</text>"##,
        MT + 10.0,
    );
    let _ = write!(
        svg,
        r##"<text x="4" y="{:.2}" font-family="monospace" font-size="11">0</text>"##,
        MT + plot_h,
    );
    let _ = write!(
        svg,
        r##"<text x="{:.2}" y="{:.2}" font-family="monospace" font-size="11">tick {horizon}</text>"##,
        ML + plot_w - 80.0,
        H - 8.0,
    );
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(offset: u64, size: u64, ts: u64, te: u64) -> PlannedAlloc {
        PlannedAlloc {
            size,
            offset,
            ts,
            te,
        }
    }

    /// Pool 100: A fills [0,40) and B fills [60,100) over ticks [0,10) —
    /// a 20-byte hole is stranded under B the whole time.
    fn holey_plan() -> Plan {
        Plan {
            pool_size: 100,
            init_allocs: vec![alloc(0, 40, 0, 10)],
            iter_allocs: vec![alloc(60, 40, 0, 10)],
            ..Plan::default()
        }
    }

    #[test]
    fn peak_and_samples_track_liveness() {
        let tl = analyze_plan(&holey_plan(), 4);
        assert_eq!(tl.peak_live_bytes, 80);
        assert_eq!(tl.peak_tick, 0);
        assert_eq!(tl.fragmentation, 20);
        // Distinct ticks: 0 (both live) and 10 (both freed).
        assert_eq!(tl.samples.len(), 2);
        let s0 = &tl.samples[0];
        assert_eq!((s0.tick, s0.live_bytes, s0.free_bytes), (0, 80, 20));
        assert_eq!(
            (s0.gap_count, s0.largest_gap, s0.stranded_bytes),
            (1, 20, 20)
        );
        let s1 = &tl.samples[1];
        assert_eq!((s1.tick, s1.live_bytes), (10, 0));
        assert_eq!(s1.gap_count, 0, "nothing live, nothing stranded");
        assert_eq!(s1.largest_gap, 100, "the whole pool is one free gap");
    }

    #[test]
    fn stranded_blame_lands_on_the_roofing_alloc() {
        let tl = analyze_plan(&holey_plan(), 4);
        assert_eq!(tl.stranded.len(), 1, "only B roofs a hole");
        let b = &tl.stranded[0];
        assert_eq!((b.kind.as_str(), b.index, b.offset), ("iter", 0, 60));
        // The 20-byte gap is open from tick 0 to the next sample (10).
        assert_eq!(b.stranded_byte_ticks, 20 * 10);
        assert_eq!(tl.gap_sizes.total(), 1);
    }

    #[test]
    fn top_k_truncates_and_orders_by_blame() {
        // Two holes: 30 bytes under C (offset 70), 10 bytes under B (40).
        let plan = Plan {
            pool_size: 100,
            init_allocs: vec![],
            iter_allocs: vec![
                alloc(0, 30, 0, 10),
                alloc(40, 0, 0, 10), // zero-size: ignored
                alloc(40, 0, 0, 0),  // degenerate: never live
                alloc(40, 10, 0, 10),
                alloc(80, 20, 0, 10),
            ],
            ..Plan::default()
        };
        let tl = analyze_plan(&plan, 1);
        assert_eq!(tl.stranded.len(), 1, "top-1 keeps only the worst");
        assert_eq!(
            tl.stranded[0].offset, 80,
            "the 30-byte hole outranks the 10"
        );
        let tl2 = analyze_plan(&plan, 10);
        assert_eq!(tl2.stranded.len(), 2);
        assert!(tl2.stranded[0].stranded_byte_ticks >= tl2.stranded[1].stranded_byte_ticks);
    }

    #[test]
    fn empty_plan_is_all_zero() {
        let tl = analyze_plan(&Plan::default(), 4);
        assert_eq!(tl.peak_live_bytes, 0);
        assert_eq!(tl.fragmentation, 0);
        assert!(tl.samples.is_empty());
        assert!(tl.stranded.is_empty());
    }

    #[test]
    fn long_plans_sample_at_most_max_samples() {
        let iter_allocs: Vec<PlannedAlloc> = (0..2_000u64)
            .map(|i| alloc(0, 8, i * 2, i * 2 + 1))
            .collect();
        let plan = Plan {
            pool_size: 8,
            iter_allocs,
            ..Plan::default()
        };
        let tl = analyze_plan(&plan, 4);
        assert!(tl.samples.len() <= MAX_SAMPLES + 1);
        assert_eq!(tl.peak_live_bytes, 8);
        // Samples stay in ascending tick order with the last tick present.
        assert!(tl.samples.windows(2).all(|w| w[0].tick < w[1].tick));
        assert_eq!(tl.samples.last().unwrap().tick, 2 * 1_999 + 1);
    }

    #[test]
    fn timeline_roundtrips_through_json() {
        let tl = analyze_plan(&holey_plan(), 4);
        let json = serde_json::to_string(&tl).unwrap();
        let back: PlanTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tl);
    }

    #[test]
    fn svg_is_self_contained_and_draws_every_alloc() {
        let plan = holey_plan();
        let tl = analyze_plan(&plan, 4);
        let svg = render_svg(&plan, &tl);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // Frame + background + 2 allocs; no scripts or external refs.
        assert_eq!(svg.matches("<rect").count(), 4);
        assert!(!svg.contains("<script"));
        assert_eq!(svg.matches("http").count(), 1, "xmlns is the only URI");
        assert!(svg.contains("xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(svg.contains("fragmentation 20 B"));
    }
}
