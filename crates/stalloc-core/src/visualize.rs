//! ASCII visualization of allocation plans: the time × address plane
//! rendered as a character grid, for plan debugging and the
//! `plan_inspect` example.
//!
//! Each output row is an address band of the pool, each column a slice of
//! the profiled iteration; a cell shows how much of the band×slice area is
//! occupied by planned decisions (` `, `░`, `▒`, `▓`, `█` for 0–100 %).

use crate::plan::Plan;

/// Renders the static plan's occupancy as an ASCII grid of
/// `rows x cols` cells. Returns a multi-line string.
pub fn render_plan(plan: &Plan, rows: usize, cols: usize) -> String {
    let rows = rows.max(1);
    let cols = cols.max(1);
    let pool = plan.pool_size.max(1);
    let horizon = plan
        .init_allocs
        .iter()
        .chain(plan.iter_allocs.iter())
        .map(|d| d.window_end())
        .max()
        .unwrap_or(1)
        .max(1);

    // Accumulate covered area per cell.
    let mut area = vec![vec![0u64; cols]; rows];
    let band = pool.div_ceil(rows as u64);
    let slice = horizon.div_ceil(cols as u64);
    for d in plan.init_allocs.iter().chain(plan.iter_allocs.iter()) {
        let te = d.window_end();
        let r0 = (d.offset / band) as usize;
        let r1 = (((d.offset + d.size - 1) / band) as usize).min(rows - 1);
        let c0 = (d.ts / slice) as usize;
        let c1 = (((te - 1) / slice) as usize).min(cols - 1);
        for (r, row) in area.iter_mut().enumerate().take(r1 + 1).skip(r0) {
            let band_lo = r as u64 * band;
            let band_hi = (band_lo + band).min(pool);
            let ov_addr = d.offset.max(band_lo).min(band_hi)..(d.offset + d.size).min(band_hi);
            let addr_len = ov_addr.end.saturating_sub(ov_addr.start);
            for (c, cell) in row.iter_mut().enumerate().take(c1 + 1).skip(c0) {
                let sl_lo = c as u64 * slice;
                let sl_hi = (sl_lo + slice).min(horizon);
                let ov_t = d.ts.max(sl_lo).min(sl_hi)..te.min(sl_hi);
                let t_len = ov_t.end.saturating_sub(ov_t.start);
                *cell += addr_len * t_len;
            }
        }
    }

    let cell_area = (band * slice).max(1);
    let glyph = |a: u64| -> char {
        let fill = a as f64 / cell_area as f64;
        match () {
            _ if fill <= 0.01 => ' ',
            _ if fill <= 0.25 => '░',
            _ if fill <= 0.60 => '▒',
            _ if fill <= 0.90 => '▓',
            _ => '█',
        }
    };

    let mut out = String::new();
    out.push_str(&format!(
        "static plan: pool {:.2} GiB x {} ticks (addr grows downward)\n",
        pool as f64 / (1u64 << 30) as f64,
        horizon
    ));
    // Highest addresses first so the pool "floor" is the last row.
    for row in area.iter().rev() {
        out.push('|');
        for &a in row {
            out.push(glyph(a));
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DynamicPlan, PlanStats, PlannedAlloc};

    fn plan_with(decisions: Vec<PlannedAlloc>, pool: u64) -> Plan {
        Plan {
            pool_size: pool,
            init_allocs: Vec::new(),
            iter_allocs: decisions,
            dynamic: DynamicPlan::default(),
            stats: PlanStats::default(),
        }
    }

    #[test]
    fn full_occupancy_renders_solid() {
        let plan = plan_with(
            vec![PlannedAlloc {
                size: 1024,
                offset: 0,
                ts: 0,
                te: 100,
            }],
            1024,
        );
        let s = render_plan(&plan, 2, 10);
        let body: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(body.len(), 2);
        assert!(body
            .iter()
            .all(|l| l.chars().filter(|&c| c == '█').count() == 10));
    }

    #[test]
    fn half_pool_renders_half_empty() {
        let plan = plan_with(
            vec![PlannedAlloc {
                size: 512,
                offset: 0,
                ts: 0,
                te: 100,
            }],
            1024,
        );
        let s = render_plan(&plan, 2, 10);
        let body: Vec<&str> = s.lines().skip(1).collect();
        // Low addresses (bottom row) full, high addresses (top row) empty.
        assert!(body[1].contains('█'));
        assert!(!body[0].contains('█'));
    }

    #[test]
    fn temporal_gap_is_visible() {
        let plan = plan_with(
            vec![
                PlannedAlloc {
                    size: 1024,
                    offset: 0,
                    ts: 0,
                    te: 40,
                },
                PlannedAlloc {
                    size: 1024,
                    offset: 0,
                    ts: 60,
                    te: 100,
                },
            ],
            1024,
        );
        let s = render_plan(&plan, 1, 10);
        let row = s.lines().nth(1).unwrap();
        assert!(row.contains(' '), "idle window renders empty: {row}");
        assert!(row.starts_with("|█"));
        assert!(row.ends_with("█|"));
    }

    #[test]
    fn empty_plan_renders_blank() {
        let plan = plan_with(Vec::new(), 1024);
        let s = render_plan(&plan, 2, 4);
        assert_eq!(s.lines().count(), 3);
        assert!(s.lines().skip(1).all(|l| !l.contains('█')));
    }
}
