//! The benchmark's own correctness oracles. They share no code with
//! `Plan::validate` or `PlanStats::peak_static_demand`, so a bug there
//! cannot hide behind itself: `pool_ratio`, `best_pool_ratio` and
//! `ok_ratio` are computed from these alone.

use std::collections::BTreeMap;

use stalloc::stalloc_core::{Plan, ProfiledRequests};

/// A request with `te <= ts` still occupies its address for one tick.
fn end_tick(ts: u64, te: u64) -> u64 {
    te.max(ts.saturating_add(1))
}

/// Liveness lower bound on any static pool for `profile`: the largest
/// sum of sizes simultaneously live, by a sweep over the profiled
/// lifetimes (frees before allocations within a tick).
pub fn liveness_lower_bound(profile: &ProfiledRequests) -> u64 {
    let mut events: Vec<(u64, bool, u64)> = Vec::with_capacity(profile.statics.len() * 2);
    for r in &profile.statics {
        events.push((r.ts, true, r.size));
        events.push((end_tick(r.ts, r.te), false, r.size));
    }
    // `false < true`: ends sort before starts at equal ticks.
    events.sort_unstable();
    let (mut live, mut peak) = (0u64, 0u64);
    for (_, is_start, size) in events {
        if is_start {
            live += size;
            peak = peak.max(live);
        } else {
            live -= size;
        }
    }
    peak
}

/// Checks that no two planned static allocations of `plan` overlap in
/// both lifetime and address range and that each lies inside the pool.
pub fn check_no_overlap(plan: &Plan) -> Result<(), String> {
    let allocs: Vec<_> = plan.init_allocs.iter().chain(&plan.iter_allocs).collect();
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(allocs.len() * 2);
    for (i, a) in allocs.iter().enumerate() {
        let end = a
            .offset
            .checked_add(a.size)
            .ok_or_else(|| format!("allocation {i}: offset + size overflows"))?;
        if end > plan.pool_size {
            return Err(format!(
                "allocation {i} ends at {end}, past the pool ({})",
                plan.pool_size
            ));
        }
        events.push((a.ts, true, i));
        events.push((end_tick(a.ts, a.te), false, i));
    }
    events.sort_unstable();
    // Live address ranges, start -> end; disjoint while the plan is sound.
    let mut live: BTreeMap<u64, u64> = BTreeMap::new();
    for (tick, is_start, i) in events {
        let a = allocs[i];
        if a.size == 0 {
            continue;
        }
        if !is_start {
            live.remove(&a.offset);
            continue;
        }
        let end = a.offset + a.size;
        let below = live.range(..=a.offset).next_back();
        let above = live.range(a.offset..end).next();
        if below.is_some_and(|(_, &e)| e > a.offset) || above.is_some() {
            return Err(format!(
                "allocation {i} [{}, {end}) overlaps a live range at tick {tick}",
                a.offset
            ));
        }
        live.insert(a.offset, end);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stalloc::stalloc_core::{PlannedAlloc, RequestEvent};

    fn req(size: u64, ts: u64, te: u64) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps: 1,
            pe: 1,
            dynamic: false,
            ls: None,
            le: None,
        }
    }

    fn planned(size: u64, offset: u64, ts: u64, te: u64) -> PlannedAlloc {
        PlannedAlloc {
            size,
            offset,
            ts,
            te,
        }
    }

    #[test]
    fn lower_bound_counts_concurrent_bytes_only() {
        let profile = ProfiledRequests {
            statics: vec![req(512, 0, 4), req(1024, 2, 6), req(2048, 4, 8)],
            ..ProfiledRequests::default()
        };
        // [0,4) and [2,6) overlap; the third starts as the first ends.
        assert_eq!(liveness_lower_bound(&profile), 1024 + 2048);
    }

    #[test]
    fn overlap_check_accepts_reuse_and_rejects_stomps() {
        let mut plan = Plan {
            pool_size: 2048,
            iter_allocs: vec![planned(1024, 0, 0, 4), planned(1024, 0, 4, 8)],
            ..Plan::default()
        };
        assert!(check_no_overlap(&plan).is_ok(), "address reuse after free");
        plan.iter_allocs.push(planned(1024, 512, 5, 6));
        assert!(check_no_overlap(&plan).is_err(), "overlaps the second");
        plan.iter_allocs.pop();
        plan.iter_allocs.push(planned(1024, 1536, 0, 1));
        assert!(check_no_overlap(&plan).is_err(), "past the pool");
    }
}
