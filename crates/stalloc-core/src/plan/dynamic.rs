//! Dynamic Reusable Space extraction (paper §5.2, Eqs. 3–6).
//!
//! Dynamic (MoE expert) requests have unpredictable sizes but regular
//! lifespans. They are grouped by their (allocating instance, freeing
//! instance) pair — the *HomoLayer Groups* `G(a, b)` — and for each group we
//! pre-compute the address intervals of the static pool that stay idle
//! throughout the group's bounding temporal range `T(a, b)`. At runtime the
//! dynamic allocator places requests inside these pre-vetted intervals,
//! guaranteeing no conflict with planned static allocations.
//!
//! The occupancy interrogation of Eq. 4 reads the placed statics as the
//! [`Rect`]s every other stage uses, indexed once by a
//! [`TimeSpacePacker`] — and not at all for a profile without dynamics.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::geometry::{window_end, Rect, TimeSpacePacker};
use crate::profiler::{InstanceKey, ProfiledRequests};

/// One HomoLayer group with its reusable space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynGroup {
    /// Allocating instance (`l_s`).
    pub ls: InstanceKey,
    /// Freeing instance (`l_e`).
    pub le: InstanceKey,
    /// Bounding temporal range `T(a, b)` in window ticks.
    pub t_range: (u64, u64),
    /// Reusable address intervals `A_i` within the static pool, sorted.
    pub intervals: Vec<(u64, u64)>,
    /// Total profiled bytes of the group (for statistics).
    pub profiled_bytes: u64,
}

/// Dynamic half of the plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicPlan {
    /// All HomoLayer groups.
    pub groups: Vec<DynGroup>,
    /// Per allocating instance, the group index of each arriving dynamic
    /// request in profiled order — the runtime matcher's lookup table.
    pub instance_seq: Vec<(InstanceKey, Vec<u32>)>,
}

/// Builds the dynamic plan: HomoLayer groups and their reusable intervals
/// among `placed`, the static decisions in their final absolute positions.
pub fn locate_reusable_space(
    profile: &ProfiledRequests,
    placed: impl IntoIterator<Item = Rect>,
    pool_size: u64,
) -> DynamicPlan {
    let windows: HashMap<InstanceKey, (u64, u64)> =
        profile.instance_windows.iter().copied().collect();

    // Group dynamic requests by (ls, le); requests with unknown instances
    // (outside any module) are left to the fallback allocator.
    let mut group_of: HashMap<(InstanceKey, InstanceKey), u32> = HashMap::new();
    let mut groups: Vec<DynGroup> = Vec::new();
    // Group index per dynamic request; `u32::MAX` = none, as the runtime
    // matcher reads it.
    let mut req_group = vec![u32::MAX; profile.dynamics.len()];

    for (i, d) in profile.dynamics.iter().enumerate() {
        let (Some(ls), Some(le)) = (d.ls, d.le) else {
            continue;
        };
        let idx = *group_of.entry((ls, le)).or_insert_with(|| {
            let a = windows.get(&ls).copied().unwrap_or((d.ts, d.ts));
            let b = windows.get(&le).copied().unwrap_or((d.te, d.te));
            let t_range = (a.0, b.1.max(a.1));
            groups.push(DynGroup {
                ls,
                le,
                t_range,
                intervals: Vec::new(),
                profiled_bytes: 0,
            });
            (groups.len() - 1) as u32
        });
        groups[idx as usize].profiled_bytes += d.size;
        req_group[i] = idx;
    }

    // Eq. 4-6: for each group, occupied = union of static extents whose
    // lifetime intersects T; reusable = complement within the pool. One
    // offset-ordered index of the statics answers every group (and a
    // profile without dynamics never builds it).
    if !groups.is_empty() {
        let occupied = occupancy(placed);
        for g in &mut groups {
            g.intervals = idle_intervals(&occupied, g.t_range, pool_size);
        }
    }

    // Arrival sequences: map profiled arrival order per instance to groups.
    let group_of_arrival = |&i: &u32| req_group[i as usize];
    let instance_seq = profile
        .instance_arrivals
        .iter()
        .map(|(key, arrivals)| (*key, arrivals.iter().map(group_of_arrival).collect()))
        .collect();

    DynamicPlan {
        groups,
        instance_seq,
    }
}

/// The placed statics as a gap-query index. Extents may overlap, so this
/// is not [`TimeSpacePacker::from_rects`]; an extent of no bytes occupies
/// nothing and stays out (in the index it would cut a gap in two).
fn occupancy(placed: impl IntoIterator<Item = Rect>) -> TimeSpacePacker {
    TimeSpacePacker::index_of(placed.into_iter().filter(|r| r.len > 0).collect())
}

/// The address intervals of `[0, pool_size)` no extent of `occupied`
/// touches during the group's range `T = (t0, t1)` under the window rule
/// (an instance that exits at the tick it enters still runs for it), in
/// address order.
fn idle_intervals(
    occupied: &TimeSpacePacker,
    (t0, t1): (u64, u64),
    pool_size: u64,
) -> Vec<(u64, u64)> {
    let mut gaps = occupied.free_gaps(t0, window_end(t0, t1), 1);
    // The last gap is the top of the occupied span, unbounded above: it
    // ends where the pool does.
    let (top, _) = gaps.pop().expect("free_gaps ends with the top");
    if top < pool_size {
        gaps.push((top, pool_size - top));
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::RequestEvent;
    use proptest::prelude::*;
    use trace_gen::ModuleId;

    fn key(m: u32, p: u32) -> InstanceKey {
        InstanceKey {
            module: ModuleId(m),
            phase: p,
        }
    }

    /// An extent `[off, off + len)` occupied over `[t0, t1)`.
    fn rect(off: u64, len: u64, t0: u64, t1: u64) -> Rect {
        Rect { t0, t1, off, len }
    }

    fn dyn_req(size: u64, ts: u64, te: u64, ls: InstanceKey, le: InstanceKey) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps: ls.phase,
            pe: le.phase,
            dynamic: true,
            ls: Some(ls),
            le: Some(le),
        }
    }

    fn profile_with(
        dynamics: Vec<RequestEvent>,
        windows: Vec<(InstanceKey, (u64, u64))>,
    ) -> ProfiledRequests {
        let mut arrivals: HashMap<InstanceKey, Vec<u32>> = HashMap::new();
        for (i, d) in dynamics.iter().enumerate() {
            arrivals.entry(d.ls.unwrap()).or_default().push(i as u32);
        }
        let mut instance_arrivals: Vec<(InstanceKey, Vec<u32>)> = arrivals.into_iter().collect();
        instance_arrivals.sort_unstable_by_key(|&(k, _)| k);
        ProfiledRequests {
            statics: Vec::new(),
            init_count: 0,
            dynamics,
            num_phases: 4,
            window_len: 100,
            instance_windows: windows,
            instance_arrivals,
        }
    }

    #[test]
    fn reusable_space_avoids_live_statics() {
        // Static decision occupying [0, 1000) during ticks [0, 50).
        let placed = vec![rect(0, 1000, 0, 50)];
        // Dynamic group active during [10, 20): overlaps the static.
        let a = key(1, 1);
        let b = key(1, 3);
        let profile = profile_with(
            vec![dyn_req(512, 12, 18, a, b)],
            vec![(a, (10, 14)), (b, (16, 20))],
        );
        let plan = locate_reusable_space(&profile, placed, 4096);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].t_range, (10, 20));
        assert_eq!(plan.groups[0].intervals, vec![(1000, 3096)]);
    }

    #[test]
    fn expired_statics_are_reusable() {
        // Static frees at tick 10; dynamic group runs [20, 30).
        let placed = vec![rect(0, 1000, 0, 10)];
        let a = key(2, 2);
        let b = key(2, 2);
        let profile = profile_with(vec![dyn_req(512, 21, 29, a, b)], vec![(a, (20, 30))]);
        let plan = locate_reusable_space(&profile, placed, 4096);
        assert_eq!(plan.groups[0].intervals, vec![(0, 4096)]);
    }

    #[test]
    fn overlapping_extents_merge() {
        let placed = vec![
            rect(0, 1000, 0, 100),
            rect(500, 1000, 0, 100),
            rect(2000, 500, 0, 100),
        ];
        let a = key(3, 1);
        let profile = profile_with(vec![dyn_req(512, 5, 6, a, a)], vec![(a, (0, 50))]);
        let plan = locate_reusable_space(&profile, placed, 4096);
        assert_eq!(plan.groups[0].intervals, vec![(1500, 500), (2500, 1596)]);
    }

    #[test]
    fn instance_sequences_map_arrivals_to_groups() {
        let a = key(1, 1);
        let b1 = key(1, 5);
        let b2 = key(1, 7);
        let profile = profile_with(
            vec![
                dyn_req(512, 10, 20, a, b1),
                dyn_req(512, 11, 30, a, b2),
                dyn_req(512, 12, 21, a, b1),
            ],
            vec![(a, (10, 13)), (b1, (19, 22)), (b2, (28, 31))],
        );
        let plan = locate_reusable_space(&profile, [], 1024);
        assert_eq!(plan.groups.len(), 2);
        let seq = &plan.instance_seq.iter().find(|(k, _)| *k == a).unwrap().1;
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0], seq[2], "requests 0 and 2 share a group");
        assert_ne!(seq[0], seq[1]);
    }
    /// What `locate_reusable_space` did per group before it asked the
    /// packer's index: filter every static, collect, sort, merge,
    /// complement. Kept as the oracle.
    fn idle_intervals_by_scan(
        placed: &[Rect],
        (t0, t1): (u64, u64),
        pool_size: u64,
    ) -> Vec<(u64, u64)> {
        // Merge occupied extents via sort-and-sweep (extents may overlap).
        let mut spans: Vec<(u64, u64)> = placed
            .iter()
            .filter(|p| p.t0 < window_end(t0, t1) && t0 < p.t1 && p.len > 0)
            .map(|p| (p.off, p.off + p.len))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        // Complement within [0, pool_size).
        let mut intervals = Vec::new();
        let mut cursor = 0;
        for (s, e) in merged {
            if s > cursor {
                intervals.push((cursor, s - cursor));
            }
            cursor = cursor.max(e);
        }
        if cursor < pool_size {
            intervals.push((cursor, pool_size - cursor));
        }
        intervals
    }

    proptest! {
        /// The index gives every group the intervals the scan gave it, on
        /// inputs no sound layout produces too: extents that overlap while
        /// both live, extents of no bytes, `te <= ts`, a group whose `T`
        /// is empty or backwards, and pools that end below, inside and
        /// above the occupied span. More extents than one index chunk
        /// holds.
        #[test]
        fn the_index_finds_the_intervals_the_scan_found(
            extents in prop::collection::vec((0u64..60, 0u64..9, 0u64..24, 0u64..24), 0..150),
            ranges in prop::collection::vec((0u64..26, 0u64..26), 1..12),
            pool in 0u64..80,
        ) {
            let placed: Vec<Rect> = extents
                .into_iter()
                .map(|(offset, size, ts, te)| rect(offset * 4, size * 4, ts, te))
                .collect();
            let occupied = occupancy(placed.clone());
            for t_range in ranges {
                for pool_size in [pool * 4, 0, u64::MAX] {
                    prop_assert_eq!(
                        idle_intervals(&occupied, t_range, pool_size),
                        idle_intervals_by_scan(&placed, t_range, pool_size),
                        "T = {:?}, pool {}", t_range, pool_size
                    );
                }
            }
        }
    }
}
