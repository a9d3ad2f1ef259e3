//! Global planning (paper §5.1, Fig. 6 right + Algorithm 1).
//!
//! Fused HomoPhase plans become unified requests and are grouped by
//! identical footprint into *HomoSize Groups*. Groups are processed in
//! descending size order; each member is first offered to the idle
//! intervals of already-placed regions (gap insertion), and the remainder
//! are packed into *memory-layers* via Algorithm 1 — same-size requests
//! with disjoint lifespans share one layer. Layers are stacked to form the
//! final static pool, and every original request receives an absolute
//! offset.
//!
//! Placed plans are recorded at *member granularity*: a region's packer
//! holds the individual request rectangles, so the idle staircase left as a
//! cohort's tensors free one by one is visible to later gap insertions.

use std::collections::HashMap;

use crate::geometry::{Rect, TimeSpacePacker};
use crate::plan::phase_group::LocalPlan;
use crate::profiler::RequestEvent;

/// Options steering global planning (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalOptions {
    /// Offer each member to idle gaps of already-placed regions before
    /// opening a new layer (paper behaviour: on).
    pub gap_insertion: bool,
    /// Process size classes in ascending instead of descending order
    /// (ablation; paper behaviour: descending).
    pub ascending_sizes: bool,
}

impl Default for GlobalOptions {
    fn default() -> Self {
        Self {
            gap_insertion: true,
            ascending_sizes: false,
        }
    }
}

/// A placed region of the pool: one memory-layer.
#[derive(Debug)]
struct Region {
    base: u64,
    size: u64,
    packer: TimeSpacePacker,
    /// Free tick of the last Algorithm-1 appended member.
    end: u64,
}

/// Result of global planning.
#[derive(Debug, Clone)]
pub struct GlobalLayout {
    /// Absolute base offset of each local plan, indexed like the input
    /// (for scattered plans: the first member's offset).
    pub plan_bases: Vec<u64>,
    /// Absolute offset of every static request, indexed by request.
    pub request_offsets: Vec<u64>,
    /// Total pool size in bytes.
    pub pool_size: u64,
    /// Number of memory-layers created.
    pub layer_count: usize,
    /// Members placed via gap insertion (whole groups or scattered members).
    pub gap_inserted: usize,
}

/// Final address-assignment refinement: a global first-fit sweep over all
/// requests in allocation order. The group machinery above decides
/// *structure* (which requests share layers, what reuses what); this pass
/// squeezes the remaining inter-cohort bubbles that group-at-a-time
/// placement cannot see (it is kept only when it produces a smaller pool).
/// Returns `(request_offsets, pool_size)`.
pub fn refine_first_fit(reqs: &[RequestEvent]) -> (Vec<u64>, u64) {
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    // Allocation order; larger first among simultaneous arrivals.
    order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].size));
    let mut packer = TimeSpacePacker::new();
    let mut offsets = vec![0u64; reqs.len()];
    for i in order {
        let r = &reqs[i];
        let t1 = r.te.max(r.ts + 1);
        offsets[i] = packer.pack(r.ts, t1, r.size);
    }
    (offsets, packer.height())
}

/// Records a plan's member rectangles into a region at `base_off`.
fn record_members(region: &mut Region, plan: &LocalPlan, reqs: &[RequestEvent], base_off: u64) {
    for &(ri, rel) in &plan.members {
        let r = &reqs[ri];
        region.packer.place_at(Rect {
            t0: r.ts,
            t1: r.te.max(r.ts + 1),
            off: base_off + rel,
            len: r.size,
        });
    }
}

/// Assigns absolute offsets to every local plan.
pub fn assemble(plans: &[LocalPlan], reqs: &[RequestEvent], opts: GlobalOptions) -> GlobalLayout {
    // HomoSize grouping by exact footprint.
    let mut by_size: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, p) in plans.iter().enumerate() {
        by_size.entry(p.size().max(1)).or_default().push(i);
    }
    let mut sizes: Vec<u64> = by_size.keys().copied().collect();
    if opts.ascending_sizes {
        sizes.sort_unstable();
    } else {
        sizes.sort_unstable_by(|a, b| b.cmp(a));
    }

    let mut regions: Vec<Region> = Vec::new();
    let mut stack_top = 0u64;
    let mut plan_bases = vec![0u64; plans.len()];
    let mut request_offsets = vec![0u64; reqs.len()];
    let mut gap_inserted = 0usize;
    let mut layer_count = 0usize;
    // Scratch reused across members: a plan's members in start order, the
    // ones no existing region took, and the class layers in preference
    // order.
    let mut ordered: Vec<(usize, u64)> = Vec::new();
    let mut spilled: Vec<(usize, u64)> = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();

    for s in sizes {
        let mut members = by_size.remove(&s).expect("size exists");
        // Algorithm 1 line 2: sort by allocation time.
        members.sort_unstable_by_key(|&i| plans[i].ts);
        // Layers opened for THIS size class, identified by region index.
        let mut class_layers: Vec<usize> = Vec::new();

        'member: for i in members {
            let plan = &plans[i];
            let (ts, te) = (plan.ts, plan.te.max(plan.ts + 1));

            // Stage A: whole-group gap insertion into previously placed
            // strictly-larger regions (same-size reuse is Algorithm 1's job
            // below). Thanks to member-granular recording, the query sees
            // intra-cohort idle space, not just whole-group gaps.
            if opts.gap_insertion {
                for region in regions.iter_mut() {
                    if region.size <= s {
                        continue;
                    }
                    if let Some(off) = region.packer.find_first_fit(ts, te, s, region.size) {
                        plan_bases[i] = region.base + off;
                        for &(ri_req, rel) in &plan.members {
                            request_offsets[ri_req] = region.base + off + rel;
                        }
                        record_members(region, plan, reqs, off);
                        gap_inserted += 1;
                        continue 'member;
                    }
                }
            }

            // Stage B: member-level scatter — each member may sit in the
            // idle staircase of ANY existing region (a member is an
            // independent request; group contiguity is not a constraint).
            // Members that fit nowhere spill to the class layer below.
            spilled.clear();
            if opts.gap_insertion && !regions.is_empty() {
                ordered.clear();
                ordered.extend_from_slice(&plan.members);
                ordered.sort_unstable_by_key(|&(ri_req, _)| reqs[ri_req].ts);
                for &(ri_req, rel) in &ordered {
                    let r = &reqs[ri_req];
                    let t1 = r.te.max(r.ts + 1);
                    let mut placed = false;
                    for region in regions.iter_mut() {
                        if let Some(off) =
                            region.packer.find_first_fit(r.ts, t1, r.size, region.size)
                        {
                            region.packer.place_at(Rect {
                                t0: r.ts,
                                t1,
                                off,
                                len: r.size,
                            });
                            request_offsets[ri_req] = region.base + off;
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        spilled.push((ri_req, rel));
                    } else {
                        gap_inserted += 1;
                    }
                }
                if spilled.is_empty() {
                    plan_bases[i] = request_offsets[plan.members[0].0];
                    continue 'member;
                }
            } else {
                spilled.extend_from_slice(&plan.members);
            }

            // Stage C, Algorithm 1 lines 4-10, at member granularity: the
            // preferred layer is the one whose end is closest below the
            // group's start; every placement is conflict-checked so layers
            // shared with scattered residents stay sound.
            let mut first_off: Option<u64> = None;
            for &(ri_req, _) in &spilled {
                let r = &reqs[ri_req];
                let t1 = r.te.max(r.ts + 1);
                // Candidate order: Algorithm-1 preference (latest end <=
                // group start) first, then remaining class layers.
                candidates.clear();
                candidates.extend_from_slice(&class_layers);
                candidates.sort_unstable_by_key(|&ri| {
                    let end = regions[ri].end;
                    if end <= ts {
                        (0u8, u64::MAX - end)
                    } else {
                        (1u8, end)
                    }
                });
                let mut placed_at: Option<(usize, u64)> = None;
                for &ri in &candidates {
                    if let Some(off) =
                        regions[ri]
                            .packer
                            .find_first_fit(r.ts, t1, r.size, regions[ri].size)
                    {
                        placed_at = Some((ri, off));
                        break;
                    }
                }
                let (ri, off) = placed_at.unwrap_or_else(|| {
                    let ri = regions.len();
                    regions.push(Region {
                        base: stack_top,
                        size: s,
                        packer: TimeSpacePacker::new(),
                        end: 0,
                    });
                    stack_top += s;
                    class_layers.push(ri);
                    layer_count += 1;
                    (ri, 0)
                });
                let region = &mut regions[ri];
                region.packer.place_at(Rect {
                    t0: r.ts,
                    t1,
                    off,
                    len: r.size,
                });
                region.end = region.end.max(t1);
                request_offsets[ri_req] = region.base + off;
                first_off.get_or_insert(region.base + off);
            }
            if let Some(base) = first_off {
                plan_bases[i] = base;
            }
        }
    }

    GlobalLayout {
        plan_bases,
        request_offsets,
        pool_size: stack_top,
        layer_count,
        gap_inserted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TimeSpacePacker;

    /// Builds (plans, reqs) where each plan is a singleton of the given
    /// (size, ts, te).
    fn singleton_plans(specs: &[(u64, u64, u64)]) -> (Vec<LocalPlan>, Vec<RequestEvent>) {
        let mut reqs = Vec::new();
        let mut plans = Vec::new();
        for &(size, ts, te) in specs {
            let i = reqs.len();
            reqs.push(RequestEvent {
                size,
                ts,
                te,
                ps: 1,
                pe: 2,
                dynamic: false,
                ls: None,
                le: None,
            });
            let mut packer = TimeSpacePacker::new();
            packer.pack(ts, te, size);
            plans.push(LocalPlan {
                members: vec![(i, 0)],
                packer,
                ts,
                te,
                min_te: te,
                ps: 1,
                pe: 2,
            });
        }
        (plans, reqs)
    }

    #[test]
    fn same_size_disjoint_lifespans_share_a_layer() {
        let (plans, reqs) =
            singleton_plans(&[(1024, 0, 10), (1024, 5, 15), (1024, 10, 20), (1024, 16, 25)]);
        let layout = assemble(&plans, &reqs, GlobalOptions::default());
        assert_eq!(layout.layer_count, 2, "two layers suffice");
        assert_eq!(layout.pool_size, 2048);
        assert_eq!(layout.plan_bases[0], layout.plan_bases[2]);
        assert_eq!(layout.plan_bases[1], layout.plan_bases[3]);
    }

    #[test]
    fn algorithm1_prefers_tightest_layer() {
        let (plans, reqs) = singleton_plans(&[(512, 0, 4), (512, 0, 9), (512, 10, 20)]);
        let opts = GlobalOptions {
            gap_insertion: false, // isolate Algorithm 1's choice
            ascending_sizes: false,
        };
        let layout = assemble(&plans, &reqs, opts);
        assert_eq!(layout.layer_count, 2);
        assert_eq!(
            layout.plan_bases[2], layout.plan_bases[1],
            "tightest layer (end 9) chosen over end 4"
        );
    }

    #[test]
    fn smaller_requests_fill_gaps_of_larger_layers() {
        let (plans, reqs) = singleton_plans(&[(4096, 0, 10), (4096, 20, 30), (1024, 12, 18)]);
        let layout = assemble(&plans, &reqs, GlobalOptions::default());
        assert_eq!(layout.pool_size, 4096, "small plan needed no new space");
        // The second 4096 plan scatters into the first layer's idle window
        // and the 1024 plan gap-inserts: two placements without new space.
        assert_eq!(layout.gap_inserted, 2);
        assert_eq!(layout.layer_count, 1);
    }

    #[test]
    fn fine_grained_recording_exposes_staircase() {
        // A two-member cohort: one member frees early, the other late. A
        // later small request that starts after the early free can reuse
        // the freed part even though the cohort as a whole is still alive.
        let mut reqs = vec![
            RequestEvent {
                size: 1024,
                ts: 0,
                te: 20,
                ps: 1,
                pe: 2,
                dynamic: false,
                ls: None,
                le: None,
            },
            RequestEvent {
                size: 1024,
                ts: 0,
                te: 5,
                ps: 1,
                pe: 2,
                dynamic: false,
                ls: None,
                le: None,
            },
        ];
        let mut packer = TimeSpacePacker::new();
        packer.pack(0, 20, 1024);
        packer.pack(0, 5, 1024);
        let cohort = LocalPlan {
            members: vec![(0, 0), (1, 1024)],
            packer,
            ts: 0,
            te: 20,
            min_te: 5,
            ps: 1,
            pe: 2,
        };
        // Small transient active [6, 15): fits where member 1 freed.
        reqs.push(RequestEvent {
            size: 512,
            ts: 6,
            te: 15,
            ps: 3,
            pe: 3,
            dynamic: false,
            ls: None,
            le: None,
        });
        let mut small_packer = TimeSpacePacker::new();
        small_packer.pack(6, 15, 512);
        let small = LocalPlan {
            members: vec![(2, 0)],
            packer: small_packer,
            ts: 6,
            te: 15,
            min_te: 15,
            ps: 3,
            pe: 3,
        };
        let layout = assemble(&[cohort, small], &reqs, GlobalOptions::default());
        assert_eq!(layout.pool_size, 2048, "no extra layer for the transient");
        assert_eq!(layout.gap_inserted, 1);
        assert_eq!(layout.plan_bases[1], 1024, "placed in the freed step");
    }

    #[test]
    fn gap_insertion_can_be_disabled() {
        let (plans, reqs) = singleton_plans(&[(4096, 0, 10), (1024, 12, 18)]);
        let on = assemble(&plans, &reqs, GlobalOptions::default());
        let off = assemble(
            &plans,
            &reqs,
            GlobalOptions {
                gap_insertion: false,
                ascending_sizes: false,
            },
        );
        assert_eq!(on.pool_size, 4096);
        assert_eq!(off.pool_size, 4096 + 1024);
    }

    #[test]
    fn descending_order_beats_ascending_here() {
        let (plans, reqs) = singleton_plans(&[(1024, 12, 18), (4096, 0, 10), (4096, 20, 30)]);
        let desc = assemble(&plans, &reqs, GlobalOptions::default());
        let asc = assemble(
            &plans,
            &reqs,
            GlobalOptions {
                gap_insertion: true,
                ascending_sizes: true,
            },
        );
        assert!(desc.pool_size < asc.pool_size);
    }

    #[test]
    fn overlapping_same_size_plans_stack() {
        let (plans, reqs) = singleton_plans(&[(2048, 0, 10), (2048, 5, 15)]);
        let layout = assemble(&plans, &reqs, GlobalOptions::default());
        assert_eq!(layout.pool_size, 4096);
        assert_ne!(layout.plan_bases[0], layout.plan_bases[1]);
    }
}
