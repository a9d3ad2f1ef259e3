//! HomoPhase grouping and TMP-scored fusion (paper §5.1, Figs. 6–7).
//!
//! Requests sharing an (allocation phase, free phase) pair form a
//! *HomoPhase Group*; each group is packed into a compact local plan.
//! Adjacent groups (one's end phase equals the other's start phase) are
//! fused when doing so raises the *time-memory product* (TMP, Eq. 2) above
//! the weighted average of the originals — i.e. when fusion removes
//! spatio-temporal bubbles.
//!
//! A [`LocalPlan`] is plain data: its members with their relative offsets
//! and what follows from them. The [`TimeSpacePacker`] that finds those
//! offsets lives only as long as one cohort is being packed or one fusion
//! tried; the thousands of one-request groups of a profile never see one.

use std::collections::HashMap;

use crate::geometry::TimeSpacePacker;
use crate::profiler::RequestEvent;

/// A local plan: one (possibly fused) HomoPhase group with relative offsets.
#[derive(Debug, Clone)]
pub struct LocalPlan {
    /// Members: (static-request index, relative offset).
    pub members: Vec<(usize, u64)>,
    /// Footprint in bytes (`D_g.s`): the top of the members' stack.
    pub size: u64,
    /// Sum of `size × window length` over the members (the TMP
    /// numerator). Wide: GiB-sized requests over ticks past 2⁴⁰ overflow
    /// 64 bits.
    pub area: u128,
    /// Earliest allocation tick.
    pub ts: u64,
    /// Latest window end among members (so `te > ts`).
    pub te: u64,
    /// Earliest window end among members — before this, no space frees, so
    /// fusion with later groups cannot help (fusion pre-filter).
    pub min_te: u64,
    /// Allocation phase of the group (first group's, after fusion).
    pub ps: u32,
    /// Free phase of the group (last group's, after fusion).
    pub pe: u32,
}

impl LocalPlan {
    /// The plan of `members` (non-empty) of `reqs`, spanning phases
    /// `ps..=pe`.
    pub fn of(members: Vec<(usize, u64)>, reqs: &[RequestEvent], ps: u32, pe: u32) -> Self {
        let mut plan = LocalPlan {
            members,
            size: 0,
            area: 0,
            ts: u64::MAX,
            te: 0,
            min_te: u64::MAX,
            ps,
            pe,
        };
        for &(i, off) in &plan.members {
            let (r, t1) = (&reqs[i], reqs[i].window_end());
            plan.size = plan.size.max(off + r.size);
            plan.area += u128::from(r.size) * u128::from(t1 - r.ts);
            plan.ts = plan.ts.min(r.ts);
            plan.te = plan.te.max(t1);
            plan.min_te = plan.min_te.min(t1);
        }
        plan
    }

    /// Time-memory product (Eq. 2). 1.0 means zero bubbles.
    pub fn tmp(&self) -> f64 {
        let denom = self.weight();
        if denom == 0.0 {
            1.0
        } else {
            self.area as f64 / denom
        }
    }

    /// TMP denominator, used as the fusion-acceptance weight.
    pub fn weight(&self) -> f64 {
        self.size as f64 * (self.te - self.ts) as f64
    }
}

/// Builds one packed local plan per (pˢ, pᵉ) class.
///
/// Within a class, requests are placed in allocation order at the lowest
/// conflict-free offset. For fully-overlapping lifespans (the common scoped
/// case) this degenerates to the paper's contiguous stacking; for same-phase
/// transients it additionally reuses space across disjoint lifetimes.
pub fn build_phase_groups(reqs: &[RequestEvent]) -> Vec<LocalPlan> {
    let mut classes: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    let mut plans = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        if r.ps == r.pe {
            // Same-phase transients don't share a common lifespan; placing
            // them individually lets global planning slot each one into the
            // staircase of progressively-freed scoped space.
            plans.push(LocalPlan::of(vec![(i, 0)], reqs, r.ps, r.pe));
        } else {
            classes.entry((r.ps, r.pe)).or_default().push(i);
        }
    }
    let mut classes: Vec<((u32, u32), Vec<usize>)> = classes.into_iter().collect();
    classes.sort_unstable_by_key(|&(key, _)| key);

    for ((ps, pe), mut idxs) in classes {
        idxs.sort_unstable_by_key(|&i| reqs[i].ts);
        let mut packer = TimeSpacePacker::new();
        let members = idxs
            .into_iter()
            .map(|i| {
                let r = &reqs[i];
                (i, packer.pack(r.ts, r.window_end(), r.size))
            })
            .collect();
        plans.push(LocalPlan::of(members, reqs, ps, pe));
    }
    plans
}

/// Attempts to fuse `host` and `guest` (paper Fig. 6 upper-left): the host's
/// members are re-stacked by descending end time (forming a staircase of
/// progressively earlier-freed space), then the guest's members are inserted
/// in ascending start-time order at the lowest conflict-free offsets.
///
/// Returns the fused plan if its TMP exceeds the weighted average of the
/// originals (Fig. 7 acceptance rule), `None` otherwise.
pub fn try_fuse(host: &LocalPlan, guest: &LocalPlan, reqs: &[RequestEvent]) -> Option<LocalPlan> {
    let mut packer = TimeSpacePacker::new();
    let mut members = Vec::with_capacity(host.members.len() + guest.members.len());

    // Host re-stack: descending end time, contiguous.
    let mut host_members = host.members.clone();
    host_members.sort_unstable_by(|&(a, _), &(b, _)| {
        reqs[b]
            .te
            .cmp(&reqs[a].te)
            .then_with(|| reqs[a].ts.cmp(&reqs[b].ts))
    });
    let mut cursor = 0u64;
    for (i, _) in host_members {
        packer.place_at(reqs[i].rect_at(cursor));
        members.push((i, cursor));
        cursor += reqs[i].size;
    }

    // Guest insertion: ascending start time, lowest available offset.
    let mut guest_members = guest.members.clone();
    guest_members.sort_unstable_by_key(|&(i, _)| reqs[i].ts);
    for (i, _) in guest_members {
        let r = &reqs[i];
        members.push((i, packer.pack(r.ts, r.window_end(), r.size)));
    }

    let ps = if host.ts <= guest.ts {
        host.ps
    } else {
        guest.ps
    };
    let pe = if host.te >= guest.te {
        host.pe
    } else {
        guest.pe
    };
    let fused = LocalPlan::of(members, reqs, ps, pe);

    let wa = (host.tmp() * host.weight() + guest.tmp() * guest.weight())
        / (host.weight() + guest.weight()).max(f64::MIN_POSITIVE);
    if fused.tmp() > wa {
        Some(fused)
    } else {
        None
    }
}

/// Singleton same-phase transients never fuse: global planning places
/// them individually.
fn is_single_transient(p: &LocalPlan) -> bool {
    p.members.len() == 1 && p.ps == p.pe
}

/// Greedy fusion pass: repeatedly fuses phase-adjacent plan pairs (one's
/// `pᵉ` equals the other's `pˢ`) whenever the TMP acceptance rule fires,
/// until no fusion is accepted.
pub fn fuse_groups(mut plans: Vec<LocalPlan>, reqs: &[RequestEvent]) -> Vec<LocalPlan> {
    // Only the cohorts can fuse, and a profile is mostly transients: walk
    // the cohort pairs (in plan order, as a walk over all pairs would
    // reach them), not all P² pairs.
    loop {
        let cohorts: Vec<usize> = (0..plans.len())
            .filter(|&i| !is_single_transient(&plans[i]))
            .collect();
        let accepted = cohorts.iter().find_map(|&a| {
            cohorts.iter().find_map(|&b| {
                if a == b || plans[a].pe != plans[b].ps {
                    return None;
                }
                // The larger plan hosts; the smaller is inserted.
                let (host, guest) = if plans[a].size >= plans[b].size {
                    (a, b)
                } else {
                    (b, a)
                };
                // Pre-filter: fusion can only remove bubbles if some host
                // space frees before the guest finishes.
                if plans[guest].te <= plans[host].min_te {
                    return None;
                }
                try_fuse(&plans[host], &plans[guest], reqs).map(|fused| (a, b, fused))
            })
        });
        let Some((a, b, fused)) = accepted else {
            return plans;
        };
        plans.swap_remove(a.max(b));
        plans.swap_remove(a.min(b));
        plans.push(fused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fusion pass as it was before it walked cohorts only: all P²
    /// plan pairs, transients filtered per pair. The oracle for the
    /// restart-after-fusion order.
    fn fuse_groups_all_pairs(mut plans: Vec<LocalPlan>, reqs: &[RequestEvent]) -> Vec<LocalPlan> {
        loop {
            let mut fused_any = false;
            'outer: for a in 0..plans.len() {
                for b in 0..plans.len() {
                    if a == b || plans[a].pe != plans[b].ps {
                        continue;
                    }
                    let (host, guest) = if plans[a].size >= plans[b].size {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    if is_single_transient(&plans[host]) || is_single_transient(&plans[guest]) {
                        continue;
                    }
                    if plans[guest].te <= plans[host].min_te {
                        continue;
                    }
                    if let Some(fused) = try_fuse(&plans[host], &plans[guest], reqs) {
                        plans.swap_remove(host.max(guest));
                        plans.swap_remove(host.min(guest));
                        plans.push(fused);
                        fused_any = true;
                        break 'outer;
                    }
                }
            }
            if !fused_any {
                return plans;
            }
        }
    }

    /// Everything observable about a fusion result, in plan order.
    type PlanShape = (Vec<(usize, u64)>, u64, u64, u64, u32, u32, u64, u128);

    fn shapes(plans: &[LocalPlan]) -> Vec<PlanShape> {
        plans
            .iter()
            .map(|p| {
                (
                    p.members.clone(),
                    p.ts,
                    p.te,
                    p.min_te,
                    p.ps,
                    p.pe,
                    p.size,
                    p.area,
                )
            })
            .collect()
    }

    /// Staircase pairs that always fuse, plus extras. Pair `j`: a host
    /// cohort in phases `(3j+1, 3j+2)` with a long and a short member, and
    /// a one-member guest in `(3j+2, 3j+3)` that starts as the short one
    /// frees and ends before the long one — it drops into the freed step,
    /// the footprint is unchanged, TMP rises.
    fn staircase_pairs(
        pairs: &[(u64, u64, u64, u64)],
        extras: &[(u64, u64, u64, u32, u32)],
    ) -> Vec<RequestEvent> {
        let mut reqs = Vec::new();
        for (j, &(size, short, guest, slack)) in pairs.iter().enumerate() {
            let (p, start) = (3 * j as u32 + 1, 7 * j as u64);
            let long = short + guest + slack;
            reqs.push(req(size * 512, start, start + long, p, p + 1));
            reqs.push(req(size * 512, start, start + short, p, p + 1));
            reqs.push(req(
                size * 512,
                start + short,
                start + short + guest,
                p + 1,
                p + 2,
            ));
        }
        for &(ts, dur, size, ps, dphase) in extras {
            reqs.push(req(size * 512, ts, ts + dur, ps, ps + dphase));
        }
        reqs
    }

    /// Runs both walks; returns how many fusions were accepted.
    fn check_walks_agree(reqs: &[RequestEvent]) -> Result<usize, String> {
        let plans = build_phase_groups(reqs);
        let fused = fuse_groups(plans.clone(), reqs);
        prop_assert_eq!(
            shapes(&fused),
            shapes(&fuse_groups_all_pairs(plans.clone(), reqs))
        );
        Ok(plans.len() - fused.len())
    }

    proptest! {
        /// The cohort walk fuses the same pairs in the same order as the
        /// all-pairs walk on inputs where fusions *are* accepted — every
        /// staircase pair fuses, and each acceptance restarts the walk —
        /// among cohorts and transients of unrelated phases.
        #[test]
        fn cohort_walk_matches_all_pairs_walk_across_restarts(
            pairs in prop::collection::vec((1u64..4, 1u64..6, 1u64..6, 0u64..4), 1..6),
            strangers in prop::collection::vec(
                (0u64..60, 1u64..30, 1u64..5, 30u32..36, 0u32..3),
                0..40,
            ),
        ) {
            let fusions = check_walks_agree(&staircase_pairs(&pairs, &strangers))?;
            prop_assert!(fusions >= pairs.len(), "{fusions} fusions for {} pairs", pairs.len());
        }

        /// The same with extras drawn from the pairs' own phases, so they
        /// join, widen or compete with the staircase cohorts.
        #[test]
        fn cohort_walk_matches_all_pairs_walk_on_mixed_cohorts(
            pairs in prop::collection::vec((1u64..4, 1u64..6, 1u64..6, 0u64..4), 0..5),
            mixers in prop::collection::vec(
                (0u64..60, 1u64..30, 1u64..5, 1u32..14, 0u32..3),
                1..60,
            ),
        ) {
            check_walks_agree(&staircase_pairs(&pairs, &mixers))?;
        }
    }

    /// FNV-1a 64 over `(members, size, tmp())` of every plan, in order.
    fn digest(plans: &[LocalPlan]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in plans {
            for &(i, off) in &p.members {
                mix(i as u64);
                mix(off);
            }
            mix(p.size);
            mix(p.tmp().to_bits());
        }
        h
    }

    /// Every group of the benchmark's GPT-2 345M VR profile — members,
    /// footprint and TMP to the bit — as the build before `LocalPlan`
    /// lost its packer produced them: all 3,730 through a digest, the 33
    /// cohorts as `(first member, members, size, tmp bits)`. Likewise a
    /// fixed staircase family through `try_fuse`, which accepts two pairs.
    #[test]
    fn groups_of_a_vpp_profile_are_what_the_packer_carrying_plans_were() {
        use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
        #[rustfmt::skip]
        const COHORTS: [(usize, usize, u64, u64); 33] = [
            (0, 53, 2285512704, 0x3ff0000000000000),
            (54, 4, 268435456, 0x3feeea79d149bb4e),
            (101, 4, 268435456, 0x3feefc3fddb5a1ea),
            (148, 4, 268435456, 0x3fef0c445fb9367f),
            (195, 4, 268435456, 0x3fef1a6c8984b029),
            (241, 4, 268436480, 0x3fed232a0bb843b4),
            (287, 4, 268436480, 0x3fed9a38ea0ab326),
            (333, 4, 268436480, 0x3fedee298c7cbfaa),
            (379, 4, 268436480, 0x3fee2de7bce8ef3a),
            (426, 4, 268435456, 0x3fef4e4ba80709ad),
            (473, 4, 268435456, 0x3fef55c1362658ea),
            (520, 4, 268435456, 0x3fef5cc8ebef4d2a),
            (640, 4, 268435456, 0x3fef5cc8ebef4d2a),
            (759, 4, 268436480, 0x3feea8bde1154c35),
            (878, 4, 268436480, 0x3feea983cb3e2fc9),
            (997, 4, 268436480, 0x3feea983cb3e2fc9),
            (1116, 4, 268436480, 0x3feea983cb3e2fc9),
            (1236, 4, 268435456, 0x3fef5cf4d59ff316),
            (1356, 4, 268435456, 0x3fef5cc8ebef4d2a),
            (1476, 4, 268435456, 0x3fef586bd9024809),
            (1596, 4, 268435456, 0x3fef53d16723841f),
            (1715, 4, 268436480, 0x3feea8bde1154c35),
            (1834, 4, 268436480, 0x3feea983cb3e2fc9),
            (1953, 4, 268436480, 0x3feea983cb3e2fc9),
            (2072, 4, 268436480, 0x3feea983cb3e2fc9),
            (2192, 4, 268435456, 0x3fef396d0917d6b6),
            (2312, 4, 268435456, 0x3fef32ede544300e),
            (2432, 4, 268435456, 0x3fef2bfe403260bc),
            (2552, 4, 268435456, 0x3fef249249249249),
            (2671, 4, 268436480, 0x3fee639fe75aabbd),
            (2790, 4, 268436480, 0x3fee473c88e767cb),
            (2909, 4, 268436480, 0x3fee26a69cfc7f67),
            (3028, 4, 268436480, 0x3fee00dcc9c9a9d8),
        ];
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 2).with_vpp(2),
            OptimConfig::r(),
        )
        .with_mbs(32)
        .with_seq(1024)
        .with_microbatches(16)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        let reqs = crate::profiler::profile_trace(&trace, 1).unwrap().statics;
        let plans = build_phase_groups(&reqs);
        let cohorts: Vec<(usize, usize, u64, u64)> = plans
            .iter()
            .filter(|p| p.members.len() > 1)
            .map(|p| (p.members[0].0, p.members.len(), p.size, p.tmp().to_bits()))
            .collect();
        assert_eq!(cohorts, COHORTS);
        assert_eq!((plans.len(), digest(&plans)), (3730, 0xc5faed1e8b083605));
        let fused = fuse_groups(plans, &reqs);
        assert_eq!((fused.len(), digest(&fused)), (3730, 0xc5faed1e8b083605));

        let stairs = staircase_pairs(
            &[(1, 2, 3, 0), (3, 1, 5, 2), (2, 4, 1, 1), (1, 5, 5, 3)],
            &[
                (0, 9, 2, 2, 1),
                (3, 20, 1, 5, 0),
                (11, 4, 4, 8, 2),
                (30, 7, 3, 11, 1),
            ],
        );
        let groups = build_phase_groups(&stairs);
        assert_eq!((groups.len(), digest(&groups)), (10, 0x40c6980db4f7f1b9));
        let fused = fuse_groups(groups, &stairs);
        assert_eq!((fused.len(), digest(&fused)), (8, 0x5c857b6c526542d7));
    }

    /// GiB-sized requests over ticks past 2⁴⁰: every product `size ×
    /// lifetime` and their sum are past 2⁶⁴, which a `u64` area wrapped
    /// in release and panicked on in debug. The plans are those of the
    /// same profile with ticks and sizes scaled down, TMP included.
    #[test]
    fn area_of_gib_requests_over_huge_ticks_does_not_wrap() {
        let family = |tick: u64, unit: u64| {
            vec![
                req(3 * unit, 0, 10 * tick, 1, 2),        // cohort, lives long
                req(2 * unit, 0, 6 * tick, 1, 2),         // cohort, frees early
                req(2 * unit, 6 * tick, 12 * tick, 2, 3), // fits the freed step
                req(unit, 2 * tick, 3 * tick, 2, 2),      // transient
            ]
        };
        let (huge, small) = (family(1 << 40, 1 << 30), family(8, 512));
        let shape = |reqs: &[RequestEvent], plans: &[LocalPlan]| -> Vec<_> {
            let unit = reqs[3].size;
            plans
                .iter()
                .map(|p| (p.members.len(), p.size / unit, p.tmp().to_bits()))
                .collect()
        };
        let groups = build_phase_groups(&huge);
        assert!(groups.iter().all(|p| p.area > u128::from(u64::MAX)));
        assert_eq!(
            shape(&huge, &groups),
            shape(&small, &build_phase_groups(&small))
        );
        let fused = fuse_groups(groups, &huge);
        assert_eq!(fused.len(), 2, "the staircase pair fuses");
        assert_eq!(
            shape(&huge, &fused),
            shape(&small, &fuse_groups(build_phase_groups(&small), &small))
        );
    }

    fn req(size: u64, ts: u64, te: u64, ps: u32, pe: u32) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps,
            pe,
            dynamic: false,
            ls: None,
            le: None,
        }
    }

    #[test]
    fn groups_form_per_phase_pair() {
        let reqs = vec![
            req(512, 0, 10, 1, 2),
            req(512, 1, 9, 1, 2),
            req(1024, 2, 3, 1, 1),
        ];
        let plans = build_phase_groups(&reqs);
        assert_eq!(plans.len(), 2);
        let scoped = plans.iter().find(|p| p.pe == 2).unwrap();
        assert_eq!(scoped.members.len(), 2);
        assert_eq!(scoped.size, 1024, "overlapping lifespans stack");
    }

    #[test]
    fn same_phase_transients_become_singletons() {
        // Transients are handed to global planning one by one; the
        // HomoSize memory-layers later share their space (same size,
        // disjoint lifespans -> one layer).
        let reqs = vec![req(512, 0, 5, 1, 1), req(512, 5, 9, 1, 1)];
        let plans = build_phase_groups(&reqs);
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|p| p.members.len() == 1));
        let layout = crate::plan::global::assemble(&plans, &reqs, &Default::default());
        assert_eq!(layout.pool_size, 512, "layering shares the slot");
    }

    #[test]
    fn tmp_is_one_for_perfect_packing() {
        let reqs = vec![req(512, 0, 10, 1, 2)];
        let plans = build_phase_groups(&reqs);
        assert!((plans[0].tmp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fusion_accepts_staircase_fill() {
        // Host: two members freed at different times (staircase).
        // Guest: members starting exactly as host space frees.
        let reqs = vec![
            req(512, 0, 10, 1, 2), // host, lives long
            req(512, 0, 6, 1, 2),  // host, frees early
            req(512, 6, 12, 2, 3), // guest, fits the freed step
        ];
        let plans = build_phase_groups(&reqs);
        assert_eq!(plans.len(), 2);
        let fused = fuse_groups(plans, &reqs);
        assert_eq!(fused.len(), 1, "fusion accepted");
        assert_eq!(fused[0].size, 1024, "guest reused the freed step");
        // Host member with the later end time sits at the bottom.
        let bottom = fused[0]
            .members
            .iter()
            .find(|&&(_, off)| off == 0)
            .unwrap()
            .0;
        assert_eq!(reqs[bottom].te, 10);
    }

    #[test]
    fn fusion_rejects_when_tmp_drops() {
        // The guest starts while the host is still fully live: fusing just
        // stacks them and stretches the footprint over extra idle time.
        let reqs = vec![
            req(2048, 0, 10, 1, 2),
            req(2048, 2, 10, 2, 2), // starts while host still fully live
        ];
        let plans = build_phase_groups(&reqs);
        assert_eq!(plans.len(), 2);
        let fused = fuse_groups(plans, &reqs);
        assert_eq!(fused.len(), 2, "fusion rejected: no bubble removed");
    }

    #[test]
    fn fusion_chain_converges() {
        // Each group has a long-lived and a short-lived member (bubbles);
        // each adjacent group starts exactly as the previous one's short
        // member frees, so every fusion strictly raises TMP.
        let reqs = vec![
            req(512, 0, 12, 1, 2),
            req(512, 0, 4, 1, 2), // frees early: bubble until tick 12
            req(512, 4, 24, 2, 3),
            req(512, 4, 8, 2, 3),
            req(512, 8, 20, 3, 4),
        ];
        let plans = build_phase_groups(&reqs);
        assert_eq!(plans.len(), 3);
        let fused = fuse_groups(plans, &reqs);
        assert!(
            fused.len() < 3,
            "at least one fusion accepted, got {} groups",
            fused.len()
        );
        let total: u64 = fused.iter().map(|p| p.size).sum();
        assert!(total < 512 * 5, "fusion reuses freed steps: {total}");
    }

    #[test]
    fn equal_tmp_fusion_is_rejected_but_harmless() {
        // Perfectly packed adjacent groups (TMP = 1.0 each): fusing cannot
        // raise TMP, so the paper's strict acceptance rejects it. The
        // HomoSize layering later shares one layer anyway.
        let reqs = vec![req(512, 0, 4, 1, 2), req(512, 4, 8, 2, 3)];
        let plans = build_phase_groups(&reqs);
        let fused = fuse_groups(plans, &reqs);
        assert_eq!(fused.len(), 2, "no strict TMP gain, no fusion");
    }
}
