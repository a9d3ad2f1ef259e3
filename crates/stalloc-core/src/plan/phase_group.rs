//! HomoPhase grouping (paper §5.1, Fig. 6).
//!
//! Requests sharing an (allocation phase, free phase) pair form a
//! *HomoPhase Group*; each group is packed into a compact local plan.
//! The paper goes on to fuse phase-adjacent groups whenever the fused
//! group's *time-memory product* (TMP, Eq. 2) is higher. This
//! reproduction does not: on every profile measured, no pair passed that
//! rule, so the groups go to global planning as built (README, "Not
//! implemented: TMP fusion").
//!
//! A [`LocalPlan`] is plain data: its members with their relative offsets
//! and what follows from them. The [`TimeSpacePacker`] that finds those
//! offsets lives only as long as one cohort is being packed; the
//! thousands of one-request groups of a profile never see one.

use std::collections::HashMap;

use crate::geometry::TimeSpacePacker;
use crate::profiler::RequestEvent;

/// A local plan: one HomoPhase group with relative offsets.
#[derive(Debug, Clone)]
pub struct LocalPlan {
    /// Members: (static-request index, relative offset).
    pub members: Vec<(usize, u64)>,
    /// Footprint in bytes (`D_g.s`): the top of the members' stack.
    pub size: u64,
    /// Earliest allocation tick.
    pub ts: u64,
    /// Latest window end among members (so `te > ts`).
    pub te: u64,
}

impl LocalPlan {
    /// The plan of `members` (non-empty) of `reqs`.
    pub fn of(members: Vec<(usize, u64)>, reqs: &[RequestEvent]) -> Self {
        let mut plan = LocalPlan {
            members,
            size: 0,
            ts: u64::MAX,
            te: 0,
        };
        for &(i, off) in &plan.members {
            let r = &reqs[i];
            plan.size = plan.size.max(off + r.size);
            plan.ts = plan.ts.min(r.ts);
            plan.te = plan.te.max(r.window_end());
        }
        plan
    }

    /// The footprint's space-time volume, `size × (te − ts)`: the TMP
    /// denominator (Eq. 2), and the key `tmp-order` places cohorts by.
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
            plans.push(LocalPlan::of(vec![(i, 0)], reqs));
        } else {
            classes.entry((r.ps, r.pe)).or_default().push(i);
        }
    }
    let mut classes: Vec<((u32, u32), Vec<usize>)> = classes.into_iter().collect();
    classes.sort_unstable_by_key(|&(key, _)| key);

    for (_, mut idxs) in classes {
        idxs.sort_unstable_by_key(|&i| reqs[i].ts);
        let mut packer = TimeSpacePacker::new();
        let members = idxs
            .into_iter()
            .map(|i| {
                let r = &reqs[i];
                (i, packer.pack(r.ts, r.window_end(), r.size))
            })
            .collect();
        plans.push(LocalPlan::of(members, reqs));
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The members' `size × window length`, summed: the TMP numerator.
    /// Wide: GiB-sized requests over ticks past 2⁴⁰ overflow 64 bits.
    fn area(p: &LocalPlan, reqs: &[RequestEvent]) -> u128 {
        p.members
            .iter()
            .map(|&(i, _)| {
                let r = &reqs[i];
                u128::from(r.size) * u128::from(r.window_end() - r.ts)
            })
            .sum()
    }

    /// Time-memory product (Eq. 2). 1.0 means zero bubbles.
    fn tmp(p: &LocalPlan, reqs: &[RequestEvent]) -> f64 {
        let weight = p.weight();
        if weight == 0.0 {
            1.0
        } else {
            area(p, reqs) as f64 / weight
        }
    }

    /// FNV-1a 64 over `(members, size, tmp)` of every plan, in order.
    fn digest(plans: &[LocalPlan], reqs: &[RequestEvent]) -> u64 {
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
            mix(tmp(p, reqs).to_bits());
        }
        h
    }

    /// Every group of the benchmark's GPT-2 345M VR profile — members,
    /// footprint and TMP to the bit — as the build before `LocalPlan`
    /// lost its packer produced them: all 3,730 through a digest, the 33
    /// cohorts as `(first member, members, size, tmp bits)`.
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
            .map(|p| {
                let bits = tmp(p, &reqs).to_bits();
                (p.members[0].0, p.members.len(), p.size, bits)
            })
            .collect();
        assert_eq!(cohorts, COHORTS);
        assert_eq!(
            (plans.len(), digest(&plans, &reqs)),
            (3730, 0xc5faed1e8b083605)
        );
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
        let shape = |reqs: &[RequestEvent]| -> Vec<_> {
            let unit = reqs[3].size;
            build_phase_groups(reqs)
                .iter()
                .map(|p| (p.members.len(), p.size / unit, tmp(p, reqs).to_bits()))
                .collect()
        };
        let wide = |p: &LocalPlan| area(p, &huge) > u128::from(u64::MAX);
        assert!(build_phase_groups(&huge).iter().all(wide));
        assert_eq!(shape(&huge), shape(&small));
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
        let scoped = plans.iter().find(|p| reqs[p.members[0].0].pe == 2).unwrap();
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
        assert!((tmp(&plans[0], &reqs) - 1.0).abs() < 1e-12);
    }
}
