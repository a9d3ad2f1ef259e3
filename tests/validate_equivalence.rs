//! `Plan::validate` gives the verdict of the check it replaced.
//!
//! The soundness check used to be an event sweep: 2n `(tick, end|start)`
//! events, sorted, replayed through a coalescing `IntervalSet` of the
//! occupied addresses. It is kept here, verbatim, as the oracle
//! (`validate_by_event_sweep`); the shipped check is one pass in
//! allocation order (`stalloc_core::geometry::first_conflict`). Both must
//! agree — `Ok`, "exceeds pool" or "overlap" — on every plan the planners
//! produce and on every way this file knows to break one:
//!
//! * sound plans: the zoo × the four concrete strategies, and one
//!   `patch_plan` output per zoo profile;
//! * mutations, any few of them stacked: an offset moved onto a live
//!   neighbour, `iter_allocs` shuffled (ticks no longer ascend), sizes
//!   zeroed, `te <= ts`, a decision starting on the very tick a neighbour
//!   is allocated or freed, `offset + size` at, one past and far past the
//!   pool and past `u64::MAX`, exact duplicates;
//! * dense little random plans, where most pairs share an offset or a tick.
//!
//! Ticks stay below `u64::MAX`: there the oracle panics, which is the bug
//! `validate_is_total` pins. CI runs this file with `PROPTEST_CASES=512`.

use std::sync::OnceLock;

use proptest::prelude::*;
use stalloc_core::{
    patch_plan, profile_trace, synthesize, IntervalSet, Plan, PlannedAlloc, ProfiledRequests,
    StrategyChoice, SynthConfig,
};
use stalloc_store::codec::{decode_plan, encode_plan};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

/// The soundness check as it shipped before the one-pass rewrite.
fn validate_by_event_sweep(plan: &Plan) -> Result<(), String> {
    let all: Vec<&PlannedAlloc> = plan
        .init_allocs
        .iter()
        .chain(plan.iter_allocs.iter())
        .collect();
    for d in &all {
        let fits = d
            .offset
            .checked_add(d.size)
            .is_some_and(|end| end <= plan.pool_size);
        if !fits {
            return Err(format!(
                "decision at {} (+{}) exceeds pool {}",
                d.offset, d.size, plan.pool_size
            ));
        }
    }
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(all.len() * 2);
    for (i, d) in all.iter().enumerate() {
        let te = d.te.max(d.ts.saturating_add(1));
        events.push((d.ts, false, i)); // false = start
        events.push((te, true, i)); // true = end
    }
    // Ends sort before starts at equal ticks (te is exclusive).
    events.sort_unstable_by_key(|&(t, is_end, _)| (t, !is_end as u8));
    let mut occupied = IntervalSet::new();
    for (_, is_end, i) in events {
        let d = all[i];
        if is_end {
            occupied.remove(d.offset, d.size);
        } else {
            if occupied.overlaps(d.offset, d.size) {
                return Err(format!(
                    "overlap: decision [{}, {}) x ticks [{}, {}) intersects \
                     live space",
                    d.offset,
                    d.offset + d.size,
                    d.ts,
                    d.te
                ));
            }
            occupied.insert(d.offset, d.size);
        }
    }
    Ok(())
}

/// What a verdict says, without the numbers in its text.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Sound,
    ExceedsPool,
    Overlap,
}

fn class(verdict: Result<(), String>) -> Verdict {
    match verdict {
        Ok(()) => Verdict::Sound,
        Err(e) if e.starts_with("overlap: decision [") => Verdict::Overlap,
        Err(e) if e.starts_with("decision at ") && e.contains(" exceeds pool ") => {
            Verdict::ExceedsPool
        }
        Err(e) => panic!("a verdict of neither class: {e}"),
    }
}

fn zoo_profile(idx: usize) -> ProfiledRequests {
    let (model, parallel, optim) = match idx {
        0 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        ),
        1 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1).with_vpp(2),
            OptimConfig::r(),
        ),
        2 => (
            ModelSpec::llama2_7b(),
            ParallelConfig::new(2, 2, 1),
            OptimConfig::r(),
        ),
        _ => (
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 4).with_ep(4),
            OptimConfig::naive(),
        ),
    };
    let trace = TrainJob::new(model, parallel, optim)
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(parallel.pp)
        .with_iterations(1)
        .build_trace()
        .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// Zoo × four strategies, then one patched plan per zoo profile (a few
/// iteration requests grown, so `patch_plan` re-packs around the rest).
fn sound_plans() -> &'static [Plan] {
    static PLANS: OnceLock<Vec<Plan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut plans = Vec::new();
        for idx in 0..4 {
            let base = zoo_profile(idx);
            for strategy in StrategyChoice::CONCRETE {
                let config = SynthConfig {
                    strategy,
                    ..SynthConfig::default()
                };
                plans.push(synthesize(&base, &config));
            }
            let mut next = base.clone();
            for r in next.statics.iter_mut().skip(base.init_count).take(3) {
                r.size += 4096;
            }
            let cold = &plans[plans.len() - 4];
            plans.push(patch_plan(&base, cold, &next).expect("patchable").0);
        }
        plans
    })
}

/// The `i`-th decision over `init_allocs` then `iter_allocs`.
fn decision(plan: &mut Plan, i: usize) -> &mut PlannedAlloc {
    let init = plan.init_allocs.len();
    if i < init {
        &mut plan.init_allocs[i]
    } else {
        &mut plan.iter_allocs[i - init]
    }
}

/// One way to break (or merely disturb) a plan, as plain integers so the
/// vendored proptest can shrink it: `(kind, a, b)`, `a` and `b` picking
/// decisions or amounts.
type Mutation = (u8, usize, usize);

fn mutate(plan: &mut Plan, (kind, a, b): Mutation) {
    let n = plan.init_allocs.len() + plan.iter_allocs.len();
    let (i, j) = (a % n, b % n);
    let other = *decision(plan, j);
    let pool = plan.pool_size;
    match kind {
        // Onto a neighbour: with `j` live at `i`'s tick this is an overlap,
        // otherwise a harmless move (or past the pool, if `i` is larger).
        0 => decision(plan, i).offset = other.offset,
        // Ticks no longer ascend; nothing else changes.
        1 => {
            let k = plan.iter_allocs.len();
            for step in 0..k {
                plan.iter_allocs
                    .swap(step, (step * 7919 + a.wrapping_mul(b | 1)) % k);
            }
        }
        2 => decision(plan, i).size = 0,
        3 => {
            let d = decision(plan, i);
            d.te = d.ts.saturating_sub(b as u64 % 3);
        }
        // Starting exactly when a neighbour is freed, or is allocated.
        4 => decision(plan, i).ts = if a % 2 == 0 { other.te } else { other.ts },
        5 => decision(plan, i).te = if a % 2 == 0 { other.ts } else { other.te },
        // Ending at the pool's last byte, one past it, or far past it.
        6 => {
            let d = decision(plan, i);
            d.offset = (pool - d.size.min(pool)) + [0, 1, pool][b % 3];
        }
        // `offset + size` lands exactly on, or wraps past, `u64::MAX`.
        7 => {
            let d = decision(plan, i);
            d.offset = (u64::MAX - d.size).wrapping_add(b as u64 % 3);
        }
        _ => {
            let twin = *decision(plan, i);
            if b % 2 == 0 {
                plan.iter_allocs.push(twin);
            } else {
                plan.init_allocs.insert(0, twin);
            }
        }
    }
}

proptest! {
    #[test]
    fn mutated_zoo_plans_get_the_oracles_verdict(
        base in 0usize..20,
        mutations in prop::collection::vec((0u8..9, 0usize..1 << 20, 0usize..1 << 20), 0..4),
    ) {
        let mut plan = sound_plans()[base].clone();
        for m in mutations {
            mutate(&mut plan, m);
        }
        prop_assert_eq!(class(plan.validate()), class(validate_by_event_sweep(&plan)));
    }

    #[test]
    fn dense_random_plans_get_the_oracles_verdict(
        decisions in prop::collection::vec((0u64..30, 0u64..8, 0u64..16, 0u64..6), 0..40),
        init in 0usize..8,
        pool in 78u64..84,
    ) {
        let allocs: Vec<PlannedAlloc> = decisions
            .into_iter()
            .map(|(ts, life, slot, size)| PlannedAlloc { size: size * 4, offset: slot * 4, ts, te: ts + life })
            .collect();
        let init = init.min(allocs.len());
        let plan = Plan {
            pool_size: pool,
            init_allocs: allocs[..init].to_vec(),
            iter_allocs: allocs[init..].to_vec(),
            ..Plan::default()
        };
        prop_assert_eq!(class(plan.validate()), class(validate_by_event_sweep(&plan)));
    }
}

#[test]
fn every_sound_plan_is_sound_to_both() {
    for plan in sound_plans() {
        plan.validate().unwrap();
        validate_by_event_sweep(plan).unwrap();
    }
}

/// A plan the codec carries but no lifetime can follow: allocated at the
/// last tick there is. The event sweep panicked on it ("remove from empty
/// region"); `validate` must answer, because it is what stands between a
/// foreign artifact and the training process.
#[test]
fn validate_is_total() {
    let mut plan = sound_plans()[0].clone();
    let n = plan.iter_allocs.len();
    plan.iter_allocs[n / 2].ts = u64::MAX;
    let carried = decode_plan(&encode_plan(&plan)).expect("the codec carries any u64 tick");
    assert_eq!(carried, plan);
    let verdict = carried
        .validate()
        .expect_err("no lifetime starts at u64::MAX");
    assert!(verdict.contains("tick 18446744073709551615"), "{verdict}");

    // A dynamic plan whose arrivals name a group it does not have: the
    // runtime indexes its groups with these, so the verdict must come
    // before the training process does. `u32::MAX` names no group.
    let moe = sound_plans()
        .iter()
        .find(|p| !p.dynamic.groups.is_empty() && !p.dynamic.instance_seq.is_empty())
        .expect("the zoo's MoE job plans dynamic groups");
    let groups = moe.dynamic.groups.len() as u32;
    for (index, verdict) in [
        (u32::MAX, None),
        (groups - 1, None),
        (groups, Some(groups)),
        (groups + 5, Some(groups + 5)),
        (u32::MAX - 1, Some(u32::MAX - 1)),
    ] {
        let mut plan = moe.clone();
        for (_, seq) in &mut plan.dynamic.instance_seq {
            seq.iter_mut().for_each(|g| *g = index);
        }
        let carried = decode_plan(&encode_plan(&plan)).expect("the codec carries any index");
        assert_eq!(carried, plan);
        match (carried.validate(), verdict) {
            (Ok(()), None) => {}
            (Err(e), Some(g)) => assert!(
                e.contains(&format!("name group {g}, but the plan has {groups} groups")),
                "{e}"
            ),
            (got, _) => panic!("group index {index}: {got:?}"),
        }
    }

    // Every field at its extremes, alone and together: an answer, no panic.
    for (size, offset, ts, te) in [
        (u64::MAX, u64::MAX, 0, 0),
        (0, u64::MAX, u64::MAX, u64::MAX),
        (1, 0, u64::MAX - 1, 0),
        (u64::MAX, 0, 0, u64::MAX),
        (0, 0, 0, 0),
    ] {
        let d = PlannedAlloc {
            size,
            offset,
            ts,
            te,
        };
        for pool_size in [0, 1, u64::MAX] {
            let plan = Plan {
                pool_size,
                init_allocs: vec![d],
                iter_allocs: vec![d, d],
                ..Plan::default()
            };
            let _ = plan.validate();
        }
    }
}
