//! The [`Strategy`] table: four layout functions behind one timed driver.
//!
//! A strategy owns only the *static* half of planning — producing a
//! [`StaticLayout`] (an absolute offset per profiled static request plus
//! a pool size) — so a row of the table is a pure function `(profile,
//! config) → StaticLayout` plus its name and description. The shared
//! tail (planned-allocation tables, §5.2 dynamic planning, stats) is
//! `stalloc_core::finish_plan`, called from the one driver,
//! [`Strategy::plan_profiled`], so every row's output is a complete,
//! comparable [`Plan`].
//!
//! Every row also accounts for itself: the driver returns the plan plus
//! a [`SolverProfile`] splitting the wall time into layout
//! (ordering/grouping), pack (gap scans and placements), and finish
//! (plan assembly) phases, with candidate/placement counters.

use std::time::Instant;

use stalloc_core::plan::phase_group::{build_phase_groups, fuse_groups};
use stalloc_core::{
    baseline_layout, best_fit_gap, finish_plan, Plan, ProfiledRequests, RequestEvent, StaticLayout,
    StrategyChoice, SynthConfig, TimeSpacePacker,
};

use crate::profile::SolverProfile;

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// One packing strategy: a row of the [`registry`] table.
///
/// The layout function must be deterministic (same inputs ⇒ identical
/// layout) and sound (the finished plan passes [`Plan::validate`]); the
/// portfolio re-validates and drops any candidate that is not.
#[derive(Clone, Copy)]
pub struct Strategy {
    /// The [`StrategyChoice`] this row implements.
    pub choice: StrategyChoice,
    /// One-line description for `stalloc strategies`.
    pub description: &'static str,
    /// Places every static request, billing its own layout/pack phases
    /// and packer counters to the profile it is handed.
    pub(crate) layout: fn(&ProfiledRequests, &SynthConfig, &mut SolverProfile) -> StaticLayout,
}

impl Strategy {
    /// Stable name (the CLI's `--strategy` value).
    pub fn name(&self) -> &'static str {
        self.choice.name()
    }

    /// Synthesizes a full plan for the profile, tagged with this row's
    /// choice, and accounts for where the time and packer effort went.
    pub fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let mut prof = SolverProfile::default();
        let layout = (self.layout)(profile, config, &mut prof);
        let t = Instant::now();
        let plan = finish_plan(profile, self.choice, layout);
        prof.finish_micros = micros_since(t);
        (plan, prof)
    }
}

/// The table, indexed by [`StrategyChoice::index`].
static REGISTRY: [Strategy; 4] = [
    Strategy {
        choice: StrategyChoice::Baseline,
        description: "paper pipeline: phase-group, TMP fusion, size layers, first-fit refine",
        layout: baseline,
    },
    Strategy {
        choice: StrategyChoice::BestFit,
        description: "size-descending best-fit over the time x address plane",
        layout: bestfit,
    },
    Strategy {
        choice: StrategyChoice::TmpOrder,
        description: "paper grouping + fusion, cohorts placed in TMP-weight order",
        layout: tmp_order,
    },
    Strategy {
        choice: StrategyChoice::Lookahead,
        description: "arrival-order sweep preferring the most recently freed gap",
        layout: lookahead,
    },
];

/// All concrete strategies, in [`StrategyChoice::CONCRETE`] order. The
/// portfolio races exactly this set.
pub fn registry() -> &'static [Strategy; 4] {
    &REGISTRY
}

/// Looks up one concrete strategy; `None` for
/// [`StrategyChoice::Portfolio`] (which is a runner, not a packer).
pub fn strategy_for(choice: StrategyChoice) -> Option<&'static Strategy> {
    REGISTRY.get(usize::from(choice.index()))
}

/// The one order-then-place sweep: visits `order`, asks `choose` for
/// each request's offset given what the packer holds so far, and commits
/// it. `packer` and `offsets` carry whatever is already placed (nothing,
/// for a cold strategy; the surviving placements, for a patch).
pub(crate) fn place_in_order(
    reqs: &[RequestEvent],
    order: &[usize],
    mut packer: TimeSpacePacker,
    mut offsets: Vec<u64>,
    mut choose: impl FnMut(&TimeSpacePacker, &RequestEvent, u64) -> u64,
) -> StaticLayout {
    for &i in order {
        let r = &reqs[i];
        let off = choose(&packer, r, r.window_end());
        packer.place_at(r.rect_at(off));
        offsets[i] = off;
    }
    StaticLayout::placed(offsets, packer.height())
}

/// A cold row's pack phase: the sweep from an empty packer, timed, with
/// the one accounting rule. `choose` returns the offset it picked and
/// how many candidate gaps it looked at to pick it.
fn pack_cold(
    reqs: &[RequestEvent],
    order: &[usize],
    prof: &mut SolverProfile,
    mut choose: impl FnMut(&TimeSpacePacker, &RequestEvent, u64) -> (u64, u64),
) -> StaticLayout {
    let t = Instant::now();
    let layout = place_in_order(
        reqs,
        order,
        TimeSpacePacker::new(),
        vec![0; reqs.len()],
        |packer, r, t1| {
            let (off, seen) = choose(packer, r, t1);
            prof.candidates_evaluated += seen;
            prof.placements_rejected += seen - 1;
            prof.placements_tried += 1;
            off
        },
    );
    prof.pack_micros = micros_since(t);
    layout
}

/// Largest first, earlier start breaking ties: the order of `bestfit`
/// and of a patch's repack.
pub(crate) fn sort_largest_first(reqs: &[RequestEvent], order: &mut [usize]) {
    order.sort_unstable_by_key(|&i| (u64::MAX - reqs[i].size, reqs[i].ts, i));
}

/// `baseline`: the paper's §5.1 pipeline, verbatim — HomoPhase grouping,
/// TMP-scored fusion, HomoSize memory-layers with gap insertion, and the
/// global first-fit refinement sweep.
fn baseline(
    profile: &ProfiledRequests,
    config: &SynthConfig,
    prof: &mut SolverProfile,
) -> StaticLayout {
    // The §5.1 pipeline computes the whole layout in one pass —
    // grouping, layering, and refinement are inseparable, so the run
    // is billed to the layout phase as a block.
    let t = Instant::now();
    let layout = baseline_layout(profile, config);
    prof.layout_micros = micros_since(t);
    let placed = layout.request_offsets.len() as u64;
    prof.candidates_evaluated = placed;
    prof.placements_tried = placed;
    layout
}

/// `bestfit`: size-descending best-fit. Requests are placed largest
/// first (earlier start breaking ties), each at the *tightest* free gap
/// in the time × address plane rather than the lowest one — big tensors
/// anchor the layout, and small ones fill the leftover notches exactly.
/// The ablation switches steer the grouped pipelines only.
fn bestfit(
    profile: &ProfiledRequests,
    _config: &SynthConfig,
    prof: &mut SolverProfile,
) -> StaticLayout {
    let reqs = &profile.statics;
    let t = Instant::now();
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    sort_largest_first(reqs, &mut order);
    prof.layout_micros = micros_since(t);

    pack_cold(reqs, &order, prof, |packer, r, t1| {
        // `find_best_fit(.., u64::MAX)` over an explicit gap list, so
        // the candidates can be counted.
        let gaps = packer.free_gaps(r.ts, t1, r.size);
        let off =
            best_fit_gap(&gaps, r.size, u64::MAX).expect("top-of-stack candidate always exists");
        (off, gaps.len() as u64)
    })
}

/// `tmp-order`: a weight-ordered variant of the paper heuristic. The
/// HomoPhase grouping and TMP fusion run as in §5.1, but instead of
/// HomoSize classes the fused cohorts are placed directly into one
/// global packer in descending time-memory-product *weight* order
/// (size × lifetime, the fusion-acceptance weight of Eq. 2) — the
/// cohorts that dominate the space-time volume claim the bottom of the
/// pool, and everything lighter first-fits around them.
fn tmp_order(
    profile: &ProfiledRequests,
    config: &SynthConfig,
    prof: &mut SolverProfile,
) -> StaticLayout {
    let reqs = &profile.statics;
    let t = Instant::now();
    let plans = build_phase_groups(reqs);
    let phase_groups = plans.len();
    let plans = if config.enable_fusion {
        fuse_groups(plans, reqs)
    } else {
        plans
    };

    let mut cohorts: Vec<usize> = (0..plans.len()).collect();
    // Weights are products of u64s: finite, so total_cmp is a strict
    // deterministic order; member index breaks exact ties.
    cohorts.sort_unstable_by(|&a, &b| {
        plans[b]
            .weight()
            .total_cmp(&plans[a].weight())
            .then(plans[a].ts.cmp(&plans[b].ts))
            .then(plans[a].members[0].0.cmp(&plans[b].members[0].0))
    });
    // Within a cohort, members go in arrival order.
    let mut order = Vec::with_capacity(reqs.len());
    for pi in cohorts {
        let from = order.len();
        order.extend(plans[pi].members.iter().map(|&(ri, _)| ri));
        order[from..].sort_unstable_by_key(|&ri| (reqs[ri].ts, ri));
    }
    prof.layout_micros = micros_since(t);

    // First-fit takes the first gap that fits: one candidate accepted
    // per placement, nothing scanned and discarded that this accounting
    // can see.
    let layout = pack_cold(reqs, &order, prof, |packer, r, t1| {
        let off = packer
            .find_first_fit(r.ts, t1, r.size, u64::MAX)
            .expect("unbounded fit always succeeds");
        (off, 1)
    });
    StaticLayout {
        phase_groups,
        fused_groups: plans.len(),
        ..layout
    }
}

/// `lookahead`: a temporal-lookahead interval packer. Requests are swept
/// in arrival order (longest-lived first among simultaneous arrivals, as
/// in interval-graph coloring) and each one is offered every free gap in
/// its time window; the chosen gap is the one whose previous occupant
/// freed *closest before* the request arrives — the request slots in
/// right behind its temporal predecessor, generalizing Algorithm 1's
/// preferred-layer rule to request granularity.
fn lookahead(
    profile: &ProfiledRequests,
    _config: &SynthConfig,
    prof: &mut SolverProfile,
) -> StaticLayout {
    let reqs = &profile.statics;
    let t = Instant::now();
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].te, i));
    prof.layout_micros = micros_since(t);

    pack_cold(reqs, &order, prof, |packer, r, t1| {
        // Candidates: the bottom of every free gap in the window (the
        // final free_gaps entry is the always-feasible top of the
        // occupied span). A gap's idle time at `r.ts` is `r.ts` minus
        // the latest end of any placement that overlaps the candidate
        // range and freed at or before `r.ts`: smaller = snugger.
        let gaps = packer.free_gaps(r.ts, t1, r.size);
        let seen = gaps.len() as u64;
        let off = gaps
            .into_iter()
            .map(|(off, _)| off)
            .min_by_key(|&off| (r.ts - packer.last_freed_by(off, r.size, r.ts), off))
            .expect("top-of-stack candidate always exists");
        (off, seen)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn profile() -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::r(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(4)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        stalloc_core::profile_trace(&trace, 1).unwrap()
    }

    /// What makes `strategy_for`'s index lookup sound: the table is in
    /// `CONCRETE` order and every row sits at its choice's index.
    #[test]
    fn registry_covers_every_concrete_choice_in_index_order() {
        let reg = registry();
        let choices: Vec<StrategyChoice> = reg.iter().map(|s| s.choice).collect();
        assert_eq!(choices, StrategyChoice::CONCRETE.to_vec());
        assert!(strategy_for(StrategyChoice::Portfolio).is_none());
        for (i, s) in reg.iter().enumerate() {
            assert_eq!(usize::from(s.choice.index()), i);
            assert_eq!(strategy_for(s.choice).expect("concrete").choice, s.choice);
            assert!(!s.description.is_empty());
            assert_eq!(s.name(), s.choice.name());
        }
    }

    #[test]
    fn every_strategy_is_sound_and_tagged() {
        let p = profile();
        let config = SynthConfig::default();
        for s in registry() {
            let plan = s.plan_profiled(&p, &config).0;
            plan.validate()
                .unwrap_or_else(|e| panic!("{}: unsound plan: {e}", s.name()));
            assert_eq!(plan.stats.strategy, s.choice, "{}", s.name());
            assert!(
                plan.pool_size >= plan.stats.peak_static_demand,
                "{}: pool below the information-theoretic bound",
                s.name()
            );
            assert_eq!(plan.init_allocs.len(), p.init_count);
        }
    }

    #[test]
    fn baseline_strategy_matches_core_synthesize() {
        let p = profile();
        let config = SynthConfig::default();
        let baseline = strategy_for(StrategyChoice::Baseline).unwrap();
        let via_strategy = baseline.plan_profiled(&p, &config).0;
        let via_core = stalloc_core::synthesize(&p, &config);
        assert_eq!(via_strategy, via_core);
    }

    #[test]
    fn strategies_are_deterministic() {
        let p = profile();
        let config = SynthConfig::default();
        for s in registry() {
            let a = s.plan_profiled(&p, &config).0.to_json();
            let b = s.plan_profiled(&p, &config).0.to_json();
            assert_eq!(a, b, "{} is nondeterministic", s.name());
        }
    }

    /// The counters are what the benchmark's ledger prints per strategy;
    /// the literals pin them across the shared sweep.
    #[test]
    fn profiled_runs_count_work() {
        let p = profile();
        let config = SynthConfig::default();
        let pinned = [
            (1986, 1986, 0),
            (6118, 1986, 4132),
            (1986, 1986, 0),
            (15325, 1986, 13339),
        ];
        for (s, (evaluated, tried, rejected)) in registry().iter().zip(pinned) {
            let (_, prof) = s.plan_profiled(&p, &config);
            assert_eq!(
                prof.placements_tried,
                p.statics.len() as u64,
                "{}: every static request is placed exactly once",
                s.name()
            );
            assert_eq!(
                (
                    prof.candidates_evaluated,
                    prof.placements_tried,
                    prof.placements_rejected
                ),
                (evaluated, tried, rejected),
                "{}: (evaluated, tried, rejected)",
                s.name()
            );
            assert_eq!(
                prof.candidates_evaluated - prof.placements_tried,
                prof.placements_rejected,
                "{}: rejected = evaluated - tried",
                s.name()
            );
        }
    }
}
