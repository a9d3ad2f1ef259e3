//! The [`Strategy`] trait and the four concrete packers.
//!
//! A strategy owns only the *static* half of planning — producing a
//! [`StaticLayout`] (an absolute offset per profiled static request plus
//! a pool size). The shared tail (planned-allocation tables, §5.2
//! dynamic planning, stats) is `stalloc_core::finish_plan`, so every
//! strategy's output is a complete, comparable [`Plan`].
//!
//! Each built-in strategy also self-profiles: [`Strategy::plan_profiled`]
//! returns the plan plus a [`SolverProfile`] splitting its wall time into
//! layout (ordering/grouping), pack (gap scans and placements), and
//! finish (plan assembly) phases, with candidate/placement counters.

use std::time::Instant;

use stalloc_core::plan::phase_group::{build_phase_groups, fuse_groups};
use stalloc_core::{
    baseline_layout, best_fit_gap, finish_plan, Plan, ProfiledRequests, Rect, StaticLayout,
    StrategyChoice, SynthConfig, TimeSpacePacker,
};

use crate::profile::SolverProfile;

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// One pluggable packing strategy.
///
/// Implementations must be deterministic (same inputs ⇒ byte-identical
/// plan) and sound (the returned plan passes [`Plan::validate`]); the
/// portfolio re-validates and drops any candidate that is not.
pub trait Strategy: Send + Sync {
    /// The [`StrategyChoice`] this strategy implements.
    fn choice(&self) -> StrategyChoice;

    /// Stable name (the CLI's `--strategy` value).
    fn name(&self) -> &'static str {
        self.choice().name()
    }

    /// One-line description for `stalloc strategies`.
    fn description(&self) -> &'static str;

    /// Synthesizes a full plan for the profile.
    fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan;

    /// Synthesizes a plan and accounts for where the time and packer
    /// effort went. The default wraps [`Strategy::plan`], billing the
    /// whole run to the pack phase with zero work counters — honest for
    /// external strategies that never instrumented themselves. The
    /// built-in strategies override it with real phase splits; their
    /// `plan` delegates here, so both entry points place identically.
    fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let started = Instant::now();
        let plan = self.plan(profile, config);
        let prof = SolverProfile {
            pack_micros: micros_since(started),
            ..SolverProfile::default()
        };
        (plan, prof)
    }
}

/// All registered concrete strategies, in [`StrategyChoice::CONCRETE`]
/// order. The portfolio races exactly this set.
pub fn registry() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Baseline),
        Box::new(BestFitDecreasing),
        Box::new(TmpOrdered),
        Box::new(TemporalLookahead),
    ]
}

/// Looks up one concrete strategy; `None` for
/// [`StrategyChoice::Portfolio`] (which is a runner, not a packer).
pub fn strategy_for(choice: StrategyChoice) -> Option<Box<dyn Strategy>> {
    registry().into_iter().find(|s| s.choice() == choice)
}

/// `baseline`: the paper's §5.1 pipeline, verbatim — HomoPhase grouping,
/// TMP-scored fusion, HomoSize memory-layers with gap insertion, and the
/// global first-fit refinement sweep.
pub struct Baseline;

impl Strategy for Baseline {
    fn choice(&self) -> StrategyChoice {
        StrategyChoice::Baseline
    }

    fn description(&self) -> &'static str {
        "paper pipeline: phase-group, TMP fusion, size layers, first-fit refine"
    }

    fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
        self.plan_profiled(profile, config).0
    }

    fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let mut prof = SolverProfile::default();
        // The §5.1 pipeline computes the whole layout in one pass —
        // grouping, layering, and refinement are inseparable, so the run
        // is billed to the layout phase as a block.
        let t = Instant::now();
        let layout = baseline_layout(profile, config);
        prof.layout_micros = micros_since(t);
        let placed = layout.request_offsets.len() as u64;
        prof.candidates_evaluated = placed;
        prof.placements_tried = placed;

        let t = Instant::now();
        let plan = finish_plan(profile, StrategyChoice::Baseline, layout);
        prof.finish_micros = micros_since(t);
        (plan, prof)
    }
}

/// `bestfit`: size-descending best-fit. Requests are placed largest
/// first (earlier start breaking ties), each at the *tightest* free gap
/// in the time × address plane rather than the lowest one — big tensors
/// anchor the layout, and small ones fill the leftover notches exactly.
pub struct BestFitDecreasing;

impl Strategy for BestFitDecreasing {
    fn choice(&self) -> StrategyChoice {
        StrategyChoice::BestFit
    }

    fn description(&self) -> &'static str {
        "size-descending best-fit over the time x address plane"
    }

    fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
        self.plan_profiled(profile, config).0
    }

    fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let _ = config; // ablation switches steer the grouped pipelines only
        let mut prof = SolverProfile::default();
        let reqs = &profile.statics;

        let t = Instant::now();
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| (u64::MAX - reqs[i].size, reqs[i].ts, i));
        prof.layout_micros = micros_since(t);

        let t = Instant::now();
        let mut packer = TimeSpacePacker::new();
        let mut offsets = vec![0u64; reqs.len()];
        for i in order {
            let r = &reqs[i];
            let t1 = r.te.max(r.ts + 1);
            // `find_best_fit(.., u64::MAX)` over an explicit gap list, so
            // the candidates can be counted.
            let gaps = packer.free_gaps(r.ts, t1, r.size);
            prof.candidates_evaluated += gaps.len() as u64;
            prof.placements_rejected += gaps.len() as u64 - 1;
            let off = best_fit_gap(&gaps, r.size, u64::MAX)
                .expect("top-of-stack candidate always exists");
            packer.place_at(Rect {
                t0: r.ts,
                t1,
                off,
                len: r.size,
            });
            prof.placements_tried += 1;
            offsets[i] = off;
        }
        prof.pack_micros = micros_since(t);

        let t = Instant::now();
        let plan = finish_plan(
            profile,
            StrategyChoice::BestFit,
            StaticLayout {
                pool_size: packer.height(),
                request_offsets: offsets,
                phase_groups: 0,
                fused_groups: 0,
                layers: 0,
                gap_inserted: 0,
            },
        );
        prof.finish_micros = micros_since(t);
        (plan, prof)
    }
}

/// `tmp-order`: a weight-ordered variant of the paper heuristic. The
/// HomoPhase grouping and TMP fusion run as in §5.1, but instead of
/// HomoSize classes the fused cohorts are placed directly into one
/// global packer in descending time-memory-product *weight* order
/// (size × lifetime, the fusion-acceptance weight of Eq. 2) — the
/// cohorts that dominate the space-time volume claim the bottom of the
/// pool, and everything lighter first-fits around them.
pub struct TmpOrdered;

impl Strategy for TmpOrdered {
    fn choice(&self) -> StrategyChoice {
        StrategyChoice::TmpOrder
    }

    fn description(&self) -> &'static str {
        "paper grouping + fusion, cohorts placed in TMP-weight order"
    }

    fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
        self.plan_profiled(profile, config).0
    }

    fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let mut prof = SolverProfile::default();
        let reqs = &profile.statics;

        let t = Instant::now();
        let plans = build_phase_groups(reqs);
        let phase_groups = plans.len();
        let plans = if config.enable_fusion {
            fuse_groups(plans, reqs)
        } else {
            plans
        };
        let fused_groups = plans.len();

        let mut order: Vec<usize> = (0..plans.len()).collect();
        // Weights are products of u64s: finite, so total_cmp is a strict
        // deterministic order; member index breaks exact ties.
        order.sort_unstable_by(|&a, &b| {
            plans[b]
                .weight()
                .total_cmp(&plans[a].weight())
                .then(plans[a].ts.cmp(&plans[b].ts))
                .then(plans[a].members[0].0.cmp(&plans[b].members[0].0))
        });
        prof.layout_micros = micros_since(t);

        let t = Instant::now();
        let mut packer = TimeSpacePacker::new();
        let mut offsets = vec![0u64; reqs.len()];
        for pi in order {
            let mut members = plans[pi].members.clone();
            members.sort_unstable_by_key(|&(ri, _)| (reqs[ri].ts, ri));
            for (ri, _) in members {
                let r = &reqs[ri];
                let t1 = r.te.max(r.ts + 1);
                let off = packer.pack(r.ts, t1, r.size);
                // First-fit takes the first gap that fits: one candidate
                // accepted per placement, nothing scanned and discarded
                // that this accounting can see.
                prof.candidates_evaluated += 1;
                prof.placements_tried += 1;
                offsets[ri] = off;
            }
        }
        prof.pack_micros = micros_since(t);

        let t = Instant::now();
        let plan = finish_plan(
            profile,
            StrategyChoice::TmpOrder,
            StaticLayout {
                pool_size: packer.height(),
                request_offsets: offsets,
                phase_groups,
                fused_groups,
                layers: 0,
                gap_inserted: 0,
            },
        );
        prof.finish_micros = micros_since(t);
        (plan, prof)
    }
}

/// `lookahead`: a temporal-lookahead interval packer. Requests are swept
/// in arrival order (longest-lived first among simultaneous arrivals, as
/// in interval-graph coloring) and each one is offered every free gap in
/// its time window; the chosen gap is the one whose previous occupant
/// freed *closest before* the request arrives — the request slots in
/// right behind its temporal predecessor, generalizing Algorithm 1's
/// preferred-layer rule to request granularity.
pub struct TemporalLookahead;

impl TemporalLookahead {
    /// How long the address range `[off, off+len)` has been idle at tick
    /// `ts`: `ts` minus the latest end time of any placement that spatially
    /// overlaps the range and freed at or before `ts`. Smaller = snugger.
    fn idle_gap(packer: &TimeSpacePacker, off: u64, len: u64, ts: u64) -> u64 {
        ts - packer.last_freed_by(off, len, ts)
    }
}

impl Strategy for TemporalLookahead {
    fn choice(&self) -> StrategyChoice {
        StrategyChoice::Lookahead
    }

    fn description(&self) -> &'static str {
        "arrival-order sweep preferring the most recently freed gap"
    }

    fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
        self.plan_profiled(profile, config).0
    }

    fn plan_profiled(
        &self,
        profile: &ProfiledRequests,
        config: &SynthConfig,
    ) -> (Plan, SolverProfile) {
        let _ = config;
        let mut prof = SolverProfile::default();
        let reqs = &profile.statics;

        let t = Instant::now();
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].te, i));
        prof.layout_micros = micros_since(t);

        let t = Instant::now();
        let mut packer = TimeSpacePacker::new();
        let mut offsets = vec![0u64; reqs.len()];
        for i in order {
            let r = &reqs[i];
            let t1 = r.te.max(r.ts + 1);
            // Candidates: the bottom of every free gap in the window
            // (the final free_gaps entry is the always-feasible top of
            // the occupied span).
            let gaps = packer.free_gaps(r.ts, t1, r.size);
            prof.candidates_evaluated += gaps.len() as u64;
            prof.placements_rejected += gaps.len() as u64 - 1;
            let off = gaps
                .into_iter()
                .min_by_key(|&(off, _)| (Self::idle_gap(&packer, off, r.size, r.ts), off))
                .map(|(off, _)| off)
                .expect("top-of-stack candidate always exists");
            packer.place_at(Rect {
                t0: r.ts,
                t1,
                off,
                len: r.size,
            });
            prof.placements_tried += 1;
            offsets[i] = off;
        }
        prof.pack_micros = micros_since(t);

        let t = Instant::now();
        let plan = finish_plan(
            profile,
            StrategyChoice::Lookahead,
            StaticLayout {
                pool_size: packer.height(),
                request_offsets: offsets,
                phase_groups: 0,
                fused_groups: 0,
                layers: 0,
                gap_inserted: 0,
            },
        );
        prof.finish_micros = micros_since(t);
        (plan, prof)
    }
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

    #[test]
    fn registry_covers_every_concrete_choice() {
        let reg = registry();
        let choices: Vec<StrategyChoice> = reg.iter().map(|s| s.choice()).collect();
        assert_eq!(choices, StrategyChoice::CONCRETE.to_vec());
        assert!(strategy_for(StrategyChoice::Portfolio).is_none());
        for s in &reg {
            assert!(!s.description().is_empty());
            assert_eq!(s.name(), s.choice().name());
        }
    }

    #[test]
    fn every_strategy_is_sound_and_tagged() {
        let p = profile();
        let config = SynthConfig::default();
        for s in registry() {
            let plan = s.plan(&p, &config);
            plan.validate()
                .unwrap_or_else(|e| panic!("{}: unsound plan: {e}", s.name()));
            assert_eq!(plan.stats.strategy, s.choice(), "{}", s.name());
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
        let via_strategy = Baseline.plan(&p, &config);
        let via_core = stalloc_core::synthesize(&p, &config);
        assert_eq!(via_strategy, via_core);
    }

    #[test]
    fn strategies_are_deterministic() {
        let p = profile();
        let config = SynthConfig::default();
        for s in registry() {
            let a = s.plan(&p, &config).to_json();
            let b = s.plan(&p, &config).to_json();
            assert_eq!(a, b, "{} is nondeterministic", s.name());
        }
    }

    #[test]
    fn profiled_runs_place_identically_and_count_work() {
        let p = profile();
        let config = SynthConfig::default();
        let n = p.statics.len() as u64;
        for s in registry() {
            let (plan, prof) = s.plan_profiled(&p, &config);
            assert_eq!(
                plan,
                s.plan(&p, &config),
                "{}: profiled run diverged from plain run",
                s.name()
            );
            assert_eq!(
                prof.placements_tried,
                n,
                "{}: every static request is placed exactly once",
                s.name()
            );
            assert!(
                prof.candidates_evaluated >= prof.placements_tried,
                "{}: at least one candidate per placement",
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

    #[test]
    fn default_plan_profiled_wraps_uninstrumented_strategies() {
        struct Opaque;
        impl Strategy for Opaque {
            fn choice(&self) -> StrategyChoice {
                StrategyChoice::Baseline
            }
            fn description(&self) -> &'static str {
                "plan-only impl"
            }
            fn plan(&self, profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
                Baseline.plan(profile, config)
            }
        }
        let p = profile();
        let config = SynthConfig::default();
        let (plan, prof) = Opaque.plan_profiled(&p, &config);
        assert_eq!(plan, Baseline.plan(&p, &config));
        assert_eq!(prof.layout_micros, 0, "uninstrumented: all time in pack");
        assert_eq!(prof.candidates_evaluated, 0, "no counters invented");
    }
}
