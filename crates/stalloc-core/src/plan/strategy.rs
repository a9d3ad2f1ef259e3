//! The [`Strategy`] table: four layout functions behind one timed driver.
//!
//! A strategy owns only the *static* half of planning — producing a
//! [`StaticLayout`] (an absolute offset per profiled static request plus
//! a pool size) — so a row of the table is a pure function `(profile,
//! config) → StaticLayout` plus its name and description. The shared
//! tail (planned-allocation tables, §5.2 dynamic planning, stats) is
//! [`finish_plan`], called from the one driver,
//! [`Strategy::plan_profiled`], so every row's output is a complete,
//! comparable [`Plan`].
//!
//! Every row also accounts for itself: the driver returns the plan plus
//! a [`SolverProfile`] splitting the wall time into layout
//! (ordering/grouping), pack (gap scans and placements), and finish
//! (plan assembly) phases, with candidate/placement counters.

use std::time::Instant;

use crate::geometry::{best_fit_gap, LiveSweep, TimeAxis, TimeSpacePacker};
use crate::plan::occupancy::{OccupancyTree, Ranks};
use crate::plan::phase_group::{build_phase_groups, LocalPlan};
use crate::plan::profile::SolverProfile;
use crate::plan::{baseline_layout, finish_plan, Plan, StaticLayout, StrategyChoice, SynthConfig};
use crate::profiler::{ProfiledRequests, RequestEvent};

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
        description: "paper pipeline: phase-group, size layers, first-fit refine",
        layout: baseline,
    },
    Strategy {
        choice: StrategyChoice::BestFit,
        description: "size-descending best-fit over the time x address plane",
        layout: bestfit,
    },
    Strategy {
        choice: StrategyChoice::TmpOrder,
        description: "paper grouping, cohorts placed in TMP-weight order",
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

/// `patch_plan`'s order-then-place sweep (and the test oracles'): visits
/// `order`, asks `choose` for each request's offset given what the packer
/// holds so far, and commits it. `packer` and `offsets` carry whatever is
/// already placed (the surviving placements, for a patch; nothing, for a
/// cold oracle).
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

/// The one accounting rule: a placement that looked at `seen` candidate
/// gaps committed one of them and passed over the rest.
fn tally(prof: &mut SolverProfile, seen: u64) {
    prof.candidates_evaluated += seen;
    prof.placements_rejected += seen - 1;
    prof.placements_tried += 1;
}

/// A cold row's pack phase over an [`OccupancyTree`] of the profile's
/// [`TimeAxis`]: visits `order`, asks `choose` for each request's offset
/// given what the tree holds so far and the request's ranked window, and
/// commits it, timed and tallied. `choose` returns the offset it picked
/// and how many candidate gaps it looked at to pick it.
fn pack_by_tree(
    reqs: &[RequestEvent],
    order: &[usize],
    prof: &mut SolverProfile,
    mut choose: impl FnMut(&mut OccupancyTree, Ranks, &RequestEvent) -> (u64, u64),
) -> StaticLayout {
    let t = Instant::now();
    let axis = TimeAxis::new(reqs);
    let mut tree = OccupancyTree::new(axis.ranks());
    let mut offsets = vec![0; reqs.len()];
    for &i in order {
        let r = &reqs[i];
        // Each request is placed once, so ranked once.
        let w = (axis.rank(r.ts), axis.rank(r.window_end()));
        let (off, seen) = choose(&mut tree, w, r);
        tally(prof, seen);
        tree.place(w, off, r.size);
        offsets[i] = off;
    }
    prof.pack_micros = micros_since(t);
    StaticLayout::placed(offsets, tree.height())
}

/// The pack phase the cold rows had before [`pack_by_tree`]: the sweep
/// from an empty packer, timed and tallied, kept for the oracles.
#[cfg(test)]
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
            tally(prof, seen);
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

/// `baseline`: the paper's §5.1 pipeline — HomoPhase grouping, HomoSize
/// memory-layers with gap insertion, and the global first-fit refinement
/// sweep. The only row the ablation switches steer.
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

    let mut gaps = Vec::new();
    pack_by_tree(reqs, &order, prof, |tree, w, r| {
        // `find_best_fit(.., u64::MAX)` over an explicit gap list, so
        // the candidates can be counted.
        tree.free_gaps(w, r.size, &mut gaps);
        let &(top, _) = gaps.last().expect("the top is always a gap");
        // Interior gaps always fit: `None` means `r.size` bytes at the
        // top pass the end of the address space, which `place` refuses.
        let off = best_fit_gap(&gaps, r.size, u64::MAX).unwrap_or(top);
        (off, gaps.len() as u64)
    })
}

/// `tmp-order`: a weight-ordered variant of the paper heuristic. The
/// HomoPhase grouping runs as in §5.1, but instead of HomoSize classes
/// the cohorts are placed directly into one global packer in descending
/// time-memory-product *weight* order (size × lifetime, the denominator
/// of Eq. 2) — the cohorts that dominate the space-time volume claim the
/// bottom of the pool, and everything lighter first-fits around them.
fn tmp_order(
    profile: &ProfiledRequests,
    _config: &SynthConfig,
    prof: &mut SolverProfile,
) -> StaticLayout {
    let reqs = &profile.statics;
    let t = Instant::now();
    let plans = build_phase_groups(reqs);
    let order = tmp_weight_order(reqs, &plans);
    prof.layout_micros = micros_since(t);

    // First-fit takes the first gap that fits: one candidate accepted
    // per placement, nothing scanned and discarded that this accounting
    // can see.
    let layout = pack_by_tree(reqs, &order, prof, |tree, w, r| {
        (tree.first_fit(w, r.size), 1)
    });
    StaticLayout {
        phase_groups: plans.len(),
        ..layout
    }
}

/// `tmp-order`'s placement order: the cohorts by descending weight,
/// each one's members in arrival order.
fn tmp_weight_order(reqs: &[RequestEvent], plans: &[LocalPlan]) -> Vec<usize> {
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
    order
}

/// When each address was last freed, for `lookahead`'s idle-gap score:
/// sorted `(start, tick)` breakpoints, each tick holding from its start
/// up to the next breakpoint (tick 0: never freed). The run is canonical
/// — the first breakpoint is at address 0 and neighbours differ in tick —
/// and edited in place: an assignment replaces the breakpoints inside its
/// range with at most two.
struct FreedAt {
    points: Vec<(u64, u64)>,
}

impl FreedAt {
    fn new() -> Self {
        FreedAt {
            points: vec![(0, 0)],
        }
    }

    /// Sets every address in `[start, end)` to `tick`.
    fn assign(&mut self, start: u64, end: u64, tick: u64) {
        if start >= end {
            return;
        }
        let points = &mut self.points;
        let i = points.partition_point(|&(s, _)| s < start);
        let mut j = points.partition_point(|&(s, _)| s <= end);
        // The ticks just below the range and at its end, before the edit.
        let below = i.checked_sub(1).map(|k| points[k].1);
        let at_end = points[j - 1].1;
        let new = [
            (below != Some(tick)).then_some((start, tick)),
            (at_end != tick).then_some((end, at_end)),
        ];
        let mut k = i;
        for point in new.into_iter().flatten() {
            if k < j {
                points[k] = point;
            } else {
                points.insert(k, point);
                j += 1;
            }
            k += 1;
        }
        points.drain(k..j);
    }

    /// The latest tick over `[start, end)`.
    fn max(&self, start: u64, end: u64) -> u64 {
        let holding = self.points.partition_point(|&(s, _)| s <= start) - 1;
        self.points[holding..]
            .iter()
            .take_while(|&&(s, _)| s < end)
            .map(|&(_, tick)| tick)
            .max()
            .unwrap_or(0)
    }
}

/// `lookahead`: a temporal-lookahead interval packer. Requests are swept
/// in arrival order (longest-lived first among simultaneous arrivals, as
/// in interval-graph coloring) and each one is offered every free gap in
/// its time window; the chosen gap is the one whose previous occupant
/// freed *closest before* the request arrives — the request slots in
/// right behind its temporal predecessor, generalizing Algorithm 1's
/// preferred-layer rule to request granularity.
///
/// In arrival order a placed request overlaps the window iff it is still
/// live, so the window's gaps are a [`LiveSweep`]'s, and the sweep frees
/// requests in non-decreasing tick order: the last tick it assigns an
/// address is the latest free of any request that covered it.
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

    let t = Instant::now();
    let mut sweep = LiveSweep::new();
    let mut freed_at = FreedAt::new();
    let mut offsets = vec![0; reqs.len()];
    for i in order {
        let r = &reqs[i];
        sweep.advance_to(r.ts, |t1, off, len| freed_at.assign(off, off + len, t1));
        // A gap's idle time at `r.ts`: smaller = snugger. The top may
        // not hold `r.size` bytes before the end of the address space;
        // `place` refuses it if it wins.
        let mut seen = 0;
        let off = sweep
            .gaps(r.size)
            .inspect(|_| seen += 1)
            .min_by_key(|&off| (r.ts - freed_at.max(off, off.saturating_add(r.size)), off))
            .expect("the top is always a candidate");
        tally(prof, seen);
        sweep.place(off, r.size, r.window_end());
        offsets[i] = off;
    }
    prof.pack_micros = micros_since(t);
    StaticLayout::placed(offsets, sweep.height())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        crate::profile_trace(&trace, 1).unwrap()
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
    fn strategies_are_deterministic() {
        let p = profile();
        let config = SynthConfig::default();
        for s in registry() {
            let a = s.plan_profiled(&p, &config).0;
            let b = s.plan_profiled(&p, &config).0;
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

    /// The `lookahead` this module shipped before the live-set sweep:
    /// every request through one pool-wide `TimeSpacePacker`, each
    /// candidate scored by the latest free tick of any placed rect over
    /// its range — here a brute-force max over the packer's rects, which
    /// replaces the packer query deleted with it. Kept as the oracle
    /// [`lookahead`] is tested against: offsets, pool and counters.
    fn lookahead_by_packer(profile: &ProfiledRequests) -> (Vec<u64>, u64, SolverProfile) {
        let reqs = &profile.statics;
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].te, i));
        let mut prof = SolverProfile::default();
        let layout = pack_cold(reqs, &order, &mut prof, |packer, r, t1| {
            let last_freed_by = |off: u64| {
                let end = off + r.size;
                packer
                    .rects()
                    .take_while(|p| p.off < end)
                    .filter(|p| off < p.off + p.len && p.t1 <= r.ts)
                    .map(|p| p.t1)
                    .max()
                    .unwrap_or(0)
            };
            let gaps = packer.free_gaps(r.ts, t1, r.size);
            let seen = gaps.len() as u64;
            let off = gaps
                .into_iter()
                .map(|(off, _)| off)
                .min_by_key(|&off| (r.ts - last_freed_by(off), off))
                .expect("top-of-stack candidate always exists");
            (off, seen)
        });
        (layout.request_offsets, layout.pool_size, prof)
    }

    /// The `bestfit` this module shipped before the occupancy tree: every
    /// gap list from one pool-wide `TimeSpacePacker`. Kept as the oracle
    /// [`bestfit`] is tested against: offsets, pool and counters.
    fn bestfit_by_packer(profile: &ProfiledRequests) -> (Vec<u64>, u64, SolverProfile) {
        let reqs = &profile.statics;
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        sort_largest_first(reqs, &mut order);
        let mut prof = SolverProfile::default();
        let layout = pack_cold(reqs, &order, &mut prof, |packer, r, t1| {
            let gaps = packer.free_gaps(r.ts, t1, r.size);
            let off = best_fit_gap(&gaps, r.size, u64::MAX)
                .expect("top-of-stack candidate always exists");
            (off, gaps.len() as u64)
        });
        (layout.request_offsets, layout.pool_size, prof)
    }

    /// The `tmp-order` this module shipped before the occupancy tree:
    /// every first fit from one pool-wide `TimeSpacePacker`. Kept as the
    /// oracle [`tmp_order`] is tested against: offsets, pool and counters.
    fn tmp_order_by_packer(profile: &ProfiledRequests) -> (Vec<u64>, u64, SolverProfile) {
        let reqs = &profile.statics;
        let order = tmp_weight_order(reqs, &build_phase_groups(reqs));
        let mut prof = SolverProfile::default();
        let layout = pack_cold(reqs, &order, &mut prof, |packer, r, t1| {
            let off = packer
                .find_first_fit(r.ts, t1, r.size, u64::MAX)
                .expect("unbounded fit always succeeds");
            (off, 1)
        });
        (layout.request_offsets, layout.pool_size, prof)
    }

    /// A row's old body: offsets, pool and counters.
    type Oracle = fn(&ProfiledRequests) -> (Vec<u64>, u64, SolverProfile);

    /// `(candidates_evaluated, placements_tried, placements_rejected)`.
    fn counters(prof: &SolverProfile) -> (u64, u64, u64) {
        (
            prof.candidates_evaluated,
            prof.placements_tried,
            prof.placements_rejected,
        )
    }

    /// The row named `choice` and its oracle on one profile: equal
    /// offsets, pool and counters.
    fn assert_row_matches(
        choice: StrategyChoice,
        oracle: Oracle,
        profile: &ProfiledRequests,
    ) -> Result<(), String> {
        let mut prof = SolverProfile::default();
        let row = strategy_for(choice).expect("concrete");
        let layout = (row.layout)(profile, &SynthConfig::default(), &mut prof);
        let (want_offsets, want_pool, want_prof) = oracle(profile);
        prop_assert_eq!(layout.request_offsets, want_offsets, "{}", choice);
        prop_assert_eq!(layout.pool_size, want_pool, "{}", choice);
        prop_assert_eq!(counters(&prof), counters(&want_prof), "{}", choice);
        Ok(())
    }

    /// Both `lookahead`s on one profile: equal offsets, pool and counters.
    fn assert_lookaheads_agree(profile: &ProfiledRequests) -> Result<(), String> {
        assert_row_matches(StrategyChoice::Lookahead, lookahead_by_packer, profile)
    }

    /// `bestfit` and `tmp-order` against their packer oracles.
    fn assert_tree_rows_agree(profile: &ProfiledRequests) -> Result<(), String> {
        assert_row_matches(StrategyChoice::BestFit, bestfit_by_packer, profile)?;
        assert_row_matches(StrategyChoice::TmpOrder, tmp_order_by_packer, profile)
    }

    fn req(size: u64, ts: u64, te: u64) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps: 1,
            pe: 2,
            dynamic: false,
            ls: None,
            le: None,
        }
    }

    fn statics(statics: Vec<RequestEvent>) -> ProfiledRequests {
        ProfiledRequests {
            statics,
            ..ProfiledRequests::default()
        }
    }

    /// A random profile as plain integers, so the vendored proptest can
    /// shrink it: free-form requests `(slot, dur, size)`, a
    /// virtual-pipeline family `(microbatches, chunks)` and the tick
    /// mapping `(scale, shift)`.
    type Spec = (Vec<(u64, u64, u64)>, (u64, u64), (u8, u8));

    fn spec() -> impl proptest::strategy::Strategy<Value = Spec> {
        (
            prop::collection::vec((0u64..24, 0u64..12, 1u64..9), 0..90),
            (0u64..5, 1u64..4),
            (0u8..2, 0u8..2),
        )
    }

    /// Requests of a [`Spec`]. Sizes run from 1 byte up; few slots and
    /// durations, so start ticks repeat and simultaneous arrivals share
    /// a free tick (the order's tie-breaks); a `dur` below 3 gives `te <=
    /// ts`; the pipeline family allocates a microbatch's chunks in order
    /// and frees them in reverse, interleaved with the next microbatch;
    /// `scale`/`shift` stretch the ticks and lift them past 2^40 without
    /// changing their order.
    fn requests((free_form, (microbatches, chunks), (scale, shift)): &Spec) -> ProfiledRequests {
        let tick = |t: u64| (t << (33 * u32::from(*scale))) + (u64::from(*shift) << 40);
        let mut reqs: Vec<RequestEvent> = free_form
            .iter()
            .map(|&(slot, dur, size)| req(1 + (size - 1) * 512, tick(slot + 3), tick(slot + dur)))
            .collect();
        for m in 0..*microbatches {
            for c in 0..*chunks {
                let (ts, te) = (2 * (m * chunks + c), 30 + 2 * (m * chunks + chunks - 1 - c));
                reqs.push(req(4096, tick(ts), tick(te)));
            }
        }
        statics(reqs)
    }

    /// The benchmark's five big profiles: GPT-2 345M VR, Llama2-7B VR,
    /// Qwen2.5-14B V, Qwen1.5-MoE R and VR (`harness::configs` shapes).
    fn zoo() -> Vec<(&'static str, ProfiledRequests)> {
        let r = OptimConfig::r;
        let moe = |parallel: ParallelConfig| {
            TrainJob::new(ModelSpec::qwen15_moe_a27b(), parallel.with_ep(4), r())
                .with_mbs(8)
                .with_seq(2048)
                .with_microbatches(8)
        };
        let jobs = vec![
            (
                "gpt2-345m-VR",
                TrainJob::new(
                    ModelSpec::gpt2_345m(),
                    ParallelConfig::new(1, 4, 2).with_vpp(2),
                    r(),
                )
                .with_mbs(32)
                .with_seq(1024)
                .with_microbatches(16),
            ),
            (
                "llama2-7b-VR",
                TrainJob::new(
                    ModelSpec::llama2_7b(),
                    ParallelConfig::new(4, 2, 1).with_vpp(2),
                    r(),
                )
                .with_mbs(4)
                .with_seq(4096)
                .with_microbatches(8),
            ),
            (
                "qwen2.5-14b-V",
                TrainJob::new(
                    ModelSpec::qwen25_14b(),
                    ParallelConfig::new(2, 2, 4).with_vpp(3),
                    OptimConfig::naive(),
                )
                .with_mbs(2)
                .with_seq(4096)
                .with_microbatches(12),
            ),
            ("qwen1.5-moe-R", moe(ParallelConfig::new(2, 2, 2))),
            (
                "qwen1.5-moe-VR",
                moe(ParallelConfig::new(2, 2, 2).with_vpp(2)),
            ),
        ];
        jobs.into_iter()
            .map(|(name, job)| {
                let trace = job
                    .with_iterations(2)
                    .build_trace()
                    .expect("zoo job builds");
                (name, crate::profile_trace(&trace, 1).expect("profiles"))
            })
            .collect()
    }

    proptest! {
        /// The live-set `lookahead` places every request exactly where
        /// the packer-based one did, and counts the same candidates.
        #[test]
        fn live_set_lookahead_matches_packer_lookahead(spec in spec()) {
            assert_lookaheads_agree(&requests(&spec))?;
        }

        /// `bestfit` and `tmp-order` over the occupancy tree place every
        /// request exactly where their packer-based forms did, and count
        /// the same candidates.
        #[test]
        fn tree_rows_match_packer_rows(spec in spec()) {
            assert_tree_rows_agree(&requests(&spec))?;
        }

        /// [`FreedAt`] against one tick per address: after every
        /// assignment, the latest tick over ranges of every length from
        /// every address equals the array's, and the run is canonical.
        /// Few ticks and a small universe, so ranges nest, abut and
        /// repeat their neighbours' ticks.
        #[test]
        fn freed_at_matches_a_per_address_array(
            ops in prop::collection::vec((0u64..40, 0u64..16, 0u64..5), 1..60),
        ) {
            const U: u64 = 64;
            let mut model = [0u64; U as usize];
            let mut map = FreedAt::new();
            for (start, len, tick) in ops {
                let end = start + len;
                map.assign(start, end, tick);
                model[start as usize..end as usize].fill(tick);
                let p = &map.points;
                prop_assert_eq!(p[0].0, 0);
                prop_assert!(p.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1));
                for a in 0..U {
                    for b in [a + 1, a + 3, a + 9, U, u64::MAX] {
                        let cells = &model[a as usize..b.min(U) as usize];
                        let want = cells.iter().copied().max().unwrap_or(0);
                        prop_assert_eq!(map.max(a, b), want, "[{}, {})", a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn freed_at_assigns_adjacent_and_nested_ranges() {
        let mut map = FreedAt::new();
        map.assign(10, 20, 5);
        map.assign(20, 30, 5); // adjacent, same tick: one run
        assert_eq!(map.points, [(0, 0), (10, 5), (30, 0)]);
        map.assign(15, 25, 7); // nested
        assert_eq!(map.points, [(0, 0), (10, 5), (15, 7), (25, 5), (30, 0)]);
        assert_eq!(map.max(0, 15), 5);
        assert_eq!(map.max(24, 26), 7);
        assert_eq!(map.max(25, 40), 5);
        assert_eq!(map.max(30, u64::MAX), 0);
        map.assign(0, 40, 9); // covers everything placed
        assert_eq!(map.points, [(0, 9), (40, 0)]);
        map.assign(40, u64::MAX, 9); // the rest of the address space
        assert_eq!(map.points, [(0, 9), (u64::MAX, 0)]);
        map.assign(3, 3, 1); // an empty range changes nothing
        assert_eq!(map.points, [(0, 9), (u64::MAX, 0)]);
    }

    #[test]
    fn live_set_lookahead_matches_packer_lookahead_on_the_zoo() {
        for (name, profile) in zoo() {
            assert!(profile.statics.len() > 3_800, "{name}");
            assert_lookaheads_agree(&profile).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn tree_rows_match_packer_rows_on_the_zoo() {
        for (name, profile) in zoo() {
            assert!(profile.statics.len() > 3_800, "{name}");
            assert_tree_rows_agree(&profile).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// Two statics of 2^63 + 1 bytes live together do not fit in a 64-bit
    /// address space. The row must fail — and the race drop it — rather
    /// than wrap the second placement's end into a pool smaller than the
    /// placement.
    #[test]
    fn lookahead_refuses_a_placement_past_the_address_space() {
        let big = (1 << 63) + 1;
        let profile = statics(vec![req(big, 0, 10), req(big, 0, 10)]);
        let row = strategy_for(StrategyChoice::Lookahead).unwrap();
        let planned =
            std::panic::catch_unwind(|| row.plan_profiled(&profile, &SynthConfig::default()));
        let message = planned.expect_err("the second placement wraps");
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("not contained"), "{message}");
    }

    /// The same two statics for the rows that place through the occupancy
    /// tree. Same-phase transients, so `tmp-order`'s grouping leaves them
    /// in cohorts of one and the tree is what refuses the second.
    #[test]
    fn bestfit_and_tmp_order_refuse_a_placement_past_the_address_space() {
        let big = req((1 << 63) + 1, 0, 10);
        let transient = RequestEvent { pe: big.ps, ..big };
        let profile = statics(vec![transient, transient]);
        for choice in [StrategyChoice::BestFit, StrategyChoice::TmpOrder] {
            let row = strategy_for(choice).unwrap();
            let planned =
                std::panic::catch_unwind(|| row.plan_profiled(&profile, &SynthConfig::default()));
            let message = planned.expect_err("the second placement wraps");
            let message = message.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("not contained"), "{choice}: {message}");
        }
    }
}
