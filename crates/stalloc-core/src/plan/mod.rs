//! The Plan Synthesizer (paper §5): turns profiled requests into an
//! ahead-of-time allocation plan.
//!
//! Pipeline: HomoPhase grouping → HomoSize grouping with memory-layer
//! construction and gap insertion → absolute address assignment → Dynamic
//! Reusable Space extraction. The paper's TMP-scored fusion of HomoPhase
//! groups is not implemented (see [`phase_group`]).
//!
//! That pipeline is one row, `baseline`, of a [`strategy`] table of
//! static layout functions; [`synthesize`] runs the row
//! [`SynthConfig::strategy`] names, or races the whole table
//! ([`portfolio`]) for [`StrategyChoice::Portfolio`] (ROAM and "Memory
//! Planning for Deep Neural Networks" both report workload-dependent
//! winners).

pub mod dynamic;
pub mod global;
mod occupancy;
pub mod phase_group;
pub mod portfolio;
pub mod profile;
pub mod strategy;

use serde::{Deserialize, Serialize};

use crate::geometry::{first_conflict, window_end, Rect};
use crate::profiler::ProfiledRequests;
pub use dynamic::{DynGroup, DynamicPlan};
pub use portfolio::{CandidateReport, Portfolio, PortfolioOutcome};
pub use profile::SolverProfile;
pub use strategy::{registry, strategy_for, Strategy};

/// One planned static allocation: the runtime serves the k-th static
/// request of the (init sequence | iteration sequence) at this offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedAlloc {
    /// Expected request size (rounded to the plan alignment).
    pub size: u64,
    /// Absolute offset within the static pool.
    pub offset: u64,
    /// Allocation tick in the profiled window (diagnostics/validation).
    pub ts: u64,
    /// Free tick in the profiled window.
    pub te: u64,
}

impl PlannedAlloc {
    /// Exclusive end of the decision's occupancy window
    /// `[ts, max(te, ts + 1))` — see [`window_end`].
    pub fn window_end(&self) -> u64 {
        window_end(self.ts, self.te)
    }

    /// The rectangle the decision occupies.
    pub fn rect(&self) -> Rect {
        Rect {
            t0: self.ts,
            t1: self.window_end(),
            off: self.offset,
            len: self.size,
        }
    }
}

/// Which packing strategy produced (or should produce) a plan.
///
/// It travels everywhere a [`SynthConfig`] does — the job fingerprint,
/// the wire protocol, and the binary plan codec all carry it — and
/// [`synthesize`] dispatches on it: a concrete choice runs its
/// [`strategy`] row, `Portfolio` races them all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// The paper pipeline: HomoPhase grouping → HomoSize layering with
    /// gap insertion, plus the first-fit refinement sweep.
    #[default]
    Baseline,
    /// Size-descending best-fit over the time × address plane.
    BestFit,
    /// Weight-ordered variant of the paper heuristic: HomoPhase cohorts
    /// are placed in descending time-memory-product weight order.
    TmpOrder,
    /// Temporal-lookahead interval packer: arrival-order sweep that
    /// prefers gaps whose previous occupant freed closest before the
    /// request arrives.
    Lookahead,
    /// Race every concrete strategy and keep the best plan.
    Portfolio,
}

impl StrategyChoice {
    /// Every selectable choice, concrete strategies first.
    pub const ALL: [StrategyChoice; 5] = [
        StrategyChoice::Baseline,
        StrategyChoice::BestFit,
        StrategyChoice::TmpOrder,
        StrategyChoice::Lookahead,
        StrategyChoice::Portfolio,
    ];

    /// The concrete (directly runnable) strategies the portfolio races.
    pub const CONCRETE: [StrategyChoice; 4] = [
        StrategyChoice::Baseline,
        StrategyChoice::BestFit,
        StrategyChoice::TmpOrder,
        StrategyChoice::Lookahead,
    ];

    /// Stable command-line / display name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyChoice::Baseline => "baseline",
            StrategyChoice::BestFit => "bestfit",
            StrategyChoice::TmpOrder => "tmp-order",
            StrategyChoice::Lookahead => "lookahead",
            StrategyChoice::Portfolio => "portfolio",
        }
    }

    /// Parses a [`Self::name`] back into a choice.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Stable small integer for the binary plan codec and fingerprints.
    pub fn index(self) -> u8 {
        match self {
            StrategyChoice::Baseline => 0,
            StrategyChoice::BestFit => 1,
            StrategyChoice::TmpOrder => 2,
            StrategyChoice::Lookahead => 3,
            StrategyChoice::Portfolio => 4,
        }
    }

    /// Inverse of [`Self::index`].
    pub fn from_index(i: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.index() == i)
    }
}

impl std::fmt::Display for StrategyChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Synthesis statistics (reported in experiment tables and Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// The strategy that produced this plan (for a portfolio run: the
    /// winning concrete strategy, not `Portfolio`).
    pub strategy: StrategyChoice,
    /// Static requests planned (persistent + iteration).
    pub static_requests: usize,
    /// Dynamic requests profiled.
    pub dynamic_requests: usize,
    /// HomoPhase groups built.
    pub phase_groups: usize,
    /// A copy of `phase_groups` (no group fusion runs), kept in the
    /// struct and in `STPL` v2 until the next plan format change.
    pub fused_groups: usize,
    /// Memory-layers created by global planning.
    pub layers: usize,
    /// Members placed by gap insertion.
    pub gap_inserted: usize,
    /// HomoLayer (dynamic) groups.
    pub homolayer_groups: usize,
    /// Peak concurrent static demand (lower bound on the pool).
    pub peak_static_demand: u64,
    /// Final pool size.
    pub pool_size: u64,
}

impl PlanStats {
    /// Planning efficiency: peak demand over pool size (1.0 = no internal
    /// bubbles at the peak instant).
    pub fn packing_efficiency(&self) -> f64 {
        if self.pool_size == 0 {
            1.0
        } else {
            self.peak_static_demand as f64 / self.pool_size as f64
        }
    }
}

/// The complete ahead-of-time plan (paper Fig. 5 "Ahead-of-Time Plan").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan {
    /// Static pool size in bytes.
    pub pool_size: u64,
    /// Planned allocations for the init (persistent) sequence, in arrival
    /// order.
    pub init_allocs: Vec<PlannedAlloc>,
    /// Planned allocations for each iteration's static sequence, in arrival
    /// order.
    pub iter_allocs: Vec<PlannedAlloc>,
    /// The dynamic half: HomoLayer groups and reusable space.
    pub dynamic: DynamicPlan,
    /// Synthesis statistics.
    pub stats: PlanStats,
}

impl Plan {
    /// Serializes the plan to JSON (the standalone-tool workflow of §8).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plan serializes")
    }

    /// Deserializes a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Validates the §5.1 soundness constraint: every decision lies
    /// inside the pool, and no two decisions overlap in both lifetime
    /// and address range. A decision is live over its
    /// [window](PlannedAlloc::window_end), and one of size 0 occupies
    /// nothing. Every group the dynamic half's arrival sequences name
    /// exists (`u32::MAX` names none): the runtime indexes the groups
    /// with them.
    ///
    /// Total: a `Plan` can come off the wire or from a foreign file, so
    /// any field values (unsorted ticks, wrapping offsets, a lifetime
    /// that cannot be represented) yield `Err`, never a panic. One pass
    /// in allocation order ([`first_conflict`]), cheap enough to run at
    /// every trust boundary.
    pub fn validate(&self) -> Result<(), String> {
        let groups = self.dynamic.groups.len();
        for (key, seq) in &self.dynamic.instance_seq {
            if let Some(g) = seq.iter().find(|&&g| g != u32::MAX && g as usize >= groups) {
                return Err(format!(
                    "dynamic arrivals of module {} phase {} name group {g}, but the plan has {groups} groups",
                    key.module.0, key.phase
                ));
            }
        }
        let decisions = || self.init_allocs.iter().chain(&self.iter_allocs);
        for d in decisions() {
            // Checked: plans can arrive from foreign files (the binary
            // codec's deltas wrap), so offset + size must not overflow
            // past the screen.
            let fits = d
                .offset
                .checked_add(d.size)
                .is_some_and(|end| end <= self.pool_size);
            if !fits {
                return Err(format!(
                    "decision at {} (+{}) exceeds pool {}",
                    d.offset, d.size, self.pool_size
                ));
            }
            if d.ts == u64::MAX {
                return Err(format!(
                    "decision at {} (+{}) is allocated at tick {}: no lifetime can follow",
                    d.offset, d.size, d.ts
                ));
            }
        }
        // Neither `ts + 1` nor `off + len` can wrap past the loop above.
        match first_conflict(decisions().map(PlannedAlloc::rect)) {
            Some(r) => Err(format!(
                "overlap: decision [{}, {}) x ticks [{}, {}) intersects live space",
                r.off,
                r.off + r.len,
                r.t0,
                r.t1
            )),
            None => Ok(()),
        }
    }
}

/// Version of the synthesis *algorithm*: bump whenever a change makes
/// [`synthesize`] produce a different plan for identical inputs, so that
/// fingerprint-keyed plan caches never serve plans computed by an older
/// planner (the fingerprint mixes this in).
pub const SYNTH_ALGO_VERSION: u32 = 1;

/// Configuration of the synthesizer (ablation switches). Serializable so
/// it can travel in [`wire`](crate::wire) planning requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Enable gap insertion in global planning (paper behaviour: on).
    pub enable_gap_insertion: bool,
    /// Process size classes ascending instead of descending (ablation).
    pub ascending_sizes: bool,
    /// Which packing strategy [`synthesize`] runs (part of the job
    /// fingerprint).
    pub strategy: StrategyChoice,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            enable_gap_insertion: true,
            ascending_sizes: false,
            strategy: StrategyChoice::Baseline,
        }
    }
}

/// The static half of a plan, as produced by one packing strategy:
/// an absolute offset per profiled static request plus layout
/// diagnostics. [`finish_plan`] turns it into a full [`Plan`].
#[derive(Debug, Clone)]
pub struct StaticLayout {
    /// Absolute offset of every static request, indexed like
    /// `profile.statics`.
    pub request_offsets: Vec<u64>,
    /// Static pool size (must cover every `offset + size`).
    pub pool_size: u64,
    /// HomoPhase groups built (0 for strategies that skip grouping).
    pub phase_groups: usize,
    /// Memory-layers created (0 for strategies without layering).
    pub layers: usize,
    /// Members placed by gap insertion (0 for strategies without it).
    pub gap_inserted: usize,
}

impl StaticLayout {
    /// The layout of a plain packer sweep: offsets and the pool they
    /// reach, with the grouping pipeline's three diagnostics at 0.
    pub fn placed(request_offsets: Vec<u64>, pool_size: u64) -> Self {
        StaticLayout {
            request_offsets,
            pool_size,
            phase_groups: 0,
            layers: 0,
            gap_inserted: 0,
        }
    }
}

/// Runs the baseline (paper §5.1) static pipeline: HomoPhase grouping →
/// HomoSize layering with gap insertion, then the global first-fit
/// refinement sweep (kept when it packs tighter).
pub fn baseline_layout(profile: &ProfiledRequests, config: &SynthConfig) -> StaticLayout {
    let plans = phase_group::build_phase_groups(&profile.statics);

    // The first-fit refinement sweep replaces the group layout when it
    // packs tighter.
    let mut layout = global::assemble(&plans, &profile.statics, config);
    let (refined, refined_pool) = global::refine_first_fit(&profile.statics);
    if refined_pool < layout.pool_size {
        (layout.request_offsets, layout.pool_size) = (refined, refined_pool);
    }
    StaticLayout {
        phase_groups: plans.len(),
        ..layout
    }
}

/// Completes a plan from a strategy's static layout: builds the planned
/// allocation tables, runs dynamic planning (§5.2) against the placed
/// statics, and fills in the stats (tagged with `strategy`, the concrete
/// strategy that produced `layout`).
pub fn finish_plan(
    profile: &ProfiledRequests,
    strategy: StrategyChoice,
    layout: StaticLayout,
) -> Plan {
    let offsets = &layout.request_offsets;
    debug_assert_eq!(offsets.len(), profile.statics.len());

    let planned = profile
        .statics
        .iter()
        .zip(offsets)
        .map(|(r, &offset)| PlannedAlloc {
            size: r.size,
            offset,
            ts: r.ts,
            te: r.te,
        });
    // Dynamic planning (§5.2) around the same decisions, as rectangles.
    let placed = planned.clone().map(|a| a.rect());
    let dynamic = dynamic::locate_reusable_space(profile, placed, layout.pool_size);
    let init_allocs: Vec<PlannedAlloc> = planned.clone().take(profile.init_count).collect();
    let iter_allocs: Vec<PlannedAlloc> = planned.skip(profile.init_count).collect();

    let stats = PlanStats {
        strategy,
        static_requests: profile.statics.len(),
        dynamic_requests: profile.dynamics.len(),
        phase_groups: layout.phase_groups,
        fused_groups: layout.phase_groups,
        layers: layout.layers,
        gap_inserted: layout.gap_inserted,
        homolayer_groups: dynamic.groups.len(),
        peak_static_demand: profile.peak_static_demand(),
        pool_size: layout.pool_size,
    };

    Plan {
        pool_size: layout.pool_size,
        init_allocs,
        iter_allocs,
        dynamic,
        stats,
    }
}

/// Runs the full plan synthesis on a profile with the strategy
/// [`SynthConfig::strategy`] names: a concrete strategy runs its row on
/// the caller's thread, and [`Portfolio`](StrategyChoice::Portfolio)
/// races the whole [`registry`] and returns the winner. A candidate
/// must pass [`Plan::validate`] to win; if none does, the baseline
/// pipeline answers. The job fingerprint hashes the strategy, so the
/// plan is safe to store content-addressed.
pub fn synthesize(profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
    synthesize_reported(profile, config).0
}

/// Like [`synthesize`], but also returns the per-strategy
/// [`CandidateReport`]s behind the plan: a portfolio run reports every
/// racer; a concrete strategy is a race of one and reports itself as
/// the sole (winning) candidate. The serving path aggregates these into
/// the `Metrics` verb's `solver` section.
pub fn synthesize_reported(
    profile: &ProfiledRequests,
    config: &SynthConfig,
) -> (Plan, Vec<CandidateReport>) {
    let rows = match strategy_for(config.strategy) {
        Some(row) => std::slice::from_ref(row),
        None => registry().as_slice(),
    };
    let outcome = portfolio::race(rows, profile, config);
    (outcome.winner, outcome.candidates)
}
