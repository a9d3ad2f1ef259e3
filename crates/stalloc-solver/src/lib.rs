//! `stalloc-solver`: a multi-strategy plan-synthesis portfolio.
//!
//! Memory planning is a search problem: different request mixes reward
//! different packing orders and placement rules (ROAM and "Memory
//! Planning for Deep Neural Networks" both report workload-dependent
//! winners). `stalloc-core` supplies one pipeline — the paper's §5.1
//! heuristic — as the [`StaticLayout`](stalloc_core::StaticLayout)
//! producer behind `synthesize`. This crate generalizes that into:
//!
//! * a [`Strategy`] table of four layout functions ([`registry`]): the
//!   paper pipeline (`baseline`), a size-descending best-fit
//!   (`bestfit`), a TMP-weight-ordered variant of the paper heuristic
//!   (`tmp-order`), and a temporal-lookahead interval packer
//!   (`lookahead`) — each a pure `(profile, config) → StaticLayout`
//!   behind the one timed driver, [`Strategy::plan_profiled`];
//! * a [`Portfolio`] runner that races the table on scoped
//!   `std::thread` workers, validates every candidate, and
//!   deterministically keeps the best plan;
//! * [`synthesize_strategy`] — the strategy-aware superset of
//!   `stalloc_core::synthesize` that every cache/server/CLI path routes
//!   through, dispatching on
//!   [`SynthConfig::strategy`](stalloc_core::SynthConfig);
//! * [`patch_plan`] — incremental re-planning of a small profile edit.
//!
//! Every strategy is required to produce a [`Plan`] that passes
//! [`Plan::validate`] (no two decisions overlapping in both lifetime and
//! address range) — the race re-checks, in one place, and discards any
//! candidate that does not.
//!
//! # Example
//!
//! ```
//! use stalloc_core::{profile_trace, StrategyChoice, SynthConfig};
//! use stalloc_solver::{synthesize_strategy, Portfolio};
//! use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
//!
//! let trace = TrainJob::new(
//!     ModelSpec::gpt2_345m(),
//!     ParallelConfig::new(1, 2, 1),
//!     OptimConfig::naive(),
//! )
//! .with_mbs(1)
//! .with_seq(256)
//! .with_microbatches(2)
//! .build_trace()
//! .unwrap();
//! let profile = profile_trace(&trace, 1).unwrap();
//!
//! let config = SynthConfig {
//!     strategy: StrategyChoice::Portfolio,
//!     ..SynthConfig::default()
//! };
//! let outcome = Portfolio::standard().run(&profile, &config);
//! assert!(outcome.winner.validate().is_ok());
//! // The portfolio can never lose to its own baseline member.
//! let baseline = synthesize_strategy(
//!     &profile,
//!     &SynthConfig::default(),
//! );
//! assert!(outcome.winner.pool_size <= baseline.pool_size);
//! ```

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod occupancy;
pub mod portfolio;
pub mod profile;
pub mod replan;
pub mod strategy;

pub use portfolio::{CandidateReport, Portfolio, PortfolioOutcome};
pub use profile::SolverProfile;
pub use replan::{patch_plan, ReplanError, ReplanStats};
pub use strategy::{registry, strategy_for, Strategy};

use stalloc_core::{Plan, ProfiledRequests, SynthConfig};

/// Synthesizes a plan honouring [`SynthConfig::strategy`]: a concrete
/// strategy runs directly;
/// [`Portfolio`](stalloc_core::StrategyChoice::Portfolio) races the
/// whole [`registry`] and returns the winner.
///
/// This is the strategy-aware superset of `stalloc_core::synthesize`
/// (which always runs the baseline pipeline); cache keys computed with
/// `fingerprint_job` already incorporate the strategy, so plans produced
/// here are safe to store content-addressed.
pub fn synthesize_strategy(profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
    synthesize_strategy_reported(profile, config).0
}

/// Like [`synthesize_strategy`], but also returns the per-strategy
/// [`CandidateReport`]s behind the plan: a portfolio run reports every
/// racer; a concrete strategy is a race of one, run on the caller's
/// thread, and reports itself as the sole (winning) candidate. The
/// serving path aggregates these into the `Metrics` verb's `solver`
/// section.
pub fn synthesize_strategy_reported(
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

#[cfg(test)]
mod tests {
    use super::*;
    use stalloc_core::StrategyChoice;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    #[test]
    fn a_concrete_choice_reports_itself_as_the_sole_winner() {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(2)
        .build_trace()
        .unwrap();
        let p = stalloc_core::profile_trace(&trace, 1).unwrap();
        for strategy in StrategyChoice::CONCRETE {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let (plan, reports) = synthesize_strategy_reported(&p, &config);
            let [report] = &reports[..] else {
                panic!("{strategy}: expected one report, got {reports:?}");
            };
            assert!(report.winner && report.valid, "{strategy}: {report:?}");
            assert_eq!(report.strategy, strategy);
            assert_eq!(report.pool_size, plan.pool_size);
            let row = strategy_for(strategy).expect("concrete");
            assert_eq!(plan, row.plan_profiled(&p, &config).0, "{strategy}");
        }
    }
}
