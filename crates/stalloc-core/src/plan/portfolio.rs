//! The [`Portfolio`] runner: race the strategy table, keep the best.
//!
//! Each row of the table synthesizes on its own scoped `std::thread`
//! worker, borrowing the caller's profile; every candidate is validated
//! and the winner is selected **deterministically** by `(pool size,
//! fragmentation, strategy name)` — thread finishing order never
//! influences the result. A race of one row (a concrete
//! `SynthConfig::strategy`) runs inline on the caller's thread.
//!
//! # Example
//!
//! ```
//! use stalloc_core::{profile_trace, synthesize, Portfolio, StrategyChoice, SynthConfig};
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
//! let baseline = synthesize(&profile, &SynthConfig::default());
//! assert!(outcome.winner.pool_size <= baseline.pool_size);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::plan::profile::SolverProfile;
use crate::plan::strategy::{registry, Strategy};
use crate::plan::{baseline_layout, finish_plan, Plan, StrategyChoice, SynthConfig};
use crate::profiler::ProfiledRequests;

/// One strategy's result in a portfolio race.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Which strategy produced it.
    pub strategy: StrategyChoice,
    /// The candidate's static pool size (`u64::MAX` if it failed).
    pub pool_size: u64,
    /// Peak static demand over pool size (0.0 if it failed).
    pub packing_efficiency: f64,
    /// Wall-clock synthesis time for this strategy.
    pub elapsed: Duration,
    /// Whether the candidate existed and passed [`Plan::validate`].
    pub valid: bool,
    /// Whether this candidate won the race.
    pub winner: bool,
    /// Phase timing and packer-effort accounting for this run (all-zero
    /// counters for a strategy that panicked before reporting).
    pub profile: SolverProfile,
}

/// Result of a [`Portfolio::run`].
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The best valid plan (its `stats.strategy` names the winning
    /// concrete strategy).
    pub winner: Plan,
    /// One report per candidate, in registry order.
    pub candidates: Vec<CandidateReport>,
}

/// Races the whole strategy table over one planning job.
pub struct Portfolio;

impl Portfolio {
    /// The standard portfolio: every row of [`registry`].
    pub fn standard() -> Self {
        Portfolio
    }

    /// Runs the race and returns the winner plus per-candidate reports.
    ///
    /// Winner selection is a pure function of the candidate set: the
    /// valid plan with the smallest `(pool size, fragmentation, strategy
    /// name)` triple wins. Fragmentation is `pool − peak static demand`;
    /// since every candidate plans the same profile, the peak is shared
    /// and the name is the only true tiebreaker for equal pools.
    pub fn run(&self, profile: &ProfiledRequests, config: &SynthConfig) -> PortfolioOutcome {
        race(registry(), profile, config)
    }
}

/// What one row brings back: the (validated-later) plan if synthesis
/// survived, how long it took, and the row's own phase accounting.
type RaceResult = (Option<Plan>, Duration, SolverProfile);

/// Runs one row on the current thread. A panicking strategy must
/// neither poison the race nor take the caller down.
fn run_guarded(row: &Strategy, profile: &ProfiledRequests, config: &SynthConfig) -> RaceResult {
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| row.plan_profiled(profile, config))) {
        Ok((plan, prof)) => (Some(plan), started.elapsed(), prof),
        Err(_) => (None, started.elapsed(), SolverProfile::default()),
    }
}

/// Races `rows` over one job, validates every candidate and picks the
/// winner. One row runs inline; more run on scoped threads that borrow
/// `profile` from the caller's stack frame — no clone, however large the
/// job — and the scope joins them all before selection.
pub(crate) fn race(
    rows: &[Strategy],
    profile: &ProfiledRequests,
    config: &SynthConfig,
) -> PortfolioOutcome {
    let mut results: Vec<RaceResult> = if let [solo] = rows {
        vec![run_guarded(solo, profile, config)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = rows
                .iter()
                .map(|row| {
                    std::thread::Builder::new()
                        .name(format!("stalloc-solve-{}", row.name()))
                        .spawn_scoped(scope, move || run_guarded(row, profile, config))
                })
                .collect();
            rows.iter()
                .zip(workers)
                .map(|(row, worker)| match worker {
                    Ok(handle) => handle.join().expect("run_guarded catches the panic"),
                    // Spawn failure (thread exhaustion): run inline so
                    // the race still sees this candidate.
                    Err(_) => run_guarded(row, profile, config),
                })
                .collect()
        })
    };

    // Deterministic selection over the rows in table order. The winner
    // is remembered by index, so two rows reporting the same
    // `StrategyChoice` can never both be flagged.
    let mut candidates = Vec::with_capacity(rows.len());
    let mut best: Option<((u64, u64, &'static str), usize)> = None;
    for (ci, (row, (plan, elapsed, prof))) in rows.iter().zip(&results).enumerate() {
        let sound = plan
            .as_ref()
            .filter(|p| p.validate().is_ok() && p.pool_size >= p.stats.peak_static_demand);
        candidates.push(CandidateReport {
            strategy: row.choice,
            pool_size: sound.map_or(u64::MAX, |p| p.pool_size),
            packing_efficiency: sound.map_or(0.0, |p| p.stats.packing_efficiency()),
            elapsed: *elapsed,
            valid: sound.is_some(),
            winner: false,
            profile: *prof,
        });
        if let Some(p) = sound {
            let key = (
                p.pool_size,
                p.pool_size - p.stats.peak_static_demand,
                row.name(),
            );
            if best.as_ref().is_none_or(|(held, _)| key < *held) {
                best = Some((key, ci));
            }
        }
    }

    let winner = match best {
        Some((_, ci)) => {
            candidates[ci].winner = true;
            results[ci].0.take().expect("a sound candidate has a plan")
        }
        // Every candidate failed — fall back to the baseline pipeline
        // inline, outside the race; it is the reference implementation.
        None => finish_plan(
            profile,
            StrategyChoice::Baseline,
            baseline_layout(profile, config),
        ),
    };
    PortfolioOutcome { winner, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::strategy::strategy_for;
    use crate::plan::StaticLayout;
    use std::cell::Cell;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn profile() -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(4)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        crate::profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn portfolio_never_loses_to_baseline() {
        let p = profile();
        let config = SynthConfig::default();
        let outcome = Portfolio::standard().run(&p, &config);
        outcome.winner.validate().unwrap();
        let baseline = crate::synthesize(&p, &config);
        assert!(outcome.winner.pool_size <= baseline.pool_size);
        assert_eq!(outcome.candidates.len(), StrategyChoice::CONCRETE.len());
        assert_eq!(outcome.candidates.iter().filter(|c| c.winner).count(), 1);
        let w = outcome
            .candidates
            .iter()
            .find(|c| c.winner)
            .expect("one winner");
        assert_eq!(w.strategy, outcome.winner.stats.strategy);
        assert_eq!(w.pool_size, outcome.winner.pool_size);
        for c in &outcome.candidates {
            assert!(
                c.profile.placements_tried > 0,
                "{}: a racing strategy reports its packer effort",
                c.strategy.name()
            );
        }
    }

    #[test]
    fn winner_is_deterministic_across_runs() {
        let p = profile();
        let config = SynthConfig {
            strategy: StrategyChoice::Portfolio,
            ..SynthConfig::default()
        };
        let a = Portfolio::standard().run(&p, &config);
        let b = Portfolio::standard().run(&p, &config);
        assert_eq!(a.winner, b.winner);
    }

    /// `synthesize` runs what the config names: a concrete choice is its
    /// own row alone, reported as the sole winner, and `Portfolio` is the
    /// whole race.
    #[test]
    fn synthesize_honours_every_strategy_choice() {
        let p = profile();
        for strategy in StrategyChoice::ALL {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let (plan, reports) = crate::synthesize_reported(&p, &config);
            assert_eq!(plan, crate::synthesize(&p, &config), "{strategy}");
            assert_eq!(reports.iter().filter(|r| r.winner).count(), 1);
            let Some(row) = strategy_for(strategy) else {
                assert_eq!(plan, Portfolio::standard().run(&p, &config).winner);
                assert_eq!(reports.len(), StrategyChoice::CONCRETE.len());
                continue;
            };
            let [report] = &reports[..] else {
                panic!("{strategy}: expected one report, got {reports:?}");
            };
            assert!(report.winner && report.valid, "{strategy}: {report:?}");
            assert_eq!(report.strategy, strategy);
            assert_eq!(report.pool_size, plan.pool_size);
            assert_eq!(plan, row.plan_profiled(&p, &config).0, "{strategy}");
        }
    }

    /// The one test that reaches the race's `catch_unwind`: a row whose
    /// layout function panics is reported invalid with nothing counted,
    /// and the real row beside it wins.
    #[test]
    fn a_panicking_row_is_dropped_and_the_real_row_wins() {
        fn boom(_: &ProfiledRequests, _: &SynthConfig, _: &mut SolverProfile) -> StaticLayout {
            panic!("a strategy bug must not take the race down")
        }
        let p = profile();
        let rows = [
            Strategy {
                choice: StrategyChoice::Baseline,
                description: "always panics (test double)",
                layout: boom,
            },
            *strategy_for(StrategyChoice::BestFit).unwrap(),
        ];
        let outcome = race(&rows, &p, &SynthConfig::default());
        let [bad, good] = &outcome.candidates[..] else {
            panic!("one report per row: {:?}", outcome.candidates);
        };
        assert_eq!(bad.strategy, StrategyChoice::Baseline);
        assert!(!bad.valid && !bad.winner);
        assert_eq!((bad.pool_size, bad.packing_efficiency), (u64::MAX, 0.0));
        assert_eq!(bad.profile, SolverProfile::default());
        assert!(good.valid && good.winner);
        assert_eq!(outcome.winner.stats.strategy, StrategyChoice::BestFit);
        outcome.winner.validate().unwrap();
    }

    /// A concrete `SynthConfig::strategy` is a race of one, and a race of
    /// one spawns nothing: the row sees the caller's thread-local.
    #[test]
    fn a_race_of_one_runs_on_the_callers_thread() {
        thread_local!(static RAN_HERE: Cell<bool> = const { Cell::new(false) });
        fn probe(p: &ProfiledRequests, c: &SynthConfig, prof: &mut SolverProfile) -> StaticLayout {
            RAN_HERE.with(|ran| ran.set(true));
            (strategy_for(StrategyChoice::BestFit).unwrap().layout)(p, c, prof)
        }
        let row = Strategy {
            choice: StrategyChoice::BestFit,
            description: "marks the thread it runs on (test double)",
            layout: probe,
        };
        let p = profile();
        let config = SynthConfig::default();

        let both = race(&[row, row], &p, &config);
        assert_eq!(both.candidates.len(), 2);
        assert!(!RAN_HERE.with(Cell::get), "two rows race on workers");

        let solo = race(&[row], &p, &config);
        assert!(RAN_HERE.with(Cell::get), "one row runs inline");
        assert!(solo.candidates[0].winner && solo.candidates[0].valid);
        assert_eq!(solo.winner, both.winner);
    }
}
