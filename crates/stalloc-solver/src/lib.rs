//! `stalloc-solver`: the names the benchmark imports from the plan
//! synthesizer's former home.
//!
//! The strategy table, the portfolio race and incremental re-planning
//! live in `stalloc-core` (`plan::strategy`, `plan::portfolio`,
//! `replan`), behind the one entry point `stalloc_core::synthesize`.
//! This crate only re-exports them under the paths `benchmark/` still
//! uses through `stalloc::stalloc_solver`; the change that moves the
//! benchmark to `stalloc_core` paths deletes it.

pub use stalloc_core::{
    patch_plan, registry, strategy_for, synthesize as synthesize_strategy, Portfolio, SolverProfile,
};
