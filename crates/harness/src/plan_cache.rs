//! A process-wide memo of synthesized plans.
//!
//! Most experiment binaries replay the same trace through several
//! allocator kinds (e.g. `Stalloc` and `StallocNoReuse` in every lineup),
//! and plan synthesis is the expensive offline step of each STAlloc run.
//! [`planned`] keys synthesis by the job's [`Fingerprint`] and serves
//! repeats from memory. [`stats`] counts both outcomes.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use stalloc_core::{fingerprint_job, synthesize, Fingerprint, Plan, ProfiledRequests, SynthConfig};

/// Cumulative memo counters for this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans served from the memo.
    pub memo_hits: u64,
    /// Plans synthesized from scratch.
    pub synthesized: u64,
}

#[derive(Default)]
struct CacheState {
    memo: HashMap<Fingerprint, Plan>,
    stats: PlanCacheStats,
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

/// Returns the plan for `(profile, config)`: the memoized one, or a fresh
/// synthesis that is memoized for the next caller.
pub fn planned(profile: &ProfiledRequests, config: &SynthConfig) -> Plan {
    let fp = fingerprint_job(profile, config);
    {
        let mut s = state().lock().expect("plan cache lock");
        if let Some(plan) = s.memo.get(&fp) {
            let plan = plan.clone();
            s.stats.memo_hits += 1;
            return plan;
        }
    }
    // Strategy-aware: a lineup asking for the portfolio gets the raced
    // winner, keyed by its own fingerprint.
    let plan = synthesize(profile, config);
    let mut s = state().lock().expect("plan cache lock");
    s.stats.synthesized += 1;
    s.memo.insert(fp, plan.clone());
    plan
}

/// This process's cumulative memo counters.
pub fn stats() -> PlanCacheStats {
    state().lock().expect("plan cache lock").stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    #[test]
    fn memo_serves_repeat_jobs() {
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
        let profile = stalloc_core::profile_trace(&trace, 1).unwrap();
        let config = SynthConfig::default();

        let before = stats();
        let a = planned(&profile, &config);
        let mid = stats();
        let b = planned(&profile, &config);
        let after = stats();

        assert_eq!(a, b);
        assert_eq!(a, synthesize(&profile, &config));
        // First call either synthesized or (if another test populated the
        // memo already) hit; the second call must be a memo hit.
        assert!(mid.synthesized + mid.memo_hits > before.synthesized + before.memo_hits);
        // Strict inequality, not an exact delta: other tests in this
        // process share the global counters and may interleave their own
        // memo hits between the two reads.
        assert!(after.memo_hits > mid.memo_hits);
    }
}
