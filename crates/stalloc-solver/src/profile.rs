//! Per-strategy synthesis cost accounting.
//!
//! A [`SolverProfile`] is filled in by a strategy while it plans: wall
//! time split into the three phases every strategy shares (ordering the
//! requests, packing them, assembling the `Plan`), plus how much work
//! the packer actually did. It is `Copy` and additive, so the portfolio
//! can carry one per candidate and a server can merge them into
//! long-running per-strategy aggregates.

/// Where one strategy run spent its time and effort.
///
/// Times are wall-clock microseconds. The counters describe packer
/// work: `candidates_evaluated` is how many free gaps were examined,
/// `placements_tried` how many requests were placed, and
/// `placements_rejected` how many examined gaps were passed over
/// (`candidates_evaluated - placements_tried` for gap-scanning
/// strategies; 0 for strategies that place blindly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverProfile {
    /// Request ordering / grouping time, µs.
    pub layout_micros: u64,
    /// Packer time: gap scans and placements, µs.
    pub pack_micros: u64,
    /// Plan assembly and stats computation time, µs.
    pub finish_micros: u64,
    /// Free gaps (or other placement candidates) examined.
    pub candidates_evaluated: u64,
    /// Placements committed into the packer.
    pub placements_tried: u64,
    /// Candidates examined but not chosen.
    pub placements_rejected: u64,
}

impl SolverProfile {
    /// Folds another run's costs into this one (server-side aggregation
    /// across many synthesis runs of the same strategy).
    pub fn merge(&mut self, other: &SolverProfile) {
        self.layout_micros = self.layout_micros.saturating_add(other.layout_micros);
        self.pack_micros = self.pack_micros.saturating_add(other.pack_micros);
        self.finish_micros = self.finish_micros.saturating_add(other.finish_micros);
        self.candidates_evaluated = self
            .candidates_evaluated
            .saturating_add(other.candidates_evaluated);
        self.placements_tried = self.placements_tried.saturating_add(other.placements_tried);
        self.placements_rejected = self
            .placements_rejected
            .saturating_add(other.placements_rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_saturates() {
        let mut a = SolverProfile {
            layout_micros: 10,
            pack_micros: 20,
            finish_micros: 30,
            candidates_evaluated: 4,
            placements_tried: 3,
            placements_rejected: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.layout_micros, 20);
        assert_eq!(a.pack_micros, 40);
        assert_eq!(a.finish_micros, 60);
        assert_eq!(a.candidates_evaluated, 8);

        let mut top = SolverProfile {
            layout_micros: u64::MAX,
            ..SolverProfile::default()
        };
        top.merge(&a);
        assert_eq!(top.layout_micros, u64::MAX, "saturates, never wraps");
    }
}
