//! Shared helpers for the criterion benchmark harness.
//!
//! The criterion benchmarks live in `benches/`; see DESIGN.md §4 for the
//! experiment index mapping each bench target to a table or figure of the
//! paper. The pinned node-count ledger is a root test,
//! `tests/search_regressions.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use recopack_core::SolverConfig;

/// A solver configuration that skips bounds and heuristics so the benches
/// time the packing-class search itself.
pub fn search_only() -> SolverConfig {
    SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        ..SolverConfig::default()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn search_only_disables_the_early_stages() {
        let c = super::search_only();
        assert!(!c.use_bounds && !c.use_heuristics);
        assert!(c.clique_rule, "propagation rules stay on");
    }
}
