//! Shared helpers for the criterion benchmark harness and the
//! `recopack-bench` runner.
//!
//! The criterion benchmarks live in `benches/`; see DESIGN.md §4 for the
//! experiment index mapping each bench target to a table or figure of the
//! paper. The [`suite`] module holds the pinned instance set behind the
//! `recopack-bench` binary and the CI `bench-smoke` node-count gate; the
//! dependency-free JSON reader for the committed baseline lives in the
//! shared [`recopack_json`] crate (re-exported here as [`json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use recopack_json as json;
pub mod suite;

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
