//! End-to-end reproduction of every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured comparison).

use recopack::bounds::refute;
use recopack::model::{benchmarks, Chip};
use recopack::solver::{pareto_front_with_stats, Bmp, Opp, SolverConfig, Spp};

/// Table 1 — DE benchmark, BMP at T = 6, 13, 14: minimal square chips
/// 32x32, 17x17, 16x16.
#[test]
fn table1_de_bmp_rows() {
    for (horizon, expected_side) in [(6u64, 32u64), (13, 17), (14, 16)] {
        let instance = benchmarks::de(Chip::square(1), horizon).with_transitive_closure();
        let result = Bmp::new(&instance)
            .solve()
            .unwrap_or_else(|| panic!("T={horizon} must be feasible"));
        assert_eq!(
            result.side, expected_side,
            "Table 1 row T={horizon}: expected {expected_side}"
        );
        let target = instance.with_chip(Chip::square(result.side));
        assert_eq!(result.placement.verify(&target), Ok(()));
    }
}

/// §5.1: "as the longest path in the graph has length 6, there does not
/// exist any faster schedule" — T = 5 is infeasible on any chip.
#[test]
fn table1_no_schedule_beats_the_critical_path() {
    let instance = benchmarks::de(Chip::square(1), 5).with_transitive_closure();
    assert_eq!(Bmp::new(&instance).solve(), None);
    let huge = benchmarks::de(Chip::square(512), 5).with_transitive_closure();
    assert!(!Opp::new(&huge).solve().is_feasible());
}

/// §5.1: "for T >= 14, a chip of size 16x16 cells is sufficient which is the
/// smallest chip possible... as one multiplication by itself uses the full
/// chip" — 15x15 never works, whatever the horizon.
#[test]
fn table1_sixteen_is_the_floor() {
    let instance = benchmarks::de(Chip::square(15), 100).with_transitive_closure();
    assert!(!Opp::new(&instance).solve().is_feasible());
    let instance = benchmarks::de(Chip::square(16), 100).with_transitive_closure();
    assert!(Opp::new(&instance).solve().is_feasible());
}

/// Figure 7(a) — Pareto points with precedence constraints (solid). The
/// staircase reaches them in 9 OPP decisions; SPP at every side from 16
/// to 32 took 81.
#[test]
fn fig7_solid_front() {
    let instance = benchmarks::de(Chip::square(1), 1).with_transitive_closure();
    let (front, _, decisions) =
        pareto_front_with_stats(&instance, &SolverConfig::default()).expect("no limits");
    let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
    assert_eq!(pairs, vec![(16, 14), (17, 13), (32, 6)]);
    assert_eq!(decisions, 9);
    for p in &front {
        let target = instance
            .clone()
            .with_chip(Chip::square(p.side))
            .with_horizon(p.makespan);
        assert_eq!(p.placement.verify(&target), Ok(()));
    }
}

/// Figure 7(b) — Pareto points without precedence constraints (dashed):
/// 13 OPP decisions, against 158 for SPP at every side from 16 to 48.
#[test]
fn fig7_dashed_front() {
    let instance = benchmarks::de(Chip::square(1), 1).without_precedence();
    let (front, _, decisions) =
        pareto_front_with_stats(&instance, &SolverConfig::default()).expect("no limits");
    let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
    assert_eq!(pairs, vec![(16, 13), (17, 12), (32, 4), (48, 2)]);
    for p in &front {
        let target = instance
            .clone()
            .with_chip(Chip::square(p.side))
            .with_horizon(p.makespan);
        assert_eq!(p.placement.verify(&target), Ok(()));
    }
    assert_eq!(decisions, 13);
}

/// Table 2 — video codec: a single Pareto point, 64x64 at latency 59. The
/// first packing found already meets the critical path, so one OPP
/// decision settles the front (6 with the former SPP).
#[test]
fn table2_video_codec_single_point() {
    let instance = benchmarks::video_codec(Chip::square(1), 1).with_transitive_closure();
    let (front, _, decisions) =
        pareto_front_with_stats(&instance, &SolverConfig::default()).expect("no limits");
    let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
    assert_eq!(pairs, vec![(64, 59)]);
    assert_eq!(decisions, 1);
}

/// §5.2: "there is no solution for container sizes smaller than 64x64" and
/// "t = 59 is the smallest latency possible due to the data dependencies".
#[test]
fn table2_boundaries() {
    let at_63 = benchmarks::video_codec(Chip::square(63), 1000).with_transitive_closure();
    assert!(!Opp::new(&at_63).solve().is_feasible());
    let at_58 = benchmarks::video_codec(Chip::square(64), 58).with_transitive_closure();
    assert!(!Opp::new(&at_58).solve().is_feasible());
    let exact = benchmarks::video_codec(Chip::square(64), 59).with_transitive_closure();
    assert!(Opp::new(&exact).solve().is_feasible());
}

/// Table 1's hardest row (T = 6) solved via SPP from the other direction:
/// minimal time on the 32x32 chip is 6, on 31x31 it is worse.
#[test]
fn spp_cross_checks_table1() {
    let on_32 = benchmarks::de(Chip::square(32), 1).with_transitive_closure();
    let r = Spp::new(&on_32).solve().expect("fits");
    assert_eq!(r.makespan, 6);
    let on_31 = benchmarks::de(Chip::square(31), 1).with_transitive_closure();
    let r = Spp::new(&on_31).solve().expect("fits");
    assert_eq!(r.makespan, 13, "MULs serialize below 32 cells width");
}

/// A4 — the stage-1 census over the Fig. 7(a) decision space (sides 16–48,
/// horizons 2–14, with precedence), as EXPERIMENTS.md tabulates it: 429
/// decisions, 229 refuted by bounds alone, 184 feasible, 16 infeasible but
/// needing search. Any change to the bound battery's verdicts moves it.
#[test]
fn a4_lower_bound_census() {
    let (mut refuted, mut feasible, mut needs_search) = (0, 0, 0);
    for side in 16..=48u64 {
        for horizon in 2..=14u64 {
            let instance = benchmarks::de(Chip::square(side), horizon).with_transitive_closure();
            if refute(&instance).is_some() {
                refuted += 1;
            } else if Opp::new(&instance).solve().is_feasible() {
                feasible += 1;
            } else {
                needs_search += 1;
            }
        }
    }
    assert_eq!((refuted, feasible, needs_search), (229, 184, 16));
}
