//! Integration test: the Table-1 reproduction, end to end across crates.
//!
//! Asserts the three claims the paper's evaluation makes:
//! 1. the traditional conversion has exactly `Σγ` actors (we match the
//!    paper's column exactly),
//! 2. the novel conversion respects the `N(N+2)` / `N(2N+1)` bounds and
//!    lands in the paper's order of magnitude, including the modem
//!    inversion,
//! 3. both conversions preserve the iteration period.

use sdfr_analysis::throughput::{hsdf_period, throughput};
use sdfr_benchmarks::table1;
use sdfr_core::{novel, traditional};

#[test]
fn traditional_counts_match_paper_exactly() {
    for case in table1::all() {
        let conv = traditional::convert(&case.graph).unwrap();
        assert_eq!(
            conv.graph.num_actors() as u64,
            case.paper_traditional_actors,
            "{}",
            case.name
        );
        assert!(conv.graph.is_homogeneous(), "{}", case.name);
    }
}

#[test]
fn novel_counts_match_paper_shape() {
    for case in table1::all() {
        let conv = novel::convert(&case.graph).unwrap();
        let actors = conv.graph.num_actors();
        assert!(actors <= conv.actor_bound(), "{}: actor bound", case.name);
        assert!(
            conv.graph.num_channels() <= conv.edge_bound(),
            "{}: edge bound",
            case.name
        );
        assert!(
            conv.graph.total_initial_tokens() <= conv.symbolic.num_tokens() as u64,
            "{}: token bound",
            case.name
        );
        // Within 2x of the paper's published count.
        let rel = actors as f64 / case.paper_new_actors as f64;
        assert!(
            (0.5..=2.0).contains(&rel),
            "{}: {} vs paper {}",
            case.name,
            actors,
            case.paper_new_actors
        );
        // The winner matches the paper's: new smaller everywhere except
        // the modem.
        let trad = case.paper_traditional_actors as usize;
        if case.name == "modem" {
            assert!(actors > trad, "modem must invert");
        } else {
            assert!(actors < trad, "{}: new must win", case.name);
        }
    }
}

#[test]
fn both_conversions_preserve_the_iteration_period() {
    for case in table1::all() {
        let original = throughput(&case.graph).unwrap().period();
        let trad = traditional::convert(&case.graph).unwrap();
        let new = novel::convert(&case.graph).unwrap();
        assert_eq!(
            hsdf_period(&trad.graph).unwrap().finite(),
            original,
            "{}: traditional",
            case.name
        );
        assert_eq!(
            hsdf_period(&new.graph).unwrap().finite(),
            original,
            "{}: novel",
            case.name
        );
    }
}

#[test]
fn elision_ablation_on_the_suite() {
    for case in table1::all() {
        let with = novel::convert(&case.graph).unwrap();
        let without = novel::convert_without_elision(&case.graph).unwrap();
        assert!(
            without.graph.num_actors() >= with.graph.num_actors(),
            "{}",
            case.name
        );
        assert_eq!(
            hsdf_period(&with.graph).unwrap().finite(),
            hsdf_period(&without.graph).unwrap().finite(),
            "{}",
            case.name
        );
    }
}
