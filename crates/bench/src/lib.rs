//! Experiment harness regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin` print the same rows/series the paper reports:
//!
//! - `table1` — Table 1 (traditional vs. new conversion sizes, with
//!   `--verify` additionally checking throughput equivalence),
//! - `fig6` — Figure 6 (the same data as an ASCII log-scale chart + CSV),
//! - `abstraction_sweep` — the Sec. 4.1 closed forms over the Fig. 1(a)
//!   family (exact vs. conservative period, relative error),
//! - `prefetch_case` — the Sec. 7 / Fig. 5 NoC prefetch case study,
//! - `experiments` — everything above, as the markdown used in
//!   `EXPERIMENTS.md`.
//!
//! The gating performance benches — `session_bench`, `batch_bench` and
//! `pool_bench` — write `BENCH_*.json` artifacts in the shared
//! [`report`] schema and exit non-zero below their speedup bars.
//!
//! `paper_bench` writes `BENCH_paper.json` in the same schema, with no
//! bar: the conversion and analysis run-times behind the paper's Sec. 7
//! claim and the ablations called out in `DESIGN.md`.

pub mod report;

use sdfr_analysis::throughput::throughput;
use sdfr_benchmarks::regular::{prefetch_exact_period, prefetch_model, Figure1};
use sdfr_benchmarks::table1::{self, Table1Case};
use sdfr_core::auto::auto_abstraction;
use sdfr_core::conservativity::{conservative_period_bound, verify_abstraction};
use sdfr_core::equivalence::validate_conversions;
use sdfr_core::{abstract_graph, novel, traditional};
use sdfr_maxplus::Rational;

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Test-case name.
    pub name: &'static str,
    /// Measured traditional-conversion actor count (ours).
    pub traditional: usize,
    /// Measured new-conversion actor count (ours).
    pub new: usize,
    /// Measured ratio `traditional / new`.
    pub ratio: f64,
    /// The paper's traditional count.
    pub paper_traditional: u64,
    /// The paper's new count.
    pub paper_new: u64,
    /// The paper's ratio.
    pub paper_ratio: f64,
    /// The matrix dimension `N` (initial tokens).
    pub tokens: usize,
    /// Whether the iteration periods of the original and both conversions
    /// agree (filled in when verification is requested; `None` otherwise).
    pub periods_equal: Option<bool>,
}

/// Reproduces Table 1, optionally verifying throughput equivalence of both
/// conversions for every case.
pub fn table1_rows(verify: bool) -> Vec<Table1Row> {
    table1::all()
        .iter()
        .map(|case| table1_row(case, verify))
        .collect()
}

fn table1_row(case: &Table1Case, verify: bool) -> Table1Row {
    let trad = traditional::convert(&case.graph).expect("benchmarks are consistent and live");
    let new = novel::convert(&case.graph).expect("benchmarks are consistent and live");
    let periods_equal = verify.then(|| {
        validate_conversions(&case.graph)
            .expect("benchmarks analyse cleanly")
            .is_ok()
    });
    Table1Row {
        name: case.name,
        traditional: trad.graph.num_actors(),
        new: new.graph.num_actors(),
        ratio: trad.graph.num_actors() as f64 / new.graph.num_actors() as f64,
        paper_traditional: case.paper_traditional_actors,
        paper_new: case.paper_new_actors,
        paper_ratio: case.paper_traditional_actors as f64 / case.paper_new_actors as f64,
        tokens: new.symbolic.num_tokens(),
        periods_equal,
    }
}

/// One point of the Sec. 4.1 abstraction sweep over the Fig. 1(a) family.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Number of `A` copies.
    pub n: u64,
    /// Actors of the original graph.
    pub original_actors: usize,
    /// Actors of the abstract graph.
    pub abstract_actors: usize,
    /// Measured exact iteration period of the original.
    pub exact_period: Rational,
    /// Conservative period bound from the abstraction (`N·λ'`).
    pub bound: Rational,
    /// The paper's closed forms (5n−7 and 5n).
    pub paper_exact: Rational,
    /// The paper's conservative estimate.
    pub paper_bound: Rational,
    /// Relative error of the bound vs. the exact period.
    pub relative_error: f64,
    /// Whether the mechanical Prop. 1 premise check succeeded.
    pub verified: bool,
}

/// Sweeps the Fig. 1(a) family, measuring exact vs. conservative periods.
pub fn abstraction_sweep(ns: &[u64]) -> Vec<SweepRow> {
    ns.iter()
        .map(|&n| {
            let f = Figure1::new(n);
            let abs = auto_abstraction(&f.graph).expect("family is regular");
            let ag = abstract_graph(&f.graph, &abs).expect("abstraction is valid");
            let exact = throughput(&f.graph)
                .expect("family is live")
                .period()
                .expect("family has a critical cycle");
            let bound = conservative_period_bound(&f.graph, &abs)
                .expect("abstract graph analyses cleanly")
                .expect("abstract graph has a critical cycle");
            let verified = verify_abstraction(&f.graph, &abs)
                .expect("abstract graph builds")
                .is_ok();
            SweepRow {
                n,
                original_actors: f.graph.num_actors(),
                abstract_actors: ag.num_actors(),
                exact_period: exact,
                bound,
                paper_exact: f.exact_period(),
                paper_bound: f.abstract_period_estimate(),
                relative_error: (bound - exact).to_f64() / exact.to_f64(),
                verified,
            }
        })
        .collect()
}

/// The Sec. 7 / Fig. 5 prefetch case study result.
#[derive(Debug, Clone)]
pub struct PrefetchReport {
    /// Blocks per frame (1584 in the paper).
    pub blocks: u64,
    /// Actors of the original model.
    pub original_actors: usize,
    /// Actors of the abstract model.
    pub abstract_actors: usize,
    /// Measured period of the original model.
    pub exact_period: Rational,
    /// Conservative bound from the abstraction.
    pub bound: Rational,
    /// The paper's claim: the bound is *exactly* the original's period.
    pub exact_match: bool,
    /// Whether the mechanical Prop. 1 premise check succeeded.
    pub verified: bool,
}

/// Runs the prefetch case study (paper: `blocks = 1584`).
pub fn prefetch_case(blocks: u64) -> PrefetchReport {
    let g = prefetch_model(blocks);
    let abs = auto_abstraction(&g).expect("model is regular");
    let ag = abstract_graph(&g, &abs).expect("abstraction is valid");
    let exact = throughput(&g)
        .expect("model is live")
        .period()
        .expect("model has a critical cycle");
    debug_assert_eq!(exact, prefetch_exact_period(blocks));
    let bound = conservative_period_bound(&g, &abs)
        .expect("abstract graph analyses cleanly")
        .expect("abstract graph has a critical cycle");
    let verified = verify_abstraction(&g, &abs)
        .expect("abstract graph builds")
        .is_ok();
    PrefetchReport {
        blocks,
        original_actors: g.num_actors(),
        abstract_actors: ag.num_actors(),
        exact_period: exact,
        bound,
        exact_match: bound == exact,
        verified,
    }
}

/// Renders a simple fixed-width table (used by the binaries).
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_reproduce_paper_traditional_exactly() {
        for row in table1_rows(false) {
            assert_eq!(
                row.traditional as u64, row.paper_traditional,
                "{}: traditional count",
                row.name
            );
        }
    }

    #[test]
    fn table1_shape_matches_paper() {
        for row in table1_rows(false) {
            // The winner (ratio direction) matches the paper everywhere.
            assert_eq!(
                row.ratio > 1.0,
                row.paper_ratio > 1.0,
                "{}: ratio direction",
                row.name
            );
            // And each new count is within 2x of the paper's.
            let rel = row.new as f64 / row.paper_new as f64;
            assert!(
                (0.5..=2.0).contains(&rel),
                "{}: new count {} vs paper {}",
                row.name,
                row.new,
                row.paper_new
            );
        }
    }

    #[test]
    fn sweep_is_conservative_and_tightening() {
        let rows = abstraction_sweep(&[6, 12, 24]);
        for row in &rows {
            assert_eq!(row.exact_period, row.paper_exact, "n = {}", row.n);
            assert_eq!(row.bound, row.paper_bound, "n = {}", row.n);
            assert!(row.bound >= row.exact_period);
            assert!(row.verified);
            assert_eq!(row.abstract_actors, 2);
        }
        assert!(rows[2].relative_error < rows[0].relative_error);
    }

    #[test]
    fn prefetch_small_instance_matches_exactly() {
        let r = prefetch_case(16);
        assert!(r.exact_match);
        assert!(r.verified);
        assert_eq!(r.abstract_actors, 5);
        assert_eq!(r.original_actors, 80);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains(" a  bb"));
        assert!(t.lines().count() == 4);
    }
}
