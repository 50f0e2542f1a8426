//! Measures the single-thread win of the branch-free flat max-plus kernel
//! on the Table-1 symbolic-iteration + eigenvalue hot path.
//!
//! Per case, **cold** is the checked reference datapath the production
//! engine replaced — [`symbolic_iteration_reference`] (allocating
//! [`MpVector`](sdfr_maxplus::MpVector) joins, per-element `checked_add`)
//! followed by [`eigenvalue_checked`] (the checked `Mp` Karp DP) — and
//! **warm** is the production pipeline: the flat
//! [`SymbolicEngine`](sdfr_analysis::SymbolicEngine) datapath
//! (sentinel-encoded `i64`, saturating adds, hoisted overflow checks)
//! followed by the production eigenvalue, Howard's policy iteration in
//! checked integers. Every repetition cross-checks the two
//! pipelines' matrices and periods for exact equality before its time
//! counts — the speedup is meaningless if the answers drift.
//!
//! Usage: `cargo run --release -p sdfr-bench --bin kernel_bench`
//!
//! Writes `BENCH_kernel.json` (shared `sdfr-bench/1` schema) with one case
//! per Table-1 graph plus the aggregate `table1-total`. Exits non-zero
//! when the *aggregate* speedup (total cold time / total warm time — the
//! honest hot-path figure, weighting each case by the time it actually
//! takes) falls below `SDFR_BENCH_MIN_SPEEDUP` (default 1.5).

use std::time::{Duration, Instant};

use sdfr_analysis::reference::symbolic_iteration_reference;
use sdfr_analysis::symbolic::symbolic_iteration;
use sdfr_bench::report::{threshold_from_env, BenchCase, BenchReport};
use sdfr_maxplus::eigen::eigenvalue_checked;

/// Timing repetitions; the minimum is reported.
const REPS: u32 = 5;

fn main() {
    let cases = sdfr_benchmarks::table1::all();
    let mut report = BenchReport {
        benchmark: "kernel",
        suite: "table1",
        cases: Vec::new(),
        skipped: Vec::new(),
    };
    println!(
        "Flat kernel vs checked reference ({} Table-1 cases; times in ms, min of {REPS} reps)\n",
        cases.len()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "case", "checked", "flat", "speedup"
    );

    let (mut total_cold, mut total_warm) = (Duration::ZERO, Duration::ZERO);
    for case in &cases {
        let mut cold = Duration::MAX;
        let mut warm = Duration::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let reference = symbolic_iteration_reference(&case.graph)
                .expect("Table-1 cases admit a symbolic iteration");
            let reference_period = eigenvalue_checked(&reference.matrix);
            cold = cold.min(t0.elapsed());

            let t0 = Instant::now();
            let production =
                symbolic_iteration(&case.graph).expect("Table-1 cases admit a symbolic iteration");
            let production_period = production
                .matrix
                .eigenvalue()
                .expect("Table-1 periods fit i64");
            warm = warm.min(t0.elapsed());

            // Differential check: the kernels must agree exactly, entry
            // for entry, before this repetition's time counts.
            assert_eq!(
                reference.matrix, production.matrix,
                "{}: flat engine matrix must equal the checked reference",
                case.name
            );
            assert_eq!(
                reference_period, production_period,
                "{}: policy-iteration period must equal the checked Karp reference",
                case.name
            );
        }
        total_cold += cold;
        total_warm += warm;
        println!(
            "{:<22} {:>10.3}ms {:>10.3}ms {:>8.2}x",
            case.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        );
        report.cases.push(BenchCase {
            name: case.name.to_string(),
            threads: 1,
            cold,
            warm,
            extra: Vec::new(),
        });
    }
    report.cases.push(BenchCase {
        name: "table1-total".to_string(),
        threads: 1,
        cold: total_cold,
        warm: total_warm,
        extra: Vec::new(),
    });
    let aggregate = total_cold.as_secs_f64() / total_warm.as_secs_f64().max(1e-9);
    println!(
        "{:<22} {:>10.3}ms {:>10.3}ms {:>8.2}x",
        "table1-total",
        total_cold.as_secs_f64() * 1e3,
        total_warm.as_secs_f64() * 1e3,
        aggregate,
    );

    let path = report.write().expect("write BENCH_kernel.json");
    println!("\nwrote {path}");

    // Every Table-1 case (and the aggregate) must have been measured or
    // loudly skipped; this bench never filters, so all are expected.
    let mut expected: Vec<String> = cases.iter().map(|c| c.name.to_string()).collect();
    expected.push("table1-total".to_string());
    report.enforce_coverage(&expected);

    let bar = threshold_from_env("SDFR_BENCH_MIN_SPEEDUP", 1.5);
    if aggregate < bar {
        eprintln!("FAIL: aggregate kernel speedup {aggregate:.2}x below the {bar:.1}x bar");
        std::process::exit(1);
    }
    println!("kernel gate passed: aggregate speedup {aggregate:.2}x >= {bar:.1}x");
}
