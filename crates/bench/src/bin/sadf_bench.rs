//! Measures what registry-shared scenario sessions buy for scenario-aware
//! workload analysis on the Table-1 benchmark suite.
//!
//! Each case turns a benchmark graph into a 3-mode workload (timing
//! variants of the same graph — identical topology and token structure,
//! shifted execution times) over a cyclic FSM with mode-change delays:
//!
//! - **cold**: a fresh [`SessionRegistry`] per run, so every scenario's
//!   symbolic iteration is computed from scratch before the lattice;
//! - **warm**: the registry already holds the scenario sessions (as it
//!   would after any prior analysis touching these modes, standalone or
//!   in another workload), so only the lattice eigenvalue is recomputed.
//!
//! Usage: `cargo run --release -p sdfr-bench --bin sadf_bench`
//!
//! Writes `BENCH_sadf.json` (shared `sdfr-bench/1` schema) into the
//! current directory and prints a human-readable table. Cases whose token
//! structure would make the 3-state lattice dominate either path are
//! *loudly* skipped — recorded in the artifact with a reason — and the
//! coverage gate fails on any case neither measured nor skip-listed.
//! Exits non-zero when the warm speedup falls below
//! `SDFR_SADF_MIN_SPEEDUP` (default 1.3) on any measured case.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdfr_analysis::registry::SessionRegistry;
use sdfr_bench::report::{threshold_from_env, BenchCase, BenchReport, SkippedCase};
use sdfr_graph::budget::Budget;
use sdfr_graph::SdfGraph;
use sdfr_sadf::{analyze_workload, Scenario, ScenarioFsm, Workload};

/// Modes per workload.
const VARIANTS: usize = 3;
/// Timing repetitions; the minimum is reported.
const REPS: u32 = 5;
/// Token-structure ceiling: the lattice matrix is `(VARIANTS × N)²` for
/// `N` initial tokens, so beyond this the eigenvalue dwarfs the session
/// work both paths share and the cold/warm ratio measures nothing.
const TOKEN_LIMIT: u64 = 120;

/// Rebuilds `g` with every execution time shifted by `delta`: the same
/// topology and token structure (so the variants compose into one
/// workload), different timing — a mode.
fn timing_variant(g: &SdfGraph, delta: i64) -> SdfGraph {
    let mut b = SdfGraph::builder(format!("{}@{delta}", g.name()));
    let ids: Vec<_> = g
        .actors()
        .map(|(_, a)| b.actor(a.name(), a.execution_time() + delta))
        .collect();
    for (_, c) in g.channels() {
        b.channel(
            ids[c.source().index()],
            ids[c.target().index()],
            c.production(),
            c.consumption(),
            c.initial_tokens(),
        )
        .expect("rates are unchanged");
    }
    b.build().expect("topology is unchanged")
}

/// A 3-mode workload over `g`: a cyclic FSM whose transitions carry small
/// mode-change delays, so the lattice is not a plain block diagonal.
fn workload_for(g: &SdfGraph) -> Workload {
    let scenarios = (0..VARIANTS)
        .map(|i| Scenario {
            name: format!("m{i}"),
            graph: Arc::new(timing_variant(g, i as i64)),
        })
        .collect();
    let states = (0..VARIANTS).map(|i| (format!("s{i}"), i)).collect();
    let transitions = (0..VARIANTS)
        .map(|i| (i, (i + 1) % VARIANTS, (i % 3) as i64))
        .collect();
    Workload {
        name: g.name().to_string(),
        scenarios,
        fsm: ScenarioFsm {
            states,
            transitions,
            initial: 0,
        },
    }
}

fn min_of(reps: u32, mut f: impl FnMut() -> Duration) -> Duration {
    let mut best = f();
    for _ in 1..reps {
        best = best.min(f());
    }
    best
}

struct Row {
    name: String,
    cold: Duration,
    warm: Duration,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let mut skipped = Vec::new();
    let mut expected = Vec::new();
    for case in sdfr_benchmarks::table1::all() {
        expected.push(case.name.to_string());
        let tokens = case.graph.total_initial_tokens();
        if tokens > TOKEN_LIMIT {
            skipped.push(SkippedCase::new(
                case.name,
                format!(
                    "{tokens} initial tokens: the {VARIANTS}-state lattice \
                     would dominate both paths (limit {TOKEN_LIMIT})"
                ),
            ));
            continue;
        }
        let w = workload_for(&case.graph);
        let budget = Budget::unlimited();

        let cold = min_of(REPS, || {
            let registry = SessionRegistry::new();
            let t0 = Instant::now();
            let a = analyze_workload(&w, &registry, &budget).expect("benchmark cases analyse");
            assert!(a.outcome.period_or_bound().is_some());
            t0.elapsed()
        });

        let registry = SessionRegistry::new();
        let reference = analyze_workload(&w, &registry, &budget).expect("benchmark cases analyse");
        let warm = min_of(REPS, || {
            let t0 = Instant::now();
            let a = analyze_workload(&w, &registry, &budget).expect("benchmark cases analyse");
            let elapsed = t0.elapsed();
            assert_eq!(
                a.outcome.period_or_bound(),
                reference.outcome.period_or_bound(),
                "{}: warm answer changed",
                case.name
            );
            elapsed
        });

        rows.push(Row {
            name: case.name.to_string(),
            cold,
            warm,
        });
    }

    println!("scenario-workload benchmark (times in µs, min of {REPS} reps)\n");
    println!(
        "{:<22} {:>10} {:>10} {:>9}",
        "case", "cold", "warm", "speedup"
    );
    for r in &rows {
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>8.1}x",
            r.name,
            r.cold.as_secs_f64() * 1e6,
            r.warm.as_secs_f64() * 1e6,
            r.cold.as_secs_f64() / r.warm.as_secs_f64().max(1e-9),
        );
    }
    for s in &skipped {
        println!("{:<22} skipped: {}", s.name, s.reason);
    }

    let report = BenchReport {
        benchmark: "sadf",
        suite: "table1",
        cases: rows
            .iter()
            .map(|r| BenchCase {
                name: r.name.clone(),
                threads: 1,
                cold: r.cold,
                warm: r.warm,
                extra: Vec::new(),
            })
            .collect(),
        skipped,
    };
    report.enforce_coverage(&expected);
    let path = report.write().expect("write BENCH_sadf.json");
    println!("\nwrote {path}");

    let bar = threshold_from_env("SDFR_SADF_MIN_SPEEDUP", 1.3);
    let min_speedup = report.min_speedup();
    if min_speedup < bar {
        eprintln!("FAIL: warm speedup {min_speedup:.1}x below the {bar:.1}x bar");
        std::process::exit(1);
    }
}
