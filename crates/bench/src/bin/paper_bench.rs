//! Times the paper's run-time claims and the ablations in `DESIGN.md`.
//!
//! Four groups, each case a cold/warm pair in the shared `sdfr-bench/1`
//! schema (`speedup` = cold / warm):
//!
//! - `conversion/<graph>` — per Table-1 graph, cold is the traditional
//!   SDF→HSDF expansion, warm the novel conversion (Alg. 1, the Sec. 7
//!   "a few milliseconds" claim); `no_elision_ns` times
//!   `novel::convert_without_elision`, the same conversion without the
//!   mux/demux elision;
//! - `abstraction/n=<n>` — analysing the Fig. 1(a) graph, cold the
//!   original, warm its abstract graph (Sec. 4); `derive_ns` times deriving
//!   the abstraction. `pruning/n=<n>` then analyses the abstract graph
//!   unpruned (cold) and pruned (warm);
//! - `mcm/n=<n>` — maximum cycle ratio of a ring of `n` nodes with `4n`
//!   chords, cold the parametric oracle, warm the production policy
//!   iteration;
//! - `throughput/<graph>` — cold the state-space route, warm the spectral
//!   route (eigenvalue of the Alg. 1 matrix); `simulated_ns` times the
//!   20-iteration simulated estimate.
//!
//! Usage: `cargo run --release -p sdfr-bench --bin paper_bench`
//!
//! Writes `BENCH_paper.json`. Each time is the per-call mean of the
//! fastest of [`SAMPLES`] batches, a batch running for at least [`BATCH`].
//! Cross-checks the mcm and throughput routes for equal answers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_analysis::mcm::{self, CycleRatioGraph};
use sdfr_analysis::throughput::{estimate_period_simulated, throughput, throughput_state_space};
use sdfr_bench::report::{BenchCase, BenchReport};
use sdfr_benchmarks::regular::Figure1;
use sdfr_core::abstraction::abstract_graph_unpruned;
use sdfr_core::auto::auto_abstraction;
use sdfr_core::{abstract_graph, novel, traditional};

/// Batches per measurement; the fastest counts.
const SAMPLES: u32 = 5;
/// Minimum wall time of one batch.
const BATCH: Duration = Duration::from_millis(20);

/// Per-call wall time of `f`.
fn time<T>(mut f: impl FnMut() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1);
    let iters = (BATCH.as_nanos() / once).clamp(1, 1_000_000) as u32;
    (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed() / iters
        })
        .min()
        .expect("SAMPLES > 0")
}

/// A ring of `n` nodes with `extra` chords, unit tokens on every edge.
fn ring_with_chords(n: usize, extra: usize, seed: u64) -> CycleRatioGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = CycleRatioGraph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n, rng.gen_range(1..=100), 1);
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        g.add_edge(u, v, rng.gen_range(1..=100), 1);
    }
    g
}

fn case(name: String, cold: Duration, warm: Duration, extra: &[(&str, Duration)]) -> BenchCase {
    println!(
        "{:<32} {:>12.3}ms {:>12.3}ms {:>9.2}x",
        name,
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
    );
    BenchCase {
        name,
        threads: 1,
        cold,
        warm,
        extra: extra
            .iter()
            .map(|(key, t)| (key.to_string(), t.as_nanos().to_string()))
            .collect(),
    }
}

fn main() {
    let table1 = sdfr_benchmarks::table1::all();
    let mut cases = Vec::new();
    println!(
        "{:<32} {:>14} {:>14} {:>10}",
        "case", "cold", "warm", "speedup"
    );

    println!("-- conversion: cold = traditional, warm = novel (Alg. 1)");
    for c in &table1 {
        let g = &c.graph;
        let cold = time(|| traditional::convert(g).unwrap());
        let warm = time(|| novel::convert(g).unwrap());
        let no_elision = time(|| novel::convert_without_elision(g).unwrap());
        cases.push(case(
            format!("conversion/{}", c.name),
            cold,
            warm,
            &[("no_elision_ns", no_elision)],
        ));
    }

    println!("-- abstraction: cold = original, warm = abstract (Fig. 1(a))");
    println!("   pruning: cold = unpruned abstract, warm = pruned abstract");
    for n in [32u64, 128, 512] {
        let f = Figure1::new(n);
        let abs = auto_abstraction(&f.graph).expect("regular family");
        let pruned = abstract_graph(&f.graph, &abs).expect("valid abstraction");
        let unpruned = abstract_graph_unpruned(&f.graph, &abs).expect("valid abstraction");
        let original = time(|| throughput(&f.graph).unwrap());
        let small = time(|| throughput(&pruned).unwrap());
        let derive = time(|| {
            let abs = auto_abstraction(&f.graph).unwrap();
            abstract_graph(&f.graph, &abs).unwrap()
        });
        let full = time(|| throughput(&unpruned).unwrap());
        cases.push(case(
            format!("abstraction/n={n}"),
            original,
            small,
            &[("derive_ns", derive)],
        ));
        cases.push(case(format!("pruning/n={n}"), full, small, &[]));
    }

    println!("-- mcm: cold = parametric oracle, warm = policy iteration");
    for n in [16usize, 64, 256] {
        let g = ring_with_chords(n, 4 * n, 42);
        assert_eq!(
            mcm::maximum_cycle_ratio(&g),
            mcm::parametric::maximum_cycle_ratio(&g),
            "n = {n}: the routines must agree"
        );
        let cold = time(|| mcm::parametric::maximum_cycle_ratio(&g));
        let warm = time(|| mcm::maximum_cycle_ratio(&g));
        cases.push(case(format!("mcm/n={n}"), cold, warm, &[]));
    }

    println!("-- throughput: cold = state-space, warm = spectral");
    // The two largest and two mid-size Table-1 graphs.
    for c in table1.iter().filter(|c| {
        matches!(
            c.name,
            "sample rate conv." | "satellite" | "modem" | "mp3 playback"
        )
    }) {
        let g = &c.graph;
        assert_eq!(
            throughput(g).unwrap().period(),
            throughput_state_space(g, 100_000).unwrap().period(),
            "{}: the routes must agree",
            c.name
        );
        let cold = time(|| throughput_state_space(g, 100_000).unwrap());
        let warm = time(|| throughput(g).unwrap());
        let simulated = time(|| estimate_period_simulated(g, 10, 10).unwrap());
        cases.push(case(
            format!("throughput/{}", c.name),
            cold,
            warm,
            &[("simulated_ns", simulated)],
        ));
    }

    let report = BenchReport {
        benchmark: "paper",
        suite: "table1, fig1a, ring-with-chords",
        cases,
        skipped: Vec::new(),
    };
    let path = report.write().expect("write BENCH_paper.json");
    println!("\nwrote {path}");
}
