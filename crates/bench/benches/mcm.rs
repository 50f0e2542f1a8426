//! Ablation: the two general maximum-cycle-ratio algorithms (Howard's
//! policy iteration, parametric cycle improvement) on synthetic strongly
//! cyclic graphs of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_analysis::mcm::{self, CycleRatioGraph};
use std::hint::black_box;

/// A ring of `n` nodes with `extra` chords, unit tokens on ring edges.
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

fn mcm_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcm");
    for &n in &[16usize, 64, 256] {
        let g = ring_with_chords(n, 4 * n, 42);
        group.bench_with_input(BenchmarkId::new("howard", n), &g, |b, g| {
            b.iter(|| mcm::howard::maximum_cycle_ratio(black_box(g)))
        });
        group.bench_with_input(BenchmarkId::new("parametric", n), &g, |b, g| {
            b.iter(|| mcm::parametric::maximum_cycle_ratio(black_box(g)))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = mcm_algorithms);
criterion_main!(benches);
