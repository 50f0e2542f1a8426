//! Differential properties of the one maximum-cycle-ratio routine,
//! [`eigen::maximum_cycle_ratio`]:
//!
//! - on unit-token matrices it equals Karp's checked DP
//!   ([`eigen::eigenvalue_checked`]), also with weights near
//!   `i64::MAX / n`;
//! - on multi-token graphs, and on graphs built so that several cycles tie
//!   for the maximum, it equals brute-force cycle enumeration;
//! - every finite answer carries a certificate: the longest-path
//!   potentials exist at λ, and the edges they hold tight contain a cycle;
//! - extreme weights and token counts give `Ok` or `Err(Overflow)`, never
//!   a panic.
//!
//! The suites without a fixed case count follow `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_analysis::mcm::{enumerate, CycleRatioGraph};
use sdfr_maxplus::eigen::{self, CycleRatio};
use sdfr_maxplus::{closure, Mp, MpError, MpMatrix};

type Edge = (usize, usize, i64, u64);

/// A random graph on 1–7 nodes with up to 14 edges of 0–3 tokens.
fn multi_token_graph(rng: &mut StdRng) -> (usize, Vec<Edge>) {
    let n = rng.gen_range(1..=7);
    let edges = (0..rng.gen_range(0..=14))
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-10..=20),
                rng.gen_range(0..=3),
            )
        })
        .collect();
    (n, edges)
}

/// Relabelled copies of one random cycle, so that several disjoint cycles
/// tie for the maximum ratio, plus chooser nodes, each on a slow self-loop,
/// with edges into several copies and slow edges back. Policy iteration
/// that anchors a cycle's potential wherever the policy walk entered it
/// flips a chooser between the copies forever on some of these graphs.
fn tied_graph(rng: &mut StdRng) -> (usize, Vec<Edge>) {
    let k = rng.gen_range(1..=4);
    let copies = rng.gen_range(2..=4);
    let choosers = rng.gen_range(1..=3);
    let n = k * copies + choosers;
    let mut cycle: Vec<(i64, u64)> = (0..k)
        .map(|_| (rng.gen_range(0..20), rng.gen_range(0..=2)))
        .collect();
    if cycle.iter().all(|&(_, t)| t == 0) {
        cycle[0].1 = 1;
    }
    let mut keys: Vec<(u64, usize)> = (0..n).map(|i| (rng.gen_range(0..u64::MAX), i)).collect();
    keys.sort_unstable();
    let mut label = vec![0; n];
    for (pos, &(_, i)) in keys.iter().enumerate() {
        label[i] = pos;
    }
    let mut edges = Vec::new();
    for c in 0..copies {
        for (i, &(w, t)) in cycle.iter().enumerate() {
            edges.push((label[c * k + i], label[c * k + (i + 1) % k], w, t));
        }
    }
    for h in 0..choosers {
        let u = label[k * copies + h];
        edges.push((u, u, rng.gen_range(0..=1), rng.gen_range(1..=2)));
        for _ in 0..rng.gen_range(2..=4) {
            let v = label[rng.gen_range(0..k * copies)];
            edges.push((u, v, rng.gen_range(-5..20), rng.gen_range(0..=1)));
        }
        // Slow edges back into the chooser put it and the copies it can
        // reach into one strongly connected component.
        for _ in 0..rng.gen_range(1..=2) {
            let v = label[rng.gen_range(0..k * copies)];
            edges.push((v, u, rng.gen_range(0..=1), rng.gen_range(2..=4)));
        }
    }
    (n, edges)
}

/// The enumeration oracle's answer on the same edges.
fn enumerated(n: usize, edges: &[Edge]) -> CycleRatio {
    let mut g = CycleRatioGraph::new(n);
    for &(from, to, w, t) in edges {
        g.add_edge(from, to, w, t);
    }
    enumerate::maximum_cycle_ratio(&g)
}

/// Checks that λ is the maximum cycle ratio without trusting any
/// cycle-ratio algorithm: finite potentials at λ bound every cycle's ratio
/// from above, and a cycle of tight edges attains it.
fn certify(n: usize, edges: &[Edge], outcome: CycleRatio) -> Result<(), TestCaseError> {
    let CycleRatio::Finite(lambda) = outcome else {
        return Ok(());
    };
    let d = closure::potentials(n, edges.iter().copied(), lambda);
    prop_assert!(d.is_ok(), "no potentials at {lambda}: {d:?}");
    let d = d.unwrap();
    let (s, num) = (i128::from(lambda.denom()), i128::from(lambda.numer()));
    let tight = edges
        .iter()
        .copied()
        .filter(|&(u, v, w, t)| i128::from(d[v] - d[u]) == s * i128::from(w) - num * i128::from(t));
    let cyclic = eigen::on_cycles(n, tight).iter().any(Option::is_some);
    prop_assert!(cyclic, "no tight cycle at {lambda}");
    Ok(())
}

/// Square matrices of 1–6 rows; with `big`, finite entries are non-negative
/// and up to `i64::MAX / n`, so every Karp walk weight still fits.
fn matrix(big: bool) -> impl Strategy<Value = MpMatrix> {
    (1usize..=6).prop_flat_map(move |n| {
        let top = i64::MAX / n as i64;
        let entry = if big {
            prop_oneof![
                1 => Just(None),
                2 => ((top - 1_000)..=top).prop_map(Some),
                1 => (0i64..1_000).prop_map(Some),
            ]
            .boxed()
        } else {
            prop_oneof![1 => Just(None), 2 => (-10_000i64..10_000).prop_map(Some)].boxed()
        };
        proptest::collection::vec(proptest::collection::vec(entry, n..=n), n..=n).prop_map(|rows| {
            let rows = rows
                .iter()
                .map(|r| r.iter().map(|e| e.map_or(Mp::NegInf, Mp::fin)).collect())
                .collect();
            MpMatrix::from_rows(rows).expect("square by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unit-token matrices: the production eigenvalue equals checked Karp,
    /// with small weights and with weights near `i64::MAX / n`.
    #[test]
    fn eigenvalue_equals_checked_karp(a in any::<bool>().prop_flat_map(matrix)) {
        prop_assert_eq!(eigen::eigenvalue(&a), Ok(eigen::eigenvalue_checked(&a)));
    }
}

proptest! {
    /// Multi-token graphs, zero-token cycles included: the routine equals
    /// cycle enumeration and its answer is certified.
    #[test]
    fn multi_token_ratio_equals_enumeration(seed in any::<u64>()) {
        let (n, edges) = multi_token_graph(&mut StdRng::seed_from_u64(seed));
        let outcome = eigen::maximum_cycle_ratio(n, edges.iter().copied());
        prop_assert_eq!(outcome, Ok(enumerated(n, &edges)), "{:?}", edges);
        certify(n, &edges, outcome.unwrap())?;
    }

    /// Tied cycles: the routine terminates with the enumerated ratio and a
    /// certificate.
    #[test]
    fn tied_cycles_converge_to_the_enumerated_ratio(seed in any::<u64>()) {
        let (n, edges) = tied_graph(&mut StdRng::seed_from_u64(seed));
        let outcome = eigen::maximum_cycle_ratio(n, edges.iter().copied());
        prop_assert_eq!(outcome, Ok(enumerated(n, &edges)), "{:?}", edges);
        certify(n, &edges, outcome.unwrap())?;
    }

    /// Extreme weights and token counts: an answer or an overflow error,
    /// never a panic.
    #[test]
    fn extreme_inputs_answer_or_overflow(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=5);
        let edges: Vec<Edge> = (0..rng.gen_range(1..=10))
            .map(|_| {
                let tokens = if rng.gen_range(0..2) == 0 {
                    rng.gen_range(0..=3)
                } else {
                    rng.gen_range(0..=u64::MAX)
                };
                let weight = match rng.gen_range(0..3) {
                    0 => rng.gen_range(i64::MIN..=i64::MAX),
                    1 => i64::MAX - rng.gen_range(0..4),
                    _ => rng.gen_range(-3..=3),
                };
                (rng.gen_range(0..n), rng.gen_range(0..n), weight, tokens)
            })
            .collect();
        match eigen::maximum_cycle_ratio(n, edges.iter().copied()) {
            Ok(_) | Err(MpError::Overflow) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?} on {edges:?}"),
        }
    }
}
