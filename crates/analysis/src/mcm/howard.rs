//! Howard's policy iteration for the maximum cycle ratio problem.
//!
//! Howard's algorithm maintains a *policy* — one chosen outgoing edge per
//! node — evaluates the cycle ratio and node potentials induced by the
//! policy, and greedily improves the policy until no improvement exists.
//! In practice it is among the fastest exact MCR algorithms (Dasdan's
//! experimental study); here it runs entirely in exact rational arithmetic.
//!
//! The graph is first trimmed to its *cyclic core* (iteratively dropping
//! nodes with no outgoing or no incoming edges). On the core every policy
//! path reaches a cycle, which keeps the evaluation step total.

use sdfr_graph::SdfError;
use sdfr_maxplus::Rational;

use super::{CycleRatio, CycleRatioGraph, Edge};

/// Computes the maximum cycle ratio of `g` by policy iteration.
///
/// # Panics
///
/// Panics if the exact arithmetic leaves the `i64` range of [`Rational`]
/// (see [`maximum_cycle_ratio_checked`] for the error form), or if the
/// algorithm fails to converge within a generous internal bound — this
/// would indicate a bug, not a property of the input.
pub fn maximum_cycle_ratio(g: &CycleRatioGraph) -> CycleRatio {
    maximum_cycle_ratio_checked(g).expect("rational arithmetic overflow")
}

/// [`maximum_cycle_ratio`] with its rational arithmetic checked.
///
/// # Errors
///
/// [`SdfError::Overflow`] when a cycle ratio or a policy potential does
/// not fit the `i64` range of [`Rational`].
pub(crate) fn maximum_cycle_ratio_checked(g: &CycleRatioGraph) -> Result<CycleRatio, SdfError> {
    if g.has_zero_token_cycle() {
        return Ok(CycleRatio::ZeroTokenCycle);
    }
    let core = CyclicCore::of(g);
    if core.n == 0 {
        return Ok(CycleRatio::Acyclic);
    }
    core.howard()
        .map(CycleRatio::Finite)
        .ok_or(SdfError::Overflow {
            what: "maximum cycle ratio",
        })
}

/// `num / den` (`den > 0`) in canonical form, or `None` when it does not
/// fit the `i64` range of [`Rational`].
fn ratio(num: i128, den: i128) -> Option<Rational> {
    let (mut a, mut b) = (num.unsigned_abs(), den.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let g = a as i128;
    Some(Rational::new(
        i64::try_from(num / g).ok()?,
        i64::try_from(den / g).ok()?,
    ))
}

fn parts(q: Rational) -> (i128, i128) {
    (i128::from(q.numer()), i128::from(q.denom()))
}

/// The value `weight − r·tokens + v` that edge `e` offers its source
/// under cycle ratio `r` and target potential `v`, evaluated as
/// [`Rational`]'s own operators would (same `i128` intermediates, same
/// order), but `None` where they would panic.
fn offer(e: &Edge, r: Rational, v: Rational) -> Option<Rational> {
    let (rn, rd) = parts(r);
    let r_t = ratio(rn * i128::from(i64::try_from(e.tokens).ok()?), rd)?;
    let (tn, td) = parts(r_t);
    let head = ratio(i128::from(e.weight) * td - tn, td)?;
    let ((hn, hd), (vn, vd)) = (parts(head), parts(v));
    ratio(hn * vd + vn * hd, hd * vd)
}

/// The subgraph induced by nodes that lie on or between cycles, with dense
/// renumbering.
struct CyclicCore {
    n: usize,
    edges: Vec<Edge>,
    out: Vec<Vec<usize>>,
}

impl CyclicCore {
    fn of(g: &CycleRatioGraph) -> Self {
        let n = g.num_nodes();
        let mut keep = vec![true; n];
        // Iteratively peel nodes with zero out- or in-degree in the kept
        // subgraph.
        loop {
            let mut out_deg = vec![0usize; n];
            let mut in_deg = vec![0usize; n];
            for e in g.edges() {
                if keep[e.from] && keep[e.to] {
                    out_deg[e.from] += 1;
                    in_deg[e.to] += 1;
                }
            }
            let mut changed = false;
            for u in 0..n {
                if keep[u] && (out_deg[u] == 0 || in_deg[u] == 0) {
                    keep[u] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut remap = vec![usize::MAX; n];
        let mut count = 0;
        for u in 0..n {
            if keep[u] {
                remap[u] = count;
                count += 1;
            }
        }
        let mut edges = Vec::new();
        let mut out = vec![Vec::new(); count];
        for e in g.edges() {
            if keep[e.from] && keep[e.to] {
                out[remap[e.from]].push(edges.len());
                edges.push(Edge {
                    from: remap[e.from],
                    to: remap[e.to],
                    weight: e.weight,
                    tokens: e.tokens,
                });
            }
        }
        CyclicCore {
            n: count,
            edges,
            out,
        }
    }

    /// Policy iteration on the core; every node has an outgoing edge, so
    /// every policy path reaches a policy cycle. `None` on overflow.
    fn howard(&self) -> Option<Rational> {
        let n = self.n;
        let mut policy: Vec<usize> = (0..n)
            .map(|u| {
                *self.out[u]
                    .iter()
                    .max_by_key(|&&eid| self.edges[eid].weight)
                    .expect("core nodes have outgoing edges")
            })
            .collect();

        let cap = 100 * (n + 1) * (self.edges.len() + 1);
        for _ in 0..cap {
            let (lambda, value) = self.evaluate(&policy)?;
            let mut improved = false;
            for u in 0..n {
                let mut best_key = (lambda[u], value[u]);
                let mut best_eid = policy[u];
                for &eid in &self.out[u] {
                    let e = self.edges[eid];
                    let cand_value = offer(&e, lambda[e.to], value[e.to])?;
                    let cand_key = (lambda[e.to], cand_value);
                    if cand_key > best_key {
                        best_key = cand_key;
                        best_eid = eid;
                        improved = true;
                    }
                }
                policy[u] = best_eid;
            }
            if !improved {
                return Some(lambda.into_iter().max().expect("core is non-empty"));
            }
        }
        panic!("Howard's algorithm failed to converge; this is a bug");
    }

    /// Evaluates the policy: per-node cycle ratio and potential, or `None`
    /// on overflow.
    fn evaluate(&self, policy: &[usize]) -> Option<(Vec<Rational>, Vec<Rational>)> {
        let n = self.n;
        let mut lambda = vec![Rational::ZERO; n];
        let mut value = vec![Rational::ZERO; n];
        // 0 = unvisited, 1 = on current walk, 2 = resolved.
        let mut state = vec![0u8; n];

        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut u = start;
            loop {
                state[u] = 1;
                path.push(u);
                let v = self.edges[policy[u]].to;
                match state[v] {
                    0 => u = v,
                    1 => {
                        // New policy cycle: suffix of `path` starting at v.
                        let cpos = path.iter().position(|&x| x == v).expect("v on path");
                        self.resolve_cycle(policy, &path[cpos..], &mut lambda, &mut value)?;
                        for &w in &path[cpos..] {
                            state[w] = 2;
                        }
                        break;
                    }
                    _ => break, // reaches an already-resolved region
                }
            }
            // Back-propagate along the non-cycle prefix of the path.
            for &u in path.iter().rev() {
                if state[u] == 2 {
                    continue;
                }
                let e = self.edges[policy[u]];
                debug_assert_eq!(state[e.to], 2, "successor resolved first");
                lambda[u] = lambda[e.to];
                value[u] = offer(&e, lambda[e.to], value[e.to])?;
                state[u] = 2;
            }
        }
        Some((lambda, value))
    }

    /// Computes the ratio of a policy cycle and the potentials of its
    /// nodes, or `None` on overflow.
    fn resolve_cycle(
        &self,
        policy: &[usize],
        cycle: &[usize],
        lambda: &mut [Rational],
        value: &mut [Rational],
    ) -> Option<()> {
        let mut weight_sum: i64 = 0;
        let mut token_sum: i64 = 0;
        for &u in cycle {
            let e = self.edges[policy[u]];
            weight_sum = weight_sum.checked_add(e.weight)?;
            token_sum = token_sum.checked_add(i64::try_from(e.tokens).ok()?)?;
        }
        debug_assert!(token_sum > 0, "zero-token cycles are screened out earlier");
        let r = Rational::new(weight_sum, token_sum);
        // Fix the potential of the first cycle node and propagate backwards
        // around the cycle: v(u) = w − r·t + v(succ(u)).
        lambda[cycle[0]] = r;
        value[cycle[0]] = Rational::ZERO;
        for i in (1..cycle.len()).rev() {
            let u = cycle[i];
            let e = self.edges[policy[u]];
            lambda[u] = r;
            value[u] = offer(&e, r, value[e.to])?;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_cycle() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 3, 0);
        g.add_edge(1, 0, 5, 2);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(4, 1))
        );
    }

    #[test]
    fn competing_cycles() {
        // Self-loop ratio 7/2 vs long cycle ratio (1+2+3)/1 = 6.
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 0, 7, 2);
        g.add_edge(0, 1, 1, 0);
        g.add_edge(1, 2, 2, 0);
        g.add_edge(2, 0, 3, 1);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(6, 1))
        );
    }

    #[test]
    fn zero_token_cycle_detected() {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 1, 0);
        g.add_edge(1, 0, 1, 0);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::ZeroTokenCycle);
    }

    #[test]
    fn acyclic_graph() {
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 1, 10, 1);
        g.add_edge(1, 2, 10, 1);
        assert_eq!(maximum_cycle_ratio(&g), CycleRatio::Acyclic);
    }

    #[test]
    fn disconnected_cycles_take_max() {
        let mut g = CycleRatioGraph::new(4);
        g.add_edge(0, 1, 2, 1);
        g.add_edge(1, 0, 2, 1); // ratio 2
        g.add_edge(2, 3, 9, 1);
        g.add_edge(3, 2, 0, 2); // ratio 3
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(3, 1))
        );
    }

    #[test]
    fn multi_token_edges() {
        // One cycle, 3 tokens total: ratio (4+5)/3.
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 4, 1);
        g.add_edge(1, 0, 5, 2);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(3, 1))
        );
    }

    #[test]
    fn nodes_off_cycle_do_not_disturb() {
        let mut g = CycleRatioGraph::new(4);
        g.add_edge(0, 0, 5, 1); // the only cycle, ratio 5
        g.add_edge(1, 0, 100, 1);
        g.add_edge(2, 1, 100, 1);
        g.add_edge(3, 2, 100, 1);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(5, 1))
        );
    }

    /// `x ⇄ y` with times 3e18 and 3e18+1 over 1 + 2 tokens: the ratio
    /// (6e18+1)/3 fits, but the potential step `λ·2` does not.
    fn overflowing_pair() -> CycleRatioGraph {
        let mut g = CycleRatioGraph::new(2);
        g.add_edge(0, 1, 3_000_000_000_000_000_000, 1);
        g.add_edge(1, 0, 3_000_000_000_000_000_001, 2);
        g
    }

    #[test]
    fn overflow_is_an_error_in_the_checked_core() {
        assert_eq!(
            maximum_cycle_ratio_checked(&overflowing_pair()),
            Err(SdfError::Overflow {
                what: "maximum cycle ratio"
            })
        );
        // Token counts beyond i64 are refused, not wrapped.
        let mut g = CycleRatioGraph::new(1);
        g.add_edge(0, 0, 1, u64::MAX);
        assert!(maximum_cycle_ratio_checked(&g).is_err());
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflow")]
    fn public_form_panics_on_overflow() {
        let _ = maximum_cycle_ratio(&overflowing_pair());
    }

    #[test]
    fn cycle_hidden_behind_bad_greedy_seed() {
        // The max-weight seed edge from node 0 leads to a dead end; the
        // trim keeps only the cycle, which must still be found.
        let mut g = CycleRatioGraph::new(3);
        g.add_edge(0, 2, 100, 1); // tempting dead end
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 0, 1, 1);
        assert_eq!(
            maximum_cycle_ratio(&g),
            CycleRatio::Finite(Rational::new(1, 1))
        );
    }
}
