//! Scenario-aware dataflow (SADF) analysis.
//!
//! A *workload* is a set of named scenarios — each an ordinary SDF graph —
//! plus a scenario FSM whose transitions may carry a mode-transition
//! delay. Each scenario reduces (through its own registry-shared
//! [`AnalysisSession`]) to one symbolic max-plus matrix `A_s` over the
//! graph's initial tokens, exactly as in the paper's Algorithm 1; the
//! worst-case throughput of the workload is then the maximum cycle mean
//! of the FSM's *state-space lattice*:
//!
//! - nodes are `(state, token)` pairs,
//! - for every FSM transition `s → s'` with delay `d`, the block of
//!   lattice edges from state `s`'s tokens to state `s'`'s tokens is
//!   `A_{scenario(s')} + d` (the next scenario's matrix, shifted by the
//!   mode-change delay).
//!
//! Every cycle of this lattice projects onto a closed walk of the FSM,
//! and its weight is the weight of the corresponding product of shifted
//! scenario matrices — so the lattice's maximum cycle mean is the
//! worst-case iteration period *per scenario iteration* over all infinite
//! scenario sequences the FSM admits. `crates/maxplus` (Howard/Karp)
//! solves it directly.
//!
//! Cyclo-static dataflow is the degenerate case: a CSDF graph whose
//! phases individually balance is a cyclic FSM over its per-phase SDF
//! graphs, and the lattice analysis reproduces the dedicated CSDF
//! pipeline's throughput exactly — `crates/sadf` uses that as its
//! differential oracle (see [`workload_from_csdf`]).
//!
//! The whole analysis runs under the crate-wide [`Budget`] discipline:
//! per-scenario matrices charge their firings as usual, the lattice
//! dimension is checked against `max_size`, and on exhaustion the
//! analysis degrades to a conservative bound — the worst per-scenario
//! serialization bound plus the worst mode-transition delay, which
//! dominates every lattice entry and hence every cycle mean.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::Arc;

use sdfr_analysis::registry::{Lookup, SessionRegistry};
use sdfr_analysis::AnalysisSession;
use sdfr_core::degrade::{
    serialization_period_bound, AnalysisOutcome, ConservativeBound, FallbackMethod,
};
use sdfr_core::CoreError;
use sdfr_csdf::CsdfGraph;
use sdfr_graph::budget::Budget;
use sdfr_graph::{SdfError, SdfGraph};
use sdfr_io::sadf::SadfDoc;
use sdfr_io::IoError;
use sdfr_maxplus::{closure, MpMatrix, Rational};

/// One named scenario: an ordinary SDF graph.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The scenario name (unique within the workload).
    pub name: String,
    /// The scenario's graph, shared with the analysis sessions.
    pub graph: Arc<SdfGraph>,
}

/// The scenario FSM: named states bound to scenarios, transitions with
/// mode-change delays.
#[derive(Debug, Clone)]
pub struct ScenarioFsm {
    /// States in declaration order: `(name, scenario index)`.
    pub states: Vec<(String, usize)>,
    /// Transitions `(from state, to state, delay)` by state index.
    pub transitions: Vec<(usize, usize, i64)>,
    /// The initial state. Worst-case throughput is a cycle-mean property
    /// and does not depend on it; it is kept for transient analyses.
    pub initial: usize,
}

/// A scenario-aware workload: scenarios plus their FSM.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload name.
    pub name: String,
    /// The scenarios, in declaration order.
    pub scenarios: Vec<Scenario>,
    /// The scenario FSM over those scenarios.
    pub fsm: ScenarioFsm,
}

/// Why a workload could not be analysed.
#[derive(Debug)]
pub enum SadfError {
    /// The `.sadf` document is not readable.
    Io(IoError),
    /// The workload is structurally unusable for the lattice analysis
    /// (mismatched token structures, a CSDF graph that does not decompose
    /// into balanced phases, …).
    Invalid(String),
    /// An analysis-level failure from a scenario graph, including budget
    /// exhaustion with no safe fallback.
    Graph(SdfError),
    /// A failure while computing the conservative fallback bound.
    Core(CoreError),
}

impl std::fmt::Display for SadfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SadfError::Io(e) => write!(f, "{e}"),
            SadfError::Invalid(m) => write!(f, "{m}"),
            SadfError::Graph(e) => write!(f, "{e}"),
            SadfError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SadfError {}

impl From<IoError> for SadfError {
    fn from(e: IoError) -> Self {
        SadfError::Io(e)
    }
}

impl From<SdfError> for SadfError {
    fn from(e: SdfError) -> Self {
        SadfError::Graph(e)
    }
}

impl From<CoreError> for SadfError {
    fn from(e: CoreError) -> Self {
        SadfError::Core(e)
    }
}

impl Workload {
    /// Builds a workload from a parsed [`SadfDoc`]. The document is
    /// already structurally validated, so this only re-shapes it.
    pub fn from_doc(doc: SadfDoc) -> Workload {
        Workload {
            name: doc.name,
            scenarios: doc
                .scenarios
                .into_iter()
                .map(|(name, graph)| Scenario {
                    name,
                    graph: Arc::new(graph),
                })
                .collect(),
            fsm: ScenarioFsm {
                states: doc.states,
                transitions: doc.transitions,
                initial: doc.initial,
            },
        }
    }

    /// Parses a `.sadf` document into a workload.
    ///
    /// # Errors
    ///
    /// [`SadfError::Io`] for syntax and structural errors.
    pub fn from_text(input: &str) -> Result<Workload, SadfError> {
        Ok(Workload::from_doc(sdfr_io::sadf::from_text(input)?))
    }
}

/// Re-expresses a cyclo-static graph as the degenerate cyclic-FSM
/// workload: one scenario per phase (same topology, that phase's rates
/// and execution times) and a delay-free cyclic FSM over them.
///
/// The decomposition is exact when every actor has the same phase count
/// and each phase balances on its own with unit repetition (production
/// equals consumption on every channel in every phase): then one FSM step
/// is exactly one per-actor firing at that phase, the per-phase matrices
/// compose to the CSDF iteration matrix, and `phase count × lattice cycle
/// mean` equals the CSDF iteration period byte for byte. This is the
/// differential oracle for the lattice analysis.
///
/// # Errors
///
/// [`SadfError::Invalid`] when the graph does not meet the decomposition
/// conditions, [`SadfError::Graph`] if a phase graph is malformed.
pub fn workload_from_csdf(g: &CsdfGraph) -> Result<Workload, SadfError> {
    let mut phases = None;
    for (_, a) in g.actors() {
        let p = a.num_phases();
        match phases {
            None => phases = Some(p),
            Some(q) if q == p => {}
            Some(q) => {
                return Err(SadfError::Invalid(format!(
                    "actor '{}' has {p} phase(s) where others have {q}: the \
                     cyclic-FSM decomposition needs one shared phase count",
                    a.name()
                )))
            }
        }
    }
    let phases = phases.ok_or_else(|| {
        SadfError::Invalid("a cyclo-static graph needs at least one actor".into())
    })?;
    for (_, c) in g.channels() {
        for p in 0..phases {
            if c.production(p) != c.consumption(p) {
                return Err(SadfError::Invalid(format!(
                    "channel {} -> {} produces {} but consumes {} in phase {p}: \
                     each phase must balance on its own for the cyclic-FSM \
                     decomposition",
                    g.actor(c.source()).name(),
                    g.actor(c.target()).name(),
                    c.production(p),
                    c.consumption(p)
                )));
            }
        }
    }

    let mut scenarios = Vec::with_capacity(phases);
    for p in 0..phases {
        let mut b = SdfGraph::builder(format!("{}.p{p}", g.name()));
        let ids: Vec<_> = g
            .actors()
            .map(|(_, a)| b.actor(a.name(), a.phase_time(p)))
            .collect();
        for (_, c) in g.channels() {
            b.channel(
                ids[c.source().index()],
                ids[c.target().index()],
                c.production(p),
                c.consumption(p),
                c.initial_tokens(),
            )?;
        }
        scenarios.push(Scenario {
            name: format!("p{p}"),
            graph: Arc::new(b.build()?),
        });
    }
    let states = (0..phases).map(|p| (format!("p{p}"), p)).collect();
    let transitions = (0..phases).map(|p| (p, (p + 1) % phases, 0)).collect();
    Ok(Workload {
        name: g.name().to_string(),
        scenarios,
        fsm: ScenarioFsm {
            states,
            transitions,
            initial: 0,
        },
    })
}

/// The per-scenario slice of a workload analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The scenario name.
    pub name: String,
    /// The scenario's own eigenvalue (its stand-alone iteration period;
    /// `None` = no recurrent constraint in that scenario).
    pub eigenvalue: Option<Rational>,
}

/// The complete result of one workload analysis.
#[derive(Debug)]
pub struct SadfAnalysis {
    /// The worst-case period per scenario iteration: exact when the
    /// lattice analysis completed, a conservative bound on exhaustion.
    pub outcome: AnalysisOutcome,
    /// Per-scenario eigenvalues, in scenario order. Empty when the
    /// analysis degraded (partial per-scenario results would depend on
    /// which scenario exhausted the budget first, breaking determinism).
    pub scenarios: Vec<ScenarioOutcome>,
    /// The winning FSM cycle: state names along one critical cycle of the
    /// lattice, starting from its smallest-indexed state. Empty when the
    /// lattice is acyclic or the analysis degraded.
    pub cycle: Vec<String>,
    /// The registry sessions behind the per-scenario matrices (scenario
    /// order) and how the registry answered each lookup — the server's
    /// journal persists warmed scenarios from exactly these.
    pub sessions: Vec<(Arc<AnalysisSession>, Lookup)>,
}

/// Analyses a workload's worst-case throughput through a shared
/// [`SessionRegistry`], under `budget`.
///
/// Per-scenario matrices come from registry sessions, so repeated
/// workloads over the same scenario family are memoized and warm-cacheable
/// exactly like plain `analyze` graphs. On budget exhaustion anywhere —
/// a scenario's symbolic iteration, or the lattice size check against
/// `max_size` — the analysis degrades to [`AnalysisOutcome::Degraded`]
/// with the serialization-style bound described in the crate docs.
///
/// # Errors
///
/// [`SadfError::Invalid`] when scenario token structures do not agree,
/// [`SadfError::Graph`] for non-budget analysis errors (inconsistency,
/// deadlock, overflow), [`SadfError::Core`] if even the conservative
/// fallback is impossible.
pub fn analyze_workload(
    w: &Workload,
    registry: &SessionRegistry,
    budget: &Budget,
) -> Result<SadfAnalysis, SadfError> {
    let mut sessions = Vec::with_capacity(w.scenarios.len());
    for s in &w.scenarios {
        sessions.push(registry.lookup(&s.graph, budget));
    }
    match analyze_lattice(w, &sessions, budget) {
        Ok((outcome, scenarios, cycle)) => Ok(SadfAnalysis {
            outcome,
            scenarios,
            cycle,
            sessions,
        }),
        Err(SadfError::Graph(e @ SdfError::Exhausted { .. })) => Ok(SadfAnalysis {
            outcome: AnalysisOutcome::Degraded {
                exhausted: e,
                bound: conservative_workload_bound(w)?,
            },
            scenarios: Vec::new(),
            cycle: Vec::new(),
            sessions,
        }),
        Err(e) => Err(e),
    }
}

/// The exact lattice analysis; any [`SdfError::Exhausted`] escaping from
/// here is converted to graceful degradation by [`analyze_workload`].
#[allow(clippy::type_complexity)]
fn analyze_lattice(
    w: &Workload,
    sessions: &[(Arc<AnalysisSession>, Lookup)],
    budget: &Budget,
) -> Result<(AnalysisOutcome, Vec<ScenarioOutcome>, Vec<String>), SadfError> {
    let mut scenarios = Vec::with_capacity(w.scenarios.len());
    let mut matrices: Vec<&MpMatrix> = Vec::with_capacity(w.scenarios.len());
    let mut tokens = None;
    for (s, (session, _)) in w.scenarios.iter().zip(sessions) {
        let sym = session.symbolic()?;
        match tokens {
            None => tokens = Some((sym.num_tokens(), &s.name)),
            Some((n, first)) if n == sym.num_tokens() => {
                let _ = first;
            }
            Some((n, first)) => {
                return Err(SadfError::Invalid(format!(
                    "scenario '{}' has {} initial token(s) where '{first}' has \
                     {n}: scenarios of one workload must share the channel and \
                     token structure",
                    s.name,
                    sym.num_tokens()
                )))
            }
        }
        matrices.push(&sym.matrix);
        scenarios.push(ScenarioOutcome {
            name: s.name.clone(),
            eigenvalue: session.eigenvalue()?,
        });
    }
    let n = tokens.map_or(0, |(n, _)| n);
    let states = w.fsm.states.len();
    let dim = states
        .checked_mul(n)
        .ok_or(SdfError::Overflow {
            what: "scenario lattice dimension",
        })
        .map_err(SadfError::Graph)?;

    // The lattice is the one genuinely new structure this analysis builds;
    // charge its dimension against the size budget before allocating
    // |S|²·N² entries, and poll the deadline/cancel budget per block.
    let mut meter = budget.meter();
    meter.check_size(dim as u64)?;
    let mut lattice = MpMatrix::neg_inf(dim, dim);
    for &(from, to, delay) in &w.fsm.transitions {
        meter.poll()?;
        let block = matrices[w.fsm.states[to].1].shift(delay);
        for i in 0..n {
            for j in 0..n {
                let v = block.get(i, j);
                let at = (to * n + i, from * n + j);
                if v > lattice.get(at.0, at.1) {
                    lattice.set(at.0, at.1, v);
                }
            }
        }
    }
    let lambda = lattice.eigenvalue();
    let cycle = match lambda {
        Some(lambda) => winning_cycle(w, &lattice, lambda, n)?,
        None => Vec::new(),
    };
    Ok((AnalysisOutcome::Exact(lambda), scenarios, cycle))
}

/// Projects the lattice's critical nodes onto the FSM and walks one
/// critical cycle deterministically: start at the smallest critical
/// state, always take the smallest critical successor, and cut the walk
/// at the first revisit. Every critical state has a critical FSM
/// successor (its lattice node lies on a critical cycle whose next node
/// belongs to a transition target), so the walk cannot get stuck.
///
/// Fails with [`SdfError::Overflow`] when the lattice's critical-cycle
/// potentials at `lambda` do not fit in `i64`.
fn winning_cycle(
    w: &Workload,
    lattice: &MpMatrix,
    lambda: Rational,
    n: usize,
) -> Result<Vec<String>, SadfError> {
    // λ is the eigenvalue of the square lattice: overflow is the only error.
    let nodes = closure::critical_nodes(lattice, lambda).map_err(|_| {
        SadfError::Graph(SdfError::Overflow {
            what: "critical-cycle potentials",
        })
    })?;
    if nodes.is_empty() || n == 0 {
        return Ok(Vec::new());
    }
    let states = w.fsm.states.len();
    let mut critical = vec![false; states];
    for node in nodes {
        critical[node / n] = true;
    }
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); states];
    for &(from, to, _) in &w.fsm.transitions {
        if critical[from] && critical[to] {
            successors[from].push(to);
        }
    }
    for succ in &mut successors {
        succ.sort_unstable();
        succ.dedup();
    }
    let Some(start) = (0..states).find(|&s| critical[s]) else {
        return Ok(Vec::new());
    };
    let mut walk = vec![start];
    let mut seen = vec![usize::MAX; states];
    seen[start] = 0;
    loop {
        let here = *walk.last().expect("walk is never empty");
        let Some(&next) = successors[here].first() else {
            // No critical successor: fall back to the critical states in
            // index order rather than a partial walk.
            return Ok(w
                .fsm
                .states
                .iter()
                .enumerate()
                .filter(|&(s, _)| critical[s])
                .map(|(_, (name, _))| name.clone())
                .collect());
        };
        if seen[next] != usize::MAX {
            return Ok(walk[seen[next]..]
                .iter()
                .map(|&s| w.fsm.states[s].0.clone())
                .collect());
        }
        seen[next] = walk.len();
        walk.push(next);
    }
}

/// The conservative degradation bound: the worst per-scenario
/// serialization bound plus the worst non-negative mode-transition delay.
/// Every entry of a scenario matrix is at most that scenario's
/// serialization bound (a causal chain of firings cannot outlast the
/// fully serialized iteration), every lattice entry adds at most the
/// worst delay, and a maximum cycle mean never exceeds the largest
/// entry — so this dominates the exact answer.
fn conservative_workload_bound(w: &Workload) -> Result<ConservativeBound, SadfError> {
    let mut worst: Option<Rational> = None;
    for s in &w.scenarios {
        let bound = serialization_period_bound(&s.graph)?;
        worst = Some(match worst {
            Some(b) if b >= bound => b,
            _ => bound,
        });
    }
    let delay = w
        .fsm
        .transitions
        .iter()
        .map(|&(_, _, d)| d.max(0))
        .max()
        .unwrap_or(0);
    let bound = worst
        .ok_or_else(|| SadfError::Invalid("a workload needs at least one scenario".into()))?
        + Rational::from(delay);
    Ok(ConservativeBound {
        bound,
        method: FallbackMethod::Serialization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_MODES: &str = "\
sadf modes
scenario fast
  actor a 1
  actor b 2
  channel a b 1 1 0
  channel b a 1 1 1
end
scenario slow
  actor a 4
  actor b 5
  channel a b 1 1 0
  channel b a 1 1 1
end
";

    fn analyze(text: &str, budget: &Budget) -> SadfAnalysis {
        let w = Workload::from_text(text).unwrap();
        let registry = SessionRegistry::new();
        analyze_workload(&w, &registry, budget).unwrap()
    }

    #[test]
    fn single_scenario_self_loop_equals_plain_analyze() {
        let text = "\
sadf one
scenario only
  actor a 2
  actor b 3
  channel a b 1 1 0
  channel b a 1 1 1
end
";
        let a = analyze(text, &Budget::unlimited());
        // The plain analyze period of this graph is 5 (see the CLI tests).
        assert_eq!(a.outcome, AnalysisOutcome::Exact(Some(Rational::from(5))));
        assert_eq!(a.scenarios.len(), 1);
        assert_eq!(a.scenarios[0].eigenvalue, Some(Rational::from(5)));
        assert_eq!(a.cycle, vec!["only".to_string()]);
    }

    #[test]
    fn cyclic_two_scenario_workload_averages_the_modes() {
        // fast alone: period 3; slow alone: period 9. Alternating them
        // forces the cycle mean to the average, 6.
        let a = analyze(TWO_MODES, &Budget::unlimited());
        assert_eq!(a.outcome, AnalysisOutcome::Exact(Some(Rational::from(6))));
        assert_eq!(a.scenarios[0].eigenvalue, Some(Rational::from(3)));
        assert_eq!(a.scenarios[1].eigenvalue, Some(Rational::from(9)));
        assert_eq!(a.cycle.len(), 2);
    }

    #[test]
    fn transition_delays_are_added_to_the_cycle_mean() {
        let text = format!(
            "{TWO_MODES}state f fast\nstate s slow\n\
             transition f s 4\ntransition s f 0\ninitial f\n"
        );
        let a = analyze(&text, &Budget::unlimited());
        // Per two steps: fast + slow iterations plus the 4-unit mode
        // change: (3 + 9 + 4) / 2 = 8.
        assert_eq!(a.outcome, AnalysisOutcome::Exact(Some(Rational::from(8))));
    }

    #[test]
    fn worst_self_loop_dominates() {
        let text = format!(
            "{TWO_MODES}state f fast\nstate s slow\n\
             transition f f 0\ntransition s s 0\ntransition f s 0\ninitial f\n"
        );
        let a = analyze(&text, &Budget::unlimited());
        // The slow self-loop is the bottleneck cycle.
        assert_eq!(a.outcome, AnalysisOutcome::Exact(Some(Rational::from(9))));
        assert_eq!(a.cycle, vec!["s".to_string()]);
    }

    #[test]
    fn mismatched_token_structures_are_invalid() {
        let text = "\
sadf bad
scenario x
  actor a 1
  channel a a 1 1 1
end
scenario y
  actor a 1
  channel a a 1 1 2
end
";
        let w = Workload::from_text(text).unwrap();
        let registry = SessionRegistry::new();
        let err = analyze_workload(&w, &registry, &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, SadfError::Invalid(_)), "{err}");
    }

    #[test]
    fn exhaustion_degrades_to_the_delay_padded_serialization_bound() {
        let text = "\
sadf huge
scenario big
  actor x 1
  actor y 1
  channel x y 1000000000 1 0
end
scenario small
  actor x 7
  actor y 1
  channel x y 1000000000 1 0
end
state b big
state s small
transition b s 13
transition s b 0
initial b
";
        let w = Workload::from_text(text).unwrap();
        let registry = SessionRegistry::new();
        let budget = Budget::unlimited().with_max_firings(1_000);
        let a = analyze_workload(&w, &registry, &budget).unwrap();
        match &a.outcome {
            AnalysisOutcome::Degraded { bound, .. } => {
                // serialization bound of 'small' (x fires once, y fires
                // 1e9 times): 7 + 1e9, plus the worst delay 13.
                assert_eq!(bound.method, FallbackMethod::Serialization);
                assert_eq!(bound.bound, Rational::from(1_000_000_020i64));
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        assert!(a.scenarios.is_empty());
        assert!(a.cycle.is_empty());
    }

    #[test]
    fn lattice_size_is_charged_against_the_budget() {
        let a = {
            let w = Workload::from_text(TWO_MODES).unwrap();
            let registry = SessionRegistry::new();
            let budget = Budget::unlimited().with_max_size(1);
            analyze_workload(&w, &registry, &budget).unwrap()
        };
        assert!(
            matches!(a.outcome, AnalysisOutcome::Degraded { .. }),
            "{:?}",
            a.outcome
        );
    }

    #[test]
    fn csdf_decomposition_matches_the_dedicated_pipeline() {
        // The CLI test graph: one actor, phases 1,3 on a self-loop.
        let text = "csdf w\nactor w 1,3\nchannel w w 1,1 1,1 1\n";
        let g = sdfr_io::csdf::from_text(text).unwrap();
        let w = workload_from_csdf(&g).unwrap();
        assert_eq!(w.scenarios.len(), 2);
        assert_eq!(w.fsm.transitions, vec![(0, 1, 0), (1, 0, 0)]);
        let registry = SessionRegistry::new();
        let a = analyze_workload(&w, &registry, &Budget::unlimited()).unwrap();
        // sdfr csdf reports iteration period 4 over 2 phases: 2 per step.
        assert_eq!(a.outcome, AnalysisOutcome::Exact(Some(Rational::from(2))));
    }

    #[test]
    fn csdf_decomposition_rejects_unbalanced_phases() {
        let text = "csdf w\nactor w 1,3\nchannel w w 2,1 1,2 2\n";
        let g = sdfr_io::csdf::from_text(text).unwrap();
        let err = workload_from_csdf(&g).unwrap_err();
        assert!(matches!(err, SadfError::Invalid(_)), "{err}");
    }

    #[test]
    fn sessions_are_shared_through_the_registry() {
        let w = Workload::from_text(TWO_MODES).unwrap();
        let registry = SessionRegistry::new();
        let cold = analyze_workload(&w, &registry, &Budget::unlimited()).unwrap();
        assert!(cold.sessions.iter().all(|(_, l)| matches!(l, Lookup::Miss)));
        let warm = analyze_workload(&w, &registry, &Budget::unlimited()).unwrap();
        assert!(warm.sessions.iter().all(|(_, l)| matches!(l, Lookup::Hit)));
        assert_eq!(warm.outcome, cold.outcome);
    }
}
