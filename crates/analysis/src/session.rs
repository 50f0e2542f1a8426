//! A memoizing, budget-aware per-graph analysis context.
//!
//! The paper's central observation is that the `N×N` max-plus matrix of one
//! iteration is the *reusable* compressed artifact of an SDF graph: every
//! exact analysis — throughput, bottleneck, buffer sizing, the novel HSDF
//! conversion — starts from it. Historically each free function recomputed
//! the repetition vector, the schedule and the symbolic iteration from
//! scratch; an [`AnalysisSession`] computes each artifact at most once and
//! shares it across analyses (and across threads — every accessor takes
//! `&self`).
//!
//! # Budget accounting
//!
//! A session owns one [`Budget`] and keeps a cumulative firing count: each
//! lazy computation runs under a meter resumed from the running total
//! ([`Budget::meter_resuming`]), so a firing cap applies to the *sum* of all
//! work the session ever did — strictly stronger than a fresh meter per
//! phase. An exhausted computation yields [`SdfError::Exhausted`], which is
//! cached like any other result (asking again does not retry, because the
//! budget could only be more depleted).
//!
//! The rate-optimal schedule and the probes of the capacity searches are
//! the exception: each call or probe charges a fresh meter of the session
//! budget, not the running total.
//!
//! The session is the *only* capped form of each analysis: the free
//! functions (`throughput(g)`, `symbolic_iteration(g)`, …) run uncapped,
//! and a caller with caps builds [`AnalysisSession::with_budget`] and asks
//! it instead.
//!
//! # Thread safety
//!
//! All artifacts live in [`OnceLock`]s, so a `&AnalysisSession` can be
//! shared across [`std::thread::scope`] workers; concurrent first accesses
//! block until the single in-flight computation finishes. Concurrent
//! computations of *different* artifacts may each resume metering from the
//! same running total (the update is applied after the phase completes), so
//! parallel phases are charged like the parallel probes of the capacity
//! searches: per worker, against the shared deadline and cancellation flag.
//!
//! # Invalidation
//!
//! There is none, by construction: [`SdfGraph`]s are immutable once built,
//! so a session is valid for exactly the graph it holds. Use
//! [`AnalysisSession::fingerprint`] (a content hash) to key external caches
//! of session-derived results; any graph edit builds a *new* graph — and
//! warrants a new session.
//!
//! # Example
//!
//! ```
//! use sdfr_analysis::AnalysisSession;
//! use sdfr_graph::SdfGraph;
//!
//! let mut b = SdfGraph::builder("g");
//! let x = b.actor("x", 2);
//! let y = b.actor("y", 3);
//! b.channel(x, y, 1, 1, 0)?;
//! b.channel(y, x, 1, 1, 1)?;
//! let session = AnalysisSession::new(b.build()?);
//!
//! let throughput = session.throughput()?;          // one symbolic iteration…
//! let bottleneck = session.bottleneck()?.unwrap(); // …reused here
//! assert_eq!(Some(bottleneck.period), throughput.period());
//! assert_eq!(session.symbolic_iterations_computed(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sdfr_graph::budget::{Budget, BudgetMeter};
use sdfr_graph::repetition::{repetition_vector, RepetitionVector};
use sdfr_graph::schedule::{sequential_schedule_metered, Schedule};
use sdfr_graph::{SdfError, SdfGraph, Time};
use sdfr_maxplus::Rational;

use crate::bottleneck::{bottleneck_from_symbolic, Bottleneck};
use crate::buffer::{
    minimize_capacities_with_target, sufficient_capacities_with_target,
    throughput_buffer_tradeoff_with_target, ParetoPoint,
};
use crate::engine::{EngineArchive, IncrementalSeed, SymbolicEngine};
use crate::static_schedule::{synthesize_rate_optimal, StaticSchedule};
use crate::symbolic::SymbolicIteration;
use crate::throughput::ThroughputAnalysis;

/// A lazily-memoized result slot. Errors are cached too: the budget can only
/// be more depleted on a retry, and all other failures (inconsistency,
/// deadlock, overflow) are properties of the immutable graph.
type Slot<T> = OnceLock<Result<T, SdfError>>;

/// The headline artifacts of a warmed session, detached from the session so
/// they can be persisted and restored across process restarts (the
/// `sdfr serve --cache-dir` journal).
///
/// Deliberately small: only the eigenvalue result — the one artifact whose
/// recomputation costs a full symbolic iteration — plus the cumulative
/// budget charge and a little schedule metadata. Everything else a session
/// caches is either cheap to recompute (γ, the conservative fallback bound)
/// or too large to be worth persisting (the `N×N` matrix itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionArtifacts {
    /// The graph fingerprint the artifacts belong to.
    pub fingerprint: u64,
    /// The cached eigenvalue slot verbatim: the period (or `None` for
    /// unbounded throughput), or the error the computation settled on.
    pub eigenvalue: Result<Option<Rational>, SdfError>,
    /// Cumulative firings charged when the artifacts were exported.
    pub spent: u64,
    /// `Σγ(a)` firings of the sequential schedule, when it was resident.
    pub schedule_firings: Option<u64>,
}

/// A per-graph analysis context: owns the graph, memoizes every derived
/// artifact, and charges all work to one cumulative budget.
///
/// See the [module documentation](self) for the caching, budgeting and
/// thread-safety contracts.
#[derive(Debug)]
pub struct AnalysisSession {
    graph: Arc<SdfGraph>,
    budget: Budget,
    fingerprint: u64,
    /// Cumulative firings charged across all completed phases.
    spent: AtomicU64,
    /// Number of lazy artifact computations performed (cache misses).
    computations: AtomicU64,
    /// Number of symbolic iterations actually executed (≤ 2: at most one
    /// without and one with firing stamps).
    symbolic_runs: AtomicU64,
    gamma: Slot<RepetitionVector>,
    schedule: Slot<Schedule>,
    symbolic: Slot<SymbolicIteration>,
    symbolic_stamps: Slot<SymbolicIteration>,
    eigenvalue: Slot<Option<Rational>>,
    sccs: Slot<Vec<Vec<usize>>>,
    bottleneck: Slot<Option<Bottleneck>>,
    makespan: Slot<Time>,
    /// A delta-warm starting point installed before the symbolic phase runs
    /// (near-hit resolution by the registry or a buffer-search seeder);
    /// consumed by the first stamp-less symbolic computation.
    seed: Mutex<Option<IncrementalSeed>>,
    /// The archived engine state of this session's symbolic phase (complete
    /// or budget-exhausted), available for later sessions to resume/fork.
    archive: OnceLock<Arc<EngineArchive>>,
}

impl AnalysisSession {
    /// Creates a session over `graph` with an unlimited budget.
    ///
    /// Accepts anything convertible into an `Arc<SdfGraph>` — pass an owned
    /// graph, or an `Arc` to share the graph with other sessions or threads
    /// without copying it.
    pub fn new(graph: impl Into<Arc<SdfGraph>>) -> Self {
        Self::with_budget(graph, Budget::unlimited())
    }

    /// Creates a session over `graph`; all analyses are charged cumulatively
    /// against `budget` (see the [module documentation](self)).
    pub fn with_budget(graph: impl Into<Arc<SdfGraph>>, budget: Budget) -> Self {
        let graph = graph.into();
        let fingerprint = graph.fingerprint();
        AnalysisSession {
            graph,
            budget,
            fingerprint,
            spent: AtomicU64::new(0),
            computations: AtomicU64::new(0),
            symbolic_runs: AtomicU64::new(0),
            gamma: OnceLock::new(),
            schedule: OnceLock::new(),
            symbolic: OnceLock::new(),
            symbolic_stamps: OnceLock::new(),
            eigenvalue: OnceLock::new(),
            sccs: OnceLock::new(),
            bottleneck: OnceLock::new(),
            makespan: OnceLock::new(),
            seed: Mutex::new(None),
            archive: OnceLock::new(),
        }
    }

    /// Installs a delta-warm starting point for the symbolic phase: when the
    /// first (stamp-less) symbolic iteration runs, it resumes or forks from
    /// `seed` instead of executing from scratch — with byte-identical
    /// results, by SDF determinacy. Returns `false` (seed dropped) when the
    /// symbolic iteration already ran, a seed is already installed, or the
    /// session budget is not content-addressable (deadline/cancel budgets
    /// make warm and cold runs observationally different, so they always
    /// run cold).
    pub fn install_seed(&self, seed: IncrementalSeed) -> bool {
        if self.symbolic.get().is_some()
            || self.symbolic_stamps.get().is_some()
            || !self.budget.is_content_addressable()
        {
            return false;
        }
        let mut slot = self.seed.lock().expect("seed lock poisoned");
        if slot.is_some() {
            return false;
        }
        *slot = Some(seed);
        true
    }

    /// The archived engine state of this session's symbolic phase, once one
    /// ran to completion or budget exhaustion under a content-addressable
    /// budget. Later sessions resume or fork it via [`IncrementalSeed`].
    pub fn engine_archive(&self) -> Option<Arc<EngineArchive>> {
        self.archive.get().cloned()
    }

    /// Attaches a previously persisted engine archive (journal restore).
    /// Returns `false` when the archive belongs to a different graph or one
    /// is already resident.
    pub fn attach_archive(&self, archive: Arc<EngineArchive>) -> bool {
        if **archive.graph() != *self.graph {
            return false;
        }
        self.archive.set(archive).is_ok()
    }

    /// The graph under analysis.
    pub fn graph(&self) -> &Arc<SdfGraph> {
        &self.graph
    }

    /// The budget all session work is charged against.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The graph's content [fingerprint](SdfGraph::fingerprint), captured at
    /// construction — the key to use for external caches of session results.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Cumulative firings (and equivalent algorithm steps) charged by all
    /// completed phases of this session.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Acquire)
    }

    /// Number of artifact computations performed so far (cache misses). A
    /// repeated query does not increase this.
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Number of symbolic iterations actually executed. The whole `analyze`
    /// pipeline — throughput, eigenvalue, bottleneck, SCCs — needs exactly
    /// one.
    pub fn symbolic_iterations_computed(&self) -> u64 {
        self.symbolic_runs.load(Ordering::Relaxed)
    }

    /// `true` once the artifacts [`Self::throughput`] assembles — the
    /// eigenvalue and the repetition vector — are resident, i.e. the next
    /// throughput query answers from cache without running (or waiting on)
    /// the symbolic iteration. A fill in progress on another thread still
    /// reads as cold: `OnceLock::get` never blocks. Deadline-bounded
    /// front-ends (the `sdfr serve` response-deadline path) use this probe
    /// to decide between answering immediately and warming in the
    /// background.
    pub fn throughput_is_warm(&self) -> bool {
        self.eigenvalue.get().is_some() && self.gamma.get().is_some()
    }

    /// Exports the headline artifacts of a warmed session for external
    /// persistence, or `None` while the eigenvalue is still cold (there is
    /// nothing worth persisting before the symbolic iteration has settled).
    pub fn export_artifacts(&self) -> Option<SessionArtifacts> {
        let eigenvalue = self.eigenvalue.get()?.clone();
        let schedule_firings = match self.schedule.get() {
            Some(Ok(s)) => Some(s.firings().len() as u64),
            _ => None,
        };
        Some(SessionArtifacts {
            fingerprint: self.fingerprint,
            eigenvalue,
            spent: self.spent(),
            schedule_firings,
        })
    }

    /// Seeds a cold session with previously exported artifacts, making
    /// [`Self::throughput`] answer from cache without a symbolic iteration.
    /// Returns `false` (and changes nothing) when the fingerprints disagree
    /// or the eigenvalue slot is already filled.
    ///
    /// Only the throughput headline is restored: γ is recomputed on the spot
    /// (it is cheap and deterministic), the symbolic matrix is not — a later
    /// `bottleneck()` or capacity query on an imported session recomputes it
    /// under the (restored) cumulative budget, which can only be *more*
    /// conservative than the original session's accounting.
    pub fn import_artifacts(&self, artifacts: &SessionArtifacts) -> bool {
        if artifacts.fingerprint != self.fingerprint || self.eigenvalue.get().is_some() {
            return false;
        }
        // γ first: an eigenvalue artifact can only have come from a
        // consistent graph, and `throughput_is_warm` requires both slots.
        let _ = self.repetition_vector();
        if self.eigenvalue.set(artifacts.eigenvalue.clone()).is_err() {
            return false;
        }
        // Restore the cumulative charge so later phases resume metering
        // from where the exporting session left off.
        self.spent.fetch_max(artifacts.spent, Ordering::AcqRel);
        true
    }

    /// A heuristic estimate of the heap bytes retained by this session: the
    /// graph plus every artifact cached so far. Grows as the session warms
    /// up — the symbolic iteration alone retains `O(N²)` entries for `N`
    /// initial tokens. Used by `registry::SessionRegistry` to bound its
    /// total footprint; the estimate is deliberately coarse (element counts
    /// times element sizes, ignoring allocator slack).
    pub fn bytes_estimate(&self) -> u64 {
        const ACTOR_BYTES: u64 = 56; // name ptr/len/cap + exec time + adjacency vecs
        const CHANNEL_BYTES: u64 = 48; // five u64 fields plus adjacency entries
        const MP_VALUE_BYTES: u64 = 16; // a max-plus value (tagged i64)

        let g = &self.graph;
        let n_actors = g.num_actors() as u64;
        let n_channels = g.num_channels() as u64;
        let mut bytes = std::mem::size_of::<Self>() as u64
            + g.name().len() as u64
            + g.actors().map(|(_, a)| a.name().len() as u64).sum::<u64>()
            + n_actors * ACTOR_BYTES
            + n_channels * CHANNEL_BYTES;
        if self.gamma.get().is_some() {
            bytes += n_actors * 8;
        }
        if let Some(Ok(s)) = self.schedule.get() {
            bytes += s.firings().len() as u64 * 8;
        }
        for slot in [&self.symbolic, &self.symbolic_stamps] {
            if let Some(Ok(sym)) = slot.get() {
                let n = sym.num_tokens() as u64;
                // Matrix, token refs + reverse lookup.
                bytes += n * n * MP_VALUE_BYTES + n * 48;
                if let Some(stamps) = &sym.firing_stamps {
                    let firings: u64 = stamps.iter().map(|f| f.len() as u64).sum();
                    bytes += firings * 2 * n * MP_VALUE_BYTES;
                }
            }
        }
        if let Some(Ok(sccs)) = self.sccs.get() {
            bytes += sccs.iter().map(|c| c.len() as u64 * 8 + 24).sum::<u64>();
        }
        if let Some(archive) = self.archive.get() {
            bytes += archive.entries() * MP_VALUE_BYTES + archive.num_checkpoints() as u64 * 64;
        }
        // Eigenvalue, bottleneck, makespan: small fixed-size artifacts.
        bytes + 128
    }

    /// Runs `op` under a meter resumed from the session's cumulative firing
    /// count, then folds the phase's charge back into the total. This is how
    /// every session phase preserves the budget's degradation semantics; it
    /// is public so composite analyses built *on top of* a session (e.g. the
    /// HSDF conversions in `sdfr-core`) can charge their own phases to the
    /// same budget.
    ///
    /// # Errors
    ///
    /// Whatever `op` returns; the charge is recorded either way.
    pub fn with_meter<T>(
        &self,
        op: impl FnOnce(&mut BudgetMeter<'_>) -> Result<T, SdfError>,
    ) -> Result<T, SdfError> {
        let before = self.spent.load(Ordering::Acquire);
        let mut meter = self.budget.meter_resuming(before);
        let result = op(&mut meter);
        let delta = meter.spent().saturating_sub(before);
        if delta > 0 {
            self.spent.fetch_add(delta, Ordering::AcqRel);
        }
        result
    }

    /// Marks one artifact computation (cache miss).
    fn miss(&self) {
        self.computations.fetch_add(1, Ordering::Relaxed);
    }

    /// The repetition vector γ, computed once.
    ///
    /// # Errors
    ///
    /// [`SdfError::Inconsistent`] if the graph has no repetition vector.
    pub fn repetition_vector(&self) -> Result<&RepetitionVector, SdfError> {
        self.gamma
            .get_or_init(|| {
                self.miss();
                repetition_vector(&self.graph)
            })
            .as_ref()
            .map_err(SdfError::clone)
    }

    /// A sequential single-iteration schedule, computed once and charged to
    /// the session budget (`Σγ(a)` firings).
    ///
    /// # Errors
    ///
    /// [`SdfError::Inconsistent`], [`SdfError::Deadlock`], or
    /// [`SdfError::Exhausted`] under the session budget.
    pub fn sequential_schedule(&self) -> Result<&Schedule, SdfError> {
        self.schedule
            .get_or_init(|| {
                let gamma = match self.repetition_vector() {
                    Ok(gamma) => gamma,
                    Err(e) => return Err(e),
                };
                self.miss();
                self.with_meter(|m| sequential_schedule_metered(&self.graph, gamma, m))
            })
            .as_ref()
            .map_err(SdfError::clone)
    }

    /// The symbolic iteration (paper Alg. 1): the `N×N` max-plus matrix over
    /// the initial tokens, computed once from the cached γ and schedule.
    ///
    /// If the stamped variant ([`Self::symbolic_with_stamps`]) was already
    /// computed, it is returned instead of running a second iteration — it
    /// carries strictly more information.
    ///
    /// # Errors
    ///
    /// As [`crate::symbolic::symbolic_iteration`], plus
    /// [`SdfError::Exhausted`] when the session budget refuses the `N×N`
    /// state or runs out.
    pub fn symbolic(&self) -> Result<&SymbolicIteration, SdfError> {
        if let Some(Ok(sym)) = self.symbolic_stamps.get() {
            return Ok(sym);
        }
        self.symbolic
            .get_or_init(|| self.compute_symbolic(false))
            .as_ref()
            .map_err(SdfError::clone)
    }

    /// The symbolic iteration with per-firing `(start, end)` stamps (needed
    /// to wire observed actors into the novel conversion), computed once.
    ///
    /// # Errors
    ///
    /// See [`Self::symbolic`].
    pub fn symbolic_with_stamps(&self) -> Result<&SymbolicIteration, SdfError> {
        self.symbolic_stamps
            .get_or_init(|| self.compute_symbolic(true))
            .as_ref()
            .map_err(SdfError::clone)
    }

    fn compute_symbolic(&self, record_stamps: bool) -> Result<SymbolicIteration, SdfError> {
        // Engines are archived (and seeds honoured) only for stamp-less runs
        // under content-addressable budgets: stamped iterations would need
        // the skipped prefix's stamps, and deadline/cancel budgets make
        // warm-vs-cold observationally different.
        let reusable = !record_stamps && self.budget.is_content_addressable();
        self.run_symbolic(|gamma, schedule, m| {
            let seed = if reusable {
                self.seed.lock().expect("seed lock poisoned").take()
            } else {
                None
            };
            // Warm path: resume or fork the seeded base. Budget accounting
            // replicates the cold run exactly (`charge_skipped`), so results
            // — including Exhausted errors — are byte-identical.
            if let Some(mut engine) = seed.as_ref().and_then(|s| s.make_engine(&self.graph)) {
                engine.enable_checkpoints();
                let run = engine.charge_skipped(m).and_then(|()| {
                    if engine.is_forked() {
                        engine.run_greedy(m)
                    } else {
                        engine.run_scheduled(schedule, m)
                    }
                });
                return self.settle_engine(engine, run, reusable);
            }

            // Cold path: the plain scheduled execution, with checkpoints
            // recorded when the state may be reused later.
            let mut engine = SymbolicEngine::new(self.graph.clone(), gamma, record_stamps, m)?;
            if reusable {
                engine.enable_checkpoints();
            }
            let run = engine.run_scheduled(schedule, m);
            self.settle_engine(engine, run, reusable)
        })
    }

    /// The one orchestration of Alg. 1: the size cap on the `N` initial
    /// tokens, then γ and the sequential schedule (cached, each charged as
    /// its own phase), then `engine` under a meter resumed from the session
    /// total. The session's symbolic slots and the uncapped
    /// [`symbolic_iteration`](crate::symbolic::symbolic_iteration) both run
    /// through here and differ only in the engine they finish with.
    pub(crate) fn run_symbolic(
        &self,
        engine: impl FnOnce(
            &RepetitionVector,
            &Schedule,
            &mut BudgetMeter<'_>,
        ) -> Result<SymbolicIteration, SdfError>,
    ) -> Result<SymbolicIteration, SdfError> {
        // Fail on the size cap before investing in γ or the schedule: the
        // matrix is N×N and every stamp vector has N entries.
        let token_total = self
            .graph
            .channels()
            .try_fold(0u64, |s, (_, ch)| s.checked_add(ch.initial_tokens()))
            .ok_or(SdfError::Overflow {
                what: "initial token count",
            })?;
        self.budget.meter().check_size(token_total)?;

        let schedule = self.sequential_schedule()?;
        let gamma = self.repetition_vector()?;
        self.miss();
        self.symbolic_runs.fetch_add(1, Ordering::Relaxed);
        self.with_meter(|m| engine(gamma, schedule, m))
    }

    /// Archives the engine's state when worthwhile, then converts the run
    /// outcome into the symbolic result. Archives are kept on success *and*
    /// on budget exhaustion — a later session with a higher cap resumes the
    /// partial prefix — but not on deadlock/overflow (re-running cannot
    /// change those) and not when the state outgrew the snapshot gate.
    fn settle_engine(
        &self,
        engine: SymbolicEngine,
        run: Result<(), SdfError>,
        reusable: bool,
    ) -> Result<SymbolicIteration, SdfError> {
        let keep = reusable
            && engine.is_compact()
            && matches!(&run, Ok(()) | Err(SdfError::Exhausted { .. }));
        if keep {
            let _ = self.archive.set(engine.archive());
        }
        run.map(|()| engine.finish())
    }

    /// The max-plus eigenvalue λ of the iteration matrix — the iteration
    /// period, `None` when no recurrent constraint exists — computed once.
    ///
    /// # Errors
    ///
    /// See [`Self::symbolic`].
    pub fn eigenvalue(&self) -> Result<Option<Rational>, SdfError> {
        self.eigenvalue
            .get_or_init(|| {
                let sym = self.symbolic()?;
                self.miss();
                sym.matrix
                    .eigenvalue()
                    .map_err(SdfError::cycle_ratio_overflow)
            })
            .clone()
    }

    /// The throughput analysis (period + per-actor throughput), assembled
    /// from the cached eigenvalue and repetition vector.
    ///
    /// # Errors
    ///
    /// See [`Self::symbolic`].
    pub fn throughput(&self) -> Result<ThroughputAnalysis, SdfError> {
        let period = self.eigenvalue()?;
        let gamma = self.repetition_vector()?.clone();
        Ok(ThroughputAnalysis::from_parts(period, gamma))
    }

    /// The bottleneck report (critical tokens, channels, actors), computed
    /// once from the cached symbolic iteration; `None` when throughput is
    /// unbounded.
    ///
    /// # Errors
    ///
    /// See [`Self::symbolic`], plus [`SdfError::Overflow`] as
    /// [`bottleneck_from_symbolic`].
    pub fn bottleneck(&self) -> Result<Option<Bottleneck>, SdfError> {
        self.bottleneck
            .get_or_init(|| {
                let sym = self.symbolic()?;
                self.miss();
                bottleneck_from_symbolic(&self.graph, sym)
            })
            .clone()
    }

    /// The strongly connected components of the iteration matrix's
    /// precedence graph (token indices, each component sorted ascending),
    /// computed once.
    ///
    /// # Errors
    ///
    /// See [`Self::symbolic`].
    pub fn precedence_sccs(&self) -> Result<&[Vec<usize>], SdfError> {
        self.sccs
            .get_or_init(|| {
                let sym = self.symbolic()?;
                self.miss();
                let pg = sym
                    .matrix
                    .precedence_graph()
                    .expect("iteration matrix is square");
                Ok(pg.sccs())
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(SdfError::clone)
    }

    /// The completion time of the first self-timed iteration, computed once
    /// by simulation (see [`crate::latency::iteration_makespan`]).
    ///
    /// # Errors
    ///
    /// See [`crate::latency::iteration_makespan`].
    pub fn iteration_makespan(&self) -> Result<Time, SdfError> {
        self.makespan
            .get_or_init(|| {
                self.miss();
                crate::latency::iteration_makespan(&self.graph)
            })
            .clone()
    }

    /// A rate-optimal static periodic schedule (see
    /// [`crate::static_schedule::rate_optimal_schedule`]) under the session
    /// budget.
    ///
    /// HSDF graphs produced by the traditional conversion have `Σγ(a)`
    /// actors — potentially exponential in the original description — and
    /// schedule synthesis runs the cycle-ratio policy iteration and a sparse
    /// longest-path relaxation over them. The size cap rejects oversized
    /// inputs before any per-actor state is allocated; the deadline and
    /// cancellation flag are polled before and after the cycle-ratio
    /// solve. Each call charges a fresh meter, not the session total.
    ///
    /// Not memoized: the result is large and typically requested once.
    ///
    /// # Errors
    ///
    /// As [`crate::static_schedule::rate_optimal_schedule`], plus
    /// [`SdfError::Exhausted`] when the budget refuses the input or runs out.
    pub fn rate_optimal_schedule(&self) -> Result<Option<StaticSchedule>, SdfError> {
        synthesize_rate_optimal(&self.graph, &mut self.budget.meter())
    }

    /// Throughput-preserving channel capacities (see
    /// [`crate::buffer::sufficient_capacities`]), reusing the session's
    /// cached unconstrained period as the target.
    ///
    /// Every probe of the search (the self-timed simulation and each
    /// verification of a candidate allocation) is charged against the
    /// session budget: a deadline or cancellation flag bounds the whole
    /// search, while a firing cap applies to each probe individually (each
    /// probe creates its own meter).
    ///
    /// Not memoized: the result depends on `iterations`.
    ///
    /// # Errors
    ///
    /// As [`crate::buffer::sufficient_capacities`], plus
    /// [`SdfError::Exhausted`] when the budget runs out mid-search.
    pub fn sufficient_capacities(&self, iterations: u64) -> Result<Vec<u64>, SdfError> {
        let target = self.eigenvalue()?;
        sufficient_capacities_with_target(&self.graph, iterations, &self.budget, target)
    }

    /// Locally-minimal throughput-preserving capacities (see
    /// [`crate::buffer::minimize_capacities`]), reusing the session's cached
    /// unconstrained period as the target. The shrink search fans out over
    /// scoped threads; its probes are charged as in
    /// [`Self::sufficient_capacities`].
    ///
    /// Not memoized: the result depends on `iterations`.
    ///
    /// # Errors
    ///
    /// As [`crate::buffer::minimize_capacities`], plus
    /// [`SdfError::Exhausted`] when the budget runs out mid-search.
    pub fn minimize_capacities(&self, iterations: u64) -> Result<Vec<u64>, SdfError> {
        let target = self.eigenvalue()?;
        minimize_capacities_with_target(&self.graph, iterations, &self.budget, target)
    }

    /// The throughput/buffer trade-off curve (see
    /// [`crate::buffer::throughput_buffer_tradeoff`]), reusing the session's
    /// cached unconstrained period as the target. Candidate probes of each
    /// step fan out over scoped threads.
    ///
    /// Not memoized: the result depends on `iterations`.
    ///
    /// # Errors
    ///
    /// See [`crate::buffer::throughput_buffer_tradeoff`].
    pub fn throughput_buffer_tradeoff(
        &self,
        iterations: u64,
    ) -> Result<Vec<ParetoPoint>, SdfError> {
        let target = self.eigenvalue()?;
        throughput_buffer_tradeoff_with_target(&self.graph, iterations, target, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck::bottleneck;
    use crate::throughput::throughput;

    fn fig3() -> SdfGraph {
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 0).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn one_symbolic_iteration_feeds_every_analysis() {
        let g = fig3();
        let s = AnalysisSession::new(g.clone());
        let thr = s.throughput().unwrap();
        let bn = s.bottleneck().unwrap().unwrap();
        let sccs = s.precedence_sccs().unwrap().to_vec();
        let _ = s.iteration_makespan().unwrap();
        assert_eq!(s.symbolic_iterations_computed(), 1);

        // Identical to the free functions.
        assert_eq!(thr.period(), throughput(&g).unwrap().period());
        assert_eq!(Some(bn), bottleneck(&g).unwrap());
        assert!(!sccs.is_empty());
    }

    #[test]
    fn repeated_queries_do_not_recompute() {
        let s = AnalysisSession::new(fig3());
        let _ = s.throughput().unwrap();
        let misses = s.computations();
        for _ in 0..5 {
            let _ = s.throughput().unwrap();
            let _ = s.eigenvalue().unwrap();
            let _ = s.symbolic().unwrap();
        }
        assert_eq!(s.computations(), misses);
    }

    #[test]
    fn stamps_variant_subsumes_the_plain_one() {
        let s = AnalysisSession::new(fig3());
        let stamped = s.symbolic_with_stamps().unwrap();
        assert!(stamped.firing_stamps.is_some());
        // The plain accessor reuses the stamped result: still one run.
        let plain = s.symbolic().unwrap();
        assert!(plain.firing_stamps.is_some());
        assert_eq!(s.symbolic_iterations_computed(), 1);
    }

    #[test]
    fn budget_is_charged_cumulatively_across_phases() {
        use sdfr_graph::budget::BudgetResource;
        // fig3: 3 firings per iteration; schedule + symbolic charge ~6.
        // A cap of 4 lets the schedule through but not the symbolic phase.
        let g = fig3();
        let s = AnalysisSession::with_budget(g, Budget::unlimited().with_max_firings(4));
        assert!(s.sequential_schedule().is_ok());
        assert!(s.spent() >= 3);
        match s.throughput() {
            Err(SdfError::Exhausted {
                resource: BudgetResource::Firings,
                limit: 4,
                ..
            }) => {}
            other => panic!("expected cumulative exhaustion, got {other:?}"),
        }
        // The error is cached, not retried.
        assert!(matches!(s.throughput(), Err(SdfError::Exhausted { .. })));
    }

    #[test]
    fn sessions_are_shareable_across_threads() {
        let s = AnalysisSession::new(fig3());
        let period = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| s.throughput().unwrap().period()))
                .collect();
            let mut periods: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            periods.dedup();
            assert_eq!(periods.len(), 1);
            periods.pop().unwrap()
        });
        assert_eq!(period, s.eigenvalue().unwrap());
        assert_eq!(s.symbolic_iterations_computed(), 1);
    }

    #[test]
    fn buffer_searches_reuse_the_cached_target() {
        let mut b = SdfGraph::builder("pipe");
        let x = b.actor("x", 2);
        let y = b.actor("y", 5);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let s = AnalysisSession::new(g.clone());
        assert_eq!(
            s.minimize_capacities(16).unwrap(),
            crate::buffer::minimize_capacities(&g, 16).unwrap()
        );
        assert_eq!(
            s.throughput_buffer_tradeoff(16).unwrap(),
            crate::buffer::throughput_buffer_tradeoff(&g, 16).unwrap()
        );
        // The session ran exactly one symbolic iteration of the *original*
        // graph; all probes analyse capacity-variant copies.
        assert_eq!(s.symbolic_iterations_computed(), 1);
    }

    #[test]
    fn bytes_estimate_grows_as_the_session_warms() {
        let s = AnalysisSession::new(fig3());
        let cold = s.bytes_estimate();
        assert!(cold > 0);
        let _ = s.throughput().unwrap();
        let warm = s.bytes_estimate();
        assert!(
            warm > cold,
            "cached artifacts must be accounted: {warm} <= {cold}"
        );
        let _ = s.symbolic_with_stamps().unwrap();
        assert!(s.bytes_estimate() > warm, "stamps add retained bytes");
    }

    #[test]
    fn artifacts_round_trip_into_a_cold_session() {
        let g = fig3();
        let warm = AnalysisSession::new(g.clone());
        assert!(
            warm.export_artifacts().is_none(),
            "cold session: nothing to export"
        );
        let thr = warm.throughput().unwrap();
        let artifacts = warm.export_artifacts().unwrap();
        assert_eq!(artifacts.fingerprint, warm.fingerprint());
        assert!(artifacts.spent > 0);
        assert_eq!(artifacts.schedule_firings, Some(3));

        let restored = AnalysisSession::new(g);
        assert!(!restored.throughput_is_warm());
        assert!(restored.import_artifacts(&artifacts));
        assert!(restored.throughput_is_warm());
        assert_eq!(restored.throughput().unwrap(), thr);
        assert_eq!(restored.spent(), artifacts.spent);
        // The symbolic iteration itself was never re-run.
        assert_eq!(restored.symbolic_iterations_computed(), 0);
        // A second import is refused, as is a mismatched fingerprint.
        assert!(!restored.import_artifacts(&artifacts));
        let other = AnalysisSession::new(fig3());
        let bogus = SessionArtifacts {
            fingerprint: artifacts.fingerprint ^ 1,
            ..artifacts
        };
        assert!(!other.import_artifacts(&bogus));
        assert!(!other.throughput_is_warm());
    }

    #[test]
    fn exhausted_artifacts_restore_the_exhaustion() {
        let g = fig3();
        let s = AnalysisSession::with_budget(g.clone(), Budget::unlimited().with_max_firings(4));
        let err = s.throughput().unwrap_err();
        let artifacts = s.export_artifacts().unwrap();
        assert_eq!(artifacts.eigenvalue, Err(err.clone()));

        let restored = AnalysisSession::with_budget(g, Budget::unlimited().with_max_firings(4));
        assert!(restored.import_artifacts(&artifacts));
        assert_eq!(restored.throughput().unwrap_err(), err);
    }

    #[test]
    fn seeded_sessions_answer_byte_identically_to_cold_ones() {
        // Warm a base session; its engine archive seeds (a) a resume of the
        // same graph and (b) forks across a one-channel token delta. Every
        // seeded answer must equal the cold session's bit for bit.
        let base = AnalysisSession::new(fig3());
        let _ = base.throughput().unwrap();
        let archive = base
            .engine_archive()
            .expect("content-addressable run archives");
        assert!(archive.completed());

        // (a) Resume: same graph, fresh session.
        let resumed = AnalysisSession::new(fig3());
        assert!(resumed.install_seed(IncrementalSeed {
            base: archive.clone(),
            delta: None,
        }));
        let cold = AnalysisSession::new(fig3());
        assert_eq!(resumed.throughput().unwrap(), cold.throughput().unwrap());
        assert_eq!(
            resumed.symbolic().unwrap().matrix,
            cold.symbolic().unwrap().matrix
        );
        assert_eq!(resumed.spent(), cold.spent(), "budget accounting parity");

        // (b) Fork: vary the l→r channel (consumed last in the schedule).
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 3).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        let variant = b.build().unwrap();
        let delta = base.graph().initial_token_delta(&variant).unwrap();
        let forked = AnalysisSession::new(variant.clone());
        assert!(forked.install_seed(IncrementalSeed {
            base: archive,
            delta: Some(delta),
        }));
        let cold = AnalysisSession::new(variant);
        assert_eq!(forked.throughput().unwrap(), cold.throughput().unwrap());
        assert_eq!(
            forked.symbolic().unwrap().matrix,
            cold.symbolic().unwrap().matrix
        );
        assert_eq!(forked.spent(), cold.spent(), "budget accounting parity");
    }

    #[test]
    fn seeds_are_refused_when_stale_or_non_addressable() {
        let base = AnalysisSession::new(fig3());
        let _ = base.throughput().unwrap();
        let archive = base.engine_archive().unwrap();
        let seed = IncrementalSeed {
            base: archive.clone(),
            delta: None,
        };
        // Already-computed symbolic: refused.
        assert!(!base.install_seed(seed.clone()));
        // Deadline budgets run cold by design.
        let deadlined = AnalysisSession::with_budget(
            fig3(),
            Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600)),
        );
        assert!(!deadlined.install_seed(seed.clone()));
        assert!(deadlined.throughput().is_ok());
        assert!(
            deadlined.engine_archive().is_none(),
            "no archive under deadline"
        );
        // Double install: refused.
        let fresh = AnalysisSession::new(fig3());
        assert!(fresh.install_seed(seed.clone()));
        assert!(!fresh.install_seed(seed));
    }

    #[test]
    fn exhausted_sessions_archive_their_partial_prefix() {
        // Cap 4: schedule (3) passes, symbolic dies after 1 firing. The
        // partial engine is archived so a higher-cap session can resume it.
        let s = AnalysisSession::with_budget(fig3(), Budget::unlimited().with_max_firings(4));
        let err = s.throughput().unwrap_err();
        assert!(matches!(err, SdfError::Exhausted { .. }));
        let archive = s.engine_archive().expect("partial archive kept");
        assert!(!archive.completed());
        assert_eq!(archive.firings_done(), 1);

        // Resume under an ample budget: same answer as a cold ample run.
        let resumed = AnalysisSession::new(fig3());
        assert!(resumed.install_seed(IncrementalSeed {
            base: archive,
            delta: None,
        }));
        let cold = AnalysisSession::new(fig3());
        assert_eq!(resumed.throughput().unwrap(), cold.throughput().unwrap());
        assert_eq!(resumed.spent(), cold.spent());
    }

    #[test]
    fn attach_archive_verifies_the_graph() {
        let base = AnalysisSession::new(fig3());
        let _ = base.throughput().unwrap();
        let archive = base.engine_archive().unwrap();
        let same = AnalysisSession::new(fig3());
        assert!(same.attach_archive(archive.clone()));
        assert!(
            !same.attach_archive(archive.clone()),
            "second attach refused"
        );
        let mut b = SdfGraph::builder("other");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 1).unwrap();
        let other = AnalysisSession::new(b.build().unwrap());
        assert!(!other.attach_archive(archive));
    }

    #[test]
    fn fingerprint_matches_the_graph() {
        let g = fig3();
        let fp = g.fingerprint();
        let s = AnalysisSession::new(g);
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.graph().fingerprint(), fp);
    }
}
