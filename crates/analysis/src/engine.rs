//! A resumable, checkpointable engine for Algorithm 1.
//!
//! [`symbolic_iteration`](crate::symbolic::symbolic_iteration) runs the
//! paper's Algorithm 1 to completion in one call. This module refactors the
//! same loop into an explicit state machine, [`SymbolicEngine`], whose
//! complete execution state — the run-length-encoded symbolic token queues,
//! per-actor firing counts, per-channel token availability, and the number
//! of firings performed — is a value that can be paused at any firing
//! boundary, snapshotted into an [`EngineArchive`], and later **resumed**
//! (same graph, e.g. a higher firing cap) or **forked** (same graph shape,
//! one channel's initial-token count changed) so that only the invalidated
//! suffix of the iteration is re-executed.
//!
//! # Why incremental execution is sound
//!
//! SDF graphs are determinate (Kahn): the *final* symbolic stamp of every
//! token after one iteration is independent of the sequential schedule used
//! to fire it. The engine exploits two consequences:
//!
//! - **Resume.** A prefix of a valid schedule followed by any completion of
//!   the same iteration yields the same matrix as running cold. The archive
//!   records *order provenance*: only an archive whose every firing replayed
//!   the deterministic schedule can have its suffix replayed by position;
//!   a partial archive containing greedy firings (e.g. the budget-exhausted
//!   state of a forked engine) resumes as a forked engine, whose suffix runs
//!   greedily — sound from any valid reachable state.
//! - **Fork.** If a prefix of the execution never consumed a token from
//!   channel `c`, the same prefix is a feasible execution prefix of any
//!   graph that differs from the base only in `c`'s initial-token count
//!   (the tokens it consumed and produced exist identically in both), and
//!   by persistence of live consistent SDF graphs it extends to a full
//!   iteration. The surviving stamps carry `−∞` coefficients for all of
//!   `c`'s initial tokens, so re-indexing them onto the new token numbering
//!   is the pure reindexing [`MpVector::splice_neg_inf`].
//!
//! The **checkpoint invalidation rule** is exactly that feasibility
//! condition: a checkpoint taken after `k` firings survives a token delta
//! on channel `c` iff none of those `k` firings consumed from `c`
//! (`first_consume[c]` is `None` or `≥ k`).
//!
//! Budget accounting is replicated exactly: a resumed or forked run charges
//! the skipped prefix in one lump ([`SymbolicEngine::charge_skipped`]),
//! reproducing the same cumulative spend — and the same
//! [`SdfError::Exhausted`] payload when a firing cap would have been
//! crossed inside the prefix — as the cold run, so incremental results
//! (including errors) are byte-identical to cold ones.
//!
//! The engine runs on any [`FiringSource`]; an [`SdfGraph`] is the
//! one-phase case. Archives, resume/fork and checkpoints are SDF-only.

use std::collections::VecDeque;
use std::sync::Arc;

use sdfr_graph::budget::BudgetMeter;
use sdfr_graph::repetition::RepetitionVector;
use sdfr_graph::schedule::Schedule;
use sdfr_graph::{ActorId, ChannelId, SdfError, SdfGraph, Time};
use sdfr_maxplus::{flat, FlatVector, MpMatrix, MpVector};

use crate::symbolic::{SymbolicIteration, TokenRef};

/// The firing structure Algorithm 1 walks: actors that cycle through a
/// fixed sequence of phases, each with its own execution time and
/// per-channel consumption and production (either may be zero in a
/// phase). Firing `k` of actor `a` runs phase `k % phases(a)`, and one
/// iteration fires each actor `γ(a) · phases(a)` times.
pub trait FiringSource {
    /// The number of actors.
    fn num_actors(&self) -> usize;

    /// The number of channels.
    fn num_channels(&self) -> usize;

    /// The initial tokens on channel `c`.
    fn initial_tokens(&self, c: ChannelId) -> u64;

    /// The number of phases in one cycle of actor `a` (at least 1).
    fn phases(&self, a: ActorId) -> usize;

    /// The execution time of phase `phase` of actor `a`.
    fn phase_time(&self, a: ActorId, phase: usize) -> Time;

    /// `(channel, tokens)` for every input channel of actor `a`: what
    /// phase `phase` consumes from it.
    fn consumption(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)>;

    /// `(channel, tokens)` for every output channel of actor `a`: what
    /// phase `phase` produces onto it.
    fn production(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)>;
}

/// An SDF graph is the one-phase firing source.
impl FiringSource for SdfGraph {
    fn num_actors(&self) -> usize {
        SdfGraph::num_actors(self)
    }

    fn num_channels(&self) -> usize {
        SdfGraph::num_channels(self)
    }

    fn initial_tokens(&self, c: ChannelId) -> u64 {
        self.channel(c).initial_tokens()
    }

    fn phases(&self, _: ActorId) -> usize {
        1
    }

    fn phase_time(&self, a: ActorId, _: usize) -> Time {
        self.actor(a).execution_time()
    }

    fn consumption(&self, a: ActorId, _: usize) -> impl Iterator<Item = (ChannelId, u64)> {
        self.incoming(a)
            .iter()
            .map(|&c| (c, self.channel(c).consumption()))
    }

    fn production(&self, a: ActorId, _: usize) -> impl Iterator<Item = (ChannelId, u64)> {
        self.outgoing(a)
            .iter()
            .map(|&c| (c, self.channel(c).production()))
    }
}

/// Run-length-encoded symbolic FIFO: each entry is `(stamp, count)` — a run
/// of `count` tokens sharing one symbolic time stamp.
///
/// Stamps are held in the sentinel-encoded flat layout ([`sdfr_maxplus::flat`])
/// so the hot loop of [`SymbolicEngine::fire`] — join and shift over `N`
/// entries — is branch-free and allocation-free; conversions back to
/// [`MpVector`]/[`MpMatrix`] happen only at the boundaries (stamp recording,
/// [`SymbolicEngine::finish`], the wire codec).
type RleQueue = VecDeque<(FlatVector, u64)>;

/// Maximum number of per-channel stamp entries (`runs × N`) a checkpoint
/// snapshot may hold; larger states are not snapshotted mid-run (the final
/// state is always kept regardless, so resume never loses the frontier).
const CHECKPOINT_ENTRY_GATE: u64 = 64 * 1024;

/// Number of evenly spaced mid-run checkpoints the engine aims to keep.
const CHECKPOINT_SLOTS: u64 = 8;

/// The mutable execution state of one symbolic iteration: everything that
/// changes as firings are performed.
#[derive(Debug, Clone)]
struct EngineState {
    /// Per-channel RLE queues of symbolic stamps (index = channel id).
    queues: Vec<RleQueue>,
    /// Per-channel concrete token counts (the queue lengths in tokens).
    avail: Vec<u64>,
    /// Per-actor firings performed so far this iteration.
    fired: Vec<u64>,
    /// Total firings performed so far (`Σ fired`).
    firings_done: u64,
}

impl EngineState {
    /// Total number of stamp-vector entries held by the queues
    /// (`Σ runs × N`), the measure gated by `CHECKPOINT_ENTRY_GATE`.
    fn entries(&self, n: usize) -> u64 {
        let runs: u64 = self.queues.iter().map(|q| q.len() as u64).sum();
        runs.saturating_mul(n as u64)
    }
}

/// One snapshot of the engine at a firing boundary.
#[derive(Debug, Clone)]
struct Checkpoint {
    state: EngineState,
}

/// An immutable, shareable snapshot of a (possibly partial) symbolic
/// execution: the base a later run can [`resume`](Self::resume) or
/// [`fork`](Self::fork) from.
///
/// Archives are taken by [`SymbolicEngine::archive`] after the engine ran
/// to completion *or* died of budget exhaustion; the final state is always
/// the last checkpoint, so a resume continues exactly at the frontier.
#[derive(Debug)]
pub struct EngineArchive {
    graph: Arc<SdfGraph>,
    gamma: RepetitionVector,
    n: usize,
    /// Global index of each channel's first initial token.
    token_base: Vec<usize>,
    /// `first_consume[c]` = index of the first firing that consumed a token
    /// from channel `c`, if any did before the archive was taken.
    first_consume: Vec<Option<u64>>,
    /// `Σ γ(a)`: the firing count of one complete iteration.
    total_firings: u64,
    /// Order provenance: `true` iff every archived firing replayed the
    /// graph's deterministic sequential schedule. `false` once any firing
    /// ran greedily (forked engines, greedy completions) — such an
    /// archive's suffix cannot be replayed by schedule position.
    scheduled: bool,
    /// Checkpoints in ascending `firings_done` order; the last one is the
    /// state at archive time.
    checkpoints: Vec<Checkpoint>,
}

impl EngineArchive {
    /// The graph this archive executed.
    pub fn graph(&self) -> &Arc<SdfGraph> {
        &self.graph
    }

    /// Number of firings the archived execution performed.
    pub fn firings_done(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.state.firings_done)
    }

    /// `Σ γ(a)` — the length of one complete iteration.
    pub fn total_firings(&self) -> u64 {
        self.total_firings
    }

    /// `true` if the archived execution finished its iteration.
    pub fn completed(&self) -> bool {
        self.firings_done() == self.total_firings
    }

    /// Number of snapshots held (including the final state).
    pub fn num_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Total stamp entries (`runs × N`) across all snapshots — the memory
    /// measure used by cache byte accounting.
    pub fn entries(&self) -> u64 {
        self.checkpoints
            .iter()
            .map(|c| c.state.entries(self.n))
            .sum()
    }

    /// Resumes the archived execution on the *same* graph: returns an engine
    /// positioned at the final archived state. When the archived prefix is
    /// schedule-ordered the engine replays the remaining suffix of the
    /// graph's deterministic schedule; a *partial* archive that contains
    /// greedy firings (the budget-exhausted state of a forked engine) is
    /// not a schedule prefix, so it comes back with
    /// [`is_forked`](SymbolicEngine::is_forked) set and the caller must
    /// complete it with [`run_greedy`](SymbolicEngine::run_greedy) — sound
    /// from any valid reachable state by SDF determinacy.
    ///
    /// Returns `None` if `graph` is not content-identical to the archived
    /// graph (fingerprint collisions are the caller's concern; this
    /// deep-compares).
    pub fn resume(self: &Arc<Self>, graph: &Arc<SdfGraph>) -> Option<SymbolicEngine> {
        if **graph != *self.graph {
            return None;
        }
        let cp = self.checkpoints.last()?;
        // A greedy-tainted prefix cannot be positioned within the schedule;
        // completed archives have no suffix left, so order is moot there.
        let greedy_suffix = !self.scheduled && !self.completed();
        let mut engine = self.engine_from(graph.clone(), cp.state.clone(), greedy_suffix);
        if greedy_suffix {
            engine.rebuild_token_index();
        }
        Some(engine)
    }

    /// Forks the archived execution onto `graph`, which must differ from the
    /// archived graph in exactly the token delta `(channel, d_old, d_new)`
    /// (as computed by [`SdfGraph::initial_token_delta`] from base to
    /// target). Picks the latest checkpoint whose prefix never consumed
    /// from `channel`, re-indexes every surviving stamp onto the new token
    /// numbering, and replaces `channel`'s initial tokens with fresh unit
    /// stamps.
    ///
    /// Returns `None` when the delta does not match or no checkpoint
    /// survives it (callers then fall back to a cold run).
    pub fn fork(
        self: &Arc<Self>,
        graph: &Arc<SdfGraph>,
        delta: (ChannelId, u64, u64),
    ) -> Option<SymbolicEngine> {
        let (channel, d_old, d_new) = delta;
        if self.graph.initial_token_delta(graph) != Some(delta) {
            return None;
        }
        // Checkpoint validity: the prefix must predate the first consume
        // from the changed channel.
        let consume_horizon = self.first_consume[channel.index()];
        let cp = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| consume_horizon.is_none_or(|f| c.state.firings_done <= f))?;
        if cp.state.firings_done == 0 {
            return None; // nothing to reuse; a cold run is strictly simpler
        }

        // Re-index the surviving state onto the new token numbering: the
        // changed channel's token block resizes from d_old to d_new. The
        // changed channel never lost its initial tokens (checkpoint
        // validity), seeded as d_old leading unit runs whose only finite
        // entry sits *inside* the splice window — pop them before splicing,
        // then seed d_new fresh unit stamps for the new token indices.
        let base = self.token_base[channel.index()];
        let n_new = self.n - d_old as usize + d_new as usize;
        let mut state = cp.state.clone();
        for (i, _) in (0..d_old).enumerate() {
            let (stamp, count) = state.queues[channel.index()]
                .pop_front()
                .expect("initial tokens intact at fork");
            debug_assert_eq!(count, 1, "initial tokens are seeded as unit runs");
            debug_assert_eq!(
                stamp,
                FlatVector::unit(self.n, base + i),
                "unconsumed initial tokens keep their seed stamps"
            );
        }
        for q in &mut state.queues {
            for (stamp, _) in q.iter_mut() {
                *stamp = stamp.splice_neg_inf(base, d_old as usize, d_new as usize);
            }
        }
        for i in (0..d_new as usize).rev() {
            state.queues[channel.index()].push_front((FlatVector::unit(n_new, base + i), 1));
        }
        let avail = &mut state.avail[channel.index()];
        *avail = *avail - d_old + d_new;

        let mut engine = self.engine_from(graph.clone(), state, true);
        engine.n = n_new;
        engine.rebuild_token_index();
        // History past the fork point did not happen for this engine.
        let kp = engine.state.firings_done;
        for f in &mut engine.first_consume {
            if f.is_some_and(|v| v >= kp) {
                *f = None;
            }
        }
        Some(engine)
    }

    /// Builds an engine around a cloned checkpoint state. The caller fixes
    /// up `n` and rebuilds the token index when the graph changed shape.
    fn engine_from(
        &self,
        graph: Arc<SdfGraph>,
        state: EngineState,
        forked: bool,
    ) -> SymbolicEngine {
        let skipped = state.firings_done;
        let mut engine = SymbolicEngine {
            graph,
            gamma: self.gamma.clone(),
            n: self.n,
            tokens: Vec::new(),
            token_base: self.token_base.clone(),
            state,
            first_consume: self.first_consume.clone(),
            stamps: None,
            total_firings: self.total_firings,
            skipped,
            forked,
            scheduled: self.scheduled && !forked,
            checkpoint_stride: 0,
            checkpoints: Vec::new(),
            scratch: FlatVector::default(),
        };
        if !forked {
            engine.rebuild_token_index();
        }
        engine
    }
}

/// A delta-warm starting point for a symbolic run: a base archive plus the
/// (optional) single-channel token delta that maps the base graph onto the
/// target graph.
///
/// `delta == None` means the target *is* the base graph (resume: same
/// content, typically a different budget); `delta == Some((c, old, new))`
/// means the target differs from the base only in channel `c` carrying
/// `new` instead of `old` initial tokens (fork).
#[derive(Debug, Clone)]
pub struct IncrementalSeed {
    /// The archived base execution.
    pub base: Arc<EngineArchive>,
    /// `None` to resume the identical graph; `Some` to fork across a
    /// single-channel initial-token delta (base → target).
    pub delta: Option<(ChannelId, u64, u64)>,
}

impl IncrementalSeed {
    /// Instantiates an engine positioned at the best surviving checkpoint
    /// for `target`, or `None` when the seed does not apply (graph
    /// mismatch, no surviving checkpoint) — callers fall back to a cold
    /// run.
    pub fn make_engine(&self, target: &Arc<SdfGraph>) -> Option<SymbolicEngine> {
        match self.delta {
            None => self.base.resume(target),
            Some(delta) => self.base.fork(target, delta),
        }
    }
}

/// Algorithm 1 as an explicit state machine over a [`FiringSource`].
///
/// Construct with [`new`](Self::new) (cold) or via
/// [`EngineArchive::resume`]/[`EngineArchive::fork`] (warm), drive with
/// [`run_scheduled`](Self::run_scheduled) or [`run_greedy`](Self::run_greedy)
/// — both stop cleanly at budget exhaustion with the engine state intact —
/// and extract the result with [`finish`](Self::finish) once
/// [`is_complete`](Self::is_complete). [`archive`](Self::archive) snapshots
/// the state (complete or not) for later reuse.
#[derive(Debug)]
pub struct SymbolicEngine<G = SdfGraph> {
    graph: Arc<G>,
    /// Phase cycles per actor per iteration (for SDF, the firings).
    gamma: RepetitionVector,
    /// Matrix dimension: the number of initial tokens.
    n: usize,
    /// Global token order: channels in id order, FIFO position within.
    tokens: Vec<TokenRef>,
    /// Global index of each channel's first initial token.
    token_base: Vec<usize>,
    state: EngineState,
    /// Index of the first firing that consumed from each channel.
    first_consume: Vec<Option<u64>>,
    /// Per-actor `(start, end)` firing stamps, when recording was requested.
    stamps: Option<Vec<Vec<(MpVector, MpVector)>>>,
    /// `Σ γ(a) · phases(a)`.
    total_firings: u64,
    /// Firings inherited from a base archive rather than executed here.
    skipped: u64,
    /// `true` when this engine was forked across a token delta (its firing
    /// order is greedy, not the base schedule) — or resumed from a partial
    /// archive whose prefix was not schedule-ordered.
    forked: bool,
    /// Order provenance carried into [`archive`](Self::archive): `true`
    /// while every firing performed or inherited so far replayed the
    /// deterministic schedule, cleared by the first greedy firing.
    scheduled: bool,
    /// Take a snapshot every this many firings; 0 disables checkpointing.
    checkpoint_stride: u64,
    checkpoints: Vec<Checkpoint>,
    /// Reusable start/end stamp buffer for [`fire`](Self::fire): the hot
    /// loop never allocates per firing.
    scratch: FlatVector,
}

impl<G: FiringSource> SymbolicEngine<G> {
    /// Creates a cold engine for one iteration of `graph`, which fires
    /// each actor `a` through `gamma[a]` full phase cycles.
    ///
    /// Performs the same pre-allocation budget checks as
    /// [`AnalysisSession::symbolic`](crate::AnalysisSession::symbolic): the
    /// token count is overflow-checked and validated against the size cap
    /// *before* the state is allocated.
    ///
    /// # Errors
    ///
    /// [`SdfError::Overflow`] if the token count or the iteration length
    /// `Σ γ(a) · phases(a)` overflows, [`SdfError::Exhausted`] if the token
    /// count exceeds the budget's size cap.
    pub fn new(
        graph: Arc<G>,
        gamma: &RepetitionVector,
        record_stamps: bool,
        meter: &mut BudgetMeter<'_>,
    ) -> Result<Self, SdfError> {
        let num_channels = graph.num_channels();
        let num_actors = graph.num_actors();
        let avail: Vec<u64> = (0..num_channels)
            .map(|c| graph.initial_tokens(ChannelId::from_index(c)))
            .collect();
        let n = avail
            .iter()
            .try_fold(0usize, |s, &d| s.checked_add(usize::try_from(d).ok()?))
            .ok_or(SdfError::Overflow {
                what: "initial token count",
            })?;
        meter.check_size(n as u64)?;
        let total_firings = gamma
            .iter()
            .try_fold(0u64, |s, (a, cycles)| {
                cycles
                    .checked_mul(graph.phases(a) as u64)
                    .and_then(|f| s.checked_add(f))
            })
            .ok_or(SdfError::Overflow {
                what: "iteration length",
            })?;

        let mut engine = SymbolicEngine {
            total_firings,
            gamma: gamma.clone(),
            n,
            tokens: Vec::new(),
            token_base: Vec::with_capacity(num_channels),
            state: EngineState {
                queues: (0..num_channels).map(|_| RleQueue::new()).collect(),
                avail,
                fired: vec![0; num_actors],
                firings_done: 0,
            },
            graph,
            first_consume: vec![None; num_channels],
            stamps: record_stamps.then(|| vec![Vec::new(); num_actors]),
            skipped: 0,
            forked: false,
            scheduled: true,
            checkpoint_stride: 0,
            checkpoints: Vec::new(),
            scratch: FlatVector::default(),
        };
        engine.rebuild_token_index();
        for (idx, t) in engine.tokens.iter().enumerate() {
            engine.state.queues[t.channel.index()].push_back((FlatVector::unit(n, idx), 1));
        }
        Ok(engine)
    }

    /// The number of initial tokens (the matrix dimension).
    pub fn num_tokens(&self) -> usize {
        self.n
    }

    /// Firings performed or inherited so far.
    pub fn firings_done(&self) -> u64 {
        self.state.firings_done
    }

    /// `true` once the full iteration has been executed.
    pub fn is_complete(&self) -> bool {
        self.state.firings_done == self.total_firings
    }

    /// Runs the remaining suffix of the iteration with a greedy data-driven
    /// schedule: scan actors in id order, firing the next phase of any
    /// actor that still owes firings and has sufficient input tokens,
    /// until `Σ γ(a) · phases(a)` firings have been performed. By
    /// determinacy the resulting final stamps — and therefore the matrix —
    /// are identical to any other schedule's.
    ///
    /// # Errors
    ///
    /// As [`run_scheduled`](Self::run_scheduled), plus
    /// [`SdfError::Deadlock`] if no actor is fireable before the iteration
    /// completes (unreachable when forked from a valid checkpoint of a live
    /// graph; kept as a defensive error rather than a panic).
    pub fn run_greedy(&mut self, meter: &mut BudgetMeter<'_>) -> Result<(), SdfError> {
        if !self.is_complete() {
            // Greedy firings are about to happen: archives of this engine
            // can no longer have their suffix replayed by schedule position.
            self.scheduled = false;
        }
        while !self.is_complete() {
            let mut progressed = false;
            for idx in 0..self.gamma.len() {
                let actor = ActorId::from_index(idx);
                // Cannot overflow: `new` checked the sum of these products.
                let quota = self.gamma.get(actor) * self.graph.phases(actor) as u64;
                while self.state.fired[actor.index()] < quota && self.enabled(actor) {
                    meter.spend(1)?;
                    self.fire(actor)?;
                    self.maybe_checkpoint();
                    progressed = true;
                }
            }
            if !progressed {
                return Err(SdfError::Deadlock {
                    fired: self.state.firings_done,
                    needed: self.total_firings,
                });
            }
        }
        Ok(())
    }

    /// The phase `actor` runs on its next firing (0 for a one-phase
    /// source, which the compiler folds away).
    fn phase(&self, actor: ActorId) -> usize {
        (self.state.fired[actor.index()] % self.graph.phases(actor) as u64) as usize
    }

    /// `true` if the next phase of `actor` has its input tokens now.
    fn enabled(&self, actor: ActorId) -> bool {
        self.graph
            .consumption(actor, self.phase(actor))
            .all(|(cid, need)| self.state.avail[cid.index()] >= need)
    }

    /// Fires the next phase of `actor` once, symbolically: pops `c` stamps
    /// from every input FIFO, joins them into the start stamp, shifts by
    /// the phase's execution time, and pushes the end stamp `p` times onto
    /// every output FIFO (a phase that produces nothing pushes no run).
    ///
    /// The join/shift arithmetic runs on the reusable flat scratch buffer:
    /// no allocation and no per-element branching in the inner loops, and
    /// the overflow check of the shift is a single hoisted comparison
    /// ([`FlatVector::shift_in_place`]) that reports exactly where the old
    /// per-element `checked_add` did.
    fn fire(&mut self, actor: ActorId) -> Result<(), SdfError> {
        let phase = self.phase(actor);
        let start = &mut self.scratch;
        start.reset_neg_inf(self.n);
        for (cid, consumed) in self.graph.consumption(actor, phase) {
            if consumed > 0 && self.first_consume[cid.index()].is_none() {
                self.first_consume[cid.index()] = Some(self.state.firings_done);
            }
            let mut need = consumed;
            while need > 0 {
                let (stamp, count) = self.state.queues[cid.index()]
                    .front_mut()
                    .expect("enabled firings find their input tokens");
                // Invariant: every stamp in every queue has length N.
                start.join_in_place(stamp);
                if *count > need {
                    *count -= need;
                    need = 0;
                } else {
                    need -= *count;
                    self.state.queues[cid.index()].pop_front();
                }
            }
            self.state.avail[cid.index()] -= consumed;
        }
        let start_mp = self.stamps.is_some().then(|| start.to_mp());
        if !start.shift_in_place(self.graph.phase_time(actor, phase)) {
            return Err(SdfError::Overflow {
                what: "symbolic time stamp (accumulated execution times)",
            });
        }
        let end = &*start; // shifted in place: the scratch now holds the end stamp
        for (cid, produced) in self.graph.production(actor, phase) {
            if produced == 0 {
                continue;
            }
            let q = &mut self.state.queues[cid.index()];
            // Run-length coalescing: successive firings that produce the
            // same stamp (steady-state pipelines, zero-time stages) extend
            // the back run instead of growing the queue, keeping state —
            // and checkpoint clones — proportional to *distinct* stamps.
            match q.back_mut() {
                Some((stamp, count)) if stamp == end => *count += produced,
                _ => q.push_back((end.clone(), produced)),
            }
            self.state.avail[cid.index()] = self.state.avail[cid.index()]
                .checked_add(produced)
                .ok_or(SdfError::Overflow {
                    what: "token count during symbolic execution",
                })?;
        }
        if let Some(stamps) = self.stamps.as_mut() {
            stamps[actor.index()].push((start_mp.expect("recorded before the shift"), end.to_mp()));
        }
        self.state.fired[actor.index()] += 1;
        self.state.firings_done += 1;
        Ok(())
    }

    /// Snapshots the current state when the stride says so and the state is
    /// small enough to be worth keeping.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_stride == 0
            || !self
                .state
                .firings_done
                .is_multiple_of(self.checkpoint_stride)
            || self.is_complete()
        {
            return;
        }
        if self.state.entries(self.n) > CHECKPOINT_ENTRY_GATE {
            return;
        }
        self.checkpoints.push(Checkpoint {
            state: self.state.clone(),
        });
    }

    /// Consumes the completed engine and reads out the
    /// [`SymbolicIteration`]: the final stamps in global token order form
    /// the rows of the `N×N` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the iteration is not complete (debug-asserts the token
    /// distribution was restored, as the run-to-completion path always
    /// did).
    pub fn finish(self) -> SymbolicIteration {
        assert!(
            self.is_complete(),
            "finish() requires a completed iteration"
        );
        let mut rows: Vec<FlatVector> = Vec::with_capacity(self.n);
        for t in &self.tokens {
            let q = &self.state.queues[t.channel.index()];
            debug_assert_eq!(
                q.iter().map(|(_, c)| c).sum::<u64>(),
                self.graph.initial_tokens(t.channel),
                "iteration must restore the token distribution"
            );
            let mut pos = t.position;
            let mut found = None;
            for (stamp, count) in q {
                if pos < *count {
                    found = Some(stamp.clone());
                    break;
                }
                pos -= count;
            }
            rows.push(found.expect("token position within restored queue"));
        }
        let matrix = MpMatrix::from_flat_rows(rows).expect("rows share length N");
        SymbolicIteration::from_parts(matrix, self.tokens, self.gamma, self.stamps)
    }

    /// Rebuilds `tokens`/`token_base` from the graph (used after a fork
    /// changed the token numbering).
    fn rebuild_token_index(&mut self) {
        self.tokens.clear();
        self.token_base.clear();
        for c in 0..self.graph.num_channels() {
            let channel = ChannelId::from_index(c);
            self.token_base.push(self.tokens.len());
            for position in 0..self.graph.initial_tokens(channel) {
                self.tokens.push(TokenRef { channel, position });
            }
        }
        debug_assert_eq!(self.tokens.len(), self.n);
    }
}

impl SymbolicEngine<SdfGraph> {
    /// Enables periodic checkpointing: up to `CHECKPOINT_SLOTS` evenly
    /// spaced snapshots over the iteration (plus the final state kept by
    /// [`archive`](Self::archive)), each gated on state size.
    pub fn enable_checkpoints(&mut self) {
        self.checkpoint_stride = (self.total_firings / CHECKPOINT_SLOTS).max(1);
    }

    /// Firings inherited from the base archive (0 for a cold engine).
    pub fn skipped_firings(&self) -> u64 {
        self.skipped
    }

    /// `true` while the live state is small enough
    /// (`CHECKPOINT_ENTRY_GATE`) for archiving to be worthwhile; huge
    /// states are cheaper to recompute than to clone and retain.
    pub fn is_compact(&self) -> bool {
        self.state.entries(self.n) <= CHECKPOINT_ENTRY_GATE
    }

    /// `true` for engines created by [`EngineArchive::fork`], or resumed
    /// from a partial archive containing greedy firings — their remaining
    /// suffix must run greedily ([`run_greedy`](Self::run_greedy)) because
    /// the prefix is not (known to be) a prefix of the target graph's own
    /// deterministic schedule.
    pub fn is_forked(&self) -> bool {
        self.forked
    }

    /// Charges the inherited prefix to `meter` exactly as the cold run
    /// would have: one unit per skipped firing — and when a firing cap
    /// would have been crossed *inside* the prefix, the charge stops at
    /// `limit + 1` so the resulting [`SdfError::Exhausted`] payload is
    /// byte-identical to the cold run's.
    ///
    /// Call once, before running the suffix.
    ///
    /// # Errors
    ///
    /// [`SdfError::Exhausted`] exactly when the cold run would have
    /// exhausted the cap within the prefix.
    pub fn charge_skipped(&self, meter: &mut BudgetMeter<'_>) -> Result<(), SdfError> {
        let k = self.skipped;
        if k == 0 {
            return Ok(());
        }
        if let Some(limit) = meter.budget().max_firings() {
            let spent = meter.spent();
            if spent.saturating_add(k) > limit {
                // Cold dies at the (limit + 1 - spent)-th prefix firing with
                // spent == limit + 1; reproduce that exact payload.
                return meter.spend(limit.saturating_sub(spent).saturating_add(1));
            }
        }
        meter.spend(k)
    }

    /// Replays `schedule` from the current position to the end, charging
    /// one budget unit per firing.
    ///
    /// `schedule` must be the deterministic sequential schedule of this
    /// engine's graph (the engine's prior firings, if any, are its prefix —
    /// guaranteed when resuming an archive of the same graph, since
    /// schedule construction is deterministic). Must not be called on a
    /// forked engine — use [`run_greedy`](Self::run_greedy).
    ///
    /// # Errors
    ///
    /// [`SdfError::Exhausted`] at a firing-cap/deadline boundary (state
    /// remains valid at that boundary), [`SdfError::Overflow`] on stamp
    /// overflow.
    pub fn run_scheduled(
        &mut self,
        schedule: &Schedule,
        meter: &mut BudgetMeter<'_>,
    ) -> Result<(), SdfError> {
        assert!(!self.forked, "forked engines must run greedily");
        let done = usize::try_from(self.state.firings_done).unwrap_or(usize::MAX);
        let firings = schedule.firings();
        debug_assert_eq!(firings.len() as u64, self.total_firings);
        for &actor in &firings[done.min(firings.len())..] {
            // Each symbolic firing does O(N) stamp work; charge it so firing
            // caps and deadlines also bound the matrix-construction phase.
            meter.spend(1)?;
            self.fire(actor)?;
            self.maybe_checkpoint();
        }
        Ok(())
    }

    /// Snapshots the engine (mid-run or complete) into a shareable archive.
    /// The current state becomes the archive's last checkpoint, so a resume
    /// continues exactly where this engine stands.
    pub fn archive(&self) -> Arc<EngineArchive> {
        let mut checkpoints = self.checkpoints.clone();
        if checkpoints
            .last()
            .is_none_or(|c| c.state.firings_done != self.state.firings_done)
        {
            checkpoints.push(Checkpoint {
                state: self.state.clone(),
            });
        }
        Arc::new(EngineArchive {
            graph: self.graph.clone(),
            gamma: self.gamma.clone(),
            n: self.n,
            token_base: self.token_base.clone(),
            first_consume: self.first_consume.clone(),
            total_firings: self.total_firings,
            scheduled: self.scheduled,
            checkpoints,
        })
    }
}

/// Wire encoding of an [`EngineArchive`] (without its graph, which the
/// journal stores alongside): a compact ASCII record embeddable as a JSON
/// string without escaping.
///
/// Format (`|`-separated sections, `,`-separated fields):
/// `sdfr-engine/1|n|total|order|gamma...|first_consume...|checkpoint|checkpoint...`
/// where `order` is `s` (every firing replayed the deterministic schedule)
/// or `g` (some firings ran greedily) and each checkpoint is
/// `done;fired...;avail...;queue;queue...` and each queue is a `:`-separated
/// list of `count@e.e.e` runs with `-inf` spelled `!`.
impl EngineArchive {
    /// Serializes the archive (graph excluded) to the `sdfr-engine/1` wire
    /// form. Returns `None` when the archive is too large to be worth
    /// persisting (more than `CHECKPOINT_ENTRY_GATE` total entries).
    pub fn encode(&self) -> Option<String> {
        if self.entries() > CHECKPOINT_ENTRY_GATE {
            return None;
        }
        use std::fmt::Write as _;
        let mut out = String::from("sdfr-engine/1");
        let _ = write!(out, "|{}|{}", self.n, self.total_firings);
        out.push('|');
        out.push(if self.scheduled { 's' } else { 'g' });
        out.push('|');
        for (i, g) in self.gamma.as_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{g}");
        }
        out.push('|');
        for (i, f) in self.first_consume.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match f {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push('!'),
            }
        }
        for cp in &self.checkpoints {
            out.push('|');
            let _ = write!(out, "{}", cp.state.firings_done);
            out.push(';');
            for (i, f) in cp.state.fired.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{f}");
            }
            out.push(';');
            for (i, a) in cp.state.avail.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{a}");
            }
            for q in &cp.state.queues {
                out.push(';');
                for (i, (stamp, count)) in q.iter().enumerate() {
                    if i > 0 {
                        out.push(':');
                    }
                    let _ = write!(out, "{count}@");
                    for (j, &e) in stamp.as_slice().iter().enumerate() {
                        if j > 0 {
                            out.push('.');
                        }
                        if e == flat::NEG_INF {
                            out.push('!');
                        } else {
                            let _ = write!(out, "{e}");
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Decodes an archive previously [`encode`](Self::encode)d, attaching
    /// it to `graph` (which the caller has verified by fingerprint to be
    /// the graph the archive was taken from). Returns `None` on any
    /// structural mismatch — a corrupt or stale record degrades to a cold
    /// run, never a wrong answer.
    pub fn decode(wire: &str, graph: Arc<SdfGraph>) -> Option<Arc<Self>> {
        let mut sections = wire.split('|');
        if sections.next()? != "sdfr-engine/1" {
            return None;
        }
        let n: usize = sections.next()?.parse().ok()?;
        let total_firings: u64 = sections.next()?.parse().ok()?;
        let scheduled = match sections.next()? {
            "s" => true,
            "g" => false,
            _ => return None,
        };
        let gamma_entries: Vec<u64> = parse_u64_list(sections.next()?)?;
        if gamma_entries.len() != graph.num_actors() {
            return None;
        }
        // Validate γ against the graph rather than trusting the record.
        let gamma = sdfr_graph::repetition::repetition_vector(&graph).ok()?;
        if gamma.as_slice() != gamma_entries.as_slice() || gamma.iteration_length() != total_firings
        {
            return None;
        }
        let fc_field = sections.next()?;
        let first_consume: Vec<Option<u64>> = if fc_field.is_empty() {
            Vec::new()
        } else {
            fc_field
                .split(',')
                .map(|f| {
                    if f == "!" {
                        Some(None)
                    } else {
                        f.parse().ok().map(Some)
                    }
                })
                .collect::<Option<_>>()?
        };
        if first_consume.len() != graph.num_channels() {
            return None;
        }
        let mut token_base = Vec::with_capacity(graph.num_channels());
        let mut token_total = 0usize;
        for (_, ch) in graph.channels() {
            token_base.push(token_total);
            token_total = token_total.checked_add(usize::try_from(ch.initial_tokens()).ok()?)?;
        }
        if token_total != n {
            return None;
        }

        let mut checkpoints = Vec::new();
        let mut prev_done = None;
        for section in sections {
            let mut parts = section.split(';');
            let firings_done: u64 = parts.next()?.parse().ok()?;
            if firings_done > total_firings || prev_done.is_some_and(|p| firings_done <= p) {
                return None;
            }
            prev_done = Some(firings_done);
            let fired = parse_u64_list(parts.next()?)?;
            if fired.len() != graph.num_actors()
                || fired.iter().sum::<u64>() != firings_done
                || fired.iter().zip(gamma.as_slice()).any(|(f, g)| f > g)
            {
                return None;
            }
            let avail = parse_u64_list(parts.next()?)?;
            if avail.len() != graph.num_channels() {
                return None;
            }
            let mut queues = Vec::with_capacity(graph.num_channels());
            for (cid, _) in graph.channels() {
                let field = parts.next()?;
                let mut q = RleQueue::new();
                let mut tokens_held = 0u64;
                if !field.is_empty() {
                    for run in field.split(':') {
                        let (count, entries) = run.split_once('@')?;
                        let count: u64 = count.parse().ok()?;
                        if count == 0 {
                            return None;
                        }
                        let stamp: FlatVector = FlatVector::from_raw(
                            entries
                                .split('.')
                                .map(|e| {
                                    if e == "!" {
                                        Some(flat::NEG_INF)
                                    } else {
                                        // A finite entry equal to the −∞
                                        // sentinel is unrepresentable: a
                                        // record claiming one is corrupt.
                                        e.parse().ok().filter(|&t: &i64| t != flat::NEG_INF)
                                    }
                                })
                                .collect::<Option<Vec<i64>>>()?,
                        );
                        if stamp.len() != n {
                            return None;
                        }
                        tokens_held = tokens_held.checked_add(count)?;
                        q.push_back((stamp, count));
                    }
                }
                if tokens_held != avail[cid.index()] {
                    return None;
                }
                queues.push(q);
            }
            if parts.next().is_some() {
                return None;
            }
            checkpoints.push(Checkpoint {
                state: EngineState {
                    queues,
                    avail,
                    fired,
                    firings_done,
                },
            });
        }
        if checkpoints.is_empty() {
            return None;
        }
        Some(Arc::new(EngineArchive {
            graph,
            gamma,
            n,
            token_base,
            first_consume,
            total_firings,
            scheduled,
            checkpoints,
        }))
    }
}

fn parse_u64_list(s: &str) -> Option<Vec<u64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|f| f.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic_iteration;
    use sdfr_graph::budget::Budget;
    use sdfr_graph::repetition::repetition_vector;
    use sdfr_graph::schedule::sequential_schedule_metered;

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

    /// fig3 with the l→r channel carrying `d` tokens instead of 0. That
    /// channel is consumed only by the iteration's *last* firing, so a
    /// delta on it leaves a long valid prefix to fork from.
    fn fig3_ch0(d: u64) -> SdfGraph {
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, d).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    fn run_cold(g: &SdfGraph, checkpoints: bool) -> (SymbolicEngine, Arc<EngineArchive>) {
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        let gamma = repetition_vector(g).unwrap();
        let schedule = sequential_schedule_metered(g, &gamma, &mut meter).unwrap();
        let mut engine =
            SymbolicEngine::new(Arc::new(g.clone()), &gamma, false, &mut meter).unwrap();
        if checkpoints {
            engine.enable_checkpoints();
        }
        engine.run_scheduled(&schedule, &mut meter).unwrap();
        let archive = engine.archive();
        (engine, archive)
    }

    #[test]
    fn engine_matches_the_free_function() {
        let g = fig3();
        let (engine, _) = run_cold(&g, false);
        let via_engine = engine.finish();
        let cold = symbolic_iteration(&g).unwrap();
        assert_eq!(via_engine.matrix, cold.matrix);
        assert_eq!(via_engine.tokens, cold.tokens);
    }

    #[test]
    fn resume_from_completed_archive_is_byte_identical() {
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        assert!(archive.completed());
        let target = Arc::new(g.clone());
        let resumed = archive.resume(&target).unwrap();
        assert!(resumed.is_complete());
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        resumed.charge_skipped(&mut meter).unwrap();
        assert_eq!(meter.spent(), archive.total_firings());
        let warm = resumed.finish();
        let cold = symbolic_iteration(&g).unwrap();
        assert_eq!(warm.matrix, cold.matrix);
    }

    #[test]
    fn resume_after_exhaustion_completes_the_iteration() {
        let g = fig3(); // schedule: 3 firings
        let gamma = repetition_vector(&g).unwrap();
        // Big enough to pass the schedule phase, then die mid-symbolic.
        let tight = Budget::unlimited().with_max_firings(5);
        let mut meter = tight.meter();
        let schedule = sequential_schedule_metered(&g, &gamma, &mut meter).unwrap();
        let mut engine =
            SymbolicEngine::new(Arc::new(g.clone()), &gamma, false, &mut meter).unwrap();
        let err = engine.run_scheduled(&schedule, &mut meter).unwrap_err();
        assert!(matches!(err, SdfError::Exhausted { limit: 5, .. }));
        assert!(!engine.is_complete());
        let archive = engine.archive();

        // Resume under an ample budget, replaying the same deterministic
        // schedule; spend parity with a cold run of the symbolic phase.
        let target = Arc::new(g.clone());
        let mut resumed = archive.resume(&target).unwrap();
        let ample = Budget::unlimited();
        let mut meter2 = ample.meter_resuming(meter.spent() - engine.firings_done());
        resumed.charge_skipped(&mut meter2).unwrap();
        resumed.run_scheduled(&schedule, &mut meter2).unwrap();
        assert_eq!(meter2.spent(), meter.spent() + 1); // the firing that died
        let warm = resumed.finish();
        let cold = symbolic_iteration(&g).unwrap();
        assert_eq!(warm.matrix, cold.matrix);
    }

    #[test]
    fn fork_across_token_delta_matches_cold() {
        for d in [1u64, 3, 4, 7] {
            let base_graph = fig3();
            let (_, archive) = run_cold(&base_graph, true);
            let target = Arc::new(fig3_ch0(d));
            let delta = base_graph.initial_token_delta(&target).unwrap();
            let mut forked = archive.fork(&target, delta).expect("fork applies");
            assert!(forked.is_forked());
            assert!(forked.skipped_firings() > 0);
            let budget = Budget::unlimited();
            let mut meter = budget.meter();
            forked.charge_skipped(&mut meter).unwrap();
            forked.run_greedy(&mut meter).unwrap();
            assert_eq!(meter.spent(), archive.total_firings());
            let warm = forked.finish();
            let cold = symbolic_iteration(&target).unwrap();
            assert_eq!(warm.matrix, cold.matrix, "fork d={d}");
            assert_eq!(warm.tokens, cold.tokens, "fork d={d}");
        }
    }

    #[test]
    fn resume_of_fork_produced_partial_archive_runs_greedily() {
        // A fork that exhausts its budget archives a partial state whose
        // prefix is the *base* graph's schedule order, not the target's.
        // Resuming that archive must come back forked (greedy completion),
        // never replay the target schedule by position.
        let base_graph = fig3();
        let (_, base_archive) = run_cold(&base_graph, true);
        let target = Arc::new(fig3_ch0(3));
        let delta = base_graph.initial_token_delta(&target).unwrap();
        let mut forked = base_archive.fork(&target, delta).unwrap();
        let cap = forked.skipped_firings();
        let tight = Budget::unlimited().with_max_firings(cap);
        let mut meter = tight.meter();
        forked.charge_skipped(&mut meter).unwrap();
        let err = forked.run_greedy(&mut meter).unwrap_err();
        assert!(matches!(err, SdfError::Exhausted { .. }));
        assert!(!forked.is_complete());
        let partial = forked.archive();
        assert!(!partial.completed());

        let mut resumed = partial.resume(&target).expect("same graph resumes");
        assert!(
            resumed.is_forked(),
            "a greedy-tainted partial archive must resume as a forked engine"
        );
        let ample = Budget::unlimited();
        let mut meter2 = ample.meter();
        resumed.charge_skipped(&mut meter2).unwrap();
        resumed.run_greedy(&mut meter2).unwrap();
        assert_eq!(meter2.spent(), partial.total_firings());
        let warm = resumed.finish();
        let cold = symbolic_iteration(&target).unwrap();
        assert_eq!(warm.matrix, cold.matrix);
        assert_eq!(warm.tokens, cold.tokens);
    }

    #[test]
    fn resume_of_partial_greedy_run_completes_greedily() {
        // Same hazard without a fork: a cold engine driven by run_greedy
        // that dies of exhaustion leaves a prefix in greedy order.
        let g = fig3();
        let gamma = repetition_vector(&g).unwrap();
        let tight = Budget::unlimited().with_max_firings(2);
        let mut meter = tight.meter();
        let mut engine =
            SymbolicEngine::new(Arc::new(g.clone()), &gamma, false, &mut meter).unwrap();
        engine.enable_checkpoints();
        let err = engine.run_greedy(&mut meter).unwrap_err();
        assert!(matches!(err, SdfError::Exhausted { .. }));
        let partial = engine.archive();

        // The order taint survives the wire roundtrip, so journal-restored
        // partial archives resume greedily too.
        let wire = partial.encode().unwrap();
        let decoded = EngineArchive::decode(&wire, Arc::new(g.clone())).unwrap();
        for archive in [partial, decoded] {
            let target = Arc::new(g.clone());
            let mut resumed = archive.resume(&target).unwrap();
            assert!(resumed.is_forked());
            let ample = Budget::unlimited();
            let mut meter2 = ample.meter();
            resumed.charge_skipped(&mut meter2).unwrap();
            resumed.run_greedy(&mut meter2).unwrap();
            let warm = resumed.finish();
            let cold = symbolic_iteration(&g).unwrap();
            assert_eq!(warm.matrix, cold.matrix);
        }
    }

    #[test]
    fn completed_greedy_archives_resume_without_a_suffix() {
        // A greedy run that *completed* has no suffix to replay: resume
        // hands back a complete engine regardless of order provenance.
        let g = fig3();
        let gamma = repetition_vector(&g).unwrap();
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        let mut engine =
            SymbolicEngine::new(Arc::new(g.clone()), &gamma, false, &mut meter).unwrap();
        engine.run_greedy(&mut meter).unwrap();
        let archive = engine.archive();
        assert!(archive.completed());
        let target = Arc::new(g.clone());
        let resumed = archive.resume(&target).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.finish().matrix,
            symbolic_iteration(&g).unwrap().matrix
        );
    }

    #[test]
    fn fork_refuses_deltas_consumed_by_the_prefix_head() {
        // fig3's r→l channel feeds the very first firing: no non-empty
        // prefix survives a delta there, so fork declines and the caller
        // runs cold.
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 0).unwrap();
        b.channel(r, l, 2, 1, 5).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        let target = Arc::new(b.build().unwrap());
        let delta = g.initial_token_delta(&target).unwrap();
        assert!(archive.fork(&target, delta).is_none());
    }

    #[test]
    fn fork_rejects_structural_mismatch() {
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 9); // different execution time
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, 0).unwrap();
        b.channel(r, l, 2, 1, 5).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        let target = Arc::new(b.build().unwrap());
        assert!(archive
            .fork(&target, (ChannelId::from_index(1), 2, 5))
            .is_none());
    }

    #[test]
    fn charge_skipped_replicates_cold_exhaustion() {
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        let target = Arc::new(g.clone());
        let resumed = archive.resume(&target).unwrap();
        // A cap of 2 dies inside the 3-firing prefix: cold would have spent
        // 3 (2 allowed + the one that crossed).
        let tight = Budget::unlimited().with_max_firings(2);
        let mut meter = tight.meter();
        match resumed.charge_skipped(&mut meter) {
            Err(SdfError::Exhausted {
                spent: 3, limit: 2, ..
            }) => {}
            other => panic!("expected exact cold exhaustion payload, got {other:?}"),
        }
    }

    #[test]
    fn archive_wire_roundtrip() {
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        let wire = archive.encode().unwrap();
        let decoded = EngineArchive::decode(&wire, Arc::new(g.clone())).unwrap();
        assert_eq!(decoded.firings_done(), archive.firings_done());
        assert_eq!(decoded.num_checkpoints(), archive.num_checkpoints());
        assert_eq!(decoded.first_consume, archive.first_consume);
        // A decoded archive is fully functional: fork it and check results.
        let target = Arc::new(fig3_ch0(5));
        let delta = g.initial_token_delta(&target).unwrap();
        let mut forked = decoded.fork(&target, delta).unwrap();
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        forked.charge_skipped(&mut meter).unwrap();
        forked.run_greedy(&mut meter).unwrap();
        assert_eq!(
            forked.finish().matrix,
            symbolic_iteration(&target).unwrap().matrix
        );
    }

    #[test]
    fn decode_rejects_corrupt_records() {
        let g = fig3();
        let (_, archive) = run_cold(&g, true);
        let wire = archive.encode().unwrap();
        let arc = Arc::new(g.clone());
        assert!(EngineArchive::decode("nonsense", arc.clone()).is_none());
        assert!(EngineArchive::decode("", arc.clone()).is_none());
        // Tamper with the gamma section.
        let tampered = wire.replacen("|2,1|", "|2,2|", 1);
        assert!(EngineArchive::decode(&tampered, arc.clone()).is_none());
        // Wrong graph entirely.
        let mut b = SdfGraph::builder("other");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 1).unwrap();
        let other = Arc::new(b.build().unwrap());
        assert!(EngineArchive::decode(&wire, other).is_none());
    }

    #[test]
    fn tokenless_graph_engine_completes() {
        let mut b = SdfGraph::builder("acyclic");
        let s = b.actor("s", 1);
        let t = b.actor("t", 1);
        b.channel(s, t, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        let (engine, archive) = run_cold(&g, true);
        assert!(archive.completed());
        let sym = engine.finish();
        assert_eq!(sym.num_tokens(), 0);
        assert_eq!(sym.matrix.num_rows(), 0);
    }
}
