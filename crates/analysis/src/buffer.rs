//! Self-timed buffer occupancy bounds.
//!
//! SDF channels are conceptually unbounded FIFOs; for implementation one
//! needs bounds on how many tokens actually accumulate. Under self-timed
//! execution the occupancy of every channel is eventually periodic, so the
//! peak over a sufficient number of iterations is the exact self-timed
//! buffer requirement. (Exact minimal buffer sizing under throughput
//! constraints is the subject of Stuijk et al., TC'08; here we provide the
//! self-timed bound used for dimensioning.)

use std::sync::{Arc, Mutex};

use sdfr_graph::budget::Budget;
use sdfr_graph::execution::{simulate, simulate_iterations, SimulationOptions};
use sdfr_graph::{SdfError, SdfGraph};

use crate::engine::{EngineArchive, IncrementalSeed};
use crate::session::AnalysisSession;

/// How many recently analysed capacity variants a search retains for
/// seeding subsequent probes.
const SEEDER_RING: usize = 8;

/// A ring of recently analysed capacity-variant graphs and their engine
/// archives, shared by all probes of one capacity search.
///
/// Successive probes of a binary search or a Pareto sweep build bounded
/// graphs ([`with_capacities`]) that differ in exactly one reverse
/// channel's initial tokens, so most probes can *fork* a ring member's
/// archived symbolic execution ([`EngineArchive::fork`]) instead of running
/// Algorithm 1 cold. Determinacy keeps every seeded probe byte-identical
/// to a cold one — including budget accounting — so search results never
/// depend on seeding or on the claim order of parallel probes.
///
/// The ring is **sharded per fan-out helper** (plus one fallback shard for
/// the fan-out's caller and every other thread): parallel probes
/// previously serialized on a single `Mutex`, turning the seeder into the
/// sweep's contention hot spot, and cross-thread seeds were mostly stale
/// anyway — a thread forks its *own* previous probe far more often than a
/// sibling's. Because seeding only changes wall-clock time, never answers,
/// sharding preserves byte-identical results on every thread count.
#[derive(Debug)]
struct FamilySeeder {
    /// `threads - 1` helper shards plus the trailing fallback shard.
    shards: Vec<Mutex<SeederRing>>,
}

/// One shard's ring of `(bounded graph, archived engine)` seeds.
type SeederRing = Vec<(Arc<SdfGraph>, Arc<EngineArchive>)>;

impl Default for FamilySeeder {
    fn default() -> Self {
        FamilySeeder {
            shards: (0..sdfr_pool::threads())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }
}

impl FamilySeeder {
    /// The calling thread's shard: its helper slot on fan-out helpers (when
    /// the index fits — a wider enclosing fan-out's helper may carry a
    /// larger index), the trailing fallback shard everywhere else.
    fn shard(&self) -> &Mutex<SeederRing> {
        let fallback = self.shards.len() - 1;
        let i = sdfr_pool::worker_index()
            .filter(|&i| i < fallback)
            .unwrap_or(fallback);
        &self.shards[i]
    }

    /// A seed for `bounded`: the most recent member of the calling
    /// thread's shard that is the same graph (resume) or differs from it
    /// in one channel's initial tokens (fork), if any.
    fn seed_for(&self, bounded: &SdfGraph) -> Option<IncrementalSeed> {
        let ring = self.shard().lock().expect("seeder ring poisoned");
        for (g, archive) in ring.iter().rev() {
            if **g == *bounded {
                return Some(IncrementalSeed {
                    base: Arc::clone(archive),
                    delta: None,
                });
            }
            if let Some(delta) = g.initial_token_delta(bounded) {
                return Some(IncrementalSeed {
                    base: Arc::clone(archive),
                    delta: Some(delta),
                });
            }
        }
        None
    }

    /// Offers a probe's archive back to the calling thread's shard (most
    /// recent last), displacing the oldest member beyond [`SEEDER_RING`].
    fn offer(&self, graph: Arc<SdfGraph>, archive: Arc<EngineArchive>) {
        let mut ring = self.shard().lock().expect("seeder ring poisoned");
        ring.retain(|(g, _)| **g != *graph);
        ring.push((graph, archive));
        if ring.len() > SEEDER_RING {
            ring.remove(0);
        }
    }
}

/// Per-channel peak token counts over `iterations` self-timed iterations
/// (including the initial tokens), indexed by channel index.
///
/// The simulation executes `iterations · Σγ(a)` firings uncapped. Under a
/// resource [`Budget`], run [`simulate`] with
/// [`SimulationOptions::with_budget`] and read its
/// `channel_peak_tokens`.
///
/// # Errors
///
/// See [`simulate_iterations`].
///
/// # Example
///
/// ```
/// use sdfr_analysis::buffer::self_timed_buffer_bounds;
/// use sdfr_graph::SdfGraph;
///
/// let mut b = SdfGraph::builder("g");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 5);
/// b.channel(x, y, 2, 4, 0)?;
/// b.channel(y, x, 4, 2, 4)?;
/// let bounds = self_timed_buffer_bounds(&b.build()?, 8)?;
/// assert_eq!(bounds.len(), 2);
/// assert!(bounds[0] >= 4); // y consumes 4 at once
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn self_timed_buffer_bounds(g: &SdfGraph, iterations: u64) -> Result<Vec<u64>, SdfError> {
    let trace = simulate_iterations(g, iterations)?;
    Ok(trace.channel_peak_tokens)
}

/// The total peak memory over all channels (sum of per-channel peaks).
///
/// # Errors
///
/// See [`self_timed_buffer_bounds`].
pub fn total_buffer_bound(g: &SdfGraph, iterations: u64) -> Result<u64, SdfError> {
    Ok(self_timed_buffer_bounds(g, iterations)?.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_respect_initial_tokens() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 3).unwrap();
        let g = b.build().unwrap();
        let bounds = self_timed_buffer_bounds(&g, 4).unwrap();
        assert_eq!(bounds, vec![3]);
        assert_eq!(total_buffer_bound(&g, 4).unwrap(), 3);
    }

    #[test]
    fn fast_producer_accumulates() {
        // Producer (time 1) feeds consumer (time 10) with a feedback loop
        // limiting the producer to 5 outstanding firings.
        let mut b = SdfGraph::builder("g");
        let p = b.actor("p", 1);
        let c = b.actor("c", 10);
        b.channel(p, c, 1, 1, 0).unwrap();
        b.channel(c, p, 1, 1, 5).unwrap();
        let g = b.build().unwrap();
        let bounds = self_timed_buffer_bounds(&g, 10).unwrap();
        // At most 5 tokens can accumulate on the forward channel.
        assert!(bounds[0] <= 5);
        assert!(bounds[0] >= 4);
    }

    #[test]
    fn errors_propagate() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 1, 0).unwrap();
        let g = b.build().unwrap();
        assert!(total_buffer_bound(&g, 1).is_err());
    }
}

/// Builds the *capacity-constrained* version of `g`: every channel `i`
/// gains a reverse channel with swapped rates and `capacities[i] − d`
/// initial tokens, the classical SDF model of a bounded FIFO of
/// `capacities[i]` slots (Stuijk et al., TC'08). Self-loop channels are
/// left unmodified (their occupancy is fixed by construction).
///
/// # Errors
///
/// - [`SdfError::CapacityArityMismatch`] if `capacities.len()` differs from
///   the channel count,
/// - [`SdfError::CapacityBelowTokens`] if any capacity is below the
///   channel's initial token count.
pub fn with_capacities(g: &SdfGraph, capacities: &[u64]) -> Result<SdfGraph, SdfError> {
    if capacities.len() != g.num_channels() {
        return Err(SdfError::CapacityArityMismatch {
            expected: g.num_channels(),
            found: capacities.len(),
        });
    }
    let mut b = SdfGraph::builder(format!("{}^bounded", g.name()));
    let ids: Vec<_> = g
        .actors()
        .map(|(_, a)| b.actor(a.name().to_string(), a.execution_time()))
        .collect();
    for (cid, ch) in g.channels() {
        let cap = capacities[cid.index()];
        if cap < ch.initial_tokens() {
            return Err(SdfError::CapacityBelowTokens {
                channel: cid,
                capacity: cap,
                tokens: ch.initial_tokens(),
            });
        }
        // Invariant: source graph channels have positive rates, so copies
        // cannot fail validation.
        b.channel(
            ids[ch.source().index()],
            ids[ch.target().index()],
            ch.production(),
            ch.consumption(),
            ch.initial_tokens(),
        )
        .expect("copying a valid channel");
        if !ch.is_self_loop() {
            // Free slots flow backwards: consuming a token frees space.
            b.channel(
                ids[ch.target().index()],
                ids[ch.source().index()],
                ch.consumption(),
                ch.production(),
                cap - ch.initial_tokens(),
            )
            .expect("reverse channel of a valid channel");
        }
    }
    // Invariant: actor names and execution times were copied from a graph
    // that already passed the same validation.
    Ok(b.build().expect("bounded version of a valid graph"))
}

/// The iteration period of `g` when every channel is bounded by the given
/// capacity, or `None` if unbounded (no recurrent constraint even with the
/// bounds).
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] / [`SdfError::Deadlock`] from the bounded
///   graph's analysis — a deadlock means the capacities are infeasible,
/// - the capacity-validation errors of [`with_capacities`].
pub fn period_with_capacities(
    g: &SdfGraph,
    capacities: &[u64],
) -> Result<Option<sdfr_maxplus::Rational>, SdfError> {
    period_with_capacities_budgeted(g, capacities, &Budget::unlimited())
}

/// [`period_with_capacities`] with the bounded graph's analysis charged to
/// `budget`.
fn period_with_capacities_budgeted(
    g: &SdfGraph,
    capacities: &[u64],
    budget: &Budget,
) -> Result<Option<sdfr_maxplus::Rational>, SdfError> {
    let bounded = with_capacities(g, capacities)?;
    Ok(AnalysisSession::with_budget(bounded, budget.clone())
        .throughput()?
        .period())
}

/// [`period_with_capacities_budgeted`] with the bounded graph's symbolic
/// iteration seeded from — and its archive offered back to — the search's
/// [`FamilySeeder`]. Answers (and budget accounting) are byte-identical to
/// the unseeded probe; only wall-clock time differs.
fn period_with_capacities_seeded(
    g: &SdfGraph,
    capacities: &[u64],
    budget: &Budget,
    seeder: &FamilySeeder,
) -> Result<Option<sdfr_maxplus::Rational>, SdfError> {
    let bounded = Arc::new(with_capacities(g, capacities)?);
    let session = AnalysisSession::with_budget(Arc::clone(&bounded), budget.clone());
    if let Some(seed) = seeder.seed_for(&bounded) {
        let _ = session.install_seed(seed);
    }
    let period = session.throughput().map(|t| t.period());
    if let Some(archive) = session.engine_archive() {
        seeder.offer(bounded, archive);
    }
    period
}

/// Finds a capacity allocation that achieves the unconstrained
/// (self-timed) period, from the *reserved-occupancy* peaks of a
/// self-timed run ([`sdfr_graph::execution::Trace::channel_peak_reserved`]):
/// stored tokens plus slots held by in-flight firings, which is exactly
/// what a bounded FIFO must provide for the self-timed schedule to proceed
/// unchanged.
///
/// # Errors
///
/// Propagates analysis errors; returns [`SdfError::Overflow`] when the
/// unconstrained throughput is unbounded (no finite allocation reproduces
/// it) or when verification fails within the search budget.
///
/// The capped form is [`AnalysisSession::sufficient_capacities`].
pub fn sufficient_capacities(g: &SdfGraph, iterations: u64) -> Result<Vec<u64>, SdfError> {
    AnalysisSession::new(g.clone()).sufficient_capacities(iterations)
}

/// The search behind [`AnalysisSession::sufficient_capacities`], against
/// the session's cached unconstrained period.
pub(crate) fn sufficient_capacities_with_target(
    g: &SdfGraph,
    iterations: u64,
    budget: &Budget,
    target: Option<sdfr_maxplus::Rational>,
) -> Result<Vec<u64>, SdfError> {
    if target.is_none() {
        // Unbounded throughput: every finite allocation yields a finite
        // period, so no capacity assignment reproduces it.
        return Err(SdfError::Overflow {
            what: "buffer sizing for an unbounded-throughput graph",
        });
    }
    // The reserved-occupancy peak of a self-timed run is sufficient by
    // construction: with these capacities the bounded graph can execute the
    // same schedule (provided `iterations` covers the periodic regime).
    let trace = simulate(
        g,
        &SimulationOptions::iterations(iterations).with_budget(budget.clone()),
    )?;
    let mut caps = trace.channel_peak_reserved;
    for (i, (_, ch)) in g.channels().enumerate() {
        caps[i] = if ch.is_self_loop() {
            // Self-loops are not capacity-modelled; report their fixed
            // occupancy.
            ch.initial_tokens()
        } else {
            caps[i].max(channel_floor(ch))
        };
    }
    // Guard against an under-sized simulation window (long transients):
    // verify, and widen geometrically a few times before giving up. The
    // token guard keeps the spectral analysis of the bounded graph cheap.
    for _ in 0..6 {
        if period_with_capacities_budgeted(g, &caps, budget)? == target {
            return Ok(caps);
        }
        let total: u64 = caps.iter().sum();
        if total > 20_000 {
            break;
        }
        for (i, (_, ch)) in g.channels().enumerate() {
            if !ch.is_self_loop() {
                caps[i] = caps[i].checked_mul(2).ok_or(SdfError::Overflow {
                    what: "sufficient buffer capacity search",
                })?;
            }
        }
    }
    Err(SdfError::Overflow {
        what: "sufficient buffer capacity search",
    })
}

/// Heuristically minimizes channel capacities while preserving the
/// unconstrained (self-timed) throughput, in the spirit of the
/// buffer-sizing heuristics the paper cites (Wiggers et al., DAC'07).
///
/// Starts from a [`sufficient_capacities`] allocation and then shrinks each
/// channel in turn by binary search, keeping the iteration period equal to
/// the unconstrained optimum. The result is per-channel locally minimal, not a
/// global optimum — exact minimization is the subject of Stuijk et al.'s
/// exact exploration and is exponential in general.
///
/// # Errors
///
/// Propagates analysis errors from the unconstrained graph.
///
/// The capped form is [`AnalysisSession::minimize_capacities`].
pub fn minimize_capacities(g: &SdfGraph, iterations: u64) -> Result<Vec<u64>, SdfError> {
    AnalysisSession::new(g.clone()).minimize_capacities(iterations)
}

/// Whether capacities `probe` reproduce the target period. A deadlocking
/// probe is simply infeasible, but a budget exhaustion must abort the whole
/// search.
fn probe_feasible(
    g: &SdfGraph,
    probe: &[u64],
    budget: &Budget,
    target: Option<sdfr_maxplus::Rational>,
    seeder: &FamilySeeder,
) -> Result<bool, SdfError> {
    match period_with_capacities_seeded(g, probe, budget, seeder) {
        Ok(p) => Ok(p == target),
        Err(e @ SdfError::Exhausted { .. }) => Err(e),
        Err(_) => Ok(false),
    }
}

/// The shrink search behind [`AnalysisSession::minimize_capacities`],
/// against the session's cached unconstrained period.
///
/// Feasibility is monotone in every single capacity (extra slots only add
/// tokens to the reverse channel, which can only shorten cycles), which the
/// search exploits in two phases:
///
/// 1. **Parallel scouting** (one [fan-out](sdfr_pool::map_chunked) item
///    per channel):
///    each channel's minimal feasible capacity against the *un-shrunk*
///    starting allocation is found by an independent binary search. Because
///    neighbours only ever shrink afterwards, these minima are valid lower
///    bounds for phase 2.
/// 2. **Sequential confirmation**: the original greedy left-to-right shrink,
///    searching `[max(floor, scout_i), start_i]` instead of
///    `[floor, start_i]`. Binary search over any subrange containing the
///    threshold of a monotone predicate returns the same threshold, so the
///    result is exactly the sequential algorithm's — usually confirmed with
///    a single probe per channel (the scout bound is already tight).
pub(crate) fn minimize_capacities_with_target(
    g: &SdfGraph,
    iterations: u64,
    budget: &Budget,
    target: Option<sdfr_maxplus::Rational>,
) -> Result<Vec<u64>, SdfError> {
    let mut caps = sufficient_capacities_with_target(g, iterations, budget, target)?;
    let channels: Vec<_> = g.channels().map(|(_, c)| *c).collect();
    let start = caps.clone();
    // All probes of this search share one seeder: each probe varies a
    // single capacity, so its bounded graph forks a recent probe's archive.
    let seeder = FamilySeeder::default();

    // Phase 1: per-channel minima against the starting allocation, in
    // parallel. Each worker probes under its own meter of the shared budget
    // (per-probe firing caps, shared deadline/cancellation), exactly like
    // the sequential probes. One task covers a chunk of channels — a scout
    // is a whole binary search, roughly 8 probes worth of firings.
    let scout_chunk = probe_chunk(start.len(), probe_cost(g).saturating_mul(8));
    let scouted = sdfr_pool::map_chunked(start.len(), scout_chunk, |i| -> Result<u64, SdfError> {
        let ch = &channels[i];
        if ch.is_self_loop() {
            return Ok(start[i]);
        }
        let (mut lo, mut hi) = (channel_floor(ch), start[i]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut probe = start.clone();
            probe[i] = mid;
            if probe_feasible(g, &probe, budget, target, &seeder)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(hi)
    });
    // Deterministic error propagation: the lowest-index failure wins.
    let mut lower = Vec::with_capacity(scouted.len());
    for s in scouted {
        lower.push(s?);
    }

    // Phase 2: the sequential greedy shrink, tightened by the scout bounds.
    for i in 0..caps.len() {
        if channels[i].is_self_loop() {
            continue;
        }
        let (mut lo, mut hi) = (channel_floor(&channels[i]).max(lower[i]), caps[i]);
        if lo < hi {
            // The scout bound is usually exact: confirm it with one probe
            // before falling back to the binary search.
            let mut probe = caps.clone();
            probe[i] = lo;
            if probe_feasible(g, &probe, budget, target, &seeder)? {
                hi = lo;
            } else {
                lo += 1;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut probe = caps.clone();
            probe[i] = mid;
            if probe_feasible(g, &probe, budget, target, &seeder)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        caps[i] = hi;
    }
    Ok(caps)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The classical single-channel liveness floor: `p + c − gcd(p, c)` slots
/// (at least the initial tokens); self-loops keep their fixed occupancy.
fn channel_floor(ch: &sdfr_graph::Channel) -> u64 {
    if ch.is_self_loop() {
        ch.initial_tokens()
    } else {
        let g_pc = gcd(ch.production(), ch.consumption());
        (ch.production() + ch.consumption() - g_pc).max(ch.initial_tokens())
    }
}

/// How many estimated firings one fan-out chunk should amortize its
/// claim over.
const PROBE_CHUNK_COST: u64 = 4096;

/// Chunk size for fanning `n` capacity probes out, from the same cost
/// model the [`Budget`] charges: a probe runs about one symbolic iteration
/// of the bounded graph, `Σγ` firings. Cheap probes batch up until a chunk
/// carries roughly [`PROBE_CHUNK_COST`] firings; expensive probes stay one
/// per chunk (their own cost already amortizes the claim).
/// [`sdfr_pool::chunk_size`] caps the batch so every thread still gets a
/// few chunks to claim.
fn probe_chunk(n: usize, cost_per_probe: u64) -> usize {
    let by_cost = usize::try_from(PROBE_CHUNK_COST / cost_per_probe.max(1)).unwrap_or(usize::MAX);
    by_cost.clamp(1, sdfr_pool::chunk_size(n))
}

/// The per-probe cost estimate for capacity searches over `g`: the firings
/// of one iteration, `Σγ` (the bounded variants share `g`'s repetition
/// vector — reverse channels have swapped rates). Inconsistent graphs
/// never reach a fan-out, so the fallback value is arbitrary.
fn probe_cost(g: &SdfGraph) -> u64 {
    sdfr_graph::repetition::repetition_vector(g).map_or(1, |v| v.iteration_length())
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::throughput::throughput;
    use sdfr_maxplus::Rational;

    fn pipeline() -> SdfGraph {
        let mut b = SdfGraph::builder("pipe");
        let x = b.actor("x", 2);
        let y = b.actor("y", 5);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn capacity_one_serializes_the_pipeline() {
        let g = pipeline();
        // Unconstrained: the bottleneck is y alone (period 5).
        assert_eq!(throughput(&g).unwrap().period(), Some(Rational::from(5)));
        // Capacity 1 on the x->y channel creates the cycle
        // x -> y -> (free slot) -> x with weight 2 + 5 over one slot token:
        // the period degrades to 7.
        let period = period_with_capacities(&g, &[1, 1, 1]).unwrap();
        assert_eq!(period, Some(Rational::from(7)));
        // Capacity 2 restores the full rate.
        let period = period_with_capacities(&g, &[2, 1, 1]).unwrap();
        assert_eq!(period, Some(Rational::from(5)));
    }

    #[test]
    fn minimize_finds_the_knee() {
        let g = pipeline();
        let caps = minimize_capacities(&g, 16).unwrap();
        // The forward channel needs exactly 2 slots; self-loops keep their
        // single token.
        assert_eq!(caps, vec![2, 1, 1]);
        assert_eq!(
            period_with_capacities(&g, &caps).unwrap(),
            throughput(&g).unwrap().period()
        );
    }

    #[test]
    fn multirate_capacities() {
        let mut b = SdfGraph::builder("mr");
        let x = b.actor("x", 1);
        let y = b.actor("y", 4);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let caps = minimize_capacities(&g, 16).unwrap();
        // Feasible and throughput-preserving.
        assert_eq!(
            period_with_capacities(&g, &caps).unwrap(),
            throughput(&g).unwrap().period()
        );
        // At least the single-channel floor p + c - gcd = 4.
        assert!(caps[0] >= 4);
    }

    #[test]
    fn capacity_below_tokens_rejected() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 3).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            with_capacities(&g, &[1]),
            Err(SdfError::CapacityBelowTokens {
                capacity: 1,
                tokens: 3,
                ..
            })
        ));
        assert!(matches!(
            with_capacities(&g, &[3, 4]),
            Err(SdfError::CapacityArityMismatch {
                expected: 1,
                found: 2,
            })
        ));
    }

    #[test]
    fn budgeted_capacity_search() {
        use sdfr_graph::budget::BudgetResource;
        let g = pipeline();
        let tight = Budget::unlimited().with_max_firings(1);
        assert!(matches!(
            AnalysisSession::with_budget(g.clone(), tight).minimize_capacities(16),
            Err(SdfError::Exhausted {
                resource: BudgetResource::Firings,
                ..
            })
        ));
        let ample = Budget::unlimited().with_max_firings(1_000_000);
        assert_eq!(
            AnalysisSession::with_budget(g.clone(), ample.clone())
                .minimize_capacities(16)
                .unwrap(),
            minimize_capacities(&g, 16).unwrap()
        );
        assert_eq!(
            simulate(&g, &SimulationOptions::iterations(10).with_budget(ample))
                .unwrap()
                .channel_peak_tokens,
            self_timed_buffer_bounds(&g, 10).unwrap()
        );
    }

    #[test]
    fn family_seeder_resumes_and_forks_ring_members() {
        let g = pipeline();
        let seeder = FamilySeeder::default();
        let base = Arc::new(with_capacities(&g, &[2, 1, 1]).unwrap());
        assert!(seeder.seed_for(&base).is_none(), "empty ring seeds nothing");
        let session = AnalysisSession::new(Arc::clone(&base));
        let _ = session.throughput().unwrap();
        seeder.offer(Arc::clone(&base), session.engine_archive().unwrap());
        // The same bounded graph resumes; a one-capacity variant forks.
        assert!(seeder.seed_for(&base).unwrap().delta.is_none());
        let variant = with_capacities(&g, &[3, 1, 1]).unwrap();
        assert!(seeder.seed_for(&variant).unwrap().delta.is_some());
        // The ring is bounded: old members are displaced, never grown past.
        for cap in 0..2 * SEEDER_RING as u64 {
            let v = Arc::new(with_capacities(&g, &[cap + 2, 1, 1]).unwrap());
            let s = AnalysisSession::new(Arc::clone(&v));
            let _ = s.throughput().unwrap();
            seeder.offer(v, s.engine_archive().unwrap());
        }
        // The test thread is no fan-out helper, so every offer above landed
        // in the fallback shard; the per-shard ring stays bounded.
        assert_eq!(
            seeder.shard().lock().unwrap().len(),
            SEEDER_RING,
            "ring stays bounded"
        );
        assert!(std::ptr::eq(seeder.shard(), seeder.shards.last().unwrap()));
    }

    #[test]
    fn seeded_probes_are_byte_identical_to_cold_ones() {
        // Warm probes across a capacity family must answer exactly like the
        // unseeded reference probe, whatever the ring contains.
        let g = pipeline();
        let seeder = FamilySeeder::default();
        for cap in 1..=5 {
            let caps = [cap, 1, 1];
            let warm =
                period_with_capacities_seeded(&g, &caps, &Budget::unlimited(), &seeder).unwrap();
            let cold = period_with_capacities(&g, &caps).unwrap();
            assert_eq!(warm, cold, "capacity {cap}");
        }
    }

    #[test]
    fn bounded_graph_structure() {
        let g = pipeline();
        let bounded = with_capacities(&g, &[3, 1, 1]).unwrap();
        // One reverse channel for the non-self-loop channel, inserted
        // right after its forward copy.
        assert_eq!(bounded.num_channels(), g.num_channels() + 1);
        let x = bounded.actor_by_name("x").unwrap();
        let y = bounded.actor_by_name("y").unwrap();
        let (_, rev) = bounded
            .channels()
            .find(|(_, c)| c.source() == y && c.target() == x)
            .expect("reverse channel present");
        assert_eq!(rev.initial_tokens(), 3);
    }
}

/// One point of the throughput/buffer trade-off curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Per-channel capacities at this point.
    pub capacities: Vec<u64>,
    /// Total capacity (sum over channels).
    pub total: u64,
    /// The iteration period achieved, `None` when this allocation
    /// deadlocks (zero throughput).
    pub period: Option<sdfr_maxplus::Rational>,
}

/// Explores the throughput/buffer trade-off (Stuijk et al., TC'08): starting
/// from the per-channel liveness floors, greedily grows the single buffer
/// whose increment improves the period most, recording every Pareto point
/// until the unconstrained (self-timed) period is reached.
///
/// The returned curve starts at the smallest explored allocation and ends
/// at an allocation achieving the unconstrained period; each recorded point
/// strictly improves on its predecessor. This greedy exploration yields the
/// exact curve on chains and close approximations in general (global
/// minimization is exponential).
///
/// # Errors
///
/// Propagates analysis errors of the unconstrained graph.
///
/// # Panics
///
/// Panics if the unconstrained graph has unbounded throughput on some
/// actor and *no* capacity allocation can bound the exploration — not
/// possible for graphs whose every channel gets a capacity (the reverse
/// edges bound every actor pair); kept as an internal safety bound.
pub fn throughput_buffer_tradeoff(
    g: &SdfGraph,
    iterations: u64,
) -> Result<Vec<ParetoPoint>, SdfError> {
    let target = crate::throughput::throughput(g)?.period();
    throughput_buffer_tradeoff_with_target(g, iterations, target, true)
}

/// The sequential reference implementation of
/// [`throughput_buffer_tradeoff`].
///
/// The parallel sweep evaluates all candidate increments of a step
/// concurrently and then folds them in channel order with the same
/// tie-breaking, so both paths return byte-identical curves; this entry
/// point exists to cross-check that claim in tests and to measure the
/// fan-out speedup in benches.
///
/// # Errors
///
/// See [`throughput_buffer_tradeoff`].
pub fn throughput_buffer_tradeoff_serial(
    g: &SdfGraph,
    iterations: u64,
) -> Result<Vec<ParetoPoint>, SdfError> {
    let target = crate::throughput::throughput(g)?.period();
    throughput_buffer_tradeoff_with_target(g, iterations, target, false)
}

/// Deadlocked allocations count as zero throughput.
fn period_at(g: &SdfGraph, caps: &[u64], seeder: &FamilySeeder) -> Option<sdfr_maxplus::Rational> {
    period_with_capacities_seeded(g, caps, &Budget::unlimited(), seeder).unwrap_or_default()
}

/// The greedy sweep behind [`throughput_buffer_tradeoff`], against an
/// already-known target period. Each step's candidate probes (+1 on every
/// growable channel) are independent full analyses of a capacity-variant
/// graph; `parallel` fans them out with [`sdfr_pool::map_chunked`], and
/// the subsequent fold picks the winner in ascending channel order with a
/// strict comparison — the same candidate the sequential loop picks.
pub(crate) fn throughput_buffer_tradeoff_with_target(
    g: &SdfGraph,
    iterations: u64,
    target: Option<sdfr_maxplus::Rational>,
    parallel: bool,
) -> Result<Vec<ParetoPoint>, SdfError> {
    let peaks = sufficient_capacities_with_target(g, iterations, &Budget::unlimited(), target)?;

    let channels: Vec<_> = g.channels().map(|(_, c)| *c).collect();
    let floors: Vec<u64> = channels.iter().map(channel_floor).collect();
    // Every step's +1 candidates are one-channel variants of the current
    // allocation: they fork the current point's archived execution.
    let seeder = FamilySeeder::default();
    let cost = probe_cost(g);

    // Order periods with deadlock (None) as the worst.
    let better = |a: Option<sdfr_maxplus::Rational>, b: Option<sdfr_maxplus::Rational>| -> bool {
        match (a, b) {
            (Some(x), Some(y)) => x < y,
            (Some(_), None) => true,
            _ => false,
        }
    };

    let mut caps = floors;
    let mut curve = vec![ParetoPoint {
        capacities: caps.clone(),
        total: caps.iter().sum(),
        period: period_at(g, &caps, &seeder),
    }];

    let budget: u64 = peaks
        .iter()
        .zip(&caps)
        .map(|(&p, &c)| p.saturating_sub(c))
        .sum();
    let mut current = curve[0].period;
    for _ in 0..budget {
        if current == target && current.is_some() {
            break;
        }
        // Try +1 on each non-self-loop channel; keep the best improvement,
        // lowest channel index first on ties.
        let candidates: Vec<usize> = (0..caps.len())
            .filter(|&i| !channels[i].is_self_loop() && caps[i] < peaks[i])
            .collect();
        let probe_period = |i: usize| -> Option<sdfr_maxplus::Rational> {
            let mut probe = caps.clone();
            probe[i] += 1;
            period_at(g, &probe, &seeder)
        };
        let periods: Vec<Option<sdfr_maxplus::Rational>> = if parallel {
            let chunk = probe_chunk(candidates.len(), cost);
            sdfr_pool::map_chunked(candidates.len(), chunk, |k| probe_period(candidates[k]))
        } else {
            candidates.iter().map(|&i| probe_period(i)).collect()
        };
        let mut best: Option<(usize, Option<sdfr_maxplus::Rational>)> = None;
        for (&i, &p) in candidates.iter().zip(&periods) {
            if better(p, best.as_ref().map_or(current, |(_, bp)| *bp)) {
                best = Some((i, p));
            }
        }
        match best {
            Some((i, p)) => {
                caps[i] += 1;
                current = p;
                curve.push(ParetoPoint {
                    capacities: caps.clone(),
                    total: caps.iter().sum(),
                    period: p,
                });
            }
            None => {
                // No single increment improves: grow the tightest channel
                // anyway to escape plateaus.
                let Some(&i) = candidates.first() else {
                    break;
                };
                caps[i] += 1;
            }
        }
    }
    Ok(curve)
}

#[cfg(test)]
mod pareto_tests {
    use super::*;
    use sdfr_maxplus::Rational;

    #[test]
    fn chain_tradeoff_curve() {
        let mut b = SdfGraph::builder("pipe");
        let x = b.actor("x", 2);
        let y = b.actor("y", 5);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let curve = throughput_buffer_tradeoff(&g, 16).unwrap();
        // Two points: capacity 1 (period 7) and capacity 2 (period 5).
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].period, Some(Rational::from(7)));
        assert_eq!(curve[0].capacities[0], 1);
        assert_eq!(curve[1].period, Some(Rational::from(5)));
        assert_eq!(curve[1].capacities[0], 2);
        // Strictly improving, strictly growing.
        assert!(curve[1].total > curve[0].total);
    }

    #[test]
    fn curve_ends_at_unconstrained_period() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 3);
        let z = b.actor("z", 2);
        b.channel(x, y, 2, 1, 0).unwrap();
        b.channel(y, z, 1, 2, 0).unwrap();
        for a in [x, y, z] {
            b.channel(a, a, 1, 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        let target = crate::throughput::throughput(&g).unwrap().period();
        let curve = throughput_buffer_tradeoff(&g, 16).unwrap();
        assert_eq!(curve.last().unwrap().period, target);
        // Monotone: later points never have larger periods.
        for w in curve.windows(2) {
            match (w[0].period, w[1].period) {
                (Some(a), Some(b)) => assert!(b <= a),
                (None, _) => {}
                (Some(_), None) => panic!("curve worsened"),
            }
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 3);
        let z = b.actor("z", 2);
        b.channel(x, y, 2, 1, 0).unwrap();
        b.channel(y, z, 1, 2, 0).unwrap();
        b.channel(z, x, 1, 1, 2).unwrap();
        for a in [x, y, z] {
            b.channel(a, a, 1, 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        let parallel = throughput_buffer_tradeoff(&g, 16).unwrap();
        let serial = throughput_buffer_tradeoff_serial(&g, 16).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn floors_that_deadlock_are_reported_as_none() {
        // A feedback pair whose floor allocation deadlocks until buffers
        // grow: the curve starts with None and ends feasible.
        let mut b = SdfGraph::builder("fb");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 3, 2, 0).unwrap();
        b.channel(y, x, 2, 3, 6).unwrap();
        let g = b.build().unwrap();
        let curve = throughput_buffer_tradeoff(&g, 8).unwrap();
        let last = curve.last().unwrap();
        assert_eq!(
            last.period,
            crate::throughput::throughput(&g).unwrap().period()
        );
    }
}
