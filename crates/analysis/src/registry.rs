//! A cross-graph cache of [`AnalysisSession`]s keyed by graph content.
//!
//! One [`AnalysisSession`] already guarantees that a single graph pays for
//! its symbolic iteration (paper, Alg. 1) at most once. Sweep workloads —
//! capacity probes, abstraction ladders, Table-1-style benchmark batches,
//! the scenario sweeps of parametric throughput analysis — construct *many*
//! sessions over *recurring* graph content, and each fresh session pays the
//! iteration again. A [`SessionRegistry`] closes that gap: it maps
//! [`SdfGraph::fingerprint`] (plus the budget's content signature) to a
//! shared `Arc<AnalysisSession>`, so concurrent and sequential analyses of
//! equal graph content reuse one session and its memoized artifacts.
//!
//! # Cache coherence
//!
//! Three properties make sharing sound:
//!
//! 1. **Graphs are immutable**, so a session never goes stale; entries are
//!    evicted for capacity, never for invalidation.
//! 2. **Sessions are deterministic**: every artifact is a pure function of
//!    the graph and the content-addressable budget caps, and errors are
//!    cached exactly like successes. A cache hit therefore returns the same
//!    value a fresh session would compute — byte for byte (the differential
//!    test corpus in `crates/core/tests/registry_props.rs` pins this).
//! 3. **Budgets are part of the key.** Two callers share a session only if
//!    their budgets have equal firing/size caps and carry neither a
//!    wall-clock deadline nor a cancellation flag
//!    ([`Budget::is_content_addressable`]); budgets with a deadline or a
//!    cancel flag *bypass* the cache entirely and get a private session, so
//!    one caller's clock can never exhaust another caller's analysis.
//!    Within one shared session the cumulative accounting of
//!    [`AnalysisSession`] applies: the K-th requester of an artifact
//!    observes exactly the state a single fresh session would have reached
//!    after the same queries.
//!
//! Fingerprints are 64-bit and non-cryptographic, so a hit additionally
//! deep-compares the stored graph against the requested one; a mismatch is
//! counted as a collision and served from a private session rather than
//! from the wrong entry.
//!
//! # Near hits
//!
//! A miss is not always fully cold. Entries are additionally indexed by
//! [`SdfGraph::family_fingerprint`] — a token-blind structural hash — and a
//! missing key whose family has resident members seeds the new session with
//! an [`IncrementalSeed`]: the same graph under different budget caps
//! *resumes* the member's archived engine, and a graph differing in a
//! single channel's initial tokens *forks* it, re-executing only the
//! invalidated suffix (see [`crate::engine`]). Determinacy makes the seeded
//! answer byte-identical to a cold run — including budget accounting — so
//! near hits are observable only in [`RegistryStats::near_hits`] and
//! wall-clock time; lookup attribution stays [`Lookup::Miss`].
//!
//! # Eviction
//!
//! Entries are evicted least-recently-used first, whenever the entry count
//! exceeds [`RegistryConfig::max_entries`] or the summed
//! [`AnalysisSession::bytes_estimate`] exceeds
//! [`RegistryConfig::max_bytes`]. Eviction only drops the registry's `Arc`;
//! callers holding the session keep a fully functional (and still warm)
//! session — an in-flight analysis can never be corrupted by eviction.
//! Symbolic-iteration counts of evicted sessions are folded into the
//! registry-wide total so [`RegistryStats::symbolic_iterations`] stays
//! meaningful across evictions.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sdfr_analysis::registry::SessionRegistry;
//! use sdfr_graph::SdfGraph;
//!
//! let mut b = SdfGraph::builder("g");
//! let x = b.actor("x", 2);
//! let y = b.actor("y", 3);
//! b.channel(x, y, 1, 1, 0)?;
//! b.channel(y, x, 1, 1, 1)?;
//! let g = Arc::new(b.build()?);
//!
//! let registry = SessionRegistry::new();
//! let first = registry.session(&g);
//! let _ = first.throughput()?;
//! // Equal content — even via a different Arc — shares the warm session.
//! let again = registry.session(&Arc::new(SdfGraph::clone(&g)));
//! assert!(Arc::ptr_eq(&first, &again));
//! assert_eq!(again.symbolic_iterations_computed(), 1);
//! let stats = registry.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sdfr_graph::budget::Budget;
use sdfr_graph::{ChannelId, SdfGraph};

use crate::engine::IncrementalSeed;
use crate::session::AnalysisSession;

/// How many of a family's most recent members a miss inspects for a
/// resumable or forkable engine archive. Small and constant: the scan runs
/// under the registry lock.
const NEAR_HIT_SCAN: usize = 8;

/// Capacity limits for a [`SessionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Maximum number of resident sessions; the least recently used entry
    /// is evicted when exceeded. At least 1.
    pub max_entries: usize,
    /// Maximum summed [`AnalysisSession::bytes_estimate`] over resident
    /// sessions. The most recently touched entry is always retained, so one
    /// oversized session does not render the cache unusable.
    pub max_bytes: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_entries: 256,
            max_bytes: 64 << 20,
        }
    }
}

/// How a [`SessionRegistry`] lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lookup {
    /// An existing session with equal graph content and budget caps.
    Hit,
    /// A new session was created and cached.
    Miss,
    /// A private, uncached session: the budget carries a deadline or a
    /// cancellation flag (not content-addressable), or — vanishingly rare —
    /// a fingerprint collision was detected.
    Bypass,
}

impl std::fmt::Display for Lookup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
            Lookup::Bypass => "bypass",
        })
    }
}

/// A point-in-time snapshot of registry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Lookups served from an existing session.
    pub hits: u64,
    /// Lookups that created and cached a new session.
    pub misses: u64,
    /// Lookups served from a private session because the budget was not
    /// content-addressable.
    pub bypasses: u64,
    /// Hits whose deep graph comparison failed (64-bit fingerprint
    /// collision); served as bypasses.
    pub collisions: u64,
    /// Sessions evicted to respect the capacity limits.
    pub evictions: u64,
    /// Currently resident sessions.
    pub entries: usize,
    /// Summed byte estimate of resident sessions, as of their last touch.
    pub bytes_estimate: u64,
    /// Symbolic iterations executed by resident *and evicted* cached
    /// sessions (bypassed private sessions are not tracked).
    pub symbolic_iterations: u64,
    /// Misses whose session was seeded from a resident family member's
    /// engine archive (a resume across budget tiers or a fork across a
    /// single-channel token delta) instead of starting fully cold.
    pub near_hits: u64,
}

/// Cache key: graph content plus the budget's content signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: u64,
    max_firings: Option<u64>,
    max_size: Option<u64>,
}

#[derive(Debug)]
struct Entry {
    session: Arc<AnalysisSession>,
    /// Byte estimate as of the last touch (refreshed on every hit, since
    /// sessions grow as they warm up).
    bytes: u64,
    /// Logical timestamp of the last touch (monotone per registry).
    last_used: u64,
    /// The graph's token-blind [`SdfGraph::family_fingerprint`], under
    /// which this entry is listed in the family index.
    family: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// Token-blind family fingerprint → resident keys, in insertion order
    /// (most recent last). Feeds the near-hit scan on misses.
    families: HashMap<u64, Vec<Key>>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    collisions: u64,
    evictions: u64,
    near_hits: u64,
    /// Symbolic iterations performed by sessions already evicted.
    retired_symbolic: u64,
}

/// A thread-safe, capacity-bounded cache of [`AnalysisSession`]s keyed by
/// graph fingerprint and budget caps. See the [module docs](self) for the
/// coherence argument and eviction policy.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    config: RegistryConfig,
    inner: Mutex<Inner>,
}

impl SessionRegistry {
    /// Creates a registry with the default capacity limits
    /// ([`RegistryConfig::default`]).
    pub fn new() -> Self {
        Self::with_config(RegistryConfig::default())
    }

    /// Creates a registry with explicit capacity limits. `max_entries` is
    /// clamped to at least 1.
    pub fn with_config(config: RegistryConfig) -> Self {
        SessionRegistry {
            config: RegistryConfig {
                max_entries: config.max_entries.max(1),
                ..config
            },
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The capacity limits this registry enforces.
    pub fn config(&self) -> RegistryConfig {
        self.config
    }

    /// The shared unlimited-budget session for `graph`, creating and caching
    /// it on first sight of this content.
    pub fn session(&self, graph: &Arc<SdfGraph>) -> Arc<AnalysisSession> {
        self.lookup(graph, &Budget::unlimited()).0
    }

    /// The shared session for `graph` under `budget`, creating and caching
    /// it on first sight of this (content, caps) pair, and how the lookup
    /// was served — the batch front-end surfaces this per graph. Budgets
    /// that are not [content-addressable](Budget::is_content_addressable)
    /// get a private, uncached session.
    pub fn lookup(&self, graph: &Arc<SdfGraph>, budget: &Budget) -> (Arc<AnalysisSession>, Lookup) {
        if !budget.is_content_addressable() {
            let mut inner = self.inner.lock().expect("registry mutex poisoned");
            inner.bypasses += 1;
            drop(inner);
            let session = Arc::new(AnalysisSession::with_budget(
                Arc::clone(graph),
                budget.clone(),
            ));
            return (session, Lookup::Bypass);
        }

        let key = Key {
            fingerprint: graph.fingerprint(),
            max_firings: budget.max_firings(),
            max_size: budget.max_size(),
        };
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        inner.clock += 1;
        let now = inner.clock;
        if let Some(entry) = inner.map.get_mut(&key) {
            // Guard against 64-bit fingerprint collisions: the cached graph
            // must be *equal*, not merely equal-hashing.
            if entry.session.graph().as_ref() == graph.as_ref() {
                entry.last_used = now;
                let session = Arc::clone(&entry.session);
                let new_bytes = session.bytes_estimate();
                let old_bytes = std::mem::replace(&mut entry.bytes, new_bytes);
                inner.bytes = inner.bytes - old_bytes + new_bytes;
                inner.hits += 1;
                // A grown entry can push the registry over its byte limit.
                self.evict_locked(&mut inner, Some(key));
                return (session, Lookup::Hit);
            }
            inner.collisions += 1;
            inner.bypasses += 1;
            drop(inner);
            let session = Arc::new(AnalysisSession::with_budget(
                Arc::clone(graph),
                budget.clone(),
            ));
            return (session, Lookup::Bypass);
        }

        // Miss: create and insert while holding the lock, so concurrent
        // requesters of the same content block here and then *hit* — the
        // symbolic iteration itself runs outside the lock, once, guarded by
        // the session's own OnceLock slots.
        let session = Arc::new(AnalysisSession::with_budget(
            Arc::clone(graph),
            budget.clone(),
        ));
        let family = graph.family_fingerprint();
        if let Some(seed) = Self::near_hit_seed(&inner, key, family, graph) {
            if session.install_seed(seed) {
                inner.near_hits += 1;
            }
        }
        let bytes = session.bytes_estimate();
        inner.map.insert(
            key,
            Entry {
                session: Arc::clone(&session),
                bytes,
                last_used: now,
                family,
            },
        );
        inner.families.entry(family).or_default().push(key);
        inner.bytes += bytes;
        inner.misses += 1;
        self.evict_locked(&mut inner, Some(key));
        (session, Lookup::Miss)
    }

    /// Scans the most recent resident members of `graph`'s structural
    /// family (at most [`NEAR_HIT_SCAN`]) for an engine archive the new
    /// session can start from: the same graph under different caps resumes,
    /// a single-channel token delta under the same caps forks. A resume
    /// wins over a fork — it keeps the whole archived prefix rather than
    /// the part that predates the changed channel's first consume.
    fn near_hit_seed(
        inner: &Inner,
        key: Key,
        family: u64,
        graph: &Arc<SdfGraph>,
    ) -> Option<IncrementalSeed> {
        let members = inner.families.get(&family)?;
        let mut fork = None;
        for cand in members.iter().rev().take(NEAR_HIT_SCAN) {
            if *cand == key {
                continue;
            }
            let Some(entry) = inner.map.get(cand) else {
                continue;
            };
            let Some(base) = entry.session.engine_archive() else {
                continue;
            };
            if cand.fingerprint == key.fingerprint {
                // Same content under different caps (deep-compared, like a
                // hit, to rule out fingerprint collisions).
                if entry.session.graph().as_ref() == graph.as_ref() {
                    return Some(IncrementalSeed { base, delta: None });
                }
            } else if fork.is_none()
                && cand.max_firings == key.max_firings
                && cand.max_size == key.max_size
            {
                if let Some(delta) = entry.session.graph().initial_token_delta(graph) {
                    fork = Some(IncrementalSeed {
                        base,
                        delta: Some(delta),
                    });
                }
            }
        }
        fork
    }

    /// Inserts an externally built (typically journal-restored) session
    /// without touching the hit/miss counters, so warm-start restores are
    /// invisible to cache-effectiveness accounting: the first real request
    /// for restored content counts as a plain [`Lookup::Hit`].
    ///
    /// Returns `false` (and changes nothing) when the session's budget is
    /// not [content-addressable](Budget::is_content_addressable) or an
    /// entry with the same key is already resident — first restore wins,
    /// and live entries are never displaced by a replay. The usual LRU
    /// eviction applies afterwards, so restoring more than the configured
    /// capacity simply retains the most recently restored sessions.
    pub fn restore(&self, session: Arc<AnalysisSession>) -> bool {
        let budget = session.budget();
        if !budget.is_content_addressable() {
            return false;
        }
        let key = Key {
            fingerprint: session.fingerprint(),
            max_firings: budget.max_firings(),
            max_size: budget.max_size(),
        };
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        if inner.map.contains_key(&key) {
            return false;
        }
        inner.clock += 1;
        let now = inner.clock;
        let bytes = session.bytes_estimate();
        let family = session.graph().family_fingerprint();
        inner.map.insert(
            key,
            Entry {
                session,
                bytes,
                last_used: now,
                family,
            },
        );
        inner.families.entry(family).or_default().push(key);
        inner.bytes += bytes;
        self.evict_locked(&mut inner, Some(key));
        true
    }

    /// Fills the registry for a batch of graphs concurrently, one
    /// [fan-out](sdfr_pool::map_chunked) item per graph, warming each
    /// session's headline throughput artifact, and returns the sessions in
    /// input order together with how each lookup was served.
    ///
    /// Duplicated content resolves to one shared session: exactly one
    /// thread pays the symbolic iteration (the session's `OnceLock` slots
    /// serialize the fill), the rest hit. Results are written to
    /// index-addressed slots, so the returned order — and therefore any
    /// fold over it — is independent of which thread ran which graph.
    /// Throughput errors are cached in the session like any other artifact
    /// and surface again when the caller queries it.
    pub fn prefetch(
        &self,
        graphs: &[Arc<SdfGraph>],
        budget: &Budget,
    ) -> Vec<(Arc<AnalysisSession>, Lookup)> {
        sdfr_pool::map_chunked(graphs.len(), 1, |i| {
            let (session, lookup) = self.lookup(&graphs[i], budget);
            let _ = session.throughput();
            (session, lookup)
        })
    }

    /// Evicts least-recently-used entries until the capacity limits hold,
    /// never evicting `keep` (the entry just touched).
    fn evict_locked(&self, inner: &mut Inner, keep: Option<Key>) {
        loop {
            let over = inner.map.len() > self.config.max_entries
                || (inner.bytes > self.config.max_bytes && inner.map.len() > 1);
            if !over {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { return };
            if let Some(entry) = inner.map.remove(&victim) {
                Self::unindex_family(&mut inner.families, entry.family, victim);
                inner.bytes -= entry.bytes;
                inner.retired_symbolic += entry.session.symbolic_iterations_computed();
                inner.evictions += 1;
            }
        }
    }

    /// Drops `key` from its family's member list, removing the list once it
    /// empties so the index never outgrows the resident set.
    fn unindex_family(families: &mut HashMap<u64, Vec<Key>>, family: u64, key: Key) {
        if let Some(members) = families.get_mut(&family) {
            members.retain(|k| *k != key);
            if members.is_empty() {
                families.remove(&family);
            }
        }
    }

    /// A consistent snapshot of the registry counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry mutex poisoned");
        let resident: u64 = inner
            .map
            .values()
            .map(|e| e.session.symbolic_iterations_computed())
            .sum();
        RegistryStats {
            hits: inner.hits,
            misses: inner.misses,
            bypasses: inner.bypasses,
            collisions: inner.collisions,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes_estimate: inner.bytes,
            symbolic_iterations: resident + inner.retired_symbolic,
            near_hits: inner.near_hits,
        }
    }

    /// Returns `true` when a session for exactly this `(fingerprint,
    /// max_firings, max_size)` key is resident. Journal compaction probes
    /// this to decide which persisted records still describe live state.
    pub fn contains(
        &self,
        fingerprint: u64,
        max_firings: Option<u64>,
        max_size: Option<u64>,
    ) -> bool {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .map
            .contains_key(&Key {
                fingerprint,
                max_firings,
                max_size,
            })
    }

    /// The resident session with this content fingerprint, preferring the
    /// uncapped entry (no `max_firings`/`max_size`) and falling back to
    /// the key with the *largest* caps — the most-complete engine state.
    /// This is the shard archive-handoff export hook: `sdfr serve`
    /// answers `GET /v1/archive/<fp>` from it so a ring neighbour can
    /// seed its own registry with the warmest variant available. Not
    /// counted as a lookup — exporting warmth must not skew LRU order or
    /// hit/miss accounting.
    pub fn find_by_fingerprint(&self, fingerprint: u64) -> Option<Arc<AnalysisSession>> {
        let inner = self.inner.lock().expect("registry mutex poisoned");
        let mut best: Option<(&Key, &Entry)> = None;
        for (key, entry) in inner
            .map
            .iter()
            .filter(|(k, _)| k.fingerprint == fingerprint)
        {
            let better = match &best {
                None => true,
                Some((held, _)) => {
                    // `None` caps sort above any finite cap; otherwise the
                    // larger cap pair wins (more firings simulated).
                    let rank = |k: &Key| {
                        (
                            k.max_firings.is_none(),
                            k.max_size.is_none(),
                            k.max_firings,
                            k.max_size,
                        )
                    };
                    rank(key) > rank(held)
                }
            };
            if better {
                best = Some((key, entry));
            }
        }
        best.map(|(_, entry)| Arc::clone(&entry.session))
    }

    /// The content fingerprint a single-channel token variant of `base`
    /// would be keyed under, computed without materialising the variant
    /// graph: `fingerprint_delta(g, (c, d))` equals the
    /// [`fingerprint`](SdfGraph::fingerprint) of `g` with channel `c`
    /// carrying `d` initial tokens. Sweep front-ends use it with
    /// [`Self::contains`] to probe a whole capacity family cheaply.
    pub fn fingerprint_delta(base: &SdfGraph, change: (ChannelId, u64)) -> u64 {
        base.fingerprint_with_tokens(change.0, change.1)
    }

    /// The number of resident sessions.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .map
            .len()
    }

    /// Returns `true` if no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident session (counted as evictions). Outstanding
    /// `Arc`s held by callers remain valid.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        let drained: Vec<Entry> = inner.map.drain().map(|(_, e)| e).collect();
        for entry in drained {
            inner.retired_symbolic += entry.session.symbolic_iterations_computed();
            inner.evictions += 1;
        }
        inner.families.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(name: &str, t_x: i64, t_y: i64) -> Arc<SdfGraph> {
        let mut b = SdfGraph::builder(name);
        let x = b.actor("x", t_x);
        let y = b.actor("y", t_y);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        Arc::new(b.build().unwrap())
    }

    /// The paper's Fig. 3 graph with the l→r channel carrying `d` tokens.
    /// That channel is consumed only by the iteration's last firing, so all
    /// `d` variants fork each other's archives across a long valid prefix.
    fn fig3_ch0(d: u64) -> Arc<SdfGraph> {
        let mut b = SdfGraph::builder("fig3");
        let l = b.actor("left", 3);
        let r = b.actor("right", 1);
        b.channel(l, r, 1, 2, d).unwrap();
        b.channel(r, l, 2, 1, 2).unwrap();
        b.channel(l, l, 1, 1, 1).unwrap();
        b.channel(r, r, 1, 1, 1).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn equal_content_shares_one_session() {
        let registry = SessionRegistry::new();
        let g = cycle("g", 2, 3);
        let (s1, l1) = registry.lookup(&g, &Budget::unlimited());
        let _ = s1.throughput().unwrap();
        // A structurally equal graph behind a different Arc hits.
        let g2 = Arc::new(SdfGraph::clone(&g));
        let (s2, l2) = registry.lookup(&g2, &Budget::unlimited());
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Hit));
        assert_eq!(s2.symbolic_iterations_computed(), 1);
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.symbolic_iterations, 1);
        assert!(stats.bytes_estimate > 0);
    }

    #[test]
    fn different_content_and_different_caps_do_not_share() {
        let registry = SessionRegistry::new();
        let g1 = cycle("g", 2, 3);
        let g2 = cycle("g", 2, 4);
        let (a, _) = registry.lookup(&g1, &Budget::unlimited());
        let (b, _) = registry.lookup(&g2, &Budget::unlimited());
        assert!(!Arc::ptr_eq(&a, &b));
        // Same graph, different firing caps: isolated sessions per tier.
        let tier1 = Budget::unlimited().with_max_firings(2);
        let tier2 = Budget::unlimited().with_max_firings(1000);
        let (c, lc) = registry.lookup(&g1, &tier1);
        let (d, ld) = registry.lookup(&g1, &tier2);
        assert!(!Arc::ptr_eq(&c, &d));
        assert_eq!((lc, ld), (Lookup::Miss, Lookup::Miss));
        assert!(!Arc::ptr_eq(&a, &c));
        // …but equal caps share.
        let (e, le) = registry.lookup(&g1, &Budget::unlimited().with_max_firings(2));
        assert!(Arc::ptr_eq(&c, &e));
        assert_eq!(le, Lookup::Hit);
        assert_eq!(registry.len(), 4);
    }

    #[test]
    fn non_content_addressable_budgets_bypass() {
        let registry = SessionRegistry::new();
        let g = cycle("g", 2, 3);
        let deadline = Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
        let (a, la) = registry.lookup(&g, &deadline);
        let (b, lb) = registry.lookup(&g, &deadline);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "deadline budgets get private sessions"
        );
        assert_eq!((la, lb), (Lookup::Bypass, Lookup::Bypass));
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.bypasses, 2);
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn lru_eviction_respects_entry_cap_and_keeps_arcs_alive() {
        let registry = SessionRegistry::with_config(RegistryConfig {
            max_entries: 2,
            max_bytes: u64::MAX,
        });
        let g1 = cycle("g1", 1, 1);
        let g2 = cycle("g2", 2, 2);
        let g3 = cycle("g3", 3, 3);
        let (s1, _) = registry.lookup(&g1, &Budget::unlimited());
        let _ = s1.throughput().unwrap();
        let _ = registry.lookup(&g2, &Budget::unlimited());
        // Touch g1 so g2 is the LRU victim when g3 arrives.
        let _ = registry.lookup(&g1, &Budget::unlimited());
        let _ = registry.lookup(&g3, &Budget::unlimited());
        assert_eq!(registry.len(), 2);
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1);
        // g2 was evicted: re-requesting it is a miss (which in turn evicts
        // g1, the new LRU); g3 stays resident and hits.
        let (_, l) = registry.lookup(&g2, &Budget::unlimited());
        assert_eq!(l, Lookup::Miss);
        let (_, l3) = registry.lookup(&g3, &Budget::unlimited());
        assert_eq!(l3, Lookup::Hit);
        // The outstanding Arc to the now-evicted g1 session is untouched:
        // still warm, still correct.
        assert!(s1.throughput().is_ok());
        assert_eq!(s1.symbolic_iterations_computed(), 1);
        // The evicted session's symbolic run stays in the totals.
        assert!(registry.stats().symbolic_iterations >= 1);
    }

    #[test]
    fn byte_cap_evicts_but_keeps_the_newest_entry() {
        // A cap below a single session's footprint: the registry keeps
        // exactly the most recent entry rather than thrashing to zero.
        let registry = SessionRegistry::with_config(RegistryConfig {
            max_entries: 16,
            max_bytes: 1,
        });
        let g1 = cycle("g1", 1, 1);
        let g2 = cycle("g2", 2, 2);
        let _ = registry.lookup(&g1, &Budget::unlimited());
        assert_eq!(registry.len(), 1);
        let _ = registry.lookup(&g2, &Budget::unlimited());
        assert_eq!(registry.len(), 1, "older entry evicted on byte pressure");
        assert_eq!(registry.stats().evictions, 1);
        let (_, l) = registry.lookup(&g2, &Budget::unlimited());
        assert_eq!(l, Lookup::Hit, "newest entry is retained");
    }

    #[test]
    fn clear_counts_as_eviction_and_preserves_outstanding_sessions() {
        let registry = SessionRegistry::new();
        let g = cycle("g", 2, 3);
        let (s, _) = registry.lookup(&g, &Budget::unlimited());
        let _ = s.throughput().unwrap();
        registry.clear();
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.symbolic_iterations, 1, "retired count survives");
        // The outstanding Arc still answers from its warm cache.
        assert!(s.throughput().is_ok());
        assert_eq!(s.symbolic_iterations_computed(), 1);
    }

    #[test]
    fn prefetch_fills_concurrently_and_matches_sequential_lookups() {
        let registry = SessionRegistry::new();
        // 12 graphs over 3 distinct contents, interleaved.
        let graphs: Vec<Arc<SdfGraph>> = (0..12i64).map(|i| cycle("g", 2, 3 + (i % 3))).collect();
        let results =
            sdfr_pool::with_threads(4, || registry.prefetch(&graphs, &Budget::unlimited()));
        assert_eq!(results.len(), graphs.len());
        // Every distinct content paid its symbolic iteration exactly once,
        // and equal content shares one session object.
        for (i, (session, _)) in results.iter().enumerate() {
            assert_eq!(session.symbolic_iterations_computed(), 1);
            assert!(Arc::ptr_eq(session, &results[i % 3].0));
        }
        let stats = registry.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.symbolic_iterations, 3);
        // The warmed artifacts are byte-identical to a fresh sequential
        // registry's answers.
        let serial = SessionRegistry::new();
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(
                results[i].0.throughput().unwrap().period(),
                serial.session(g).throughput().unwrap().period()
            );
        }
    }

    #[test]
    fn restore_seeds_entries_without_counting_lookups() {
        let registry = SessionRegistry::new();
        let g = cycle("g", 2, 3);
        // Warm a detached session, as a journal replay would.
        let warm = Arc::new(AnalysisSession::new(Arc::clone(&g)));
        let _ = warm.throughput().unwrap();
        assert!(registry.restore(Arc::clone(&warm)));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 1));
        // The first real request is a hit on the restored session.
        let (s, l) = registry.lookup(&g, &Budget::unlimited());
        assert_eq!(l, Lookup::Hit);
        assert!(Arc::ptr_eq(&s, &warm));
        // A duplicate restore is refused; a live entry is never displaced.
        assert!(!registry.restore(Arc::new(AnalysisSession::new(Arc::clone(&g)))));
        assert_eq!(registry.len(), 1);
        // Non-content-addressable sessions are refused outright.
        let deadline = Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
        let private = Arc::new(AnalysisSession::with_budget(Arc::clone(&g), deadline));
        assert!(!registry.restore(private));
    }

    #[test]
    fn a_new_budget_tier_resumes_the_family_members_archive() {
        let registry = SessionRegistry::new();
        let g = fig3_ch0(0);
        // Tier 1 exhausts mid-iteration and archives its partial prefix.
        let tight = Budget::unlimited().with_max_firings(4);
        let (first, l1) = registry.lookup(&g, &tight);
        assert!(first.throughput().is_err(), "tier budget exhausts");
        assert!(first.engine_archive().is_some(), "partial prefix archived");
        // Tier 2 misses (different caps) but is seeded from tier 1.
        let (second, l2) = registry.lookup(&g, &Budget::unlimited());
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss));
        assert_eq!(registry.stats().near_hits, 1);
        let cold = AnalysisSession::new(Arc::clone(&g));
        assert_eq!(
            second.throughput().unwrap().period(),
            cold.throughput().unwrap().period()
        );
        assert_eq!(
            second.symbolic().unwrap().matrix,
            cold.symbolic().unwrap().matrix
        );
        assert_eq!(second.spent(), cold.spent(), "budget accounting parity");
    }

    #[test]
    fn token_variants_fork_the_family_members_archive() {
        let registry = SessionRegistry::new();
        let (base, _) = registry.lookup(&fig3_ch0(0), &Budget::unlimited());
        let _ = base.throughput().unwrap();
        let variant = fig3_ch0(3);
        let (forked, l) = registry.lookup(&variant, &Budget::unlimited());
        assert_eq!(l, Lookup::Miss, "attribution stays a miss");
        assert_eq!(registry.stats().near_hits, 1);
        let cold = AnalysisSession::new(Arc::clone(&variant));
        assert_eq!(
            forked.throughput().unwrap().period(),
            cold.throughput().unwrap().period()
        );
        assert_eq!(
            forked.symbolic().unwrap().matrix,
            cold.symbolic().unwrap().matrix
        );
        assert_eq!(forked.spent(), cold.spent(), "budget accounting parity");
        // A structurally different graph is in another family: fully cold.
        let _ = registry.lookup(&cycle("g", 2, 3), &Budget::unlimited());
        assert_eq!(registry.stats().near_hits, 1, "unrelated graphs stay cold");
    }

    #[test]
    fn eviction_and_clear_retire_family_members() {
        let registry = SessionRegistry::with_config(RegistryConfig {
            max_entries: 1,
            max_bytes: u64::MAX,
        });
        let (base, _) = registry.lookup(&fig3_ch0(0), &Budget::unlimited());
        let _ = base.throughput().unwrap();
        // An unrelated graph evicts the base: its archive is gone, so the
        // variant that would have forked it runs cold.
        let _ = registry.lookup(&cycle("g", 2, 3), &Budget::unlimited());
        let (_, l) = registry.lookup(&fig3_ch0(3), &Budget::unlimited());
        assert_eq!(l, Lookup::Miss);
        assert_eq!(registry.stats().near_hits, 0, "evicted members do not seed");
        registry.clear();
        let _ = registry.lookup(&fig3_ch0(3), &Budget::unlimited());
        assert_eq!(registry.stats().near_hits, 0, "cleared members do not seed");
    }

    #[test]
    fn contains_and_fingerprint_delta_probe_residency() {
        let registry = SessionRegistry::new();
        let base = fig3_ch0(2);
        let _ = registry.lookup(&base, &Budget::unlimited());
        assert!(registry.contains(base.fingerprint(), None, None));
        assert!(
            !registry.contains(base.fingerprint(), Some(7), None),
            "caps are part of the key"
        );
        // The delta fingerprint addresses a variant without building it.
        let ch = sdfr_graph::ChannelId::from_index(0);
        assert_eq!(
            SessionRegistry::fingerprint_delta(&base, (ch, 5)),
            fig3_ch0(5).fingerprint()
        );
        assert!(registry.contains(
            SessionRegistry::fingerprint_delta(&base, (ch, 2)),
            None,
            None
        ));
        assert!(!registry.contains(
            SessionRegistry::fingerprint_delta(&base, (ch, 5)),
            None,
            None
        ));
    }

    #[test]
    fn concurrent_lookups_of_one_graph_compute_once() {
        let registry = SessionRegistry::new();
        let g = cycle("g", 2, 3);
        let periods = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let registry = &registry;
                    let g = &g;
                    scope.spawn(move || {
                        let s = registry.session(g);
                        s.throughput().unwrap().period()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(periods.windows(2).all(|w| w[0] == w[1]));
        let stats = registry.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.symbolic_iterations, 1);
    }
}
