//! The four workloads' request generators.
//!
//! Every request is a pure function of `(seed, index)`: the load threads
//! take indices from one shared counter, and the replay regenerates the
//! exact bytes of every index it re-runs. Inputs are built from the eight
//! Table-1 graphs (`sdfr_benchmarks::table1`), the capacity-probe pipeline
//! of `family_bench`, the `sadf_bench` mode construction, and
//! `random_live_csdf`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_api::{AnalysisRequest, GraphSource, WorkloadKind};
use sdfr_graph::SdfGraph;
use sdfr_io::sadf::SadfDoc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Registry hits over keep-alive `/v1/analyze`, restored from a journal.
    WarmHit,
    /// Never-seen Table-1 variants over keep-alive `/v1/analyze`.
    ColdMiss,
    /// Capacity-probe families: a base request, then single-channel token probes.
    NearHitFamily,
    /// One connection per request: `/v1/batch`, `/v1/csdf` and `/v1/sadf`.
    KindsBatch,
}

impl Workload {
    /// Every workload, in the order the all-workloads run uses.
    pub const ALL: [Workload; 4] = [
        Workload::WarmHit,
        Workload::ColdMiss,
        Workload::NearHitFamily,
        Workload::KindsBatch,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdMiss => "cold_miss",
            Workload::NearHitFamily => "near_hit_family",
            Workload::KindsBatch => "kinds_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when each request opens its own connection and sends
    /// `Connection: close`, as the shipped `sdfr --server` client does.
    pub fn per_request_connections(self) -> bool {
        self == Workload::KindsBatch
    }
}

/// The HTTP route a request is posted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/v1/analyze`: one graph, one standalone record.
    Analyze,
    /// `/v1/batch`: indexed records plus a summary line.
    Batch,
    /// `/v1/csdf`: one cyclo-static record per graph.
    Csdf,
    /// `/v1/sadf`: one scenario-aware record per workload.
    Sadf,
}

impl Route {
    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Route::Analyze => "/v1/analyze",
            Route::Batch => "/v1/batch",
            Route::Csdf => "/v1/csdf",
            Route::Sadf => "/v1/sadf",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Where it is posted.
    pub route: Route,
    /// The `sdfr-api/1` request document.
    pub body: String,
    /// Send `Connection: close`.
    pub close: bool,
}

impl Request {
    fn new(route: Route, request: &AnalysisRequest, close: bool) -> Request {
        Request {
            route,
            body: request.to_json(),
            close,
        }
    }

    /// The complete HTTP/1.1 request, sent with one `write`.
    pub fn bytes(&self) -> Vec<u8> {
        let connection = if self.close {
            "Connection: close\r\n"
        } else {
            ""
        };
        format!(
            "POST {} HTTP/1.1\r\nHost: sdfr\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{connection}\r\n{}",
            self.route.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Graphs `warm_hit` serves: the 8 Table-1 graphs plus 184 variants.
pub const WARM_HIT_GRAPHS: u64 = 192;
/// Requests per `near_hit_family` family: one base, then 15 probes.
const FAMILY_SIZE: u64 = 16;
/// Largest probe token count of `near_hit_family`. Probes with thousands
/// of tokens grow a server past any memory cap (see the README).
const MAX_PROBE_TOKENS: u64 = 64;
/// `kinds_batch`'s warm set of plain graphs, repeated inside batches.
const KINDS_WARM_GRAPHS: u64 = 64;
/// `kinds_batch`'s warm set of scenario workloads.
const KINDS_WARM_WORKLOADS: u64 = 8;
/// Units per `kinds_batch` batch: 4 warm repeats and 4 never-seen variants.
const BATCH_REPEATS: u64 = 4;
const BATCH_FRESH: u64 = 4;
/// Variant tags from here up are never used by a warm set, so a fresh
/// variant can never equal a warm graph.
const FRESH_TAG: u64 = 64;
/// Largest iteration (firings) of a structure `kinds_batch` draws fresh
/// variants from. It leaves out mp3 playback (10601 firings) and satellite
/// (4515), whose sessions keep about 1.6 MB and 0.8 MB resident: with the
/// 1024-entry registry `kinds_batch` needs, they would take the server
/// (and the replay) to hundreds of megabytes.
const FRESH_MAX_FIRINGS: u64 = 2000;
/// Graphs per prewarm `/v1/batch` request. Request parsing is quadratic
/// in body size (see the README), so one request of all 192 graphs would
/// spend seconds in the JSON parser.
const PREWARM_BATCH: usize = 8;
/// The `cold_miss` response deadline, as `sdfr --server --deadline 1s` sends it.
const COLD_DEADLINE_MS: u64 = 1000;

// Stream tags: each random choice draws from its own stream, so adding a
// choice to one workload never shifts another's inputs.
const S_WARM_PICK: u64 = 1;
const S_VARIANT: u64 = 2;
const S_COLD: u64 = 3;
const S_FAMILY: u64 = 4;
const S_KIND: u64 = 5;
const S_CSDF: u64 = 6;
const S_SADF: u64 = 7;
const S_WARM_SET: u64 = 8;
const S_KINDS_SET: u64 = 9;
const S_KINDS_PICK: u64 = 10;
const S_FAMILY_K: u64 = 11;

/// Mixes a seed, a stream tag and an index into one generator seed
/// (SplitMix64 finalizer over each input in turn).
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for x in [seed, stream, index] {
        h = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// Entry `i mod n` of a seeded shuffle of `0..n`, drawn afresh for every
/// block of `n` consecutive indices: each value appears once per block,
/// so how much of each kind a run holds does not depend on the seed.
fn balanced(seed: u64, stream: u64, i: u64, n: u64) -> u64 {
    let mut perm: Vec<u64> = (0..n).collect();
    let mut r = rng(seed, stream, i / n);
    for p in (1..perm.len()).rev() {
        perm.swap(p, r.gen_range(0..=p));
    }
    perm[(i % n) as usize]
}

/// `g` with actor `k`'s execution time `t` replaced by `time(k, t)`.
fn retimed(g: &SdfGraph, mut time: impl FnMut(usize, i64) -> i64) -> SdfGraph {
    let mut b = SdfGraph::builder(g.name());
    let ids: Vec<_> = g
        .actors()
        .enumerate()
        .map(|(k, (_, a))| b.actor(a.name(), time(k, a.execution_time())))
        .collect();
    for (_, c) in g.channels() {
        b.channel(
            ids[c.source().index()],
            ids[c.target().index()],
            c.production(),
            c.consumption(),
            c.initial_tokens(),
        )
        .expect("rates and endpoints are unchanged");
    }
    b.build().expect("the topology is unchanged")
}

/// An execution-time variant of `base`: the first actor runs `tag` time
/// units longer and every other actor a seeded 0–99 longer. Distinct tags
/// give distinct graphs, so distinct content and family fingerprints.
fn time_variant(base: &SdfGraph, tag: u64, rng: &mut StdRng) -> SdfGraph {
    let tag = i64::try_from(tag).expect("variant tags are small");
    retimed(base, |k, t| {
        if k == 0 {
            t + tag
        } else {
            t + rng.gen_range(0..100i64)
        }
    })
}

/// A 3-mode workload over `g` in `.sadf` text, built the way `sadf_bench`
/// builds them: mode `m` shifts every execution time by `m`, and a cyclic
/// FSM's transitions carry small mode-change delays.
fn sadf_text(g: &SdfGraph) -> String {
    let doc = SadfDoc {
        name: g.name().to_string(),
        scenarios: (0..3i64)
            .map(|m| (format!("m{m}"), retimed(g, |_, t| t + m)))
            .collect(),
        states: (0..3).map(|s| (format!("s{s}"), s)).collect(),
        transitions: (0..3).map(|s| (s, (s + 1) % 3, s as i64)).collect(),
        initial: 0,
    };
    sdfr_io::sadf::to_text(&doc)
}

fn source(name: String, g: &SdfGraph, xml: bool) -> GraphSource {
    let content = if xml {
        sdfr_io::xml::to_xml(g)
    } else {
        sdfr_io::text::to_text(g)
    };
    GraphSource { name, content }
}

/// Generates every request of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    bases: Arc<Vec<SdfGraph>>,
    /// The bases of at most [`FRESH_MAX_FIRINGS`] firings per iteration.
    light: Arc<Vec<SdfGraph>>,
}

impl Generator {
    /// A generator for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let bases: Vec<SdfGraph> = sdfr_benchmarks::table1::all()
            .into_iter()
            .map(|case| case.graph)
            .collect();
        let light = bases
            .iter()
            .filter(|g| {
                sdfr_graph::repetition::repetition_vector(g)
                    .is_ok_and(|gamma| gamma.iteration_length() <= FRESH_MAX_FIRINGS)
            })
            .cloned()
            .collect();
        Generator {
            workload,
            seed,
            bases: Arc::new(bases),
            light: Arc::new(light),
        }
    }

    fn base(&self, k: u64) -> &SdfGraph {
        &self.bases[(k % self.bases.len() as u64) as usize]
    }

    /// Member `j` of a warm set: Table-1 graph `j mod 8` itself for
    /// `j < 8`, else one of its seeded variants. Each structure appears in
    /// both formats: half of the set is SDF3 XML, half text.
    fn warm_graph(&self, stream: u64, prefix: &str, j: u64) -> GraphSource {
        let base = self.base(j);
        let g = if j < 8 {
            base.clone()
        } else {
            time_variant(base, j / 8, &mut rng(self.seed, stream, j))
        };
        let xml = (j + j / 8) % 2 == 1;
        let ext = if xml { "xml" } else { "sdf" };
        source(format!("{prefix}{j}.{ext}"), &g, xml)
    }

    /// Light structure `k` (modulo their count), which `kinds_batch`'s
    /// never-seen variants are drawn from.
    fn light_base(&self, k: u64) -> &SdfGraph {
        &self.light[(k % self.light.len() as u64) as usize]
    }

    /// Family `f`'s member `m` (0 = base, 1..=15 = probes): the three-stage
    /// `src → mid → sink` pipeline of `family_bench` with a seeded sink
    /// time and a batch size `K` taking 16 steps over `[512, 4096]` in turn
    /// from a seeded start (the registry's footprint grows with `K`, so it
    /// does not drift with the seed); member `m` carries its probe's token
    /// count on the last channel. The first two stages stay zero-time so
    /// the pending batch is one run-length-encoded entry, which is what
    /// keeps the base's engine checkpoint compact enough to fork.
    fn family_member(&self, f: u64, m: u64) -> SdfGraph {
        let mut r = rng(self.seed, S_FAMILY, f);
        let step = (f + mix(self.seed, S_FAMILY_K, 0)) % FAMILY_SIZE;
        let k = 512 + step * (4096 - 512) / (FAMILY_SIZE - 1);
        let sink_time = r.gen_range(1..=1000i64);
        let mut probes: Vec<u64> = (1..=MAX_PROBE_TOKENS).collect();
        for p in 0..(FAMILY_SIZE - 1) as usize {
            let q = r.gen_range(p..probes.len());
            probes.swap(p, q);
        }
        let tokens = if m == 0 { 0 } else { probes[(m - 1) as usize] };
        let mut b = SdfGraph::builder(format!("family-{f}"));
        let src = b.actor("src", 0);
        let mid = b.actor("mid", 0);
        let sink = b.actor("sink", sink_time);
        b.channel(src, src, 1, 1, 1).expect("unit self-loop");
        b.channel(src, mid, 1, 1, 0).expect("unit link");
        b.channel(mid, mid, 1, 1, 1).expect("unit self-loop");
        b.channel(mid, sink, 1, k, tokens).expect("batch link");
        b.build().expect("pipelines are well-formed")
    }

    /// The `cold_miss` graph of index `i`: a variant whose tag is unique
    /// to the index, so no two indices share content or family.
    fn cold_graph(&self, i: u64) -> SdfGraph {
        time_variant(self.base(i), i + 1, &mut rng(self.seed, S_COLD, i))
    }

    /// The request of index `i`.
    pub fn request(&self, i: u64) -> Request {
        let analyze = |g: GraphSource, deadline_ms| {
            Request::new(
                Route::Analyze,
                &AnalysisRequest {
                    graphs: vec![g],
                    deadline_ms,
                    ..AnalysisRequest::default()
                },
                false,
            )
        };
        match self.workload {
            Workload::WarmHit => {
                let j = rng(self.seed, S_WARM_PICK, i).gen_range(0..WARM_HIT_GRAPHS);
                analyze(self.warm_graph(S_WARM_SET, "g", j), None)
            }
            Workload::ColdMiss => analyze(
                source(format!("c{i}.sdf"), &self.cold_graph(i), false),
                Some(COLD_DEADLINE_MS),
            ),
            Workload::NearHitFamily => {
                let (f, m) = (i / FAMILY_SIZE, i % FAMILY_SIZE);
                analyze(
                    source(format!("f{f}-{m}.sdf"), &self.family_member(f, m), false),
                    None,
                )
            }
            Workload::KindsBatch => self.kinds_request(i),
        }
    }

    /// `kinds_batch` takes its choices from per-block shuffles or in turn:
    /// each block of 4 requests holds 2 batches, 1 CSDF and 1 SADF
    /// request, each 16 batches repeat every warm graph once, and each 16
    /// SADF requests repeat every warm workload once. The mix, and with it
    /// the tail latency, does not drift with the seed.
    fn kinds_request(&self, i: u64) -> Request {
        let block = i / 4;
        let slot = balanced(self.seed, S_KIND, i, 4);
        let request = |route, graphs| {
            Request::new(
                route,
                &AnalysisRequest {
                    graphs,
                    ..AnalysisRequest::default()
                },
                true,
            )
        };
        match slot {
            0 | 1 => {
                // The two batch slots of a block number the batches.
                let b = 2 * block + slot;
                let mut graphs: Vec<GraphSource> = (0..BATCH_REPEATS)
                    .map(|u| {
                        let w = balanced(self.seed, S_KINDS_PICK, 4 * b + u, KINDS_WARM_GRAPHS);
                        self.warm_graph(S_KINDS_SET, "w", w)
                    })
                    .collect();
                for u in 0..BATCH_FRESH {
                    let tag = 8 * i + u;
                    let base = self.light_base(4 * b + u);
                    let g =
                        time_variant(base, FRESH_TAG + tag, &mut rng(self.seed, S_VARIANT, tag));
                    graphs.push(source(format!("n{i}-{u}.sdf"), &g, false));
                }
                let mut r = rng(self.seed, S_KIND, i);
                for p in (1..graphs.len()).rev() {
                    graphs.swap(p, r.gen_range(0..=p));
                }
                request(Route::Batch, graphs)
            }
            2 => {
                let cfg = sdfr_benchmarks::random::RandomSdfConfig::default();
                let graphs = (0..2)
                    .map(|u| {
                        let mut g = rng(self.seed, S_CSDF, 2 * i + u);
                        let csdf = sdfr_benchmarks::random::random_live_csdf(&mut g, &cfg);
                        GraphSource {
                            name: format!("k{i}-{u}.csdf"),
                            content: sdfr_io::csdf::to_text(&csdf),
                        }
                    })
                    .collect();
                request(Route::Csdf, graphs)
            }
            _ => {
                // Of each 16 SADF requests, 8 repeat the warm workloads.
                let w = balanced(self.seed, S_SADF, block, 2 * KINDS_WARM_WORKLOADS);
                let workload = if w < KINDS_WARM_WORKLOADS {
                    self.warm_workload(w)
                } else {
                    let tag = 8 * i + BATCH_FRESH;
                    let base = self.light_base(block);
                    let g = time_variant(base, FRESH_TAG + tag, &mut rng(self.seed, S_SADF, tag));
                    GraphSource {
                        name: format!("s{i}.sadf"),
                        content: sadf_text(&g),
                    }
                };
                sadf_request(vec![workload])
            }
        }
    }

    /// Warm scenario workload `w`: the 3-mode workload of Table-1 graph `w`.
    fn warm_workload(&self, w: u64) -> GraphSource {
        GraphSource {
            name: format!("sw{w}.sadf"),
            content: sadf_text(self.base(w)),
        }
    }

    /// Requests sent before the load starts. `warm_hit` fills a journal
    /// with its 192 graphs (sent to a separate prep server); `kinds_batch`
    /// warms its repeat sets on the measured server, so every repeat is a
    /// hit no matter how the load threads interleave. Graphs go out in
    /// `/v1/batch` requests of [`PREWARM_BATCH`].
    pub fn prewarm(&self) -> Vec<Request> {
        let batches = |graphs: Vec<GraphSource>| -> Vec<Request> {
            graphs
                .chunks(PREWARM_BATCH)
                .map(|chunk| {
                    Request::new(
                        Route::Batch,
                        &AnalysisRequest {
                            graphs: chunk.to_vec(),
                            ..AnalysisRequest::default()
                        },
                        true,
                    )
                })
                .collect()
        };
        match self.workload {
            Workload::WarmHit => batches(
                (0..WARM_HIT_GRAPHS)
                    .map(|j| self.warm_graph(S_WARM_SET, "g", j))
                    .collect(),
            ),
            Workload::KindsBatch => {
                let mut requests = batches(
                    (0..KINDS_WARM_GRAPHS)
                        .map(|j| self.warm_graph(S_KINDS_SET, "w", j))
                        .collect(),
                );
                requests.push(sadf_request(
                    (0..KINDS_WARM_WORKLOADS)
                        .map(|w| self.warm_workload(w))
                        .collect(),
                ));
                requests
            }
            Workload::ColdMiss | Workload::NearHitFamily => Vec::new(),
        }
    }
}

fn sadf_request(graphs: Vec<GraphSource>) -> Request {
    Request::new(
        Route::Sadf,
        &AnalysisRequest {
            kind: WorkloadKind::Sadf,
            tagged: true,
            graphs,
            ..AnalysisRequest::default()
        },
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        for w in Workload::ALL {
            let (a, b) = (Generator::new(w, 7), Generator::new(w, 7));
            let other = Generator::new(w, 8);
            let mut differs = false;
            for i in 0..40 {
                assert_eq!(a.request(i).bytes(), b.request(i).bytes(), "{w:?} #{i}");
                differs |= a.request(i).bytes() != other.request(i).bytes();
            }
            assert!(differs, "{w:?}: another seed must change the inputs");
            assert_eq!(a.prewarm(), b.prewarm());
        }
    }

    #[test]
    fn cold_miss_indices_are_all_distinct() {
        let g = Generator::new(Workload::ColdMiss, 3);
        let mut fingerprints = HashSet::new();
        let mut families = HashSet::new();
        for i in 0..10_000 {
            let graph = g.cold_graph(i);
            assert!(fingerprints.insert(graph.fingerprint()), "index {i}");
            assert!(families.insert(graph.family_fingerprint()), "index {i}");
        }
    }

    #[test]
    fn probes_differ_from_their_base_in_one_channel_only() {
        let g = Generator::new(Workload::NearHitFamily, 11);
        for f in 0..20 {
            let base = g.family_member(f, 0);
            let last = base.channel_ids().last().expect("pipelines have channels");
            let mut seen = HashSet::new();
            for m in 1..FAMILY_SIZE {
                let probe = g.family_member(f, m);
                let (channel, from, to) = base
                    .initial_token_delta(&probe)
                    .expect("a probe is a one-channel token delta");
                assert_eq!((channel, from), (last, 0));
                assert!((1..=MAX_PROBE_TOKENS).contains(&to));
                assert!(seen.insert(to), "family {f}: probe tokens repeat");
                assert_eq!(probe.family_fingerprint(), base.family_fingerprint());
            }
        }
    }

    #[test]
    fn kinds_batch_mixes_every_route() {
        let g = Generator::new(Workload::KindsBatch, 5);
        let routes: HashSet<_> = (0..200)
            .map(|i| format!("{:?}", g.request(i).route))
            .collect();
        assert_eq!(routes.len(), 3, "{routes:?}");
        assert!((0..200).all(|i| g.request(i).close));
    }
}
