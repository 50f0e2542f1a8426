//! The in-process replay: the server run's request bytes, in index order,
//! through the public functions `serve.rs` calls for each layer, with no
//! sockets. Each call is a span; the rendered records are what the server
//! must have answered, byte for byte.
//!
//! For a cold session the layers are called bottom-up — repetition vector,
//! schedule, symbolic iteration, eigenvalue, then `analyze_with_session`.
//! Each is memoized by the session, so every span's self time is that
//! layer's own cost. A warm session skips the schedule and the symbolic
//! iteration, exactly as the server's throughput query does.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

use sdfr_analysis::registry::{Lookup, RegistryConfig, SessionRegistry};
use sdfr_analysis::{AnalysisSession, EngineArchive};
use sdfr_api::cache::{CacheRecord, CachedOutcome, CachedResource};
use sdfr_api::{
    http_status_for_exit, AnalysisRequest, BatchSummary, CsdfRecord, GraphSource, ScenarioSet,
    UnitRecord, UnitStatus, WorkloadKind,
};
use sdfr_cli::http::{parse_request, Parsed};
use sdfr_cli::CliError;
use sdfr_core::degrade::{analyze_with_session, AnalysisOutcome, OutcomeAggregate};
use sdfr_graph::budget::{Budget, BudgetResource};
use sdfr_graph::{SdfError, SdfGraph};

use crate::gen::Request;
use crate::trace::Tracer;

/// The server's default `--max-body`.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// The server's default `--cache-compact-bytes`.
const COMPACT_BYTES: u64 = 1 << 20;

/// What the server must have answered to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The HTTP status.
    pub status: u16,
    /// The response body's lines. A batch's trailing summary line is not
    /// among them: it embeds counters of the server's whole lifetime.
    pub lines: Vec<String>,
    /// The response ends with a batch summary line that is not compared.
    pub summary: bool,
}

impl Expected {
    fn failure(what: &str) -> Expected {
        Expected {
            status: 0,
            lines: vec![format!("replay could not {what}")],
            summary: false,
        }
    }

    /// `true` when `status` and `body` are what the server must answer.
    pub fn matches(&self, status: u16, body: &str) -> bool {
        let mut lines: Vec<&str> = body.lines().collect();
        if self.summary && lines.pop().is_none() {
            return false;
        }
        status == self.status && lines == self.lines
    }
}

/// Parses graph content with the server's format detection: a `.xml`
/// name or a leading `<` selects the SDF3 subset.
fn parse_graph(name: &str, content: &str) -> Result<SdfGraph, CliError> {
    let g = if name.ends_with(".xml") || content.trim_start().starts_with('<') {
        sdfr_io::xml::from_xml(content)?
    } else {
        sdfr_io::text::from_text(content)?
    };
    Ok(g)
}

/// The journal record a warmed session earns: headline outcome, caps,
/// content and encoded engine checkpoint. `None` while still cold, or
/// for an outcome that is not a pure function of content and caps.
fn journal_record(g: &GraphSource, session: &AnalysisSession) -> Option<CacheRecord> {
    let artifacts = session.export_artifacts()?;
    let engine = session.engine_archive().and_then(|a| a.encode());
    let outcome = match &artifacts.eigenvalue {
        Ok(Some(r)) => CachedOutcome::Period {
            num: r.numer(),
            den: r.denom(),
        },
        Ok(None) => CachedOutcome::Unbounded,
        Err(SdfError::Exhausted {
            resource,
            spent,
            limit,
        }) => CachedOutcome::Exhausted {
            resource: match resource {
                BudgetResource::Firings => CachedResource::Firings,
                BudgetResource::Size => CachedResource::Size,
                _ => return None,
            },
            spent: *spent,
            limit: *limit,
        },
        Err(_) => return None,
    };
    let budget = session.budget();
    Some(CacheRecord {
        fingerprint: artifacts.fingerprint,
        max_firings: budget.max_firings(),
        max_size: budget.max_size(),
        name: g.name.clone(),
        content: g.content.clone(),
        outcome,
        spent: artifacts.spent,
        schedule_firings: artifacts.schedule_firings,
        engine,
    })
}

/// What the server's `--cache-dir` journal does per warmed unit — skip a
/// key already persisted, append a new record as one write, and rewrite
/// the file without the records of evicted sessions once it outgrows its
/// watermark — done with the same public record functions on a file of
/// the replay's own.
#[derive(Debug)]
struct Journal {
    path: PathBuf,
    file: File,
    bytes: u64,
    watermark: u64,
    persisted: HashSet<(u64, Option<u64>, Option<u64>)>,
    /// The first I/O error; the journal stops once one occurs.
    error: Option<String>,
}

impl Journal {
    fn create(path: PathBuf) -> io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file,
            bytes: 0,
            watermark: COMPACT_BYTES,
            persisted: HashSet::new(),
            error: None,
        })
    }

    fn persist(&mut self, record: &CacheRecord, registry: &SessionRegistry) {
        if self.error.is_none() {
            if let Err(e) = self.try_persist(record, registry) {
                self.error = Some(e.to_string());
            }
        }
    }

    fn try_persist(&mut self, record: &CacheRecord, registry: &SessionRegistry) -> io::Result<()> {
        if self
            .persisted
            .insert((record.fingerprint, record.max_firings, record.max_size))
        {
            let mut line = record.to_json_line();
            line.push('\n');
            self.file.write_all(line.as_bytes())?;
            self.file.flush()?;
            self.bytes += line.len() as u64;
        }
        self.maybe_compact(registry)
    }

    fn maybe_compact(&mut self, registry: &SessionRegistry) -> io::Result<()> {
        if self.bytes < self.watermark {
            return Ok(());
        }
        let records = sdfr_api::cache::replay(&std::fs::read(&self.path)?).records;
        let live: Vec<&CacheRecord> = records
            .iter()
            .filter(|r| registry.contains(r.fingerprint, r.max_firings, r.max_size))
            .collect();
        if live.len() == records.len() {
            self.watermark = self.bytes + COMPACT_BYTES;
            return Ok(());
        }
        let mut out = String::new();
        for r in &live {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        let tmp = self.path.with_extension("new");
        let mut f = File::create(&tmp)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            File::open(dir)?.sync_all()?;
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.persisted = live
            .iter()
            .map(|r| (r.fingerprint, r.max_firings, r.max_size))
            .collect();
        self.bytes = out.len() as u64;
        self.watermark = self.bytes + COMPACT_BYTES;
        Ok(())
    }
}

/// Replay state: the registry and journal mirroring the server's, and the
/// spans.
#[derive(Debug)]
pub struct Replay {
    registry: SessionRegistry,
    journal: Option<Journal>,
    /// Firings charged by traced requests.
    pub firings: u64,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl Replay {
    /// A replay over a registry with the server's capacity limits;
    /// `journal` (a file of the replay's own) mirrors a server running with
    /// `--cache-dir`.
    ///
    /// # Errors
    ///
    /// When the journal file cannot be created.
    pub fn new(config: RegistryConfig, journal: Option<PathBuf>) -> io::Result<Replay> {
        Ok(Replay {
            registry: SessionRegistry::with_config(config),
            journal: journal.map(Journal::create).transpose()?,
            firings: 0,
            tracer: Tracer::default(),
        })
    }

    /// The first journal I/O error, if any: the replay's own file
    /// operations failed, so its `cache.journal` times mean nothing.
    pub fn journal_error(&self) -> Option<&str> {
        self.journal.as_ref()?.error.as_deref()
    }

    /// Mirrors a server restarted onto the journal that `prep` (a prep
    /// server's `/v1/batch` requests) filled: every graph is analysed and
    /// journalled, then each session is rebuilt the way journal replay
    /// rebuilds it — headline artifacts imported, engine checkpoint
    /// re-attached — and restored into the registry.
    pub fn restore_from(&mut self, prep: &[Request]) {
        let scratch = SessionRegistry::with_config(self.registry.config());
        for req in prep {
            let doc = AnalysisRequest::from_json(&req.body).expect("generated requests parse");
            for g in &doc.graphs {
                let graph =
                    Arc::new(parse_graph(&g.name, &g.content).expect("generated graphs parse"));
                let (warmed, _) = scratch.lookup(&graph, &doc.caps_budget());
                let _ = analyze_with_session(&warmed);
                let Some(record) = journal_record(g, &warmed) else {
                    continue;
                };
                let session = Arc::new(AnalysisSession::with_budget(
                    Arc::clone(&graph),
                    warmed.budget().clone(),
                ));
                if let Some(artifacts) = warmed.export_artifacts() {
                    session.import_artifacts(&artifacts);
                }
                if let Some(archive) = record
                    .engine
                    .as_deref()
                    .and_then(|wire| EngineArchive::decode(wire, Arc::clone(&graph)))
                {
                    session.attach_archive(archive);
                }
                self.registry.restore(session);
                if let Some(journal) = &mut self.journal {
                    journal.persist(&record, &scratch);
                }
            }
        }
    }

    /// Replays request `index` from its exact bytes; `traced` keeps its
    /// spans.
    pub fn run(&mut self, index: u64, raw: &[u8], traced: bool) -> Expected {
        let mut tracer = std::mem::take(&mut self.tracer);
        tracer.enabled = traced;
        let firings_before = self.firings;
        let expected = tracer.request(index, "request", |t| self.route(t, raw));
        if !traced {
            self.firings = firings_before;
        }
        self.tracer = tracer;
        expected
    }

    fn route(&mut self, t: &mut Tracer, raw: &[u8]) -> Expected {
        let Ok(Parsed::Complete(req)) = t.span("http.parse", || parse_request(raw, MAX_BODY))
        else {
            return Expected::failure("parse the request");
        };
        let Ok(doc) = t.span("api.request_parse", || {
            AnalysisRequest::from_json(&req.body)
        }) else {
            return Expected::failure("parse the request document");
        };
        match req.path.as_str() {
            "/v1/analyze" => self.analysis(t, &doc, false),
            "/v1/batch" => self.analysis(t, &doc, true),
            "/v1/csdf" => csdf(t, &doc),
            "/v1/sadf" => self.sadf(t, &doc),
            _ => Expected::failure("route the request"),
        }
    }

    /// `/v1/analyze` and `/v1/batch`: every graph in index order, then the
    /// records (and, for a batch, the summary) are rendered.
    fn analysis(&mut self, t: &mut Tracer, doc: &AnalysisRequest, batch: bool) -> Expected {
        let base = doc.caps_budget();
        let mut units = Vec::with_capacity(doc.graphs.len());
        for (index, g) in doc.graphs.iter().enumerate() {
            units.push(self.sdf_unit(t, g, batch.then_some(index), &base));
        }
        let exit = units.iter().map(|(r, _)| r.exit).max().unwrap_or(0);
        let lines = t.span("api.render", || {
            if batch {
                let mut agg = OutcomeAggregate::default();
                for (_, outcome) in &units {
                    match outcome {
                        Some(o) => agg.record(o),
                        None => agg.record_error(),
                    }
                }
                let exits: Vec<i32> = units.iter().map(|(r, _)| r.exit).collect();
                let kinds: Vec<WorkloadKind> = units.iter().map(|(r, _)| r.workload_kind).collect();
                let summary = BatchSummary::new(agg, &exits, &kinds, self.registry.stats());
                std::hint::black_box(summary.to_json_line());
            }
            units.iter().map(|(r, _)| r.to_json_line()).collect()
        });
        Expected {
            status: http_status_for_exit(exit),
            lines,
            summary: batch,
        }
    }

    /// One plain graph, as `batch::analyze_source` analyses it for the
    /// server (no response deadline reached: the workloads' analyses finish
    /// well inside it), then the journal path of `--cache-dir`.
    fn sdf_unit(
        &mut self,
        t: &mut Tracer,
        g: &GraphSource,
        index: Option<usize>,
        base: &Budget,
    ) -> (UnitRecord, Option<AnalysisOutcome>) {
        let mut record = UnitRecord {
            workload_kind: WorkloadKind::Sdf,
            index,
            file: g.name.clone(),
            tier: index.map(|_| None),
            fingerprint: None,
            cache: None,
            pending: false,
            status: UnitStatus::Error {
                message: String::new(),
            },
            scenarios: None,
            exit: 0,
        };
        let graph = match t.span("io.parse", || parse_graph(&g.name, &g.content)) {
            Ok(graph) => Arc::new(graph),
            Err(e) => {
                record.exit = e.exit_code();
                record.status = UnitStatus::Error { message: e.message };
                return (record, None);
            }
        };
        t.span("graph.fingerprint", || graph.fingerprint());
        let (session, lookup) = t.span("registry.lookup", || self.registry.lookup(&graph, base));
        record.fingerprint = Some(session.fingerprint());
        if index.is_some() {
            record.cache = Some(match lookup {
                Lookup::Hit => "hit",
                Lookup::Miss => "miss",
                Lookup::Bypass => "bypass",
            });
        }
        let result = self.analyze(t, &session);
        if let Some(journal) = &mut self.journal {
            if matches!(lookup, Lookup::Hit | Lookup::Miss) {
                t.span("cache.journal", || {
                    if let Some(r) = journal_record(g, &session) {
                        journal.persist(&r, &self.registry);
                    }
                });
            }
        }
        match result {
            Ok(outcome) => {
                record.status = UnitStatus::from_outcome(&outcome);
                (record, Some(outcome))
            }
            Err(e) => {
                let e = CliError::from(e);
                record.exit = e.exit_code();
                record.status = UnitStatus::Error { message: e.message };
                (record, None)
            }
        }
    }

    /// The session layers bottom-up, then `analyze_with_session`.
    fn analyze(
        &mut self,
        t: &mut Tracer,
        session: &AnalysisSession,
    ) -> Result<AnalysisOutcome, sdfr_core::CoreError> {
        let before = session.spent();
        let warm = session.throughput_is_warm();
        t.span("session.repetition", || session.repetition_vector().is_ok());
        if !warm {
            t.span("session.schedule", || session.sequential_schedule().is_ok());
            t.span("engine.symbolic", || session.symbolic().is_ok());
        }
        t.span("maxplus.eigenvalue", || session.eigenvalue().is_ok());
        let result = t.span("core.analyze", || analyze_with_session(session));
        self.firings += session.spent().saturating_sub(before);
        result
    }

    /// `/v1/sadf`: each workload's scenario sessions bottom-up, then the
    /// lattice analysis.
    fn sadf(&mut self, t: &mut Tracer, doc: &AnalysisRequest) -> Expected {
        let base = doc.caps_budget();
        let mut records = Vec::with_capacity(doc.graphs.len());
        for g in &doc.graphs {
            let mut record = UnitRecord {
                workload_kind: WorkloadKind::Sadf,
                index: None,
                file: g.name.clone(),
                tier: None,
                fingerprint: None,
                cache: None,
                pending: false,
                status: UnitStatus::Error {
                    message: String::new(),
                },
                scenarios: None,
                exit: 0,
            };
            let workload = match t.span("io.parse", || sdfr_sadf::Workload::from_text(&g.content)) {
                Ok(w) => w,
                Err(e) => {
                    record.exit = sdfr_api::EXIT_INVALID;
                    record.status = UnitStatus::Error {
                        message: format!("{}: {e}", g.name),
                    };
                    records.push(record);
                    continue;
                }
            };
            for s in &workload.scenarios {
                let (session, _) =
                    t.span("registry.lookup", || self.registry.lookup(&s.graph, &base));
                let _ = self.analyze(t, &session);
            }
            let analysis = t.span("sadf.analyze", || {
                sdfr_sadf::analyze_workload(&workload, &self.registry, &base)
            });
            match analysis {
                Ok(a) => {
                    record.status = UnitStatus::from_outcome(&a.outcome);
                    if matches!(a.outcome, AnalysisOutcome::Exact(_)) {
                        record.scenarios = Some(ScenarioSet {
                            periods: a
                                .scenarios
                                .iter()
                                .map(|s| (s.name.clone(), s.eigenvalue.map(|p| p.to_string())))
                                .collect(),
                            cycle: a.cycle.clone(),
                        });
                    }
                }
                Err(e) => {
                    record.exit = match &e {
                        sdfr_sadf::SadfError::Graph(SdfError::Exhausted { .. }) => {
                            sdfr_api::EXIT_EXHAUSTED
                        }
                        _ => sdfr_api::EXIT_INVALID,
                    };
                    record.status = UnitStatus::Error {
                        message: format!("{}: {e}", g.name),
                    };
                }
            }
            records.push(record);
        }
        let exit = records.iter().map(|r| r.exit).max().unwrap_or(0);
        let lines = t.span("api.render", || {
            records.iter().map(UnitRecord::to_json_line).collect()
        });
        Expected {
            status: http_status_for_exit(exit),
            lines,
            summary: false,
        }
    }
}

/// `/v1/csdf`: what `csdf_record` computes for each graph, then the records.
fn csdf(t: &mut Tracer, doc: &AnalysisRequest) -> Expected {
    let mut records = Vec::with_capacity(doc.graphs.len());
    for g in &doc.graphs {
        let xml = g.name.ends_with(".xml") || g.content.trim_start().starts_with('<');
        let parsed = t.span("io.parse", || {
            if xml {
                sdfr_io::csdf::from_xml(&g.content)
            } else {
                sdfr_io::csdf::from_text(&g.content)
            }
        });
        let result = parsed.map_err(CliError::from).and_then(|graph| {
            t.span("csdf.analyze", || {
                let sym = sdfr_csdf::symbolic_iteration(&graph)?;
                let firings = sym.repetition.iteration_length(&graph);
                let period = sdfr_csdf::throughput_from_symbolic(&sym)
                    .period
                    .map(|p| p.to_string());
                let hsdf = sdfr_csdf::hsdf_from_symbolic(&sym, graph.name());
                Ok::<_, CliError>((
                    period,
                    firings,
                    (
                        hsdf.num_actors(),
                        hsdf.num_channels(),
                        hsdf.total_initial_tokens(),
                    ),
                ))
            })
        });
        records.push(match result {
            Ok((period, firings, hsdf)) => CsdfRecord {
                file: g.name.clone(),
                status: UnitStatus::Exact { period },
                phase_firings: Some(firings),
                hsdf: Some(hsdf),
                exit: 0,
            },
            Err(e) => CsdfRecord {
                file: g.name.clone(),
                exit: e.exit_code(),
                status: UnitStatus::Error { message: e.message },
                phase_firings: None,
                hsdf: None,
            },
        });
    }
    let exit = records.iter().map(|r| r.exit).max().unwrap_or(0);
    let lines = t.span("api.render", || {
        records.iter().map(CsdfRecord::to_json_line).collect()
    });
    Expected {
        status: http_status_for_exit(exit),
        lines,
        summary: false,
    }
}
