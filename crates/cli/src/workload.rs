//! The one workload path behind every front-end: `sdfr serve`, `sdfr
//! batch`, the `analyze`/`csdf` commands and the `--server` client.
//!
//! [`unit_kind`] decides what each source is, [`parse_source`] turns
//! `(kind, name, content)` into a [`Source`] and its fingerprint, and
//! [`analyze_unit`] analyses that source through a shared registry into an
//! [`AnalyzedUnit`]: the `sdfr-api/1` record, the library outcome, and the
//! registry sessions the server's cache journal may persist. A front-end
//! only decides where sources come from and where records go.

use std::sync::Arc;
use std::time::Duration;

use sdfr_analysis::registry::{Lookup, SessionRegistry};
use sdfr_analysis::AnalysisSession;
use sdfr_api::{CsdfRecord, ScenarioSet, UnitRecord, UnitStatus, WorkloadKind};
use sdfr_core::degrade::{analyze_with_session, conservative_period_fallback, AnalysisOutcome};
use sdfr_graph::budget::{Budget, BudgetResource};
use sdfr_graph::{SdfError, SdfGraph};

use crate::{CliError, CliErrorKind, EXIT_OK};

/// Decides one unit's workload kind. This is the whole rule:
///
/// 1. A route or command that names a kind fixes it (`/v1/csdf` and `sdfr
///    csdf` mean csdf, `/v1/sadf` and `analyze --scenarios` mean sadf); a
///    tagged kind that contradicts it is a usage error.
/// 2. Otherwise a tagged request's kind applies to every unit.
/// 3. Otherwise a name ending in `.sadf` is a scenario workload and
///    anything else plain SDF.
///
/// # Errors
///
/// [`CliErrorKind::Usage`] when `tagged` contradicts `fixed`.
pub(crate) fn unit_kind(
    fixed: Option<WorkloadKind>,
    tagged: Option<WorkloadKind>,
    name: &str,
) -> Result<WorkloadKind, CliError> {
    match (fixed, tagged) {
        (Some(fixed), Some(tagged)) if fixed != tagged => Err(CliError::usage(format!(
            "the request is tagged '{tagged}', but this route serves '{fixed}' workloads"
        ))),
        (Some(kind), _) | (None, Some(kind)) => Ok(kind),
        (None, None) if name.ends_with(".sadf") => Ok(WorkloadKind::Sadf),
        (None, None) => Ok(WorkloadKind::Sdf),
    }
}

/// The kind a command line fixes for [`unit_kind`]: `csdf` means
/// cyclo-static and `analyze --scenarios` a scenario workload; any other
/// command leaves the kind to the name rule.
pub(crate) fn command_kind(command: &str, opts: &[String]) -> Option<WorkloadKind> {
    match command {
        "csdf" => Some(WorkloadKind::Csdf),
        "analyze" if opts.iter().any(|o| o == "--scenarios") => Some(WorkloadKind::Sadf),
        _ => None,
    }
}

/// The server endpoint that answers one `kind` unit standalone.
pub(crate) fn route(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Sdf => "/v1/analyze",
        WorkloadKind::Csdf => "/v1/csdf",
        WorkloadKind::Sadf => "/v1/sadf",
    }
}

/// One parsed workload source.
pub(crate) enum Source {
    /// A plain SDF graph.
    Sdf(Arc<SdfGraph>),
    /// A cyclo-static graph.
    Csdf(sdfr_csdf::CsdfGraph),
    /// A scenario-aware workload.
    Sadf(sdfr_sadf::Workload),
}

impl Source {
    /// The content fingerprint that places the source on a shard: plain
    /// SDF graphs have one; cyclo-static and scenario sources do not and
    /// are served by any shard.
    pub(crate) fn fingerprint(&self) -> Option<u64> {
        match self {
            Source::Sdf(g) => Some(g.fingerprint()),
            Source::Csdf(_) | Source::Sadf(_) => None,
        }
    }
}

/// Parses inline `content` as a `kind` source. `name` is a display label
/// (and selects XML for graphs when it ends in `.xml`), never a path.
///
/// # Errors
///
/// [`CliErrorKind::Invalid`] with the parser's message.
pub(crate) fn parse_source(
    kind: WorkloadKind,
    name: &str,
    content: &str,
) -> Result<Source, CliError> {
    Ok(match kind {
        WorkloadKind::Sdf => Source::Sdf(Arc::new(crate::parse_graph_content(name, content)?)),
        WorkloadKind::Csdf => Source::Csdf(crate::parse_csdf_content(name, content)?),
        WorkloadKind::Sadf => Source::Sadf(
            sdfr_sadf::Workload::from_text(content)
                .map_err(|e| CliError::invalid(format!("{name}: {e}")))?,
        ),
    })
}

/// Reads and parses the file at `path` as a `kind` source.
///
/// # Errors
///
/// [`CliErrorKind::Io`] when the file cannot be read, else as
/// [`parse_source`].
pub(crate) fn load_source(kind: WorkloadKind, path: &str) -> Result<Source, CliError> {
    parse_source(kind, path, &crate::read_file(path)?)
}

/// One analysed unit.
#[derive(Debug)]
pub(crate) struct AnalyzedUnit {
    /// The unit's record; `record.exit` is the unit's exit code. A
    /// cyclo-static unit renders its fields as a [`CsdfRecord`] instead
    /// (see [`AnalyzedUnit::to_json_line`]).
    pub record: UnitRecord,
    /// The outcome behind the record, when the analysis produced one.
    pub outcome: Option<AnalysisOutcome>,
    /// The registry sessions the unit resolved through the cache (hits
    /// and misses; bypasses are not content-addressable): the plain
    /// graph's session, or every scenario session of a workload. The
    /// server's journal persists the warm ones.
    pub sessions: Vec<Arc<AnalysisSession>>,
    /// A cyclo-static unit's phase firings per iteration and compact-HSDF
    /// `(actors, channels, tokens)`, when its analysis succeeded.
    csdf: Option<(u64, (usize, usize, u64))>,
}

impl AnalyzedUnit {
    /// The unit's `sdfr-api/1` record as one JSON line (no trailing
    /// newline).
    pub(crate) fn to_json_line(&self) -> String {
        if self.record.workload_kind != WorkloadKind::Csdf {
            return self.record.to_json_line();
        }
        CsdfRecord {
            file: self.record.file.clone(),
            status: self.record.status.clone(),
            phase_firings: self.csdf.map(|(firings, _)| firings),
            hsdf: self.csdf.map(|(_, hsdf)| hsdf),
            exit: self.record.exit,
        }
        .to_json_line()
    }
}

/// Analyses one parsed source through the shared registry.
///
/// `batch_fields` (index + tier) makes a batch record, which also carries
/// cache attribution; `None` makes a standalone record. A tier overrides
/// the base firing cap. `wait` is the server's remaining response
/// deadline: a cold plain graph is then warmed on a detached thread, and
/// if it does not land in time the iteration-free conservative bound
/// stands in (`"pending":true`) while the warmer keeps filling the shared
/// session for the next request. Scenario-aware units run many sessions
/// and carry no fingerprint or cache attribution; cyclo-static units run
/// under the budget but have no session, cache or degraded fallback.
pub(crate) fn analyze_unit(
    kind: WorkloadKind,
    batch_fields: Option<(usize, Option<u64>)>,
    name: &str,
    source: &Result<Source, CliError>,
    registry: &SessionRegistry,
    base: &Budget,
    wait: Option<Duration>,
) -> AnalyzedUnit {
    let (index, tier) = match batch_fields {
        Some((i, t)) => (Some(i), Some(t)),
        None => (None, None),
    };
    let mut record = UnitRecord {
        workload_kind: kind,
        index,
        file: name.to_string(),
        tier,
        fingerprint: None,
        cache: None,
        pending: false,
        status: UnitStatus::Error {
            message: String::new(),
        },
        scenarios: None,
        exit: EXIT_OK,
    };
    let budget = match tier.flatten() {
        Some(t) => base.clone().with_max_firings(t),
        None => base.clone(),
    };
    let mut sessions = Vec::new();
    let mut csdf = None;
    let result = match source {
        Err(e) => Err(e.clone()),
        Ok(Source::Sdf(graph)) => {
            let (session, lookup) = registry.lookup(graph, &budget);
            record.fingerprint = Some(session.fingerprint());
            if batch_fields.is_some() {
                record.cache = Some(match lookup {
                    Lookup::Hit => "hit",
                    Lookup::Miss => "miss",
                    Lookup::Bypass => "bypass",
                });
            }
            let result = match wait {
                Some(remaining) if !session.throughput_is_warm() => {
                    wait_for_warm(&session, remaining, &mut record.pending)
                }
                _ => analyze_with_session(&session),
            };
            if lookup != Lookup::Bypass {
                sessions.push(session);
            }
            result.map_err(CliError::from)
        }
        Ok(Source::Sadf(workload)) => {
            match sdfr_sadf::analyze_workload(workload, registry, &budget) {
                Ok(analysis) => {
                    if matches!(analysis.outcome, AnalysisOutcome::Exact(_)) {
                        record.scenarios = Some(ScenarioSet {
                            periods: analysis
                                .scenarios
                                .iter()
                                .map(|s| (s.name.clone(), s.eigenvalue.map(|p| p.to_string())))
                                .collect(),
                            cycle: analysis.cycle,
                        });
                    }
                    sessions = analysis
                        .sessions
                        .into_iter()
                        .filter(|(_, lookup)| *lookup != Lookup::Bypass)
                        .map(|(session, _)| session)
                        .collect();
                    Ok(analysis.outcome)
                }
                Err(e) => Err(CliError {
                    kind: match e {
                        sdfr_sadf::SadfError::Graph(SdfError::Exhausted { .. }) => {
                            CliErrorKind::Exhausted
                        }
                        _ => CliErrorKind::Invalid,
                    },
                    message: format!("{name}: {e}"),
                }),
            }
        }
        Ok(Source::Csdf(graph)) => sdfr_csdf::symbolic_iteration_capped(graph, &budget)
            .and_then(|sym| {
                let hsdf = sdfr_csdf::hsdf_from_symbolic(&sym, graph.name());
                csdf = Some((
                    sym.repetition.iteration_length(graph),
                    (
                        hsdf.num_actors(),
                        hsdf.num_channels(),
                        hsdf.total_initial_tokens(),
                    ),
                ));
                sdfr_csdf::period_from_symbolic(&sym).map(AnalysisOutcome::Exact)
            })
            .map_err(CliError::from),
    };
    let outcome = match result {
        Ok(outcome) => {
            record.status = UnitStatus::from_outcome(&outcome);
            Some(outcome)
        }
        Err(e) => {
            record.exit = e.exit_code();
            record.status = UnitStatus::Error { message: e.message };
            None
        }
    };
    AnalyzedUnit {
        record,
        outcome,
        sessions,
        csdf,
    }
}

/// Warms a cold session on a detached thread and waits at most
/// `remaining` for it. The warmer holds its own `Arc`, so a timed-out
/// fill still completes and benefits the next request for this content;
/// the timed-out answer is the conservative bound, flagged `pending`.
fn wait_for_warm(
    session: &Arc<AnalysisSession>,
    remaining: Duration,
    pending: &mut bool,
) -> Result<AnalysisOutcome, sdfr_core::CoreError> {
    let (tx, rx) = std::sync::mpsc::channel();
    let warmer = Arc::clone(session);
    std::thread::spawn(move || {
        let _ = tx.send(analyze_with_session(&warmer));
    });
    rx.recv_timeout(remaining).unwrap_or_else(|_| {
        *pending = true;
        let limit = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
        conservative_period_fallback(session.graph()).map(|bound| AnalysisOutcome::Degraded {
            exhausted: SdfError::Exhausted {
                resource: BudgetResource::WallClock,
                spent: limit,
                limit,
            },
            bound,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_route_fixes_the_kind_then_the_tag_then_the_name() {
        use WorkloadKind::{Csdf, Sadf, Sdf};
        assert_eq!(unit_kind(Some(Csdf), None, "w.sadf").unwrap(), Csdf);
        assert_eq!(unit_kind(Some(Sadf), Some(Sadf), "w").unwrap(), Sadf);
        let err = unit_kind(Some(Csdf), Some(Sdf), "g.sdf").unwrap_err();
        assert_eq!(err.kind, CliErrorKind::Usage);
        assert_eq!(unit_kind(None, Some(Csdf), "w.sadf").unwrap(), Csdf);
        assert_eq!(unit_kind(None, None, "w.sadf").unwrap(), Sadf);
        assert_eq!(unit_kind(None, None, "w.csdf").unwrap(), Sdf);
        assert_eq!(route(Sadf), "/v1/sadf");
    }

    #[test]
    fn cold_session_under_a_tiny_deadline_answers_pending() {
        // Large enough that the symbolic iteration cannot land inside a
        // zero deadline, small enough that the detached warmer finishes
        // promptly after the test.
        let mut b = SdfGraph::builder("huge");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1_000_000, 1, 0).unwrap();
        let huge = Ok(Source::Sdf(Arc::new(b.build().unwrap())));
        let registry = SessionRegistry::new();
        let unit_record = |source: &Result<Source, CliError>, name: &str| {
            analyze_unit(
                WorkloadKind::Sdf,
                None,
                name,
                source,
                &registry,
                &Budget::unlimited(),
                Some(Duration::ZERO),
            )
            .record
        };
        let record = unit_record(&huge, "huge.sdf");
        assert!(record.pending, "{record:?}");
        assert_eq!(record.exit, 0);
        assert!(matches!(record.status, UnitStatus::Degraded { .. }));
        // A warm session answers exactly even under a zero-ish deadline.
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = Arc::new(b.build().unwrap());
        let (s, _) = registry.lookup(&g, &Budget::unlimited());
        let _ = s.throughput().unwrap();
        assert!(s.throughput_is_warm());
        let record = unit_record(&Ok(Source::Sdf(g)), "c.sdf");
        assert!(!record.pending);
        assert_eq!(
            record.status,
            UnitStatus::Exact {
                period: Some("5".into())
            }
        );
    }
}
