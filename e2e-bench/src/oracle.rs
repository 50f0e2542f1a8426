//! The period oracle: served periods against an answer computed without
//! Alg. 1. Table-1 graphs are checked against their pinned exact periods;
//! every other graph is expanded by the classical SDF→HSDF conversion (or,
//! for a CSDF graph, converted to HSDF) and solved with Howard's policy
//! iteration for the maximum cycle ratio.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use sdfr_analysis::mcm::{howard, CycleRatio, CycleRatioGraph};
use sdfr_api::json::{self, Value};
use sdfr_api::AnalysisRequest;
use sdfr_csdf::CsdfGraph;
use sdfr_graph::SdfGraph;

use crate::gen::Route;

/// The exact Table-1 periods, `name|period` per line.
const TABLE1_PERIODS: &str = include_str!("../expected/table1_periods.txt");

/// A graph whose served period can be checked.
#[derive(Debug, Clone)]
pub enum Graph {
    /// A plain SDF graph (a unit, or one scenario of a workload).
    Sdf(SdfGraph),
    /// A cyclo-static graph.
    Csdf(CsdfGraph),
}

/// One served period to check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Identifies the graph's content; equal keys are checked once.
    pub key: u64,
    /// The record's name for the graph, for messages.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// The served period; `None` when the record has none.
    pub served: Option<String>,
}

/// The served period of one record line: `"period"`, or the named
/// scenario's entry of `"scenarios"."periods"`.
fn period(line: &Value, scenario: Option<&str>) -> Option<String> {
    let v = match scenario {
        None => line.get("period")?,
        Some(s) => line.get("scenarios")?.get("periods")?.get(s)?,
    };
    v.as_str().map(str::to_string)
}

fn content_key(content: &str) -> u64 {
    let mut h = DefaultHasher::new();
    content.hash(&mut h);
    h.finish()
}

/// The checks one served response offers: every graph of the request,
/// paired with the period its record reports.
pub fn checks(route: Route, request: &str, response: &str) -> Vec<Check> {
    let Ok(doc) = AnalysisRequest::from_json(request) else {
        return Vec::new();
    };
    let lines: Vec<Value> = response
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .collect();
    let mut out = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        if line.get("summary").is_some() {
            continue;
        }
        let at = line
            .get("index")
            .and_then(Value::as_u64)
            .map_or(k, |i| i as usize);
        let Some(g) = doc.graphs.get(at) else {
            continue;
        };
        match route {
            Route::Analyze | Route::Batch => {
                if let Ok(graph) = parse_sdf(&g.name, &g.content) {
                    out.push(Check {
                        key: graph.fingerprint(),
                        name: g.name.clone(),
                        graph: Graph::Sdf(graph),
                        served: period(line, None),
                    });
                }
            }
            Route::Csdf => {
                if let Ok(graph) = sdfr_io::csdf::from_text(&g.content) {
                    out.push(Check {
                        key: content_key(&g.content),
                        name: g.name.clone(),
                        graph: Graph::Csdf(graph),
                        served: period(line, None),
                    });
                }
            }
            Route::Sadf => {
                let Ok(w) = sdfr_sadf::Workload::from_text(&g.content) else {
                    continue;
                };
                for s in &w.scenarios {
                    out.push(Check {
                        key: s.graph.fingerprint(),
                        name: format!("{} scenario {}", g.name, s.name),
                        graph: Graph::Sdf((*s.graph).clone()),
                        served: period(line, Some(&s.name)),
                    });
                }
            }
        }
    }
    out
}

fn parse_sdf(name: &str, content: &str) -> Result<SdfGraph, sdfr_io::IoError> {
    if name.ends_with(".xml") || content.trim_start().starts_with('<') {
        sdfr_io::xml::from_xml(content)
    } else {
        sdfr_io::text::from_text(content)
    }
}

/// The oracle: pinned Table-1 periods by content fingerprint, and the
/// conversion-plus-Howard path for everything else.
#[derive(Debug)]
pub struct Oracle {
    table1: HashMap<u64, String>,
}

impl Default for Oracle {
    fn default() -> Self {
        let pinned: HashMap<&str, &str> = TABLE1_PERIODS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| l.split_once('|'))
            .collect();
        let table1 = sdfr_benchmarks::table1::all()
            .into_iter()
            .map(|case| {
                let period = pinned
                    .get(case.name)
                    .unwrap_or_else(|| panic!("no pinned period for Table-1 case {}", case.name));
                (case.graph.fingerprint(), (*period).to_string())
            })
            .collect();
        Oracle { table1 }
    }
}

impl Oracle {
    /// The period the oracle expects for `graph` (`None`: no recurrent
    /// constraint).
    ///
    /// # Errors
    ///
    /// A message when the graph cannot be converted or deadlocks.
    pub fn period(&self, graph: &Graph) -> Result<Option<String>, String> {
        let hsdf = match graph {
            Graph::Sdf(g) => {
                if let Some(p) = self.table1.get(&g.fingerprint()) {
                    return Ok(Some(p.clone()));
                }
                sdfr_core::traditional::convert(g)
                    .map_err(|e| e.to_string())?
                    .graph
            }
            Graph::Csdf(g) => sdfr_csdf::to_hsdf(g).map_err(|e| e.to_string())?,
        };
        let crg = CycleRatioGraph::from_hsdf(&hsdf).map_err(|e| e.to_string())?;
        match howard::maximum_cycle_ratio(&crg) {
            CycleRatio::Finite(r) => Ok(Some(r.to_string())),
            CycleRatio::Acyclic => Ok(None),
            CycleRatio::ZeroTokenCycle => Err("the graph deadlocks".into()),
        }
    }

    /// `Ok` when the served period equals the oracle's.
    ///
    /// # Errors
    ///
    /// A message naming the graph and both periods.
    pub fn verify(&self, check: &Check) -> Result<(), String> {
        let expected = self.period(&check.graph)?;
        if expected == check.served {
            Ok(())
        } else {
            Err(format!(
                "{}: served period {:?}, oracle {:?}",
                check.name, check.served, expected
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_graphs_use_the_pinned_periods_and_agree_with_howard() {
        let oracle = Oracle::default();
        for case in sdfr_benchmarks::table1::all() {
            let pinned = oracle.period(&Graph::Sdf(case.graph.clone())).unwrap();
            let hsdf = sdfr_core::traditional::convert(&case.graph).unwrap().graph;
            let crg = CycleRatioGraph::from_hsdf(&hsdf).unwrap();
            let howard = howard::maximum_cycle_ratio(&crg)
                .finite()
                .map(|r| r.to_string());
            assert_eq!(pinned, howard, "{}", case.name);
        }
    }
}
