//! The line-oriented `.sadf` scenario-workload format.
//!
//! A scenario-aware workload is a set of named scenarios — each an
//! ordinary SDF graph in the [`text`](crate::text) format — plus a
//! scenario FSM whose transitions may carry a mode-transition delay:
//!
//! ```text
//! # comment
//! sadf <workload name>
//! scenario <name>
//!   actor <name> <execution-time>
//!   channel <src> <dst> <production> <consumption> <initial-tokens>
//! end
//! state <state-name> <scenario-name>
//! transition <from-state> <to-state> [delay]
//! initial <state-name>
//! ```
//!
//! Scenario bodies are the `actor`/`channel` statements of the text
//! format (the `graph` header is implied by the `scenario` line). The FSM
//! section is optional: with no `state` declarations, the workload gets
//! one state per scenario in declaration order, connected in a cycle with
//! delay 0 — which is exactly the degenerate cyclo-static shape used by
//! the differential oracle in `crates/sadf`.

use sdfr_graph::SdfGraph;

use crate::IoError;

/// One parsed `.sadf` document, structurally validated (names resolve,
/// the FSM is well-formed) but with no analysis-level checks — those live
/// in `crates/sadf`, which consumes this neutral form.
#[derive(Debug, Clone, PartialEq)]
pub struct SadfDoc {
    /// The workload name from the `sadf` header.
    pub name: String,
    /// The scenarios in declaration order: `(name, graph)`.
    pub scenarios: Vec<(String, SdfGraph)>,
    /// FSM states in declaration order: `(state name, scenario index)`.
    pub states: Vec<(String, usize)>,
    /// FSM transitions `(from state, to state, delay)` by state index.
    pub transitions: Vec<(usize, usize, i64)>,
    /// The initial state index.
    pub initial: usize,
}

fn syntax(line: usize, message: impl Into<String>) -> IoError {
    IoError::Syntax {
        line,
        message: message.into(),
    }
}

/// Parses a `.sadf` document.
///
/// # Errors
///
/// [`IoError::Syntax`] for malformed lines, unresolved scenario/state
/// names, duplicate names, or an FSM without states; scenario bodies
/// additionally surface the text format's own errors.
pub fn from_text(input: &str) -> Result<SadfDoc, IoError> {
    let mut name: Option<String> = None;
    let mut scenarios: Vec<(String, SdfGraph)> = Vec::new();
    // Raw state/transition/initial lines are resolved after all scenario
    // names are known, so sections may appear in any order.
    let mut state_decls: Vec<(usize, String, String)> = Vec::new();
    let mut transition_decls: Vec<(usize, String, String, i64)> = Vec::new();
    let mut initial_decl: Option<(usize, String)> = None;

    let mut lines = input.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match keyword {
            "sadf" => {
                if name.is_some() {
                    return Err(syntax(lineno, "duplicate 'sadf' header"));
                }
                if rest.is_empty() {
                    return Err(syntax(lineno, "'sadf' needs a workload name"));
                }
                name = Some(rest.to_string());
            }
            "scenario" => {
                let sname = rest;
                if sname.is_empty() || sname.split_whitespace().count() != 1 {
                    return Err(syntax(lineno, "'scenario' needs exactly one name"));
                }
                if scenarios.iter().any(|(n, _)| n == sname) {
                    return Err(syntax(lineno, format!("duplicate scenario '{sname}'")));
                }
                // Collect the body up to 'end' and delegate to the text
                // parser with the implied 'graph' header. Blank prefix
                // lines keep the inner line numbers aligned with the
                // document, so inner syntax errors point at the right
                // place.
                let mut body = format!("{}graph {sname}\n", "\n".repeat(lineno - 1));
                let mut closed = false;
                for (_, inner) in lines.by_ref() {
                    if inner.trim() == "end" {
                        closed = true;
                        break;
                    }
                    body.push_str(inner);
                    body.push('\n');
                }
                if !closed {
                    return Err(syntax(lineno, format!("scenario '{sname}' has no 'end'")));
                }
                let graph = crate::text::from_text(&body)?;
                scenarios.push((sname.to_string(), graph));
            }
            "state" => {
                let mut parts = rest.split_whitespace();
                let (Some(sname), Some(scenario), None) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(syntax(lineno, "'state' needs <name> <scenario>"));
                };
                state_decls.push((lineno, sname.to_string(), scenario.to_string()));
            }
            "transition" => {
                let mut parts = rest.split_whitespace();
                let (Some(from), Some(to)) = (parts.next(), parts.next()) else {
                    return Err(syntax(lineno, "'transition' needs <from> <to> [delay]"));
                };
                let delay = match parts.next() {
                    None => 0,
                    Some(d) => d
                        .parse()
                        .map_err(|_| syntax(lineno, format!("'{d}' is not a transition delay")))?,
                };
                if parts.next().is_some() {
                    return Err(syntax(lineno, "'transition' needs <from> <to> [delay]"));
                }
                transition_decls.push((lineno, from.to_string(), to.to_string(), delay));
            }
            "initial" => {
                if initial_decl.is_some() {
                    return Err(syntax(lineno, "duplicate 'initial'"));
                }
                if rest.is_empty() || rest.split_whitespace().count() != 1 {
                    return Err(syntax(lineno, "'initial' needs one state name"));
                }
                initial_decl = Some((lineno, rest.to_string()));
            }
            other => {
                return Err(syntax(lineno, format!("unknown keyword '{other}'")));
            }
        }
    }

    let name = name.ok_or_else(|| syntax(1, "missing 'sadf <name>' header"))?;
    if scenarios.is_empty() {
        return Err(syntax(1, "a workload needs at least one scenario"));
    }
    let scenario_index = |line: usize, sname: &str| -> Result<usize, IoError> {
        scenarios
            .iter()
            .position(|(n, _)| n == sname)
            .ok_or_else(|| syntax(line, format!("unknown scenario '{sname}'")))
    };

    let mut states: Vec<(String, usize)> = Vec::new();
    for (line, sname, scenario) in &state_decls {
        if states.iter().any(|(n, _)| n == sname) {
            return Err(syntax(*line, format!("duplicate state '{sname}'")));
        }
        states.push((sname.clone(), scenario_index(*line, scenario)?));
    }
    let mut transitions: Vec<(usize, usize, i64)> = Vec::new();
    let mut initial = 0;
    if states.is_empty() {
        if let Some((line, _, _, _)) = transition_decls.first() {
            return Err(syntax(*line, "'transition' needs 'state' declarations"));
        }
        if let Some((line, _)) = initial_decl {
            return Err(syntax(line, "'initial' needs 'state' declarations"));
        }
        // Implicit FSM: one state per scenario, cyclic, delay 0.
        for (i, (sname, _)) in scenarios.iter().enumerate() {
            states.push((sname.clone(), i));
        }
        for i in 0..states.len() {
            transitions.push((i, (i + 1) % states.len(), 0));
        }
    } else {
        let state_index = |line: usize, sname: &str| -> Result<usize, IoError> {
            states
                .iter()
                .position(|(n, _)| n == sname)
                .ok_or_else(|| syntax(line, format!("unknown state '{sname}'")))
        };
        for (line, from, to, delay) in &transition_decls {
            transitions.push((state_index(*line, from)?, state_index(*line, to)?, *delay));
        }
        if transitions.is_empty() {
            return Err(syntax(1, "an explicit FSM needs at least one transition"));
        }
        if let Some((line, sname)) = &initial_decl {
            initial = state_index(*line, sname)?;
        }
    }

    Ok(SadfDoc {
        name,
        scenarios,
        states,
        transitions,
        initial,
    })
}

/// Serializes a workload document back to the `.sadf` text format.
/// Round-trips exactly through [`from_text`] for explicit-FSM documents;
/// implicit FSMs are written out explicitly (the two forms parse to the
/// same [`SadfDoc`] up to the synthesized state list).
pub fn to_text(doc: &SadfDoc) -> String {
    let mut out = format!("sadf {}\n", doc.name);
    for (sname, graph) in &doc.scenarios {
        out.push_str(&format!("scenario {sname}\n"));
        for line in crate::text::to_text(graph).lines().skip(1) {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("end\n");
    }
    for (sname, scenario) in &doc.states {
        out.push_str(&format!("state {sname} {}\n", doc.scenarios[*scenario].0));
    }
    for (from, to, delay) in &doc.transitions {
        out.push_str(&format!(
            "transition {} {} {delay}\n",
            doc.states[*from].0, doc.states[*to].0
        ));
    }
    out.push_str(&format!("initial {}\n", doc.states[doc.initial].0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMPLICIT: &str = "\
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

    #[test]
    fn implicit_fsm_is_the_scenario_cycle() {
        let doc = from_text(IMPLICIT).unwrap();
        assert_eq!(doc.name, "modes");
        assert_eq!(doc.scenarios.len(), 2);
        assert_eq!(doc.scenarios[0].0, "fast");
        assert_eq!(doc.scenarios[1].1.num_actors(), 2);
        assert_eq!(
            doc.states,
            vec![("fast".to_string(), 0), ("slow".to_string(), 1)]
        );
        assert_eq!(doc.transitions, vec![(0, 1, 0), (1, 0, 0)]);
        assert_eq!(doc.initial, 0);
    }

    #[test]
    fn explicit_fsm_with_delays_round_trips() {
        let text = format!(
            "{IMPLICIT}state s0 fast\nstate s1 slow\n\
             transition s0 s1 3\ntransition s1 s0\ntransition s0 s0 1\ninitial s1\n"
        );
        let doc = from_text(&text).unwrap();
        assert_eq!(doc.states.len(), 2);
        assert_eq!(doc.transitions, vec![(0, 1, 3), (1, 0, 0), (0, 0, 1)]);
        assert_eq!(doc.initial, 1);
        let back = from_text(&to_text(&doc)).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let cases: &[(&str, &str)] = &[
            ("actor a 1\n", "unknown keyword"),
            ("sadf w\n", "at least one scenario"),
            ("sadf w\nscenario s\nactor a 1\n", "no 'end'"),
            ("sadf w\nsadf w\n", "duplicate 'sadf'"),
            (
                "sadf w\nscenario s\nactor a 1\nend\nscenario s\nend\n",
                "duplicate scenario",
            ),
            (
                "sadf w\nscenario s\nactor a 1\nend\ntransition a b\n",
                "'transition' needs 'state'",
            ),
            (
                "sadf w\nscenario s\nactor a 1\nend\nstate x ghost\n",
                "unknown scenario",
            ),
            (
                "sadf w\nscenario s\nactor a 1\nend\nstate x s\n\
                 transition x ghost\n",
                "unknown state",
            ),
            (
                "sadf w\nscenario s\nactor a 1\nend\nstate x s\n",
                "at least one transition",
            ),
            (
                "sadf w\nscenario s\nactor a 1\nend\nstate x s\n\
                 transition x x q\n",
                "not a transition delay",
            ),
        ];
        for (input, needle) in cases {
            let err = from_text(input).unwrap_err().to_string();
            assert!(err.contains(needle), "{input:?}: {err}");
        }
    }

    #[test]
    fn scenario_body_errors_point_into_the_document() {
        let err = from_text("sadf w\nscenario s\nactor a\nend\n").unwrap_err();
        match err {
            IoError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
