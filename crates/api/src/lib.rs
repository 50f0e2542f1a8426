//! The versioned request/response API shared by every `sdfr` front-end.
//!
//! Before this crate, each front-end improvised its own JSON: `sdfr batch`
//! rendered ad-hoc lines, and adding a server would have meant a third
//! dialect. `sdfr-api` is the single source of truth for the wire format:
//! `sdfr analyze --json`, `sdfr batch` JSON-lines, and the `sdfr serve`
//! HTTP body all serialize the **same types** defined here, stamped with
//! the schema tag [`SCHEMA`] (`"sdfr-api/1"`).
//!
//! # Schema `sdfr-api/1`
//!
//! Every emitted object carries `"schema":"sdfr-api/1"` as its first
//! field. Consumers should dispatch on the major version (the integer
//! after the `/`) and reject majors they do not understand — the CLI's
//! `--api-version` flag and the server's request validation both enforce
//! this with [`check_requested_version`] / [`check_schema`].
//!
//! The document kinds are:
//!
//! - [`AnalysisRequest`] — what a client POSTs to `/v1/analyze`,
//!   `/v1/batch`, `/v1/csdf` and `/v1/sadf`: inline graph sources plus
//!   budget caps, either flat (the original shape, implicitly plain SDF)
//!   or wrapped in a tagged `"workload"` object carrying a
//!   [`WorkloadKind`] token,
//! - [`UnitRecord`] — one analysis result (one graph × one budget tier),
//! - [`BatchSummary`] — the trailing aggregate of a batch, folding
//!   [`OutcomeAggregate`], per-exit-code counts and [`RegistryStats`],
//! - [`CsdfRecord`] — one cyclo-static analysis result,
//! - [`ErrorBody`] — a structured request-level failure,
//! - [`registry_stats_json`] / [`pool_stats_json`] — the one place
//!   [`RegistryStats`] and [`sdfr_pool::PoolStats`] serialize.
//!
//! # Deprecated pre-schema field names
//!
//! `sdfr-api/1` replaced the unversioned batch lines of earlier releases.
//! Two things changed; both are deliberate and documented here once:
//!
//! - records gained the leading `"schema"` field (previously absent — the
//!   only way to detect the dialect was to guess),
//! - `"method"` now carries the stable tokens `"abstraction"` /
//!   `"serialization"` ([`sdfr_core::degrade::FallbackMethod::token`]);
//!   the old value was the
//!   human-facing label (`"abstraction (Thm. 1)"`), which consumers had
//!   to string-match against. The label remains available for humans via
//!   `Display`.
//!
//! Field *names* (`index`, `file`, `tier`, `fingerprint`, `cache`,
//! `status`, `period`, `bound`, `exit`, `summary`, …) are unchanged from
//! the unversioned dialect, so a consumer migrating to `sdfr-api/1` only
//! needs to accept the two changes above.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod json;
pub mod shards;

use std::fmt::Write as _;
use std::time::Duration;

use sdfr_analysis::registry::RegistryStats;
use sdfr_core::degrade::{AnalysisOutcome, OutcomeAggregate};
use sdfr_graph::budget::Budget;

use crate::json::{escape_str, Value};

/// The schema tag stamped on every `sdfr-api/1` document.
pub const SCHEMA: &str = "sdfr-api/1";

/// The major version this library speaks.
pub const MAJOR: u64 = 1;

/// Exit code: success (including a degraded-but-safe answer).
pub const EXIT_OK: i32 = 0;
/// Exit code: the input graph or analysis request is invalid.
pub const EXIT_INVALID: i32 = 1;
/// Exit code: the command line (or request) itself is unusable.
pub const EXIT_USAGE: i32 = 2;
/// Exit code: a file could not be read or written.
pub const EXIT_IO: i32 = 3;
/// Exit code: a resource budget was exhausted with no safe fallback.
pub const EXIT_EXHAUSTED: i32 = 4;
/// Exit code: an internal panic was caught (a bug, not a user error).
pub const EXIT_PANIC: i32 = 70;

/// Maps the per-unit exit-code discipline onto HTTP status codes, so the
/// server's statuses and the CLI's exit codes express one policy:
/// degraded-but-safe is success (`200`), invalid input and fallback-less
/// exhaustion are the client's fault (`422`), unusable requests are `400`,
/// unreadable inputs are `404`, and panics are `500`.
pub fn http_status_for_exit(exit: i32) -> u16 {
    match exit {
        EXIT_OK => 200,
        EXIT_INVALID | EXIT_EXHAUSTED => 422,
        EXIT_USAGE => 400,
        EXIT_IO => 404,
        _ => 500,
    }
}

/// Validates a user-requested API version (the CLI `--api-version` flag).
/// Accepts the full tag (`sdfr-api/1`) or the bare major (`1`).
///
/// Only the **major** is guarded: minor suffixes after a `.` (`1.9`,
/// `sdfr-api/1.4`) are forward-compatible and accepted, mirroring
/// [`check_schema`] — a client pinned to a future minor keeps working
/// against this build, which simply emits the fields it knows.
///
/// # Errors
///
/// A usage message naming the supported version; the CLI maps it to exit
/// code [`EXIT_USAGE`].
pub fn check_requested_version(requested: &str) -> Result<(), String> {
    let version = requested
        .strip_prefix("sdfr-api/")
        .unwrap_or(requested)
        .trim();
    let major = version.split('.').next().unwrap_or(version);
    match major.parse::<u64>() {
        Ok(m) if m == MAJOR => Ok(()),
        Ok(m) => Err(format!(
            "--api-version: major version {m} is not supported (this build speaks {SCHEMA})"
        )),
        Err(_) => Err(format!(
            "--api-version: '{requested}' is not a version (try {MAJOR} or {SCHEMA})"
        )),
    }
}

/// Validates the `"schema"` field of an incoming document: it must be
/// `sdfr-api/<major>` with a major this library speaks. Minor suffixes
/// after a `.` are tolerated (`sdfr-api/1.2` parses as major 1).
///
/// # Errors
///
/// A message naming the supported schema; servers map it to a `400` with
/// [`ErrorBody`] code `unsupported-schema`.
pub fn check_schema(schema: &str) -> Result<(), String> {
    let Some(version) = schema.strip_prefix("sdfr-api/") else {
        return Err(format!(
            "schema '{schema}' is not an sdfr-api schema (this build speaks {SCHEMA})"
        ));
    };
    let major = version.split('.').next().unwrap_or(version);
    match major.parse::<u64>() {
        Ok(m) if m == MAJOR => Ok(()),
        _ => Err(format!(
            "schema '{schema}' has an unsupported major version (this build speaks {SCHEMA})"
        )),
    }
}

/// The kind of workload a request or record concerns. `sdfr-api/1`
/// started with plain SDF only (requests had no kind at all); the tagged
/// request shape and the per-record `"workload_kind"` field generalize
/// the dialect to cyclo-static graphs and scenario-aware workloads
/// without a major bump — see the "Dialect evolution" notes in the
/// repository README.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WorkloadKind {
    /// A plain synchronous dataflow graph (the original, implicit kind).
    #[default]
    Sdf,
    /// A cyclo-static dataflow graph.
    Csdf,
    /// A scenario-aware workload: named SDF scenarios plus a scenario FSM.
    Sadf,
}

impl WorkloadKind {
    /// Every kind token this build understands, ascending by token — the
    /// machine-readable `"supported"` list of an `unsupported-kind` error.
    pub const SUPPORTED: &'static [&'static str] = &["csdf", "sadf", "sdf"];

    /// The stable wire token (`"sdf"` / `"csdf"` / `"sadf"`).
    pub const fn token(self) -> &'static str {
        match self {
            WorkloadKind::Sdf => "sdf",
            WorkloadKind::Csdf => "csdf",
            WorkloadKind::Sadf => "sadf",
        }
    }

    /// Parses a wire token; `None` for kinds this build does not speak.
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "sdf" => Some(WorkloadKind::Sdf),
            "csdf" => Some(WorkloadKind::Csdf),
            "sadf" => Some(WorkloadKind::Sadf),
            _ => None,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One inline graph source: a display name (used for format detection and
/// reporting — it is never opened as a path by the server) plus the full
/// file content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSource {
    /// Display name; a trailing `.xml` selects the XML parser.
    pub name: String,
    /// The graph description (text format or SDF3-style XML).
    pub content: String,
}

/// A request against `/v1/analyze`, `/v1/batch`, `/v1/csdf` or `/v1/sadf`: one or
/// more inline graphs, optional `--tiers`-style firing caps, and the
/// budget fields of the CLI.
///
/// `deadline_ms` is a *response deadline*, not an analysis budget: the
/// server answers within it (serving a conservative degraded bound if the
/// exact analysis is still warming), while `max_firings`/`max_size` are
/// content-addressable caps that participate in the server's session
/// cache key exactly as they do in `sdfr batch`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisRequest {
    /// What the inline sources describe; flat requests parse as
    /// [`WorkloadKind::Sdf`]. Each unit's kind follows one rule: a route
    /// that names a kind (`/v1/csdf`, `/v1/sadf`) fixes it, and a tagged
    /// kind that contradicts the route is a `400 bad-request`; otherwise a
    /// tagged request's kind applies to every unit; otherwise a name
    /// ending in `.sadf` is a scenario workload and anything else plain
    /// SDF.
    pub kind: WorkloadKind,
    /// `true` when the request was (or should be) serialized in the
    /// tagged `{"workload":{"kind":...}}` shape; `false` reproduces the
    /// original flat `sdfr-api/1` shape byte-for-byte. Round-trips: a
    /// parsed request re-serializes in the shape it arrived in.
    pub tagged: bool,
    /// The graphs to analyze, in order.
    pub graphs: Vec<GraphSource>,
    /// Firing-cap tiers; each graph is analysed once per tier (empty =
    /// once under the base caps).
    pub tiers: Vec<u64>,
    /// Response deadline in milliseconds (see the type docs).
    pub deadline_ms: Option<u64>,
    /// `--max-firings` cap (content-addressable, part of the cache key).
    pub max_firings: Option<u64>,
    /// `--max-size` cap (content-addressable, part of the cache key).
    pub max_size: Option<u64>,
    /// Caller-assigned global unit indices, one per `graphs × tiers` unit
    /// in file-major order. A sharded client splits one logical batch
    /// across shard sub-requests; this field lets each shard stamp the
    /// *global* `"index"` into its records so the client can merge the
    /// streams back into the exact single-server byte sequence. Absent
    /// (the default) the server numbers units 0.. itself.
    pub indices: Option<Vec<usize>>,
}

/// Why an [`AnalysisRequest`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The document's schema major is not supported (HTTP 400,
    /// [`ErrorBody`] code `unsupported-schema`).
    UnsupportedSchema(String),
    /// The tagged workload names a kind this build does not speak (HTTP
    /// 400, code `unsupported-kind`, with [`WorkloadKind::SUPPORTED`] as
    /// the machine-readable `"supported"` list).
    UnsupportedKind(String),
    /// The document is not a valid request (HTTP 400, code `bad-request`).
    Malformed(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnsupportedSchema(m)
            | RequestError::UnsupportedKind(m)
            | RequestError::Malformed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for RequestError {}

impl AnalysisRequest {
    /// Serializes the request as one `sdfr-api/1` JSON object.
    ///
    /// A flat request (`tagged == false`) renders exactly the original
    /// `sdfr-api/1` shape, byte-for-byte; a tagged one nests the same
    /// fields under `"workload"` with the `"kind"` token first:
    /// `{"schema":"sdfr-api/1","workload":{"kind":"sadf","graphs":[…],…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"schema\":{},", escape_str(SCHEMA));
        if self.tagged {
            let _ = write!(out, "\"workload\":{{\"kind\":\"{}\",", self.kind.token());
        }
        out.push_str("\"graphs\":[");
        for (i, g) in self.graphs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"content\":{}}}",
                escape_str(&g.name),
                escape_str(&g.content)
            );
        }
        out.push_str("],\"tiers\":[");
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        out.push(']');
        for (key, v) in [
            ("deadline_ms", self.deadline_ms),
            ("max_firings", self.max_firings),
            ("max_size", self.max_size),
        ] {
            if let Some(v) = v {
                let _ = write!(out, ",\"{key}\":{v}");
            }
        }
        if let Some(indices) = &self.indices {
            out.push_str(",\"indices\":[");
            for (i, idx) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{idx}");
            }
            out.push(']');
        }
        if self.tagged {
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses and validates a request document.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnsupportedSchema`] for a missing or unsupported
    /// `"schema"`, [`RequestError::UnsupportedKind`] for a tagged
    /// workload whose `"kind"` this build does not speak, and
    /// [`RequestError::Malformed`] for everything else (syntax, types,
    /// no graphs, oversized tier lists).
    ///
    /// Both shapes parse: the original flat fields (back-compatible, kind
    /// defaults to `sdf`) and the tagged `{"workload":{"kind":…}}` form.
    pub fn from_json(doc: &str) -> Result<Self, RequestError> {
        let v = json::parse(doc).map_err(|e| RequestError::Malformed(e.to_string()))?;
        let schema = v.get("schema").and_then(Value::as_str).ok_or_else(|| {
            RequestError::UnsupportedSchema("request has no \"schema\" field".into())
        })?;
        check_schema(schema).map_err(RequestError::UnsupportedSchema)?;

        // Dispatch on the shape: a "workload" key selects the tagged
        // form; its fields are the flat fields, nested one level down.
        let (body, kind, tagged) = match v.get("workload") {
            None => (&v, WorkloadKind::Sdf, false),
            Some(w) => {
                if !matches!(w, Value::Obj(_)) {
                    return Err(RequestError::Malformed(
                        "\"workload\" must be an object".into(),
                    ));
                }
                let token = w.get("kind").and_then(Value::as_str).ok_or_else(|| {
                    RequestError::Malformed("\"workload\" needs a \"kind\" token".into())
                })?;
                let kind = WorkloadKind::from_token(token).ok_or_else(|| {
                    RequestError::UnsupportedKind(format!(
                        "workload kind '{token}' is not supported"
                    ))
                })?;
                (w, kind, true)
            }
        };

        let mut graphs = Vec::new();
        let graph_values = body
            .get("graphs")
            .and_then(Value::as_arr)
            .ok_or_else(|| RequestError::Malformed("\"graphs\" must be an array".into()))?;
        for g in graph_values {
            let name = g
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| RequestError::Malformed("graph entry needs a \"name\"".into()))?;
            let content = g
                .get("content")
                .and_then(Value::as_str)
                .ok_or_else(|| RequestError::Malformed("graph entry needs a \"content\"".into()))?;
            graphs.push(GraphSource {
                name: name.to_string(),
                content: content.to_string(),
            });
        }
        if graphs.is_empty() {
            return Err(RequestError::Malformed(
                "request needs at least one graph".into(),
            ));
        }

        let mut tiers = Vec::new();
        if let Some(t) = body.get("tiers") {
            let items = t
                .as_arr()
                .ok_or_else(|| RequestError::Malformed("\"tiers\" must be an array".into()))?;
            for item in items {
                tiers.push(item.as_u64().ok_or_else(|| {
                    RequestError::Malformed(
                        "\"tiers\" entries must be non-negative integers".into(),
                    )
                })?);
            }
        }

        let uint = |key: &str| -> Result<Option<u64>, RequestError> {
            match body.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(value) => value.as_u64().map(Some).ok_or_else(|| {
                    RequestError::Malformed(format!(
                        "\"{key}\" must be a non-negative integer or null"
                    ))
                }),
            }
        };
        let indices = match body.get("indices") {
            None | Some(Value::Null) => None,
            Some(value) => {
                let items = value.as_arr().ok_or_else(|| {
                    RequestError::Malformed("\"indices\" must be an array".into())
                })?;
                let mut indices = Vec::with_capacity(items.len());
                for item in items {
                    let idx = item
                        .as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| {
                            RequestError::Malformed(
                                "\"indices\" entries must be non-negative integers".into(),
                            )
                        })?;
                    indices.push(idx);
                }
                let units = graphs.len() * tiers.len().max(1);
                if indices.len() != units {
                    return Err(RequestError::Malformed(format!(
                        "\"indices\" has {} entries for {units} unit(s)",
                        indices.len()
                    )));
                }
                Some(indices)
            }
        };
        Ok(AnalysisRequest {
            kind,
            tagged,
            graphs,
            tiers,
            deadline_ms: uint("deadline_ms")?,
            max_firings: uint("max_firings")?,
            max_size: uint("max_size")?,
            indices,
        })
    }

    /// The content-addressable budget of this request: the firing/size
    /// caps only. The response deadline deliberately does **not** become a
    /// wall-clock [`Budget`] deadline — that would make every server
    /// session bypass the registry (deadline budgets are caller-specific)
    /// and defeat the cross-invocation cache. See the type docs.
    pub fn caps_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(n) = self.max_firings {
            budget = budget.with_max_firings(n);
        }
        if let Some(n) = self.max_size {
            budget = budget.with_max_size(n);
        }
        budget
    }

    /// The response deadline as a [`Duration`], if one was requested.
    pub fn wait_deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }
}

/// The analysis outcome of one unit, as serialized in `"status"` and its
/// companion fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitStatus {
    /// `"status":"exact"` — the exact iteration period (`None` = no
    /// recurrent constraint; serialized as `"period":null`).
    Exact {
        /// The period, pre-rendered (rationals print as `"p/q"`).
        period: Option<String>,
    },
    /// `"status":"degraded"` — a conservative upper bound stands in.
    Degraded {
        /// The bound, pre-rendered.
        bound: String,
        /// The stable method token
        /// ([`sdfr_core::degrade::FallbackMethod::token`]).
        method: &'static str,
    },
    /// `"status":"error"` — the unit produced no result.
    Error {
        /// The human-readable error message.
        message: String,
    },
}

impl UnitStatus {
    /// Builds the status from a library-level [`AnalysisOutcome`].
    pub fn from_outcome(outcome: &AnalysisOutcome) -> Self {
        match outcome {
            AnalysisOutcome::Exact(p) => UnitStatus::Exact {
                period: p.map(|p| p.to_string()),
            },
            AnalysisOutcome::Degraded { bound, .. } => UnitStatus::Degraded {
                bound: bound.bound.to_string(),
                method: bound.method.token(),
            },
        }
    }

    /// Appends the `"status"` field and its companions — the one status
    /// writer behind [`UnitRecord`] and [`CsdfRecord`].
    fn write_json(&self, out: &mut String) {
        match self {
            UnitStatus::Exact { period } => {
                let _ = write!(
                    out,
                    ",\"status\":\"exact\",\"period\":{}",
                    period.as_deref().map_or("null".to_string(), escape_str)
                );
            }
            UnitStatus::Degraded { bound, method } => {
                let _ = write!(
                    out,
                    ",\"status\":\"degraded\",\"bound\":{},\"method\":\"{method}\"",
                    escape_str(bound)
                );
            }
            UnitStatus::Error { message } => {
                let _ = write!(
                    out,
                    ",\"status\":\"error\",\"error\":{}",
                    escape_str(message)
                );
            }
        }
    }
}

/// The per-scenario results of a scenario-aware unit, rendered as the
/// record's `"scenarios"` sub-object:
/// `"scenarios":{"periods":{"fast":"3","slow":"9"},"cycle":["s0","s1"]}`.
/// `periods` maps each scenario (declaration order) to its standalone
/// eigenvalue (`null` when the scenario has no recurrent constraint);
/// `cycle` is a worst-case-critical closed FSM walk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioSet {
    /// `(scenario name, rendered eigenvalue)` in declaration order.
    pub periods: Vec<(String, Option<String>)>,
    /// The state names of one critical FSM cycle (empty on degradation).
    pub cycle: Vec<String>,
}

impl ScenarioSet {
    fn write_json(&self, out: &mut String) {
        out.push_str(",\"scenarios\":{\"periods\":{");
        for (i, (name, period)) in self.periods.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{}",
                escape_str(name),
                period.as_deref().map_or("null".to_string(), escape_str)
            );
        }
        out.push_str("},\"cycle\":[");
        for (i, state) in self.cycle.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape_str(state));
        }
        out.push_str("]}");
    }
}

/// One analysis result — one graph under one budget tier — as one
/// `sdfr-api/1` JSON line. This is the record `sdfr analyze --json`
/// prints, `sdfr batch` streams per unit, and `sdfr serve` returns from
/// `/v1/analyze` and `/v1/batch`.
///
/// The optional fields keep the three front-ends byte-compatible where
/// they genuinely coincide: a standalone `analyze` has no batch `index`,
/// no `tier` and no meaningful cache attribution, so those fields are
/// omitted rather than invented — which is what makes a warm server's
/// `/v1/analyze` response byte-identical to the in-process output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    /// What the unit analysed (`"workload_kind"`, right after
    /// `"schema"`): every record self-describes its dialect so mixed-kind
    /// batch streams need no out-of-band context.
    pub workload_kind: WorkloadKind,
    /// Position in the batch (`"index"`), omitted for standalone analyze.
    pub index: Option<usize>,
    /// The display name / path of the graph.
    pub file: String,
    /// `Some(tier)` renders `"tier":N` / `"tier":null`; `None` omits the
    /// field entirely (standalone analyze).
    pub tier: Option<Option<u64>>,
    /// The graph's content fingerprint, when the graph parsed.
    pub fingerprint: Option<u64>,
    /// Cache attribution (`"hit"`/`"miss"`/`"bypass"`), batch fronts only.
    pub cache: Option<&'static str>,
    /// `true` when the server answered a degraded bound within the
    /// response deadline while the exact analysis keeps warming in the
    /// background (`"pending":true`; omitted when `false`).
    pub pending: bool,
    /// The outcome.
    pub status: UnitStatus,
    /// Per-scenario results of a scenario-aware unit (`None` for plain
    /// SDF units and for degraded scenario units, keeping degraded lines
    /// deterministic).
    pub scenarios: Option<ScenarioSet>,
    /// The unit's exit code under the CLI discipline (degraded-but-safe
    /// is `0`), so clients never re-derive it from `status`.
    pub exit: i32,
}

impl UnitRecord {
    /// A minimal record for a standalone analyze (no batch fields).
    pub fn standalone(file: impl Into<String>, status: UnitStatus, exit: i32) -> Self {
        UnitRecord {
            workload_kind: WorkloadKind::Sdf,
            index: None,
            file: file.into(),
            tier: None,
            fingerprint: None,
            cache: None,
            pending: false,
            status,
            scenarios: None,
            exit,
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = record_head(self.workload_kind, self.index, &self.file);
        if let Some(tier) = self.tier {
            match tier {
                Some(t) => {
                    let _ = write!(out, ",\"tier\":{t}");
                }
                None => out.push_str(",\"tier\":null"),
            }
        }
        if let Some(fp) = self.fingerprint {
            let _ = write!(out, ",\"fingerprint\":\"{fp:016x}\"");
        }
        if let Some(cache) = self.cache {
            let _ = write!(out, ",\"cache\":\"{cache}\"");
        }
        self.status.write_json(&mut out);
        if let Some(scenarios) = &self.scenarios {
            scenarios.write_json(&mut out);
        }
        if self.pending {
            out.push_str(",\"pending\":true");
        }
        record_tail(out, self.exit)
    }
}

/// Opens a unit record: `schema`, `workload_kind`, the batch `index` when
/// present, and `file` — the head every record kind shares.
fn record_head(kind: WorkloadKind, index: Option<usize>, file: &str) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(
        out,
        "{{\"schema\":{},\"workload_kind\":\"{}\"",
        escape_str(SCHEMA),
        kind.token()
    );
    if let Some(index) = index {
        let _ = write!(out, ",\"index\":{index}");
    }
    let _ = write!(out, ",\"file\":{}", escape_str(file));
    out
}

/// Closes a unit record with its `exit` code.
fn record_tail(mut out: String, exit: i32) -> String {
    let _ = write!(out, ",\"exit\":{exit}}}");
    out
}

/// The trailing summary of a batch: outcome counts, per-exit-code counts,
/// a [`RegistryStats`] snapshot, and the batch exit code (the numeric
/// maximum over units).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Outcome counts over all units.
    pub aggregate: OutcomeAggregate,
    /// `(exit code, count)` pairs, ascending by code — the per-unit exit
    /// discipline made visible at batch level.
    pub exit_counts: Vec<(i32, u64)>,
    /// `(workload kind token, count)` pairs, ascending by token — how
    /// many units of each kind the batch held. Like `exit_counts` this
    /// histogram is additive over disjoint unit sets, so
    /// [`BatchSummary::merge`] stays associative over mixed-kind batches.
    pub kind_counts: Vec<(&'static str, u64)>,
    /// The session-cache counters backing the batch.
    pub registry: RegistryStats,
    /// The batch exit code: the numerically largest per-unit code.
    pub exit: i32,
}

impl BatchSummary {
    /// Assembles the summary from per-unit exit codes, per-unit workload
    /// kinds and the aggregate.
    pub fn new(
        aggregate: OutcomeAggregate,
        unit_exits: &[i32],
        unit_kinds: &[WorkloadKind],
        registry: RegistryStats,
    ) -> Self {
        let mut exit_counts: Vec<(i32, u64)> = Vec::new();
        for &code in unit_exits {
            match exit_counts.binary_search_by_key(&code, |&(c, _)| c) {
                Ok(i) => exit_counts[i].1 += 1,
                Err(i) => exit_counts.insert(i, (code, 1)),
            }
        }
        let mut kind_counts: Vec<(&'static str, u64)> = Vec::new();
        for &kind in unit_kinds {
            let token = kind.token();
            match kind_counts.binary_search_by_key(&token, |&(t, _)| t) {
                Ok(i) => kind_counts[i].1 += 1,
                Err(i) => kind_counts.insert(i, (token, 1)),
            }
        }
        let exit = unit_exits.iter().copied().max().unwrap_or(EXIT_OK);
        BatchSummary {
            aggregate,
            exit_counts,
            kind_counts,
            registry,
            exit,
        }
    }

    /// Renders the summary as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{},\"summary\":true,{}",
            escape_str(SCHEMA),
            outcome_aggregate_json(&self.aggregate)
        );
        out.push_str(",\"exits\":{");
        for (i, (code, count)) in self.exit_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{code}\":{count}");
        }
        out.push_str("},\"kinds\":{");
        for (i, (token, count)) in self.kind_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{token}\":{count}");
        }
        let _ = write!(
            out,
            "}},\"cache\":{},\"exit\":{}}}",
            registry_stats_json(&self.registry),
            self.exit
        );
        out
    }

    /// Parses a summary line back into its counters — the inverse of
    /// [`BatchSummary::to_json_line`] for every field that serialization
    /// carries (`RegistryStats::near_hits` is not on the wire and comes
    /// back as 0). The sharded client uses this to merge per-shard
    /// summaries into the single-server line.
    ///
    /// # Errors
    ///
    /// [`RequestError::Malformed`] when `line` is not a `sdfr-api/1`
    /// summary object.
    pub fn from_json_line(line: &str) -> Result<BatchSummary, RequestError> {
        let v = json::parse(line).map_err(|e| RequestError::Malformed(e.to_string()))?;
        if v.get("summary") != Some(&Value::Bool(true)) {
            return Err(RequestError::Malformed("not a batch summary line".into()));
        }
        check_schema(v.get("schema").and_then(Value::as_str).unwrap_or(""))
            .map_err(RequestError::UnsupportedSchema)?;
        let count = |key: &str| -> Result<u64, RequestError> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| RequestError::Malformed(format!("summary is missing \"{key}\"")))
        };
        let aggregate = OutcomeAggregate {
            exact: count("exact")?,
            degraded_abstraction: count("degraded_abstraction")?,
            degraded_serialization: count("degraded_serialization")?,
            errors: count("errors")?,
        };
        let Some(Value::Obj(exit_fields)) = v.get("exits") else {
            return Err(RequestError::Malformed(
                "summary is missing \"exits\"".into(),
            ));
        };
        let mut exit_counts = Vec::with_capacity(exit_fields.len());
        for (code, n) in exit_fields {
            let code: i32 = code.parse().map_err(|_| {
                RequestError::Malformed(format!("unreadable exit code key {code:?}"))
            })?;
            let n = n.as_u64().ok_or_else(|| {
                RequestError::Malformed("exit counts must be non-negative integers".into())
            })?;
            exit_counts.push((code, n));
        }
        exit_counts.sort_unstable_by_key(|&(code, _)| code);
        // "kinds" is newer than the summary line itself: absent (an older
        // producer) means empty, and tokens from a *newer* producer that
        // this build does not speak are skipped rather than fatal — the
        // merged line only ever re-renders tokens both sides understand.
        let mut kind_counts: Vec<(&'static str, u64)> = Vec::new();
        if let Some(Value::Obj(kind_fields)) = v.get("kinds") {
            for (token, n) in kind_fields {
                let Some(kind) = WorkloadKind::from_token(token) else {
                    continue;
                };
                let n = n.as_u64().ok_or_else(|| {
                    RequestError::Malformed("kind counts must be non-negative integers".into())
                })?;
                kind_counts.push((kind.token(), n));
            }
            kind_counts.sort_unstable_by_key(|&(token, _)| token);
        }
        let cache = v
            .get("cache")
            .ok_or_else(|| RequestError::Malformed("summary is missing \"cache\"".into()))?;
        let stat = |key: &str| -> Result<u64, RequestError> {
            cache.get(key).and_then(Value::as_u64).ok_or_else(|| {
                RequestError::Malformed(format!("summary cache is missing \"{key}\""))
            })
        };
        let registry = RegistryStats {
            hits: stat("hits")?,
            misses: stat("misses")?,
            bypasses: stat("bypasses")?,
            collisions: stat("collisions")?,
            evictions: stat("evictions")?,
            entries: usize::try_from(stat("entries")?).unwrap_or(usize::MAX),
            bytes_estimate: stat("bytes_estimate")?,
            symbolic_iterations: stat("symbolic_iterations")?,
            near_hits: 0,
        };
        let exit = v
            .get("exit")
            .and_then(Value::as_u64)
            .and_then(|n| i32::try_from(n).ok())
            .ok_or_else(|| RequestError::Malformed("summary is missing \"exit\"".into()))?;
        Ok(BatchSummary {
            aggregate,
            exit_counts,
            kind_counts,
            registry,
            exit,
        })
    }

    /// Folds per-shard summaries into one. Valid because a sharded batch
    /// *partitions* its units by fingerprint: every counter (outcomes,
    /// exits, cache hits/misses/entries/bytes/iterations) is additive
    /// across disjoint unit sets, and the batch exit code is the maximum.
    /// With that partition the merged line is byte-identical to what a
    /// single server holding all units would have produced.
    pub fn merge(parts: &[BatchSummary]) -> BatchSummary {
        let mut aggregate = OutcomeAggregate::default();
        let mut exit_counts: Vec<(i32, u64)> = Vec::new();
        let mut kind_counts: Vec<(&'static str, u64)> = Vec::new();
        let mut registry = RegistryStats::default();
        let mut exit = EXIT_OK;
        for part in parts {
            aggregate.exact += part.aggregate.exact;
            aggregate.degraded_abstraction += part.aggregate.degraded_abstraction;
            aggregate.degraded_serialization += part.aggregate.degraded_serialization;
            aggregate.errors += part.aggregate.errors;
            for &(code, n) in &part.exit_counts {
                match exit_counts.binary_search_by_key(&code, |&(c, _)| c) {
                    Ok(i) => exit_counts[i].1 += n,
                    Err(i) => exit_counts.insert(i, (code, n)),
                }
            }
            for &(token, n) in &part.kind_counts {
                match kind_counts.binary_search_by_key(&token, |&(t, _)| t) {
                    Ok(i) => kind_counts[i].1 += n,
                    Err(i) => kind_counts.insert(i, (token, n)),
                }
            }
            registry.hits += part.registry.hits;
            registry.misses += part.registry.misses;
            registry.bypasses += part.registry.bypasses;
            registry.collisions += part.registry.collisions;
            registry.evictions += part.registry.evictions;
            registry.entries += part.registry.entries;
            registry.bytes_estimate += part.registry.bytes_estimate;
            registry.symbolic_iterations += part.registry.symbolic_iterations;
            registry.near_hits += part.registry.near_hits;
            exit = exit.max(part.exit);
        }
        BatchSummary {
            aggregate,
            exit_counts,
            kind_counts,
            registry,
            exit,
        }
    }
}

/// The shared [`OutcomeAggregate`] serialization: the comma-separated
/// `"total"…"errors"` fields (no surrounding braces — callers embed it).
pub fn outcome_aggregate_json(agg: &OutcomeAggregate) -> String {
    format!(
        "\"total\":{},\"exact\":{},\"degraded\":{},\"degraded_abstraction\":{},\
         \"degraded_serialization\":{},\"errors\":{}",
        agg.total(),
        agg.exact,
        agg.degraded(),
        agg.degraded_abstraction,
        agg.degraded_serialization,
        agg.errors
    )
}

/// The shared [`RegistryStats`] serialization (a complete JSON object).
/// Both the batch summary's `"cache"` field and the server's `/v1/stats`
/// `"registry"` field embed exactly this.
pub fn registry_stats_json(stats: &RegistryStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"bypasses\":{},\"collisions\":{},\
         \"evictions\":{},\"entries\":{},\"bytes_estimate\":{},\"symbolic_iterations\":{}}}",
        stats.hits,
        stats.misses,
        stats.bypasses,
        stats.collisions,
        stats.evictions,
        stats.entries,
        stats.bytes_estimate,
        stats.symbolic_iterations
    )
}

/// The shared [`sdfr_pool::PoolStats`] serialization (a complete JSON
/// object), embedded by the server's `/v1/stats`.
pub fn pool_stats_json(stats: &sdfr_pool::PoolStats) -> String {
    format!(
        "{{\"threads\":{},\"spawned\":{},\"stolen\":{},\"executed\":{}}}",
        stats.threads, stats.spawned, stats.stolen, stats.executed
    )
}

/// One cyclo-static analysis result, as returned by `/v1/csdf` and
/// `sdfr csdf --json`: the iteration period plus the compact-HSDF
/// reduction sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfRecord {
    /// The display name / path of the graph.
    pub file: String,
    /// The outcome. The request's caps apply, and exhaustion is an error
    /// (exit 4) carrying the message: `Degraded` is unused, since CSDF
    /// analysis has no conservative fallback.
    pub status: UnitStatus,
    /// Phase firings per iteration, when the analysis succeeded.
    pub phase_firings: Option<u64>,
    /// `(actors, channels, tokens)` of the compact HSDF reduction, when
    /// the analysis succeeded.
    pub hsdf: Option<(usize, usize, u64)>,
    /// The unit's exit code under the CLI discipline.
    pub exit: i32,
}

impl CsdfRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = record_head(WorkloadKind::Csdf, None, &self.file);
        self.status.write_json(&mut out);
        if let Some(f) = self.phase_firings {
            let _ = write!(out, ",\"phase_firings\":{f}");
        }
        if let Some((actors, channels, tokens)) = self.hsdf {
            let _ = write!(
                out,
                ",\"hsdf_actors\":{actors},\"hsdf_channels\":{channels},\"hsdf_tokens\":{tokens}"
            );
        }
        record_tail(out, self.exit)
    }
}

/// A structured request-level failure: what the server returns for
/// malformed, oversized, timed-out or shed requests (never for per-unit
/// analysis failures, which ride in [`UnitRecord`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// A stable machine-readable code: `bad-request`,
    /// `unsupported-schema`, `unsupported-kind`, `not-found`,
    /// `method-not-allowed`, `timeout`, `payload-too-large`,
    /// `overloaded`, `draining`, `internal`.
    pub code: &'static str,
    /// A human-readable message.
    pub message: String,
    /// A machine-readable list of accepted tokens, when the error is
    /// "you asked for a token this build does not speak" (rendered as
    /// `"supported":[…]` before `"exit"`; omitted otherwise). The
    /// `unsupported-kind` code always carries
    /// [`WorkloadKind::SUPPORTED`] here.
    pub supported: Option<&'static [&'static str]>,
    /// The exit code a CLI client should propagate.
    pub exit: i32,
}

impl ErrorBody {
    /// Builds an error body.
    pub fn new(code: &'static str, message: impl Into<String>, exit: i32) -> Self {
        ErrorBody {
            code,
            message: message.into(),
            supported: None,
            exit,
        }
    }

    /// Attaches the machine-readable `"supported"` token list.
    pub fn with_supported(mut self, supported: &'static [&'static str]) -> Self {
        self.supported = Some(supported);
        self
    }

    /// Renders the body as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"error\":true,\"code\":\"{}\",\"message\":{}",
            escape_str(SCHEMA),
            self.code,
            escape_str(&self.message),
        );
        if let Some(supported) = self.supported {
            out.push_str(",\"supported\":[");
            for (i, token) in supported.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{token}\"");
            }
            out.push(']');
        }
        let _ = write!(out, ",\"exit\":{}}}", self.exit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_core::degrade::{ConservativeBound, FallbackMethod};
    use sdfr_graph::SdfError;
    use sdfr_maxplus::Rational;

    #[test]
    fn request_round_trips() {
        let req = AnalysisRequest {
            kind: WorkloadKind::Sdf,
            tagged: false,
            graphs: vec![GraphSource {
                name: "demo.sdf".into(),
                content: "graph demo\nactor a 2\n".into(),
            }],
            tiers: vec![10, 100_000],
            deadline_ms: Some(250),
            max_firings: Some(500),
            max_size: None,
            indices: Some(vec![4, 6]),
        };
        let doc = req.to_json();
        assert!(
            doc.starts_with("{\"schema\":\"sdfr-api/1\",\"graphs\":["),
            "{doc}"
        );
        let back = AnalysisRequest::from_json(&doc).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.caps_budget().max_firings(), Some(500));
        assert!(back.caps_budget().is_content_addressable());
        assert_eq!(back.wait_deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn tagged_request_round_trips_in_its_own_shape() {
        let req = AnalysisRequest {
            kind: WorkloadKind::Sadf,
            tagged: true,
            graphs: vec![GraphSource {
                name: "w.sadf".into(),
                content: "sadf w\n".into(),
            }],
            deadline_ms: Some(100),
            ..AnalysisRequest::default()
        };
        let doc = req.to_json();
        assert!(
            doc.starts_with("{\"schema\":\"sdfr-api/1\",\"workload\":{\"kind\":\"sadf\","),
            "{doc}"
        );
        let back = AnalysisRequest::from_json(&doc).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.to_json(), doc);

        // A tagged sdf request and the flat shape parse to the same
        // semantics; only the shape flag differs.
        let flat = AnalysisRequest::from_json(
            r#"{"schema":"sdfr-api/1","graphs":[{"name":"a","content":"x"}]}"#,
        )
        .unwrap();
        let tagged = AnalysisRequest::from_json(
            r#"{"schema":"sdfr-api/1","workload":{"kind":"sdf","graphs":[{"name":"a","content":"x"}]}}"#,
        )
        .unwrap();
        assert!(!flat.tagged);
        assert!(tagged.tagged);
        assert_eq!(
            AnalysisRequest {
                tagged: false,
                ..tagged
            },
            flat
        );
    }

    #[test]
    fn unknown_workload_kind_is_rejected_with_the_supported_list() {
        let err = AnalysisRequest::from_json(
            r#"{"schema":"sdfr-api/1","workload":{"kind":"kpn","graphs":[{"name":"a","content":"x"}]}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, RequestError::UnsupportedKind(_)), "{err:?}");
        let body = ErrorBody::new("unsupported-kind", err.to_string(), EXIT_USAGE)
            .with_supported(WorkloadKind::SUPPORTED);
        let json = body.to_json();
        assert!(
            json.contains("\"supported\":[\"csdf\",\"sadf\",\"sdf\"],\"exit\":2"),
            "{json}"
        );
        // A workload without a kind is malformed, not unsupported.
        assert!(matches!(
            AnalysisRequest::from_json(
                r#"{"schema":"sdfr-api/1","workload":{"graphs":[{"name":"a","content":"x"}]}}"#
            ),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn request_validation() {
        assert!(matches!(
            AnalysisRequest::from_json("{"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            AnalysisRequest::from_json(r#"{"graphs":[]}"#),
            Err(RequestError::UnsupportedSchema(_))
        ));
        assert!(matches!(
            AnalysisRequest::from_json(r#"{"schema":"sdfr-api/2","graphs":[]}"#),
            Err(RequestError::UnsupportedSchema(_))
        ));
        assert!(matches!(
            AnalysisRequest::from_json(r#"{"schema":"sdfr-api/1","graphs":[]}"#),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            AnalysisRequest::from_json(r#"{"schema":"sdfr-api/1","graphs":[{"name":"a"}]}"#),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            AnalysisRequest::from_json(
                r#"{"schema":"sdfr-api/1","graphs":[{"name":"a","content":"x"}],"tiers":[-1]}"#
            ),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn version_checks() {
        assert!(check_requested_version("1").is_ok());
        assert!(check_requested_version("sdfr-api/1").is_ok());
        assert!(check_requested_version("2").is_err());
        assert!(check_requested_version("sdfr-api/2").is_err());
        assert!(check_requested_version("latest").is_err());
        // Unknown minors are forward-compatible: only the major is
        // guarded, like check_schema.
        assert!(check_requested_version("1.9").is_ok());
        assert!(check_requested_version("sdfr-api/1.42").is_ok());
        assert!(check_requested_version("2.0").is_err());
        assert!(check_requested_version("1.x").is_ok());
        assert!(check_schema("sdfr-api/1").is_ok());
        assert!(check_schema("sdfr-api/1.3").is_ok());
        assert!(check_schema("sdfr-api/2").is_err());
        assert!(check_schema("other/1").is_err());
    }

    #[test]
    fn unit_record_rendering() {
        let exact = UnitRecord {
            workload_kind: WorkloadKind::Sdf,
            index: Some(2),
            file: "a.sdf".into(),
            tier: Some(Some(10)),
            fingerprint: Some(0x4cf),
            cache: Some("hit"),
            pending: false,
            status: UnitStatus::Exact {
                period: Some("5".into()),
            },
            scenarios: None,
            exit: 0,
        };
        assert_eq!(
            exact.to_json_line(),
            "{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"sdf\",\"index\":2,\
             \"file\":\"a.sdf\",\"tier\":10,\
             \"fingerprint\":\"00000000000004cf\",\"cache\":\"hit\",\
             \"status\":\"exact\",\"period\":\"5\",\"exit\":0}"
        );

        let standalone = UnitRecord {
            fingerprint: Some(1),
            ..UnitRecord::standalone(
                "b.sdf",
                UnitStatus::Degraded {
                    bound: "42".into(),
                    method: "serialization",
                },
                0,
            )
        };
        assert_eq!(
            standalone.to_json_line(),
            "{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"sdf\",\"file\":\"b.sdf\",\
             \"fingerprint\":\"0000000000000001\",\"status\":\"degraded\",\
             \"bound\":\"42\",\"method\":\"serialization\",\"exit\":0}"
        );

        let pending = UnitRecord {
            pending: true,
            ..standalone.clone()
        };
        assert!(pending
            .to_json_line()
            .contains("\"pending\":true,\"exit\":0"));

        let error = UnitRecord::standalone(
            "c.sdf",
            UnitStatus::Error {
                message: "no \"good\"".into(),
            },
            3,
        );
        assert_eq!(
            error.to_json_line(),
            "{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"sdf\",\"file\":\"c.sdf\",\
             \"status\":\"error\",\"error\":\"no \\\"good\\\"\",\"exit\":3}"
        );
    }

    #[test]
    fn scenario_records_render_the_stable_sub_object() {
        let record = UnitRecord {
            workload_kind: WorkloadKind::Sadf,
            scenarios: Some(ScenarioSet {
                periods: vec![("fast".into(), Some("3".into())), ("slow".into(), None)],
                cycle: vec!["s0".into(), "s1".into()],
            }),
            ..UnitRecord::standalone(
                "w.sadf",
                UnitStatus::Exact {
                    period: Some("6".into()),
                },
                0,
            )
        };
        assert_eq!(
            record.to_json_line(),
            "{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"sadf\",\"file\":\"w.sadf\",\
             \"status\":\"exact\",\"period\":\"6\",\
             \"scenarios\":{\"periods\":{\"fast\":\"3\",\"slow\":null},\
             \"cycle\":[\"s0\",\"s1\"]},\"exit\":0}"
        );
    }

    #[test]
    fn status_from_outcome_uses_stable_tokens() {
        let exact = UnitStatus::from_outcome(&AnalysisOutcome::Exact(Some(Rational::from(5))));
        assert_eq!(
            exact,
            UnitStatus::Exact {
                period: Some("5".into())
            }
        );
        let degraded = UnitStatus::from_outcome(&AnalysisOutcome::Degraded {
            exhausted: SdfError::Exhausted {
                resource: sdfr_graph::budget::BudgetResource::Firings,
                spent: 2,
                limit: 1,
            },
            bound: ConservativeBound {
                bound: Rational::from(7),
                method: FallbackMethod::Abstraction,
            },
        });
        assert_eq!(
            degraded,
            UnitStatus::Degraded {
                bound: "7".into(),
                method: "abstraction"
            }
        );
    }

    #[test]
    fn batch_summary_counts_exits() {
        let mut agg = OutcomeAggregate::default();
        agg.record(&AnalysisOutcome::Exact(None));
        agg.record(&AnalysisOutcome::Exact(None));
        agg.record_error();
        let summary = BatchSummary::new(
            agg,
            &[0, 3, 0],
            &[WorkloadKind::Sdf, WorkloadKind::Sadf, WorkloadKind::Sdf],
            RegistryStats::default(),
        );
        assert_eq!(summary.exit, 3);
        assert_eq!(summary.exit_counts, vec![(0, 2), (3, 1)]);
        assert_eq!(summary.kind_counts, vec![("sadf", 1), ("sdf", 2)]);
        let line = summary.to_json_line();
        assert!(line.starts_with("{\"schema\":\"sdfr-api/1\",\"summary\":true,"));
        assert!(line.contains("\"total\":3,\"exact\":2,"), "{line}");
        assert!(line.contains("\"exits\":{\"0\":2,\"3\":1}"), "{line}");
        assert!(
            line.contains("\"kinds\":{\"sadf\":1,\"sdf\":2},\"cache\":{\"hits\":0,"),
            "{line}"
        );
        assert!(line.ends_with("\"exit\":3}"), "{line}");

        // Round-trip + associative merge over mixed-kind parts.
        let back = BatchSummary::from_json_line(&line).unwrap();
        assert_eq!(back.kind_counts, summary.kind_counts);
        assert_eq!(back.to_json_line(), line);
        let merged = BatchSummary::merge(&[summary.clone(), back]);
        assert_eq!(merged.kind_counts, vec![("sadf", 2), ("sdf", 4)]);
        // An older producer's line (no "kinds") still parses.
        let old = line.replace(",\"kinds\":{\"sadf\":1,\"sdf\":2}", "");
        assert!(BatchSummary::from_json_line(&old)
            .unwrap()
            .kind_counts
            .is_empty());
        // A *newer* minor's line — future schema tag, unknown field —
        // also parses: minor bumps are forward-compatible by contract.
        let future = line
            .replace("sdfr-api/1", "sdfr-api/1.9")
            .replace("\"summary\":true,", "\"summary\":true,\"novel\":42,");
        let parsed = BatchSummary::from_json_line(&future).unwrap();
        assert_eq!(parsed.exit_counts, vec![(0, 2), (3, 1)]);
    }

    #[test]
    fn error_body_and_http_statuses() {
        let body = ErrorBody::new("bad-request", "tiers must be integers", EXIT_USAGE);
        assert_eq!(
            body.to_json(),
            "{\"schema\":\"sdfr-api/1\",\"error\":true,\"code\":\"bad-request\",\
             \"message\":\"tiers must be integers\",\"exit\":2}"
        );
        assert_eq!(http_status_for_exit(EXIT_OK), 200);
        assert_eq!(http_status_for_exit(EXIT_INVALID), 422);
        assert_eq!(http_status_for_exit(EXIT_EXHAUSTED), 422);
        assert_eq!(http_status_for_exit(EXIT_USAGE), 400);
        assert_eq!(http_status_for_exit(EXIT_IO), 404);
        assert_eq!(http_status_for_exit(EXIT_PANIC), 500);
    }

    #[test]
    fn csdf_record_rendering() {
        let ok = CsdfRecord {
            file: "w.csdf".into(),
            status: UnitStatus::Exact {
                period: Some("4".into()),
            },
            phase_firings: Some(4),
            hsdf: Some((1, 1, 1)),
            exit: 0,
        };
        assert_eq!(
            ok.to_json_line(),
            "{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"csdf\",\"file\":\"w.csdf\",\
             \"status\":\"exact\",\
             \"period\":\"4\",\"phase_firings\":4,\"hsdf_actors\":1,\
             \"hsdf_channels\":1,\"hsdf_tokens\":1,\"exit\":0}"
        );
        let err = CsdfRecord {
            file: "w.csdf".into(),
            status: UnitStatus::Error {
                message: "inconsistent".into(),
            },
            phase_firings: None,
            hsdf: None,
            exit: 1,
        };
        assert!(err.to_json_line().contains("\"status\":\"error\""));
    }
}
