//! The `sdfr batch` subcommand: many graphs (or one graph at many budget
//! tiers) per invocation, analysed through a shared [`SessionRegistry`].
//! A `--tiers` ladder is incremental for free: every tier of a file shares
//! the graph fingerprint, so when a starved tier leaves a partial engine
//! checkpoint behind, the registry's near-hit path seeds the next tier's
//! session from it and only the unexecuted firing suffix runs.
//!
//! Each unit of work — one `(file, tier)` pair — is analysed with the PR 1
//! degradation semantics of `sdfr analyze` and reported as **one JSON line**
//! (JSON-lines output, one object per unit, streamed as results land). The
//! records are the [`sdfr_api::UnitRecord`]s of the `sdfr-api/1` wire
//! schema — the same type `sdfr analyze --json` prints and `sdfr serve`
//! returns over HTTP — and the trailing summary is an
//! [`sdfr_api::BatchSummary`] folding outcome counts, per-exit-code counts
//! and registry statistics.
//!
//! # Ordering
//!
//! By default, units fan out as one task each over a dedicated
//! [work-stealing pool](sdfr_pool::Pool) and lines are emitted in
//! *completion* order. The pool is shared with the per-unit analyses (each
//! task body sees it via [`sdfr_pool::current`]), so any nested fan-out —
//! capacity probes, Pareto sweeps — cooperates with the batch workers
//! instead of oversubscribing the machine. `--stable` switches to
//! sequential in-index-order processing, which makes the full output —
//! including per-unit cache attribution (which duplicate is the miss and
//! which are hits) — deterministic. Use it for scripting and golden tests;
//! the parallel path produces the same analysis results (the registry
//! serves every duplicate from one session either way), only line order and
//! hit/miss attribution vary. A one-thread pool (`--threads 1` or
//! `SDFR_THREADS=1`) executes tasks caller-driven in submission order, so
//! its streamed output is byte-identical to `--stable` — CI diffs the two.
//!
//! Worker-count precedence: `--threads T` beats the `SDFR_THREADS`
//! environment variable, which beats available parallelism. Zero or
//! non-numeric values of either are usage errors (exit 2).
//!
//! # Exit-code discipline
//!
//! Per unit, the PR 1 rules apply: an exact answer *and* a
//! degraded-but-safe answer both count as success (code 0); invalid graphs
//! are 1, unreadable files are 3, exhaustion without a safe fallback is 4.
//! The batch process exits with the numerically largest per-unit code;
//! every unit's code is surfaced in its own record (`"exit"`, so consumers
//! never re-derive it from `"status"`), and the summary's `"exits"` object
//! counts units per code.

use std::sync::Mutex;

use sdfr_analysis::registry::{RegistryConfig, SessionRegistry};
use sdfr_api::BatchSummary;
use sdfr_graph::budget::Budget;

use crate::workload::{self, AnalyzedUnit};
use crate::CliError;

/// Parsed options of one `sdfr batch` invocation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Graph files, in command-line order.
    pub files: Vec<String>,
    /// `--max-firings` tiers; each file is analysed once per tier. Empty
    /// means one unit per file under the base budget alone.
    pub tiers: Vec<u64>,
    /// Worker threads. `0` means "resolve at run time" (the validated
    /// `SDFR_THREADS` value if set, else available parallelism); the
    /// parser never produces 0 from an explicit `--threads` flag, which
    /// must be a positive integer. Capped by the number of units. Ignored
    /// under `--stable`, which is sequential.
    pub threads: usize,
    /// Deterministic sequential mode (`--stable`).
    pub stable: bool,
    /// Registry capacity limits (`--cache-entries`, `--cache-bytes`).
    pub registry: RegistryConfig,
    /// Base budget from the global `--deadline`/`--max-firings`/`--max-size`
    /// options; tiers override the firing cap per unit.
    pub budget: Budget,
}

/// The complete result of one batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// One JSON object per unit, in emission order (index order under
    /// `--stable`, completion order otherwise).
    pub lines: Vec<String>,
    /// The trailing JSON summary object.
    pub summary: String,
    /// The batch exit code: the largest per-unit code.
    pub exit_code: i32,
}

impl BatchReport {
    /// The full JSON-lines report: every unit line, then the summary.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.summary);
        out.push('\n');
        out
    }
}

/// One `(file, tier)` work unit.
#[derive(Debug, Clone)]
struct Unit {
    index: usize,
    file: String,
    tier: Option<u64>,
}

/// Parses `sdfr batch` arguments (everything after the command word).
///
/// # Errors
///
/// [`crate::CliErrorKind::Usage`] for unknown flags, malformed values, or an empty
/// file list.
pub fn parse_batch_args(args: &[String]) -> Result<BatchOptions, CliError> {
    let mut files = Vec::new();
    let mut tiers = Vec::new();
    let mut threads = 0usize;
    let mut stable = false;
    let mut registry = RegistryConfig::default();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--stable" => stable = true,
            "--tiers" => {
                let raw = value(args, i, "--tiers")?;
                for part in raw.split(',') {
                    let n: u64 = part.trim().parse().map_err(|_| {
                        CliError::usage(format!("--tiers: '{part}' is not a number"))
                    })?;
                    tiers.push(n);
                }
                i += 1;
            }
            "--threads" => {
                let raw = value(args, i, "--threads")?;
                threads = raw.parse().map_err(|_| {
                    CliError::usage(format!("--threads must be a positive integer, got '{raw}'"))
                })?;
                if threads == 0 {
                    return Err(CliError::usage(format!(
                        "--threads must be a positive integer, got '{raw}'"
                    )));
                }
                i += 1;
            }
            "--cache-entries" => {
                registry.max_entries = value(args, i, "--cache-entries")?
                    .parse()
                    .map_err(|_| CliError::usage("--cache-entries: expected a number"))?;
                i += 1;
            }
            "--cache-bytes" => {
                registry.max_bytes = value(args, i, "--cache-bytes")?
                    .parse()
                    .map_err(|_| CliError::usage("--cache-bytes: expected a number"))?;
                i += 1;
            }
            // Global budget flags are parsed by the caller; skip their value.
            "--deadline" | "--max-firings" | "--max-size" => i += 1,
            _ if arg.starts_with('-') => {
                return Err(CliError::usage(format!("batch: unknown option '{arg}'")));
            }
            _ => files.push(arg.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(CliError::usage(
            "batch: at least one <file> is required\n\n\
             usage: sdfr batch <file>... [--tiers N,N,...] [--threads T] [--stable]\n\
             \x20      [--cache-entries N] [--cache-bytes N]\n\
             \x20      [--deadline D] [--max-firings N] [--max-size N]",
        ));
    }
    if threads == 0 {
        // No --threads flag: fall back to SDFR_THREADS, rejecting garbage
        // (a silently ignored typo would change parallelism, and with it
        // the determinism guarantees CI relies on).
        threads = sdfr_pool::env_threads()
            .map_err(|e| CliError::usage(e.to_string()))?
            .map_or(0, |n| n.get());
    }
    Ok(BatchOptions {
        files,
        tiers,
        threads,
        stable,
        registry,
        budget: crate::budget_from_opts(args)?,
    })
}

/// Runs a batch: fans units out over the registry-backed worker pool (or
/// sequentially under `--stable`) and calls `emit` with each JSON line as
/// it lands. The returned report repeats all lines plus the summary.
pub fn run_batch(opts: &BatchOptions, emit: &(dyn Fn(&str) + Sync)) -> BatchReport {
    let units: Vec<Unit> = opts
        .files
        .iter()
        .flat_map(|f| {
            if opts.tiers.is_empty() {
                vec![(f.clone(), None)]
            } else {
                opts.tiers.iter().map(|&t| (f.clone(), Some(t))).collect()
            }
        })
        .enumerate()
        .map(|(index, (file, tier))| Unit { index, file, tier })
        .collect();

    let registry = SessionRegistry::with_config(opts.registry);
    let mut results: Vec<Option<(String, AnalyzedUnit)>> = Vec::with_capacity(units.len());
    results.resize_with(units.len(), || None);

    let analyze_one = |unit: &Unit| -> (String, AnalyzedUnit) {
        // Each file's kind follows the name rule, so `.sadf` workloads mix
        // into flat batches with no new flags.
        let kind = workload::unit_kind(None, None, &unit.file)
            .expect("without a route or a tag the name rule always decides");
        let source = workload::load_source(kind, &unit.file);
        let analyzed = workload::analyze_unit(
            kind,
            Some((unit.index, unit.tier)),
            &unit.file,
            &source,
            &registry,
            &opts.budget,
            None,
        );
        (analyzed.to_json_line(), analyzed)
    };

    if opts.stable {
        for unit in &units {
            let r = analyze_one(unit);
            emit(&r.0);
            results[unit.index] = Some(r);
        }
    } else {
        let threads = if opts.threads > 0 {
            opts.threads
        } else {
            sdfr_pool::default_threads()
        }
        .clamp(1, units.len().max(1));
        // A dedicated pool honors the requested width exactly. Each unit is
        // one task; the task wrapper installs the pool as the thread's
        // current one, so nested per-unit fan-outs (capacity probes, Pareto
        // sweeps) are stolen by idle batch workers instead of spawning a
        // second layer of threads. With one thread the scope caller drains
        // the queue in submission order, making the streamed lines — and
        // the hit/miss attribution — identical to `--stable`.
        let pool = sdfr_pool::Pool::new(threads);
        // Units are chunked by the tier/budget cost estimate: ladders of
        // cheap low-cap tiers batch into one task (which also walks a
        // file's consecutive tiers on one worker, feeding the registry's
        // incremental near-hit path), while uncapped units stay one per
        // task. A chunk emits its units in ascending index order, so with
        // one thread the stream remains byte-identical to `--stable`
        // whatever the chunk size.
        let chunk = unit_chunk(&units, &opts.budget, &pool);
        let slots = Mutex::new(&mut results);
        pool.scope(|s| {
            for chunk_units in units.chunks(chunk) {
                let analyze_one = &analyze_one;
                let slots = &slots;
                s.spawn(move |_| {
                    for unit in chunk_units {
                        let r = analyze_one(unit);
                        emit(&r.0);
                        slots.lock().expect("batch results mutex poisoned")[unit.index] = Some(r);
                    }
                });
            }
        });
    }

    let summary = summarize(
        results.iter().flatten().map(|(_, analyzed)| analyzed),
        registry.stats(),
    );
    let lines = results
        .into_iter()
        .flatten()
        .map(|(line, _)| line)
        .collect();
    BatchReport {
        lines,
        summary: summary.to_json_line(),
        exit_code: summary.exit,
    }
}

/// How many budgeted firings one batch task should amortize its dispatch
/// overhead over.
const UNIT_CHUNK_COST: u64 = 65_536;

/// Chunk size for fanning batch units out: the worst-case unit cost is
/// estimated from the firing caps the [`Budget`] will charge (a unit's
/// tier, else the base cap). Cheap capped units batch together until a
/// task carries roughly [`UNIT_CHUNK_COST`] firings; any uncapped unit
/// keeps the whole batch at one unit per task. The pool's load-balancing
/// bound caps the batch so every worker still gets tasks to steal.
fn unit_chunk(units: &[Unit], base: &Budget, pool: &sdfr_pool::Pool) -> usize {
    let cost = |u: &Unit| u.tier.or(base.max_firings()).unwrap_or(u64::MAX);
    let max_cost = units.iter().map(cost).max().unwrap_or(u64::MAX);
    let by_cost = usize::try_from(UNIT_CHUNK_COST / max_cost.max(1)).unwrap_or(usize::MAX);
    by_cost.clamp(1, pool.chunk_size(units.len()))
}

/// Folds analysed units into the `sdfr-api/1` [`BatchSummary`] (outcome
/// aggregate + per-exit-code counts + registry stats + the batch exit
/// code). Shared by `sdfr batch` and the server's `/v1/batch` endpoint —
/// one place, one schema.
pub(crate) fn summarize<'a>(
    units: impl Iterator<Item = &'a AnalyzedUnit>,
    stats: sdfr_analysis::registry::RegistryStats,
) -> BatchSummary {
    let mut agg = sdfr_core::degrade::OutcomeAggregate::default();
    let mut exits = Vec::new();
    let mut kinds = Vec::new();
    for u in units {
        match &u.outcome {
            Some(outcome) => agg.record(outcome),
            None => agg.record_error(),
        }
        exits.push(u.record.exit);
        kinds.push(u.record.workload_kind);
    }
    BatchSummary::new(agg, &exits, &kinds, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliErrorKind;

    #[test]
    fn parse_rejects_bad_args() {
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_batch_args(&to_args(&[])).is_err());
        assert!(parse_batch_args(&to_args(&["--bogus", "f"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--tiers", "1,x"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--tiers"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--threads", "q"])).is_err());
        let zero = parse_batch_args(&to_args(&["f", "--threads", "0"])).unwrap_err();
        assert_eq!(zero.kind, CliErrorKind::Usage);
        assert!(
            zero.message.contains("positive integer"),
            "{}",
            zero.message
        );
        let neg = parse_batch_args(&to_args(&["f", "--threads", "-2"])).unwrap_err();
        assert_eq!(neg.kind, CliErrorKind::Usage);
        let opts = parse_batch_args(&to_args(&[
            "a.sdf",
            "b.sdf",
            "--tiers",
            "10,1000",
            "--stable",
            "--cache-entries",
            "8",
            "--max-firings",
            "500",
        ]))
        .unwrap();
        assert_eq!(opts.files, vec!["a.sdf", "b.sdf"]);
        assert_eq!(opts.tiers, vec![10, 1000]);
        assert!(opts.stable);
        assert_eq!(opts.registry.max_entries, 8);
        assert_eq!(opts.budget.max_firings(), Some(500));
    }

    #[test]
    fn missing_file_is_an_error_line_not_a_crash() {
        let opts = BatchOptions {
            files: vec!["/nonexistent/batch-file.sdf".to_string()],
            tiers: vec![],
            threads: 1,
            stable: true,
            registry: RegistryConfig::default(),
            budget: Budget::unlimited(),
        };
        let report = run_batch(&opts, &|_| {});
        assert_eq!(report.exit_code, crate::EXIT_IO);
        assert_eq!(report.lines.len(), 1);
        assert!(report.lines[0].starts_with("{\"schema\":\"sdfr-api/1\""));
        assert!(report.lines[0].contains("\"status\":\"error\""));
        assert!(report.lines[0].contains("\"exit\":3"));
        assert!(report.summary.contains("\"errors\":1"));
        assert!(report.summary.contains("\"exits\":{\"3\":1}"));
        assert!(report.summary.contains("\"exit\":3"));
    }

    #[test]
    fn unit_chunking_follows_the_tier_cost() {
        let pool = sdfr_pool::Pool::new(2);
        let units: Vec<Unit> = (0..64)
            .map(|index| Unit {
                index,
                file: "f".into(),
                tier: Some(16),
            })
            .collect();
        // Cheap tiers batch up, bounded by the pool's load-balance cap.
        let c = unit_chunk(&units, &Budget::unlimited(), &pool);
        assert!(c > 1, "cheap tiers should batch, got chunk {c}");
        assert!(c <= pool.chunk_size(units.len()));
        // One uncapped unit forces per-unit tasks for the whole batch.
        let mut mixed = units.clone();
        mixed[5].tier = None;
        assert_eq!(unit_chunk(&mixed, &Budget::unlimited(), &pool), 1);
        // An uncapped tier under a capped base budget uses the base cost.
        let base = Budget::unlimited().with_max_firings(16);
        assert!(unit_chunk(&mixed, &base, &pool) > 1);
    }
}
