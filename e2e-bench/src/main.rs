//! `e2e_bench`: runs the end-to-end workloads against `sdfr serve`.
//!
//! ```text
//! e2e_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Without `--workload` all four workloads run in turn. Each run prints
//! every metric by name with its unit and sample count, writes
//! `DIR/result-<workload>.json` (and, traced, `DIR/trace-<workload>.jsonl`),
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. The exit
//! code is 0 only when every answer was correct.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use sdfr_api::json::escape_str;
use sdfr_e2e_bench::gen::Workload;
use sdfr_e2e_bench::run::{self, Config, Metric, Outcome};

const USAGE: &str =
    "usage: e2e_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30,
        trace: true,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: '{value}' is not one of {}", names.join(", "))
                })?];
            }
            "--seed" => args.seed = number(&value)?,
            "--seconds" => {
                args.seconds = number(&value)?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown option '{flag}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The `sdfr` binary built next to this one.
fn sdfr_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate e2e_bench: {e}"))?;
    let sdfr = exe.with_file_name("sdfr");
    if sdfr.is_file() {
        Ok(sdfr)
    } else {
        Err(format!(
            "{} is missing; build it next to e2e_bench with the same target directory:\n  \
             cargo build --release -p sdfr-cli && \
             cargo build --release --manifest-path e2e-bench/Cargo.toml",
            sdfr.display()
        ))
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let commit = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
    });
    commit.unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = match (samples, m.samples) {
                (true, Some(n)) => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{}\"{n}}}",
                escape_str(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn report(cfg: &Config, meta: &[(&str, String)], outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== e2e_bench {} ==", cfg.workload.name());
    for (k, v) in meta
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .chain(outcome.notes.clone())
    {
        let _ = writeln!(out, "  {k:<28} {v}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "  {:<28} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        out,
        "  attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| sdfr_binary().map(|s| (a, s))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let (args, sdfr) = args;
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("e2e_bench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = host_cores.min(2);
    let meta_common = [
        ("host_cores", host_cores.to_string()),
        ("clients", clients.to_string()),
        ("seed", args.seed.to_string()),
        ("rustc", rustc_version()),
        ("commit", git_commit()),
    ];
    let mut all_correct = true;
    for workload in args.workloads {
        let cfg = Config {
            workload,
            seed: args.seed,
            timed: Duration::from_secs(args.seconds),
            trace: args.trace,
            out: args.out.clone(),
            sdfr: sdfr.clone(),
            clients,
        };
        let outcome = match run::run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2e_bench: {}: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        let correct = outcome.failed == 0;
        all_correct &= correct;
        let mut meta: Vec<(&str, String)> = vec![("workload", workload.name().to_string())];
        meta.extend(meta_common.iter().cloned());
        print!("{}", report(&cfg, &meta, &outcome));
        for f in &outcome.failures {
            eprintln!("e2e_bench: {}: FAILED {f}", workload.name());
        }

        let mut file = String::from("{");
        for (k, v) in meta
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .chain(outcome.notes.clone())
        {
            let _ = write!(file, "{}: {}, ", escape_str(&k), escape_str(&v));
        }
        let failures: Vec<String> = outcome.failures.iter().map(|f| escape_str(f)).collect();
        let _ = write!(
            file,
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}],\n \
             \"end_to_end\": {},\n \"per_layer\": {}}}\n",
            outcome.attempted,
            outcome.failed,
            failures.join(", "),
            metrics_json(&outcome.end_to_end, true),
            metrics_json(&outcome.per_layer, true)
        );
        let path = args.out.join(format!("result-{}.json", workload.name()));
        if let Err(e) = std::fs::write(&path, file) {
            eprintln!("e2e_bench: {}: {e}", path.display());
            return ExitCode::from(1);
        }

        let metrics = if args.trace {
            &outcome.per_layer
        } else {
            &outcome.end_to_end
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            outcome.attempted,
            outcome.failed,
            metrics_json(metrics, false)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
