//! A one-second run of every workload against a real `sdfr serve`.
//!
//! Needs `sdfr` built into the same target directory and profile as this
//! test, e.g. `cargo build --release -p sdfr-cli` at the repository root
//! and `cargo test --release --manifest-path e2e-bench/Cargo.toml` with
//! one shared `CARGO_TARGET_DIR`. Without it the test says so loudly and
//! passes without running.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["warm_hit", "cold_miss", "near_hit_family", "kinds_batch"];

#[test]
fn every_workload_answers_correctly_and_writes_its_trace() {
    let exe = Path::new(env!("CARGO_BIN_EXE_e2e_bench"));
    let sdfr = exe.with_file_name("sdfr");
    if !sdfr.is_file() {
        eprintln!(
            "SKIPPED: {} is not built; build sdfr-cli into the same target directory and profile",
            sdfr.display()
        );
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(exe)
        .args(["--seed", "3", "--seconds", "1", "--trace", "1", "--out"])
        .arg(&out)
        .output()
        .expect("e2e_bench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "e2e_bench failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), WORKLOADS.len(), "{stdout}");
    for line in &results {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"trace.unexplained_frac\""), "{line}");
    }
    for w in WORKLOADS {
        let trace = std::fs::read_to_string(out.join(format!("trace-{w}.jsonl")))
            .unwrap_or_else(|e| panic!("{w}: no trace file: {e}"));
        let first = trace
            .lines()
            .next()
            .unwrap_or_else(|| panic!("{w}: empty trace"));
        for key in [
            "\"req\":",
            "\"span\":",
            "\"parent\":",
            "\"layer\":",
            "\"start_ns\":",
            "\"end_ns\":",
        ] {
            assert!(first.contains(key), "{w}: {first}");
        }
        let result = std::fs::read_to_string(out.join(format!("result-{w}.json")))
            .unwrap_or_else(|e| panic!("{w}: no result file: {e}"));
        for key in [
            "\"host_cores\"",
            "\"rustc\"",
            "\"commit\"",
            "\"samples\"",
            "\"latency_p50_ms\"",
        ] {
            assert!(result.contains(key), "{w}: {key} missing from {result}");
        }
    }
}
