//! Golden tests for arithmetic overflow at the CLI: a result that does not
//! fit in `i64` is reported as an invalid graph (exit 1, the standard
//! `integer overflow while computing …` message), never as a wrapped
//! answer with exit 0 and never as an internal error.

use std::process::Command;

fn write_temp(content: &str, ext: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sdfr-overflow-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "g-{}-{}.{ext}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::write(&path, content).unwrap();
    path
}

/// Runs `sdfr <args>` and returns `(exit, stdout, stderr)`.
fn sdfr(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdfr"))
        .args(args)
        .output()
        .expect("sdfr runs");
    (
        out.status.code().expect("exited"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// λ = (4e18+1)/3: the rate-optimal schedule runs on a ×3 grid, where
/// y's start `3·T(x)` = 1.2e19 does not fit in `i64`.
const BIG: &str = "graph big\nactor x 4000000000000000000\nactor y 1\n\
                   channel x x 1 1 3\nchannel x y 1 1 0\nchannel y x 1 1 3\n";

#[test]
fn schedule_start_time_overflow_is_an_invalid_graph() {
    let f = write_temp(BIG, "sdf");
    let (code, stdout, stderr) = sdfr(&["schedule", f.to_str().unwrap()]);
    assert_eq!(
        (code, stdout.as_str(), stderr.as_str()),
        (
            1,
            "",
            "integer overflow while computing static schedule start times\n"
        )
    );
}

/// The cycle ratio (6e18+1)/3 fits, so `analyze` answers exactly, but
/// Howard's potential step `λ·2` behind `schedule` does not.
#[test]
fn howard_overflow_is_an_invalid_graph() {
    let f = write_temp(
        "graph h\nactor x 3000000000000000000\nactor y 3000000000000000001\n\
         channel x y 1 1 1\nchannel y x 1 1 2\n",
        "sdf",
    );
    let (code, stdout, stderr) = sdfr(&["schedule", f.to_str().unwrap()]);
    assert_eq!(
        (code, stdout.as_str(), stderr.as_str()),
        (
            1,
            "",
            "integer overflow while computing maximum cycle ratio\n"
        )
    );
    let (code, stdout, _) = sdfr(&["analyze", f.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(
        stdout.starts_with("iteration period: 6000000000000000001/3\n"),
        "{stdout}"
    );
}

/// A two-scenario workload over [`BIG`]'s structure. Its lattice has
/// λ = (4e18+3)/6, and critical-cycle potentials up to 2e19 (checked
/// against an `i128` run of the dense Kleene-star formula), so the
/// winning cycle is an overflow, in both the human and the JSON form.
const BIG_SADF: &str = "sadf big\n\
    scenario s\n  actor x 4000000000000000000\n  actor y 1\n  channel x x 1 1 3\n  \
    channel x y 1 1 0\n  channel y x 1 1 3\nend\n\
    scenario t\n  actor x 1\n  actor y 1\n  channel x x 1 1 3\n  \
    channel x y 1 1 0\n  channel y x 1 1 3\nend\n\
    state s0 s\nstate s1 t\ntransition s0 s1 0\ntransition s1 s0 0\ninitial s0\n";

#[test]
fn sadf_critical_cycle_overflow_is_an_invalid_workload() {
    let f = write_temp(BIG_SADF, "sadf");
    let path = f.to_str().unwrap();
    let message = format!("{path}: integer overflow while computing critical-cycle potentials");
    let (code, stdout, stderr) = sdfr(&["analyze", path]);
    assert_eq!(
        (code, stdout.as_str(), stderr),
        (1, "", format!("{message}\n"))
    );
    // A failing record goes to stderr, like every `--json` error.
    let (code, stdout, stderr) = sdfr(&["analyze", path, "--json"]);
    assert_eq!(
        (code, stdout.as_str(), stderr),
        (
            1,
            "",
            format!(
                "{{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"sadf\",\"file\":\"{path}\",\
                 \"status\":\"error\",\"error\":\"{message}\",\"exit\":1}}\n\n"
            )
        )
    );
}
