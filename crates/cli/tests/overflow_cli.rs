//! Golden tests for arithmetic overflow at the CLI: a result that does not
//! fit in `i64` is reported as an invalid graph (exit 1, the standard
//! `integer overflow while computing …` message), never as a wrapped
//! answer with exit 0 and never as an internal error. Results whose
//! intermediates are large but whose answer fits are exact.

use std::process::Command;

use sdfr_analysis::static_schedule::rate_optimal_schedule;

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

/// `x ⇄ y` with times 3e18 and 3e18+1 over 1 + 2 tokens: the cycle ratio
/// (6e18+1)/3 fits, and so do the fused reduced weights `3·w − num·t`
/// (checked in `i128`), although `λ·2` alone does not. `schedule` and
/// `analyze` agree on the exact period; y starts at `3e18 − (6e18+1)/3`.
#[test]
fn fused_cycle_ratio_schedules_the_large_pair_exactly() {
    let f = write_temp(
        "graph h\nactor x 3000000000000000000\nactor y 3000000000000000001\n\
         channel x y 1 1 1\nchannel y x 1 1 2\n",
        "sdf",
    );
    let (code, stdout, stderr) = sdfr(&["schedule", f.to_str().unwrap()]);
    assert_eq!(
        (code, stdout.as_str(), stderr.as_str()),
        (
            0,
            "rate-optimal period: 6000000000000000001/3\n  start(x) = 0\n  \
             start(y) = 2999999999999999999/3\n",
            ""
        )
    );
    let (code, stdout, _) = sdfr(&["analyze", f.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(
        stdout.starts_with("iteration period: 6000000000000000001/3\n"),
        "{stdout}"
    );
}

/// λ = (5e18+1)/3, the mean of a 3-token cycle of Alg. 1's matrix. A Karp
/// table's walk weights over this matrix leave `i64`, the cycle ratio does
/// not: `analyze` answers exactly, with the period `schedule` prints.
const K5: &str = "graph k5\nactor x 5000000000000000000\nactor y 1\n\
                  channel x x 1 1 3\nchannel x y 1 1 0\nchannel y x 1 1 3\n";

#[test]
fn analyze_answers_the_period_schedule_prints() {
    let f = write_temp(K5, "sdf");
    let path = f.to_str().unwrap();
    let period = "1666666666666666667";
    let (code, stdout, stderr) = sdfr(&["schedule", path]);
    assert_eq!((code, stderr.as_str()), (0, ""));
    assert!(
        stdout.starts_with(&format!("rate-optimal period: {period}\n")),
        "{stdout}"
    );
    let (code, stdout, stderr) = sdfr(&["analyze", path]);
    assert_eq!((code, stderr.as_str()), (0, ""));
    assert!(
        stdout.starts_with(&format!("iteration period: {period}\n")),
        "{stdout}"
    );
    let (code, stdout, stderr) = sdfr(&["analyze", path, "--json"]);
    assert_eq!((code, stderr.as_str()), (0, ""));
    assert!(
        stdout.ends_with(&format!(
            "\"status\":\"exact\",\"period\":\"{period}\",\"exit\":0}}\n"
        )),
        "{stdout}"
    );
}

/// Two disjoint cycles of equal ratio 3 (`a1 ⇄ a4` and `a2 ⇄ a3`), both
/// reachable from `a0`: the cycle-ratio routine behind `schedule` must
/// settle on one of them rather than flip between them.
const TIE5: &str = "graph tie5\nactor a0 1\nactor a1 2\nactor a2 1\nactor a3 2\nactor a4 1\n\
                    channel a0 a0 1 1 1\nchannel a0 a4 1 1 0\nchannel a3 a2 1 1 0\n\
                    channel a1 a4 1 1 1\nchannel a2 a3 1 1 1\nchannel a4 a1 1 1 0\n\
                    channel a0 a3 1 1 0\n";

#[test]
fn equal_ratio_cycles_schedule_rate_optimally() {
    let f = write_temp(TIE5, "sdf");
    let (code, stdout, stderr) = sdfr(&["schedule", f.to_str().unwrap()]);
    assert_eq!(
        (code, stdout.as_str(), stderr.as_str()),
        (
            0,
            "rate-optimal period: 3\n  start(a0) = 0\n  start(a1) = 2\n  start(a2) = 3\n  \
             start(a3) = 1\n  start(a4) = 1\n",
            ""
        )
    );
    let g = sdfr_io::text::from_text(TIE5).unwrap();
    let s = rate_optimal_schedule(&g).unwrap().expect("cyclic");
    assert!(s.is_admissible(&g));
    for (a, actor) in g.actors() {
        let line = format!("  start({}) = {}\n", actor.name(), s.start_time(a, 0));
        assert!(stdout.contains(&line), "{line}");
    }
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
                 \"status\":\"error\",\"error\":\"{message}\",\"exit\":1}}\n"
            )
        )
    );
}
