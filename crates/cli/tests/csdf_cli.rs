//! Golden tests for `sdfr csdf`: the human report and the `--json` record
//! of the cyclo-static front-end, byte for byte, on a live two-phase graph,
//! a deadlocked graph and an inconsistent graph.

use std::process::Command;

fn write_temp(content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sdfr-csdf-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "g-{}-{}.csdf",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::write(&path, content).unwrap();
    path
}

/// Runs `sdfr csdf <file> [extra]` and returns `(exit, stdout, stderr)`.
fn csdf(file: &str, extra: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdfr"))
        .arg("csdf")
        .arg(file)
        .args(extra)
        .output()
        .expect("sdfr runs");
    (
        out.status.code().expect("exited"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// The producer emits only in its first phase and reads back-pressure
/// credits only in its second; one-token self-loops serialize the phases.
const TWO_PHASE: &str = "csdf tp\nactor p 1,3\nactor c 2\nchannel p c 2,0 1 0\n\
                         channel c p 1 0,2 4\nchannel p p 1,1 1,1 1\nchannel c c 1 1 1\n";

#[test]
fn two_phase_report_and_record() {
    let f = write_temp(TWO_PHASE);
    let path = f.to_str().unwrap();
    let (exit, stdout, stderr) = csdf(path, &[]);
    assert_eq!(exit, 0, "{stderr}");
    assert_eq!(
        stdout,
        "csdf graph 'tp': 2 actors, 4 channels, 6 initial tokens\n\
         \x20 p phases=[1, 3]\n\
         \x20 c phases=[2]\n\
         \x20 p -([2, 0],0,[1])-> c\n\
         \x20 c -([1],4,[0, 2])-> p\n\
         \x20 p -([1, 1],1,[1, 1])-> p\n\
         \x20 c -([1],1,[1])-> c\n\
         phase firings per iteration: 4\n\
         iteration period: 4\n\
         compact HSDF: 17 actors, 22 channels, 6 tokens\n"
    );
    assert_eq!(stderr, "");

    let (exit, stdout, stderr) = csdf(path, &["--json"]);
    assert_eq!(exit, 0, "{stderr}");
    assert_eq!(
        stdout,
        format!(
            "{{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"csdf\",\"file\":\"{path}\",\
             \"status\":\"exact\",\"period\":\"4\",\"phase_firings\":4,\"hsdf_actors\":17,\
             \"hsdf_channels\":22,\"hsdf_tokens\":6,\"exit\":0}}\n"
        )
    );
    assert_eq!(stderr, "");
}

#[test]
fn failing_graphs_report_and_record() {
    for (text, message) in [
        (
            "csdf dead\nactor x 1\nactor y 1\nchannel x y 1 1 0\nchannel y x 1 1 0\n",
            "graph deadlocks after 0 of 2 firings of an iteration",
        ),
        (
            "csdf bad\nactor x 1\nactor y 1\nchannel x y 2 1 0\nchannel y x 1 1 4\n",
            "graph is inconsistent: balance equation of channel c1 has no solution",
        ),
    ] {
        let f = write_temp(text);
        let path = f.to_str().unwrap();
        let (exit, stdout, stderr) = csdf(path, &[]);
        assert_eq!((exit, stdout.as_str()), (1, ""), "{path}");
        assert_eq!(stderr, format!("{message}\n"));

        let (exit, stdout, stderr) = csdf(path, &["--json"]);
        assert_eq!((exit, stdout.as_str()), (1, ""), "{path}");
        assert_eq!(
            stderr,
            format!(
                "{{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"csdf\",\"file\":\"{path}\",\
                 \"status\":\"error\",\"error\":\"{message}\",\"exit\":1}}\n\n"
            )
        );
    }
}
