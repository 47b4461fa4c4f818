//! The output checks must bite: checked against a deliberately wrong
//! reference, every workload reports failures (`fail_ratio` > 0,
//! `"correct": false`) and the command exits non-zero. The results file
//! of a run passes the one-run check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build of the VM makes the workloads very slow).

use std::path::PathBuf;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ijvm-perfbench"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one workload briefly; returns the exit status, the last stdout
/// line and the out directory.
fn run(workload: &str, wrong: bool) -> (bool, String, PathBuf) {
    let out = out_dir(&format!("{workload}-{wrong}"));
    let mut cmd = bench();
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "0",
    ]);
    cmd.arg("--out").arg(&out);
    if wrong {
        cmd.arg("--wrong-reference");
    }
    let output = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (output.status.success(), last, out)
}

fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + key.len() + 4..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("a whole number")
}

#[test]
fn a_wrong_reference_fails_every_workload() {
    for workload in ["spec", "gateway", "cluster"] {
        let (ok, last, _) = run(workload, true);
        assert!(!ok, "{workload}: a wrong reference must exit non-zero");
        assert!(last.contains("\"correct\": false"), "{workload}: {last}");
        assert!(
            field(&last, "failed") > 0,
            "{workload}: fail_ratio must be > 0: {last}"
        );
    }
}

#[test]
fn the_right_reference_passes_and_the_results_file_is_one_run() {
    let (ok, last, out) = run("cluster", false);
    assert!(ok, "{last}");
    assert!(last.contains("\"correct\": true"), "{last}");
    assert_eq!(field(&last, "failed"), 0);
    assert!(field(&last, "attempted") > 0);
    let results: Vec<PathBuf> = std::fs::read_dir(&out)
        .expect("out directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("results-"))
        })
        .collect();
    assert_eq!(results.len(), 1);
    let checked = bench()
        .arg("--check-results")
        .arg(&results[0])
        .output()
        .expect("reader runs");
    assert!(
        checked.status.success(),
        "{}",
        String::from_utf8_lossy(&checked.stderr)
    );
}

#[test]
fn malformed_arguments_exit_without_a_result() {
    let output = bench()
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
