//! End-to-end tests of the `ssjoin` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssjoin"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssjoin_cli_e2e_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_join_match_roundtrip() {
    let dir = temp_dir("roundtrip");
    let data = dir.join("data.tsv");
    let pairs = dir.join("pairs.tsv");

    // gen
    let out = bin()
        .args([
            "gen",
            "--rows",
            "300",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());

    // join (self, deduped, to file)
    let out = bin()
        .args([
            "join",
            "--kind",
            "jaccard",
            "--threshold",
            "0.8",
            "--self-dedupe",
            "--out",
            pairs.to_str().unwrap(),
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pair_rows = std::fs::read_to_string(&pairs).unwrap();
    for line in pair_rows.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 5, "line {line:?}");
        let sim: f64 = cols[2].parse().unwrap();
        assert!(sim >= 0.8 - 1e-9);
        let (r, s): (usize, usize) = (cols[0].parse().unwrap(), cols[1].parse().unwrap());
        assert!(r < s, "self-dedupe keeps one orientation");
    }

    // match: querying an exact record must return it first with sim 1.
    let first_record = std::fs::read_to_string(&data)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .split('\t')
        .next()
        .unwrap()
        .to_string();
    let out = bin()
        .args([
            "match",
            "--reference",
            data.to_str().unwrap(),
            "--query",
            &first_record,
            "--k",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let top = stdout.lines().next().expect("one match");
    assert!(top.starts_with("1.000000"), "top match {top:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn join_stats_show_the_mirrored_half_path() {
    let dir = temp_dir("stats");
    let data = dir.join("dups.tsv");
    std::fs::write(
        &data,
        "100 Main Street Springfield\n100 Main Stret Springfield\nunrelated record entirely\n",
    )
    .unwrap();
    let join = |extra: &[&str]| {
        let mut args = vec!["join", "--kind", "edit", "--threshold", "0.8", "--stats"];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let json = stderr
            .lines()
            .find(|l| l.starts_with("{\"phase_ms\":"))
            .unwrap_or_else(|| panic!("no stats JSON in {stderr:?}"))
            .to_string();
        (String::from_utf8_lossy(&out.stdout).into_owned(), json)
    };
    let path = data.to_str().unwrap();
    // Self-join: (0, 1) is verified once and mirrored into (1, 0).
    let (pairs, json) = join(&[path]);
    assert!(json.contains("\"mirrored_pairs\":1,"), "{json}");
    assert!(
        pairs.contains("0\t1\t") && pairs.contains("1\t0\t"),
        "{pairs}"
    );
    // Two inputs are never a self-join, even with the same contents.
    let (two, json) = join(&[path, path]);
    assert!(json.contains("\"mirrored_pairs\":0,"), "{json}");
    assert_eq!(two, pairs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_prints_groups() {
    let dir = temp_dir("dedup");
    let data = dir.join("dups.tsv");
    std::fs::write(
        &data,
        "100 Main Street Springfield\n100 Main Stret Springfield\nunrelated record entirely\n",
    )
    .unwrap();
    let out = bin()
        .args(["dedup", "--threshold", "0.85", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One group with members 0 and 1.
    assert!(stdout.contains("0\t0\t100 Main Street Springfield"));
    assert!(stdout.contains("0\t1\t100 Main Stret Springfield"));
    assert!(!stdout.contains("unrelated record entirely"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_file_reports_error() {
    let out = bin()
        .args(["join", "--threshold", "0.8", "/definitely/not/here.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
