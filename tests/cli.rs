//! Integration tests for the `ioenc` command-line front end.

use std::io::Write;
use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = run_code(args);
    (code == Some(0), stdout, stderr)
}

fn run_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ioenc-cli-{name}-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const SECTION1: &str = "\
symbols: a b c d
(b,c)
(c,d)
(b,a)
(a,d)
b>c
a>c
a=b|d
";

#[test]
fn check_reports_feasible() {
    let path = write_temp("check", SECTION1);
    let (ok, stdout, _) = run(&["check", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("FEASIBLE"), "{stdout}");
}

#[test]
fn check_reports_infeasible_with_witnesses() {
    let path = write_temp("infeasible", "symbols: a b\na>b\nb>a\n");
    let (ok, stdout, _) = run(&["check", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("INFEASIBLE"), "{stdout}");
}

#[test]
fn encode_prints_two_bit_codes() {
    let path = write_temp("encode", SECTION1);
    let (ok, stdout, _) = run(&["encode", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("2 bits"), "{stdout}");
    assert!(stdout.contains("a = "), "{stdout}");
}

#[test]
fn heuristic_encode_with_options() {
    let path = write_temp("heur", SECTION1);
    let (ok, stdout, _) = run(&[
        "encode",
        path.to_str().unwrap(),
        "--heuristic",
        "--bits",
        "3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("3 bits"), "{stdout}");
}

#[test]
fn primes_lists_dichotomies() {
    let path = write_temp("primes", "symbols: a b c\n(a,b)\n");
    let (ok, stdout, _) = run(&["primes", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("prime encoding-dichotomies"), "{stdout}");
}

#[test]
fn fsm_extracts_constraints() {
    let kiss = "\
.i 1
.o 1
.s 4
0 a c 1
0 b c 1
1 a d 0
1 b a 0
- c a 0
- d b 1
.e
";
    let path = write_temp("fsm", kiss);
    let (ok, stdout, _) = run(&["fsm", path.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("symbols: a"), "{stdout}");
}

#[test]
fn table_prints_binate_rows() {
    let path = write_temp("table", "symbols: a b c\n(a,b)\nb>c\n");
    let (ok, stdout, _) = run(&["table", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("columns:"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (ok, _, stderr) = run(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (ok, _, stderr) = run(&["check", "/nonexistent/file"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn missing_symbols_header_is_an_error() {
    let path = write_temp("nohdr", "(a,b)\n");
    let (ok, _, stderr) = run(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("symbols"), "{stderr}");
}

#[test]
fn fsm_assign_prints_codes_and_cost() {
    let kiss = "\
.i 1
.o 1
.s 4
0 a c 1
0 b c 1
1 a d 0
1 b a 0
- c a 0
- d b 1
.e
";
    let path = write_temp("assign", kiss);
    let (ok, stdout, stderr) = run(&["fsm", path.to_str().unwrap(), "--assign"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("face constraints satisfied"), "{stdout}");
    assert!(stdout.contains("PLA"), "{stdout}");
}

#[test]
fn auto_encode_answers_with_the_exact_rung_when_budget_suffices() {
    let path = write_temp("auto", SECTION1);
    let (ok, stdout, stderr) = run(&[
        "encode",
        path.to_str().unwrap(),
        "--auto",
        "--max-primes",
        "1000",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("exact encoding"), "{stdout}");
    assert!(stdout.contains("minimum length"), "{stdout}");
    // Statistics land on stderr, not stdout.
    assert!(stderr.contains("evaluations"), "{stderr}");
    assert!(!stdout.contains("evaluations"), "{stdout}");
}

#[test]
fn auto_encode_reports_degradation_on_stderr() {
    // 12 unconstrained symbols exceed a 50-prime budget; the ladder must
    // still answer on stdout and explain the expiries on stderr.
    let body = format!(
        "symbols: {}\n",
        (0..12).map(|i| format!("s{i} ")).collect::<String>()
    );
    let path = write_temp("autodeg", &body);
    let (ok, stdout, stderr) = run(&[
        "encode",
        path.to_str().unwrap(),
        "--auto",
        "--max-primes",
        "50",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("encoding"), "{stdout}");
    assert!(stderr.contains("fell short"), "{stderr}");
}

#[test]
fn auto_without_budget_flags_is_rejected() {
    let path = write_temp("autonobudget", SECTION1);
    let (ok, _, stderr) = run(&["encode", path.to_str().unwrap(), "--auto"]);
    assert!(!ok);
    assert!(stderr.contains("needs at least one budget"), "{stderr}");
}

#[test]
fn auto_rejects_bad_budget_values() {
    let path = write_temp("autobad", SECTION1);
    // A zero deadline can never be met.
    let (ok, _, stderr) = run(&[
        "encode",
        path.to_str().unwrap(),
        "--auto",
        "--deadline-ms",
        "0",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--deadline-ms must be positive"),
        "{stderr}"
    );
    // Negative and garbage values are parse errors, not silent defaults.
    for bad in ["-5", "many"] {
        let (ok, _, stderr) = run(&[
            "encode",
            path.to_str().unwrap(),
            "--auto",
            "--max-nodes",
            bad,
        ]);
        assert!(!ok, "--max-nodes {bad} accepted");
        assert!(stderr.contains("--max-nodes"), "{stderr}");
    }
    // A budget flag with no value at all.
    let (ok, _, stderr) = run(&["encode", path.to_str().unwrap(), "--auto", "--max-evals"]);
    assert!(!ok);
    assert!(stderr.contains("--max-evals"), "{stderr}");
}

#[test]
fn auto_conflicts_with_heuristic_flag() {
    let path = write_temp("autoconflict", SECTION1);
    let (ok, _, stderr) = run(&[
        "encode",
        path.to_str().unwrap(),
        "--auto",
        "--heuristic",
        "--max-primes",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn auto_stdout_is_byte_identical_across_thread_counts() {
    let path = write_temp("autothreads", SECTION1);
    let budget = ["--auto", "--max-primes", "100", "--max-evals", "500"];
    let mut outputs = Vec::new();
    for threads in ["off", "2", "4", "auto"] {
        let mut args = vec!["encode", path.to_str().unwrap()];
        args.extend_from_slice(&budget);
        args.extend_from_slice(&["--threads", threads]);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "{stderr}");
        outputs.push(stdout);
    }
    // Only stderr (timings, thread counts) may vary; the answer does not.
    assert!(
        outputs.iter().all(|o| *o == outputs[0]),
        "stdout varies across thread counts: {outputs:?}"
    );
}

/// `encode --auto --max-nodes 2000 --json` on the sets in
/// `tests/fixtures/cover/`, pinned byte for byte, work counters included.
/// Together they reach the unate exact rung running out of nodes, an
/// exact optimum, and binate covers answered by the bounded rung, some
/// over more than 64 columns. A strict work budget makes the counters
/// independent of the thread count, which comes from `IOENC_TEST_THREADS`
/// (`off`, `auto` or a number; default `auto`).
#[test]
fn budgeted_auto_answers_match_pinned_bytes() {
    let threads = std::env::var("IOENC_TEST_THREADS").unwrap_or_else(|_| "auto".to_string());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cover");
    let mut sets: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    sets.sort();
    assert_eq!(sets.len(), 6, "{sets:?}");
    for set in &sets {
        let want = std::fs::read_to_string(set.with_extension("json")).expect("pinned answer");
        let (code, stdout, stderr) = run_code(&[
            "encode",
            set.to_str().unwrap(),
            "--auto",
            "--max-nodes",
            "2000",
            "--json",
            "--threads",
            &threads,
        ]);
        assert_eq!(code, Some(0), "{}: {stderr}", set.display());
        assert_eq!(stdout, want, "{}", set.display());
    }
}

#[test]
fn exit_codes_are_consistent_per_error_class() {
    let parse = write_temp("exit-parse", "(a,b)\n"); // missing symbols: header
    let infeasible = write_temp("exit-infeasible", "symbols: a b\na>b\nb>a\n");
    let wide = write_temp(
        "exit-wide",
        &format!(
            "symbols: {}\n",
            (0..12).map(|i| format!("s{i} ")).collect::<String>()
        ),
    );
    let feasible = write_temp("exit-ok", SECTION1);
    // (args, expected exit code, stderr fragment)
    let table: Vec<(Vec<&str>, i32, &str)> = vec![
        (vec!["encode", feasible.to_str().unwrap()], 0, ""),
        (vec!["encode", parse.to_str().unwrap()], 2, "symbols"),
        (vec!["encode", "/nonexistent/ioenc-file"], 3, "error"),
        // --auto with no budget at all: a limit error.
        (
            vec!["encode", feasible.to_str().unwrap(), "--auto"],
            4,
            "budget",
        ),
        // A tiny prime budget on a wide, unconstrained set expires.
        (
            vec!["encode", wide.to_str().unwrap(), "--max-primes", "2"],
            5,
            "budget",
        ),
        (
            vec!["encode", infeasible.to_str().unwrap()],
            6,
            "unsatisfiable",
        ),
        // The same classes hold under --json (errors go to stdout there).
        (vec!["encode", parse.to_str().unwrap(), "--json"], 2, ""),
        (
            vec!["encode", infeasible.to_str().unwrap(), "--json"],
            6,
            "",
        ),
        // ... and for other subcommands.
        (vec!["lint", infeasible.to_str().unwrap()], 6, ""),
        (vec!["canon", parse.to_str().unwrap()], 2, "symbols"),
    ];
    for (args, want, fragment) in table {
        let (code, stdout, stderr) = run_code(&args);
        assert_eq!(
            code,
            Some(want),
            "{args:?}\nstdout: {stdout}\nstderr: {stderr}"
        );
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
}

#[test]
fn encode_json_reports_codes_and_deterministic_stats() {
    let path = write_temp("json-ok", SECTION1);
    let (code, stdout, stderr) = run_code(&["encode", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("{\"ok\":true,\"key\":\""), "{stdout}");
    assert!(stdout.contains("\"mode\":\"exact\""), "{stdout}");
    assert!(stdout.contains("\"width\":2"), "{stdout}");
    assert!(stdout.contains("{\"symbol\":\"a\",\"code\":\""), "{stdout}");
    assert!(stdout.contains("\"num_primes\":"), "{stdout}");
    // Deterministic: timings and thread counts never appear.
    assert!(!stdout.contains("elapsed"), "{stdout}");
    assert!(!stdout.contains("thread"), "{stdout}");
    // One line of JSON, nothing else.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn encode_json_failure_embeds_the_lint_report() {
    let path = write_temp("json-bad", "symbols: a b\na>b\nb>a\n");
    let (code, stdout, _) = run_code(&["encode", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, Some(6), "{stdout}");
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
    assert!(stdout.contains("\"class\":\"infeasible\""), "{stdout}");
    assert!(stdout.contains("\"exit_code\":6"), "{stdout}");
    assert!(stdout.contains("\"lint\":"), "{stdout}");
    assert!(stdout.contains("\"diagnostics\":"), "{stdout}");
}

#[test]
fn encode_json_is_byte_identical_across_thread_counts() {
    let path = write_temp("json-threads", SECTION1);
    let mut outputs = Vec::new();
    for threads in ["off", "2", "auto"] {
        let (code, stdout, stderr) = run_code(&[
            "encode",
            path.to_str().unwrap(),
            "--json",
            "--threads",
            threads,
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        outputs.push(stdout);
    }
    assert!(outputs.iter().all(|o| *o == outputs[0]), "{outputs:?}");
}

#[test]
fn canon_gives_permuted_spellings_the_same_key() {
    let a = write_temp("canon-a", SECTION1);
    let b = write_temp(
        "canon-b",
        "symbols: d c b a\n(a,d)\na>c\n(c,d)\n(b,a)\nb>c\na=b|d\n(b,c)\n",
    );
    let (ok, out_a, _) = run(&["canon", a.to_str().unwrap()]);
    assert!(ok);
    let (ok, out_b, _) = run(&["canon", b.to_str().unwrap()]);
    assert!(ok);
    assert_eq!(out_a, out_b, "canonical output must be spelling-invariant");
    assert!(out_a.starts_with("key: "), "{out_a}");
    assert!(out_a.contains("symbols: a b c d"), "{out_a}");
}

#[test]
fn session_subcommand_tracks_edits_incrementally() {
    use std::process::Stdio;
    let base = "symbols: a b c d e\n(a,b)\n(c,d)\n(b,c,e)\na>c\n";
    let edited = "symbols: a b c d e\n(a,b)\n(c,d)\n(b,c,e)\n(d,e)\n";
    let path = write_temp("session", base);

    let mut child = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(["session", path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"add (d,e)\nremove a>c\nshow\nquit\n")
        .expect("write commands");
    let out = child.wait_with_output().expect("session exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // Three solves (initial, add, remove), then the edited set echoed back.
    assert_eq!(stdout.matches(" bits:").count(), 3, "{stdout}");
    assert!(stderr.contains("incremental:"), "{stderr}");
    assert!(stdout.ends_with(edited), "{stdout}");

    // The final session solve is bit-identical to a fresh direct solve of
    // the edited set: the last codes block must equal `ioenc session` run
    // on the edited file with no edits at all.
    let edited_path = write_temp("session-edited", edited);
    let mut fresh = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(["session", edited_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(fresh.stdin.take()); // EOF: solve once and exit
    let fresh_out = fresh.wait_with_output().expect("session exits");
    assert!(fresh_out.status.success());
    let fresh_stdout = String::from_utf8_lossy(&fresh_out.stdout);
    let last_block = stdout
        .trim_end_matches(edited)
        .rsplit_once(" bits:")
        .map(|(head, tail)| {
            let width = head.rsplit('\n').next().unwrap_or(head);
            format!("{width} bits:{tail}")
        })
        .expect("a codes block");
    assert_eq!(
        fresh_stdout, last_block,
        "session diverged from fresh solve"
    );
}

#[test]
fn session_reports_edit_errors_and_continues() {
    let path = write_temp("session-err", SECTION1);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(["session", path.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"remove (a,c)\nbogus\nadd (b,c)\n")
        .expect("write commands");
    let out = child.wait_with_output().expect("session exits");
    assert!(out.status.success(), "errors must not kill the session");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no constraint matching"), "{stderr}");
    assert!(stderr.contains("unknown session command"), "{stderr}");
    // Initial solve plus the successful add; the failed edits solve nothing.
    assert_eq!(stdout.matches(" bits:").count(), 2, "{stdout}");
}

#[test]
fn minimize_subcommand_shrinks_pla() {
    let pla = "\
.i 3
.o 2
110 10
111 10
011 01
010 01
--1 11
";
    let path = write_temp("pla", pla);
    let (ok, stdout, stderr) = run(&["minimize", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(".p 3"), "{stdout}");
    assert!(stdout.contains("11- 10"), "{stdout}");
}

/// A 1-output PLA minimizes to a 1-output PLA (the minimizer's output
/// variable has a second, unused part that must not be printed), and
/// minimizing that output again reproduces it byte for byte.
#[test]
fn minimize_keeps_a_single_output_column() {
    let path = write_temp("pla-one-output", ".i 2\n.o 1\n11 1\n01 1\n.e\n");
    let (ok, stdout, stderr) = run(&["minimize", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, ".i 2\n.o 1\n.p 1\n-1 1\n.e\n");
    let again = write_temp("pla-one-output-again", &stdout);
    let (ok, twice, stderr) = run(&["minimize", again.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert_eq!(twice, stdout);
}

/// `ioenc minimize` on the PLAs in `tests/fixtures/espresso/`, pinned byte
/// for byte: encoded next-state/output PLAs of generated machines (one of
/// the slowest to minimize among them), a 1-output PLA and two seeded
/// random PLAs whose cubes span two 64-bit words.
#[test]
fn minimize_answers_match_pinned_bytes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/espresso");
    let mut plas: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pla"))
        .collect();
    plas.sort();
    assert_eq!(plas.len(), 8, "{plas:?}");
    for pla in &plas {
        let want = std::fs::read_to_string(pla.with_extension("out")).expect("pinned answer");
        let (ok, stdout, stderr) = run(&["minimize", pla.to_str().unwrap()]);
        assert!(ok, "{}: {stderr}", pla.display());
        assert_eq!(stdout, want, "{}", pla.display());
    }
}

// --- synth pipeline CLI ---

/// A tiny KISS2 machine shared by the synth CLI tests.
const SYNTH_KISS: &str = "\
.i 1
.o 1
.s 4
.p 8
0 s0 s1 0
1 s0 s2 0
0 s1 s3 1
1 s1 s0 0
0 s2 s0 1
1 s2 s3 0
0 s3 s2 1
1 s3 s1 1
.e
";

fn synth_tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ioenc-cli-synthdir-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn synth_runs_the_full_pipeline() {
    let path = write_temp("synth-full", SYNTH_KISS);
    let (ok, stdout, stderr) = run(&["synth", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# encoding:"), "{stdout}");
    assert!(stdout.contains("# verify: ok"), "{stdout}");
    assert!(stdout.contains("nova baseline"), "{stdout}");
    // Timings and the run key are diagnostics: stderr only.
    assert!(stderr.contains("stage parse"), "{stderr}");
    assert!(stderr.contains("stage measure"), "{stderr}");
    assert!(
        !stdout.contains(" ms"),
        "timings leaked to stdout: {stdout}"
    );
}

#[test]
fn synth_json_is_one_deterministic_line() {
    let path = write_temp("synth-json", SYNTH_KISS);
    let (ok, stdout, _) = run(&["synth", path.to_str().unwrap(), "--json"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
    assert!(stdout.contains("\"verify\""), "{stdout}");
    assert!(stdout.contains("\"nova\""), "{stdout}");
    let (_, again, _) = run(&["synth", path.to_str().unwrap(), "--json"]);
    assert_eq!(stdout, again, "synth --json must be deterministic");
}

#[test]
fn synth_stop_after_then_resume_is_byte_identical() {
    let path = write_temp("synth-resume", SYNTH_KISS);
    let dir = synth_tmpdir("resume");
    let (fresh_ok, fresh, _) = run(&["synth", path.to_str().unwrap()]);
    assert!(fresh_ok);

    let (ok, stdout, stderr) = run(&[
        "synth",
        path.to_str().unwrap(),
        "--run-dir",
        dir.to_str().unwrap(),
        "--stop-after",
        "extract",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.is_empty(), "a stopped run prints nothing: {stdout}");
    assert!(stderr.contains("stopped after stage extract"), "{stderr}");

    let (ok, resumed, stderr) = run(&[
        "synth",
        path.to_str().unwrap(),
        "--run-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(resumed, fresh, "resumed stdout differs from a fresh run");
    assert!(stderr.contains("(resumed)"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn synth_budget_exhaustion_uses_the_budget_exit_class() {
    let path = write_temp("synth-budget", SYNTH_KISS);
    let (code, stdout, _) = run_code(&[
        "synth",
        path.to_str().unwrap(),
        "--json",
        "--max-ps-steps",
        "0",
    ]);
    assert_eq!(code, Some(5), "{stdout}");
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
    assert!(stdout.contains("\"stage\":\"encode\""), "{stdout}");
    assert!(stdout.contains("\"class\":\"budget\""), "{stdout}");
}

#[test]
fn synth_parse_failure_names_the_stage() {
    let path = write_temp("synth-bad", "this is not kiss2\n");
    let (code, _, stderr) = run_code(&["synth", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("stage parse"), "{stderr}");
}

#[test]
fn synth_gen_corpus_writes_manifest() {
    let dir = synth_tmpdir("gencorpus");
    let (ok, stdout, stderr) = run(&[
        "synth",
        "gen-corpus",
        dir.to_str().unwrap(),
        "--count",
        "3",
        "--adversarial",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote 5 files"), "{stdout}");
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).expect("manifest");
    assert!(manifest.starts_with("ioenc-synth-corpus v1"), "{manifest}");
    assert!(manifest.contains("checksum "), "{manifest}");
    // Regenerating with the same seed is byte-identical.
    let dir2 = synth_tmpdir("gencorpus2");
    let (ok2, _, _) = run(&[
        "synth",
        "gen-corpus",
        dir2.to_str().unwrap(),
        "--count",
        "3",
        "--adversarial",
        "2",
    ]);
    assert!(ok2);
    let manifest2 = std::fs::read_to_string(dir2.join("MANIFEST.txt")).expect("manifest");
    assert_eq!(manifest, manifest2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn encode_measure_reports_implementation_cost() {
    let kiss = write_temp("measure-kiss", SYNTH_KISS);
    // Constraints derived from the same machine, so symbols match states.
    let (ok, cons, _) = run(&["fsm", kiss.to_str().unwrap()]);
    assert!(ok);
    let cons_body: String =
        cons.lines()
            .filter(|l| !l.starts_with('#'))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
    let cpath = write_temp("measure-cons", &cons_body);

    let (ok, stdout, stderr) = run(&[
        "encode",
        cpath.to_str().unwrap(),
        "--json",
        "--measure",
        kiss.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("\"implementation\":{\"cubes\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"literals\":"), "{stdout}");

    let (ok, plain, stderr) = run(&[
        "encode",
        cpath.to_str().unwrap(),
        "--measure",
        kiss.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(plain.contains("implementation: "), "{plain}");
}

#[test]
fn encode_measure_rejects_mismatched_fsm() {
    let kiss = write_temp("measure-mismatch-kiss", SYNTH_KISS);
    // SECTION1 symbols (a..d) don't name the FSM's states (s0..s3).
    let cpath = write_temp("measure-mismatch-cons", SECTION1);
    let (code, _, stderr) = run_code(&[
        "encode",
        cpath.to_str().unwrap(),
        "--measure",
        kiss.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("has no code"), "{stderr}");
}
