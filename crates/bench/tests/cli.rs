//! CLI-level tests for `nwsim` and `reproduce`: the workload
//! subcommands, flag validation, `--help`, and the unknown-app error
//! path, exercised through the real binaries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nwsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nwsim"))
}

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn run(mut cmd: Command, args: &[&str]) -> Output {
    cmd.args(args).output().expect("spawn binary")
}

/// Assert a usage error: exit 2 with `needle` named on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "'{needle}' not named in: {stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

/// A per-test scratch file path under the target-specific temp dir.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nwsim-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn unknown_app_lists_registry_and_workload_syntax() {
    let out = nwsim()
        .args(["run", "--app", "guass", "--scale", "0.05"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(out.status.code(), Some(2), "unknown app must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown app 'guass'"), "{stderr}");
    for name in ["em3d", "fft", "gauss", "lu", "mg", "radix", "sor"] {
        assert!(stderr.contains(name), "missing '{name}' in: {stderr}");
    }
    assert!(stderr.contains("workload:<trace-file>"), "{stderr}");
    assert!(stderr.contains("workload:gen:<spec>"), "{stderr}");
}

#[test]
fn bad_scenario_spec_fails_with_reason() {
    let out = nwsim()
        .args(["run", "--app", "workload:gen:lru,ws=4"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pattern 'lru'"), "{stderr}");
}

#[test]
fn gen_describe_replay_round_trip() {
    let spec = "zipf:0.9,ws=24,acc=300,wf=0.4,cpa=10";
    let path = scratch("gen.nwtrace");
    let path_s = path.to_str().unwrap();

    // gen: materialize the scenario to a trace file.
    let out = nwsim()
        .args(["workload", "gen", "--spec", spec, "--out", path_s])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // describe: decodes, validates, and reports the stream shape.
    let out = nwsim()
        .args(["workload", "describe", path_s])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid nwtrace-v1"), "{stdout}");
    assert!(stdout.contains(spec), "{stdout}");
    assert!(stdout.contains("procs:      8"), "{stdout}");

    // replay the file vs generating on the fly in `run`: the default
    // gen seed matches the machine's default workload seed, so the
    // two JSON summaries must be byte-identical.
    let replayed = nwsim()
        .args(["workload", "replay", "--trace", path_s, "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(replayed.status.success(), "{}", String::from_utf8_lossy(&replayed.stderr));
    let direct = nwsim()
        .args(["run", "--app", &format!("workload:gen:{spec}"), "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    assert_eq!(
        String::from_utf8_lossy(&replayed.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "file replay diverged from on-the-fly generation"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_then_replay_matches_direct_run() {
    let path = scratch("gauss.nwtrace");
    let path_s = path.to_str().unwrap();
    let out = nwsim()
        .args(["workload", "record", "--app", "gauss", "--scale", "0.05", "--out", path_s, "--binary"])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let replayed = nwsim()
        .args(["workload", "replay", "--trace", path_s, "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(replayed.status.success(), "{}", String::from_utf8_lossy(&replayed.stderr));
    let direct = nwsim()
        .args(["run", "--app", "gauss", "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    assert_eq!(
        String::from_utf8_lossy(&replayed.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "recorded gauss replay diverged from the direct run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_regress_refuses_quick_baseline() {
    // A baseline recorded with --quick says "authoritative": false;
    // gating against its noise must fail fast (before any kernel
    // timing starts), with a message naming the cure.
    let path = scratch("quick-baseline.json");
    std::fs::write(
        &path,
        "{\n  \"schema\": \"nwcache-bench-v1\",\n  \"quick\": true,\n  \
         \"authoritative\": false,\n  \"kernels\": [\n  ]\n}",
    )
    .expect("write baseline");
    let out = nwsim()
        .args([
            "bench",
            "--quick",
            "--baseline",
            path.to_str().unwrap(),
            "--check-regress",
            "10",
        ])
        .output()
        .expect("spawn nwsim");
    assert_eq!(out.status.code(), Some(2), "quick baseline must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("authoritative"), "{stderr}");
    assert!(stderr.contains("re-record"), "{stderr}");
    // Refusal happened before the kernels ran.
    assert!(!stderr.contains("timing hot-path kernels"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn topo_flag_builds_generated_machines() {
    let out = nwsim()
        .args(["config", "--topo", "mesh=4x4,io=corners,rings=2,dirshards=4"])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for want in ["nodes: 16", "mesh_width: 4", "ring_count: 2", "dir_shards: 4"] {
        assert!(stdout.contains(want), "missing '{want}' in: {stdout}");
    }

    let bad = nwsim()
        .args(["config", "--topo", "mesh=0x4"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(bad.status.code(), Some(2), "mesh=0x4 must be rejected");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("bad --topo"), "{stderr}");
}

/// One test per documented exit code (DESIGN.md §18): scripts and the
/// server's `JobError` mapping both rely on these exact values, so
/// they are frozen here against the real binary.
#[test]
fn exit_codes_are_the_documented_enum() {
    let app = "workload:gen:zipf:0.9,ws=16,acc=400";

    // 0 — success.
    let ok = nwsim()
        .args(["run", "--app", app, "--json"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));

    // 2 — validation error (unknown app name).
    let bad = nwsim().args(["run", "--app", "guass"]).output().expect("spawn nwsim");
    assert_eq!(bad.status.code(), Some(2));

    // 3 — simulation fault (autosave into a nonexistent directory is
    // an I/O fault at run time, past validation).
    let missing_dir = scratch("no-such-dir").join("x.nwckpt");
    let fault = nwsim()
        .args([
            "run", "--app", app,
            "--checkpoint", missing_dir.to_str().unwrap(),
            "--checkpoint-every", "500",
        ])
        .output()
        .expect("spawn nwsim");
    assert_eq!(
        fault.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&fault.stderr)
    );

    // Save two checkpoints stopped at different points for codes 1/4.
    let a = scratch("exit-a.nwckpt");
    let b = scratch("exit-b.nwckpt");
    for (path, stop) in [(&a, "700"), (&b, "1300")] {
        let out = nwsim()
            .args([
                "run", "--app", app,
                "--checkpoint", path.to_str().unwrap(),
                "--checkpoint-every", "300",
                "--stop-after", stop,
            ])
            .output()
            .expect("spawn nwsim");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }

    // 1 — gate failure: ckpt-diff over genuinely different states.
    let diff = nwsim()
        .args(["ckpt-diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("spawn nwsim");
    assert_eq!(diff.status.code(), Some(1), "{}", String::from_utf8_lossy(&diff.stdout));

    // 4 — corrupt checkpoint: flip one payload byte and resume.
    let mut bytes = std::fs::read(&a).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&a, &bytes).expect("rewrite checkpoint");
    let corrupt = nwsim()
        .args(["resume", a.to_str().unwrap()])
        .output()
        .expect("spawn nwsim");
    assert_eq!(
        corrupt.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&corrupt.stderr)
    );

    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

/// The in-run parallel engine's worker-count flag, removed together
/// with the engine; both binaries must now refuse it.
const REMOVED_FLAG: &str = "--sim-threads";

#[test]
fn removed_flag_exits_2_on_both_binaries() {
    let out = run(nwsim(), &["run", "--app", "sor", "--scale", "0.05", REMOVED_FLAG, "4"]);
    assert_rejected(&out, REMOVED_FLAG);
    let out = run(nwsim(), &["bench", "--quick", REMOVED_FLAG, "2"]);
    assert_rejected(&out, REMOVED_FLAG);
    let out = run(reproduce(), &["--scale", "0.05", REMOVED_FLAG, "4", "table3"]);
    assert_rejected(&out, REMOVED_FLAG);
}

#[test]
fn misspelled_flags_and_targets_exit_2() {
    // A typo must not silently run at the default scale.
    let out = run(nwsim(), &["run", "--app", "sor", "--scael", "0.5"]);
    assert_rejected(&out, "--scael");
    let out = run(reproduce(), &["--scael", "0.05", "table3"]);
    assert_rejected(&out, "--scael");
    let out = run(reproduce(), &["--scale", "0.05", "tabel3"]);
    assert_rejected(&out, "tabel3");
}

#[test]
fn help_prints_usage_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["run", "--help"],
        &["bench", "--help"],
        &["resume", "--help"],
        &["workload", "gen", "--help"],
    ] {
        let out = run(nwsim(), args);
        assert_eq!(out.status.code(), Some(0), "nwsim {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("nwsim run"), "nwsim {args:?}: {stdout}");
        assert!(!stdout.contains(REMOVED_FLAG), "{stdout}");
    }
    for flag in ["--help", "-h"] {
        let out = run(reproduce(), &[flag]);
        assert_eq!(out.status.code(), Some(0), "reproduce {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("reproduce [--scale S]"), "{stdout}");
        assert!(!stdout.contains(REMOVED_FLAG), "{stdout}");
    }
}

#[test]
fn reproduce_flag_errors_exit_2() {
    let out = run(reproduce(), &["--scale", "abc", "table3"]);
    assert_rejected(&out, "--scale");
    let out = run(reproduce(), &["table3", "--jobs"]);
    assert_rejected(&out, "--jobs");
    let out = run(reproduce(), &["--json"]);
    assert_rejected(&out, "--json");
    let out = run(
        reproduce(),
        &["--scale", "0.05", "--trace-cell", "sor:bogus:naive"],
    );
    assert_rejected(&out, "unknown machine 'bogus'");
}

/// `doc` with every whitespace byte outside strings removed.
fn compact(doc: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in doc.chars() {
        if in_str {
            in_str = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c == '"' {
            in_str = true;
        } else if c.is_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

/// `compact(doc)` re-laid out one member per line, indented by 2 per
/// level (the shape of `json.dump(doc, indent=2)`).
fn indent2(doc: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for c in compact(doc).chars() {
        if in_str {
            in_str = escaped || c != '"';
            escaped = !escaped && c == '\\';
            out.push(c);
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

#[test]
fn bench_validate_accepts_any_layout_of_the_committed_report() {
    let doc = include_str!("../../../BENCH_hotpath.json");
    for (label, text) in [("compact", compact(doc)), ("indent2", indent2(doc))] {
        assert_ne!(text, doc);
        let path = scratch(&format!("bench-{label}.json"));
        std::fs::write(&path, &text).expect("write reformatted report");
        let out = run(nwsim(), &["bench-validate", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{label}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn trace_validate_rejects_deep_nesting_with_exit_2() {
    let path = scratch("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write deep document");
    let out = run(nwsim(), &["trace-validate", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_rejected(&out, "nesting deeper than");
}
