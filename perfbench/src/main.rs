//! `perfbench`: the NWCache simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|ooc_write|served --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it records spans around every
//! call into a layer, times the layer kernels, and reports the per-layer
//! metrics. Every simulated output is checked; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. See `perfbench/README.md`.

mod batch;
mod layers;
mod pins;
mod report;
mod served;
mod spans;
mod stats;

use report::{Clock, Metric, Report};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The metrics the final JSON line carries; they mirror
/// `BENCHMARK.json`. Every other metric is printed above it.
const END_TO_END: &[&str] = &[
    "sim_refs_per_s",
    "sim_pcycles_per_s",
    "setup_s",
    "peak_rss_mb",
    "nwcache_gain_pct",
];
const PER_LAYER: &[&str] = &[
    "trace.sim_refs_per_s",
    "workload.refs",
    "workload.gen_ns_per_ref",
    "machine.events",
    "machine.events_per_ref",
    "machine.ns_per_event",
    "machine.ns_per_event_tail",
    "memhier.l2_miss_ratio",
    "memhier.shootdowns",
    "memhier.probe_ns",
    "memhier.dir_ns",
    "mesh.messages",
    "mesh.bytes",
    "mesh.utilization",
    "mesh.send_ns",
    "disk.read_hits",
    "disk.read_misses",
    "disk.swap_nacks",
    "disk.write_combining",
    "disk.swap_out_mean_pc",
    "disk.ctrl_ns",
    "ring.hits",
    "ring.hit_rate",
    "ring.peak_pages",
    "ring.fault_mean_pc",
    "ring.op_ns",
    "vm.page_faults",
    "vm.swap_outs",
    "vm.fault_p99_pc",
    "vm.fault_share",
    "ckpt.bytes",
    "ckpt.save_ms",
    "ckpt.restore_ms",
    "summary.json_us",
    "proto.frame_us",
];

const WORKLOADS: &[&str] = &["paper", "ooc_write", "served"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    emit_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: batch::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        out: PathBuf::from(".perfbench_out"),
        emit_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-pins" {
            a.emit_pins = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} '{val}': {what}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad("not a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload '{}' unknown (want one of {})",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Host fingerprint: results are only comparable when every field but
/// `commit` is equal.
fn fingerprint() -> Vec<(&'static str, String)> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = cmd("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("src:{:016x}", source_digest()));
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "rustc",
            cmd("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        ("commit", commit),
    ]
}

/// Digest of the sources the benchmark builds, for checkouts that are
/// not git repositories.
fn source_digest() -> u64 {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .map(|d| d.flatten().map(|e| e.path()).collect())
                .unwrap_or_default();
            entries.sort();
            for e in entries {
                walk(&e, out);
            }
        } else if p
            .extension()
            .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
        {
            out.push(p.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        walk(Path::new(root), &mut files);
    }
    let mut h = 0u64;
    for f in files {
        h = stats::fold(h, stats::fnv64(f.to_string_lossy().as_bytes()));
        h = stats::fold(h, stats::fnv64(&std::fs::read(&f).unwrap_or_default()));
    }
    h
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_json(m: &Metric) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{},\"clock\":{},\"note\":{}}}",
        json_str(m.name),
        m.value,
        json_str(m.unit),
        json_str(m.clock.label()),
        json_str(&m.note)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_pins {
        pins::start_emitting();
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let fp = fingerprint();
    let epoch = Instant::now();
    let mut t = Tracer::new(args.trace, epoch, 1);
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "paper" => batch::run(
            "paper",
            batch::paper_cells(1.0, Some(args.seed)),
            batch::paper_canary(),
            args.seed,
            args.seconds,
            &mut t,
            &mut rep,
        )
        .map_err(|e| e.to_string()),
        "ooc_write" => batch::run(
            "ooc_write",
            batch::ooc_cells(args.seed),
            batch::ooc_canary(),
            args.seed,
            args.seconds,
            &mut t,
            &mut rep,
        )
        .map_err(|e| e.to_string()),
        _ => served::run(args.seed, args.seconds, &args.out, &mut t, &mut rep),
    };
    if let Err(e) = outcome {
        rep.fail(format!("{}: {e}", args.workload));
    }
    let failed_frac = rep.failed() as f64 / rep.attempted.max(1) as f64;
    if args.trace {
        let doc = spans::chrome_trace(t.spans(), &format!("perfbench {}", args.workload));
        let path = args
            .out
            .join(format!("trace-{}-s{}.json", args.workload, args.seed));
        rep.check(|| {
            let stats = nwcache::observe::validate_chrome_trace(&doc)?;
            std::fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "perfbench: wrote {} spans to {}",
                stats.spans,
                path.display()
            );
            Ok(())
        });
        rep.sections.insert(
            0,
            (
                "host self time per span".into(),
                spans::self_time_table(t.spans()),
            ),
        );
    } else {
        rep.e2e("peak_rss_mb", stats::peak_rss_mb(), "MB", Clock::Host);
        rep.e2e("failed_frac", failed_frac, "ratio", Clock::Sim);
        rep.note(
            "failed_frac",
            format!("{} of {} attempted", rep.failed(), rep.attempted),
        );
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for name in wanted {
        if rep.get(name).is_none() {
            rep.fail(format!("metric {name} was not measured"));
        }
    }
    for m in rep.end_to_end.iter_mut().chain(&mut rep.per_layer) {
        if !m.value.is_finite() {
            rep.failures
                .push(format!("metric {} is not a number", m.name));
            m.value = 0.0;
        }
    }

    // Human-readable report.
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "fingerprint: {}",
        fp.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    let all: Vec<&Metric> = rep.end_to_end.iter().chain(&rep.per_layer).collect();
    for m in &all {
        println!(
            "  {:<28} {:>22} {:<12} [{}] {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
    for (title, body) in &rep.sections {
        println!("\n{title}\n{body}");
    }
    for f in &rep.failures {
        println!("FAILED: {f}");
    }
    if let Some(lines) = pins::emitted() {
        println!("\npins:\n{lines}");
    }

    // The full result, with the fingerprint, for the steadiness report.
    let correct = rep.failures.is_empty();
    let result = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"fingerprint\":{{{}}},\"correct\":{correct},\"metrics\":{{{}}}}}\n",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        fp.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect::<Vec<_>>().join(","),
        all.iter().map(|m| metric_json(m)).collect::<Vec<_>>().join(",")
    );
    let path = args.out.join(format!(
        "result-{}-s{}-t{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, result) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    let metrics: Vec<String> = wanted
        .iter()
        .filter_map(|name| all.iter().find(|m| m.name == *name))
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed(),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
