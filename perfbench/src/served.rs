//! The `served` workload: an in-process `nw_server::Server` on loopback,
//! driven by a closed loop of two client connections.
//!
//! The job mix is a sequence of paper run jobs at scale 0.25 over the
//! 14 Table 2 cells, Zipf-skewed so popular cells repeat. It comes in
//! rounds with a fixed composition, each shuffled by the seed. Half of
//! the jobs ask for a warm start at half of the cell's events, so the
//! set of warm checkpoints straddles the server's default warm-cache
//! capacity.
//! Every `Done` document must equal the batch run of the same cell byte
//! for byte.

use crate::batch::{self, Cell, CellResult, NO_ID, SETUP_REPS};
use crate::layers;
use crate::pins;
use crate::report::{Clock, Report};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use nw_server::{Connection, JobSpec, Response, ServeOptions, Server, ServerHandle};
use nw_sim::Pcg32;
use std::path::Path;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SCALE: f64 = 0.25;
/// A run measures at least this many jobs, so that at least ten of its
/// latency samples lie beyond the 95th percentile.
const MIN_JOBS: usize = 200;
const CLIENTS: usize = 2;
const JOB_SLOTS: usize = 2;
/// Zipf exponent of cell popularity.
const ZIPF_S: f64 = 1.0;
/// Target jobs per round of the mix; a run stops only at the end of a
/// round, so every run serves the same mix.
const ROUND: usize = 56;
/// Length of the generated job sequence (runs never get near it).
const MIX_LEN: usize = 20_000;

/// Events of each served cell at the default seed; a warm job warms up
/// for half of them. A cell missing here runs cold.
const CELL_EVENTS: &[(&str, u64)] = &[
    ("em3d/standard", 23296),
    ("em3d/nwcache", 22054),
    ("fft/standard", 40278),
    ("fft/nwcache", 29832),
    ("gauss/standard", 245448),
    ("gauss/nwcache", 196255),
    ("lu/standard", 29234),
    ("lu/nwcache", 28911),
    ("mg/standard", 42739),
    ("mg/nwcache", 34899),
    ("radix/standard", 24944),
    ("radix/nwcache", 17984),
    ("sor/standard", 26353),
    ("sor/nwcache", 19371),
];

pub fn cells() -> Vec<Cell> {
    batch::paper_cells(SCALE, None)
}

/// The cell whose checkpoint, summary and frames the kernels time.
pub fn canary() -> Cell {
    Cell::new("fft", "fft", nwcache::MachineKind::NwCache, SCALE, None)
}

#[derive(Clone, Copy)]
struct Job {
    cell: usize,
    warmup: u64,
}

fn warmup_for(cell: &Cell) -> u64 {
    CELL_EVENTS
        .iter()
        .find(|e| e.0 == cell.label)
        .map_or(0, |e| e.1 / 2)
}

/// Cells in popularity order: a fixed order, the same for every seed,
/// so the seed changes the job sequence but not the mix.
fn popularity(n: usize) -> Vec<usize> {
    let mut rank: Vec<usize> = (0..n).collect();
    Pcg32::new(batch::DEFAULT_SEED, 0x5E4E_D000).shuffle(&mut rank);
    rank
}

/// One round of the job mix: each cell `round(ROUND * w_r)` times for
/// Zipf weight `w_r` of its rank (at least once), alternately warm and
/// cold, starting warm.
fn round_jobs(cells: &[Cell], rank: &[usize]) -> Vec<Job> {
    let weights: Vec<f64> = (0..rank.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut jobs = Vec::new();
    for (&cell, w) in rank.iter().zip(&weights) {
        let count = ((ROUND as f64 * w / total).round() as usize).max(1);
        for j in 0..count {
            let warmup = if j % 2 == 0 {
                warmup_for(&cells[cell])
            } else {
                0
            };
            jobs.push(Job { cell, warmup });
        }
    }
    jobs
}

/// The job sequence: rounds of the fixed mix, each shuffled by the seed.
fn job_mix(cells: &[Cell], rank: &[usize], seed: u64) -> Vec<Job> {
    let round = round_jobs(cells, rank);
    let mut rng = Pcg32::new(seed, 0x5E4E_D001);
    let mut jobs = Vec::with_capacity(MIX_LEN);
    while jobs.len() < MIX_LEN {
        let mut r = round.clone();
        rng.shuffle(&mut r);
        jobs.extend(r);
    }
    jobs
}

fn job_spec(cell: &Cell, warmup: u64) -> JobSpec {
    JobSpec {
        spec: cell.spec.clone(),
        machines: vec![cell.machine().to_string()],
        scale: SCALE,
        seed: None,
        warmup_events: warmup,
        ..JobSpec::default()
    }
}

/// One finished job as the client saw it.
struct Outcome {
    cell: usize,
    warmup: u64,
    warm_hit: bool,
    admit_ns: u64,
    total_ns: u64,
    frames: u64,
    json: Result<String, String>,
}

/// Submit one job and read its frames to the terminal one.
fn run_job(conn: &mut Connection, cells: &[Cell], job: Job, id: u64, t: &mut Tracer) -> Outcome {
    let spec = job_spec(&cells[job.cell], job.warmup);
    t.span("job", id, |t| {
        let t0 = Instant::now();
        let mut out = Outcome {
            cell: job.cell,
            warmup: job.warmup,
            warm_hit: false,
            admit_ns: 0,
            total_ns: 0,
            frames: 1,
            json: Err("no terminal frame".into()),
        };
        if let Err(e) = t.span("serve.submit", id, |_| conn.submit(&spec)) {
            out.json = Err(format!("submit: {e}"));
            return out;
        }
        out.admit_ns = t0.elapsed().as_nanos() as u64;
        out.json = t.span("serve.stream", id, |_| loop {
            let frame = conn.next_event();
            out.frames += 1;
            match frame {
                Ok(Response::Progress { .. }) => {}
                Ok(Response::Done { warm_hit, json, .. }) => {
                    out.warm_hit = warm_hit;
                    break Ok(json);
                }
                Ok(other) => break Err(format!("unexpected frame {other:?}")),
                Err(e) => break Err(format!("read: {e}")),
            }
        });
        out.total_ns = t0.elapsed().as_nanos() as u64;
        out
    })
}

/// A bound server running on its own thread, with its client connections.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<nw_server::ServeStats>,
    conns: Vec<Connection>,
}

impl Running {
    fn start(out_dir: &Path) -> Result<Running, String> {
        let server = Server::bind(ServeOptions {
            job_slots: JOB_SLOTS,
            autosave_dir: out_dir.join("autosave"),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let mut running = Running {
            handle,
            thread,
            conns: Vec::new(),
        };
        for _ in 0..CLIENTS {
            match Connection::connect(&addr) {
                Ok(c) => running.conns.push(c),
                Err(e) => {
                    running.stop();
                    return Err(format!("connect: {e}"));
                }
            }
        }
        Ok(running)
    }

    /// Close the connections, stop the server and wait for its thread.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Run the `served` workload for `seconds` and record its metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    t: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let cells = cells();
    let rank = popularity(cells.len());
    let jobs = job_mix(&cells, &rank, seed);
    let round = round_jobs(&cells, &rank).len();
    let warm_cap = ServeOptions::default().warm_capacity;

    // Set-up: count every workload's references, bind the server,
    // connect the clients and fill the warm cache with the most popular
    // cells' warm states.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut running = None;
    let mut refs = vec![0u64; cells.len()];
    let mut fills = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(r) = running.take() {
            Running::stop(r);
        }
        let t0 = Instant::now();
        let r = t.span("setup", NO_ID, |t| -> Result<Running, String> {
            for (i, c) in cells.iter().enumerate().step_by(2) {
                let n = t
                    .span("workload.build", i as u64 + 1, |_| c.count_refs())
                    .map_err(|e| e.to_string())?;
                refs[i] = n;
                refs[i + 1] = n;
            }
            let mut r = t.span("serve.bind", NO_ID, |_| Running::start(out_dir))?;
            fills.clear();
            for &c in rank.iter().take(warm_cap) {
                let job = Job {
                    cell: c,
                    warmup: warmup_for(&cells[c]),
                };
                fills.push(run_job(&mut r.conns[0], &cells, job, NO_ID, t));
            }
            Ok(r)
        })?;
        setup_times.push(t0.elapsed().as_secs_f64());
        running = Some(r);
    }
    let mut running = running.expect("SETUP_REPS > 0");

    // Timed window: a closed loop per connection over the shared job
    // sequence, until the time is up, at least MIN_JOBS are done, and
    // the current round is complete. `next` is (next job index,
    // stopped); the stop decision is taken under its lock, so no client
    // starts a job past a round's end.
    let next = Mutex::new((0usize, false));
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let take = || {
        let mut g = next.lock().expect("job counter lock");
        let i = g.0;
        let time_up = i >= MIN_JOBS && i.is_multiple_of(round) && Instant::now() >= deadline;
        if g.1 || i >= jobs.len() || time_up {
            g.1 = true;
            return None;
        }
        g.0 += 1;
        Some(i)
    };
    let client = |conn: &mut Connection, t: &mut Tracer| {
        let mut done = Vec::new();
        while let Some(i) = take() {
            done.push(run_job(conn, &cells, jobs[i], i as u64 + 1, t));
        }
        done
    };
    let (first, rest) = running.conns.split_at_mut(1);
    let mut t2 = Tracer::new(t.on(), t.epoch(), 2);
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let other = s.spawn(|| client(&mut rest[0], &mut t2));
        let mut all = client(&mut first[0], t);
        all.extend(other.join().expect("client thread"));
        all
    });
    let window_s = epoch.elapsed().as_secs_f64();
    t.absorb(t2);
    running.stop();

    // Correctness: each distinct served cell once in batch, then every
    // Done document against it byte for byte, and against its pin.
    let mut used: Vec<usize> = outcomes.iter().chain(&fills).map(|o| o.cell).collect();
    used.sort_unstable();
    used.dedup();
    let mut reference: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    let mut chunk_sets = Vec::new();
    for &c in &used {
        let id = 100_000 + c as u64;
        match t.span("cell", id, |t| batch::execute(&cells[c], t, id)) {
            Ok(exec) => {
                rep.check(|| pins::check(&format!("served/{}", cells[c].label), &exec.json));
                chunk_sets.push(exec.chunks.clone());
                reference[c] = Some(CellResult {
                    cell: cells[c].clone(),
                    exec,
                    refs: refs[c],
                });
            }
            Err(e) => rep.fail(format!("{}: batch reference failed: {e}", cells[c].label)),
        }
    }
    for o in outcomes.iter().chain(&fills) {
        let label = &cells[o.cell].label;
        rep.check(|| match (&o.json, &reference[o.cell]) {
            (Err(e), _) => Err(format!("served {label}: {e}")),
            (Ok(j), Some(r)) if *j == r.exec.json => Ok(()),
            (Ok(_), Some(_)) => Err(format!("served {label}: Done differs from the batch run")),
            (Ok(_), None) => Err(format!("served {label}: no batch reference")),
        });
    }

    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.json.is_ok()).collect();
    let refs_sum: u64 = ok.iter().map(|o| refs[o.cell]).sum();
    let pcycles: u64 = ok
        .iter()
        .filter_map(|o| reference[o.cell].as_ref())
        .map(|r| r.exec.metrics.exec_time)
        .sum();
    let lat: Vec<f64> = ok.iter().map(|o| o.total_ns as f64 / 1e6).collect();
    let ms_of = |f: &dyn Fn(&&Outcome) -> bool| -> Vec<f64> {
        ok.iter()
            .filter(|o| f(o))
            .map(|o| o.total_ns as f64 / 1e6)
            .collect()
    };
    let results: Vec<CellResult> = reference.into_iter().flatten().collect();
    if pins::emitting() {
        for r in &results {
            println!(
                "served cell events: (\"{}\", {}),",
                r.cell.label, r.exec.events
            );
        }
    }
    let n = lat.len();

    if t.on() {
        rep.layer(
            "trace.sim_refs_per_s",
            refs_sum as f64 / window_s,
            "1/s",
            Clock::Host,
        );
        rep.note("trace.sim_refs_per_s", format!("{n} jobs"));
        let admit: Vec<f64> = ok.iter().map(|o| o.admit_ns as f64 / 1e6).collect();
        let cold = ms_of(&|o| o.warmup == 0);
        let hits = ms_of(&|o| o.warm_hit);
        let warm_tries = ok.iter().filter(|o| o.warmup > 0).count();
        rep.layer("serve.admit_ms", median(&admit), "ms", Clock::Host);
        rep.layer("serve.cold_p50_ms", median(&cold), "ms", Clock::Host);
        rep.note("serve.cold_p50_ms", format!("n={}", cold.len()));
        rep.layer("serve.warm_p50_ms", median(&hits), "ms", Clock::Host);
        rep.note("serve.warm_p50_ms", format!("n={}", hits.len()));
        rep.layer(
            "serve.warm_hit_ratio",
            hits.len() as f64 / warm_tries.max(1) as f64,
            "ratio",
            Clock::Host,
        );
        let frames: u64 = ok.iter().map(|o| o.frames).sum();
        rep.layer(
            "serve.frames_per_job",
            frames as f64 / n.max(1) as f64,
            "frames",
            Clock::Sim,
        );
        layers::sim_layers(&results, rep);
        layers::engine_layers(&chunk_sets, rep);
        let canary = canary();
        let canary_exec = results
            .iter()
            .find(|r| r.cell.label == canary.label)
            .map(|r| &r.exec)
            .ok_or("canary cell was not served")?;
        layers::kernels("served", &results, &cells, &canary, canary_exec, t, rep);
    } else {
        rep.e2e(
            "sim_refs_per_s",
            refs_sum as f64 / window_s,
            "1/s",
            Clock::Host,
        );
        rep.note("sim_refs_per_s", format!("{n} jobs over {window_s:.2} s"));
        rep.e2e(
            "sim_pcycles_per_s",
            pcycles as f64 / window_s,
            "pcycles/s",
            Clock::Host,
        );
        rep.e2e("setup_s", median(&setup_times), "s", Clock::Host);
        rep.note("setup_s", format!("median of {SETUP_REPS} set-ups"));
        rep.e2e(
            "nwcache_gain_pct",
            batch::gain_pct(&results),
            "%",
            Clock::Sim,
        );
        rep.e2e("job_p50_ms", median(&lat), "ms", Clock::Host);
        rep.note("job_p50_ms", format!("n={n}"));
        rep.e2e("job_p95_ms", percentile(&lat, 95.0), "ms", Clock::Host);
        rep.note(
            "job_p95_ms",
            format!("n={n}, {} beyond", n - (0.95 * n as f64).ceil() as usize),
        );
        rep.e2e("jobs_per_s", n as f64 / window_s, "1/s", Clock::Host);
    }
    Ok(())
}
