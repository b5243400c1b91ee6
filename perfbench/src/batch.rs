//! Cells, and the two batch workloads: `paper` and `ooc_write`.
//!
//! A cell is one `(machine config, workload)` pair, lowered through
//! [`RunParams::to_config`] exactly as `nwsim run` and the server lower
//! a request. A timed call is one [`Machine::try_run`] (or, when
//! tracing, the chain of [`Machine::try_run_events`] chunks that
//! replaces it) on a freshly built machine; building the workload and
//! the machine happens before the clock starts.

use crate::layers;
use crate::pins;
use crate::report::{Clock, Report};
use crate::spans::Tracer;
use crate::stats::median;
use nw_apps::{Action, AppId};
use nw_sim::Pcg32;
use nwcache::{
    AppSel, Machine, MachineConfig, MachineKind, PrefetchMode, RunMetrics, RunOutcome, RunParams,
    SimError,
};
use std::time::{Duration, Instant};

/// The paper's own seed (`MachineConfig::paper_default`): the seed the
/// correctness pins and EXPERIMENTS.md's reference numbers are for.
pub const DEFAULT_SEED: u64 = 0x1999;

/// The write-heavy out-of-core scenario: a Zipf working set 3.6× the
/// paper machine's memory plus ring, 90% writes. `acc` is fixed here
/// because host cost grows faster than linearly in it.
pub const OOC_SPEC: &str = "workload:gen:zipf:0.8,ws=2304,wf=0.9,acc=1000";

/// Independent instances of the scenario per run, each with its own
/// seed derived from the run's seed. One instance's results swing with
/// its random access sequence (NWCache gain 4–13% over ten seeds); the
/// mean over many is steady.
pub const OOC_INSTANCES: u64 = 12;

/// Events per timed `try_run_events` chunk.
const CHUNK_EVENTS: u64 = 2_000;

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPS: usize = 3;

/// Span id used for work that belongs to no cell or job.
pub const NO_ID: u64 = 0;

/// Paper Table 7, naive column: NWCache ring read hit rate (%) per app.
const PAPER_RING_HIT_NAIVE: [(AppId, f64); 7] = [
    (AppId::Em3d, 8.5),
    (AppId::Fft, 9.8),
    (AppId::Gauss, 49.9),
    (AppId::Lu, 13.5),
    (AppId::Mg, 41.1),
    (AppId::Radix, 17.2),
    (AppId::Sor, 25.8),
];

#[derive(Clone)]
pub struct Cell {
    /// `<workload>/<machine>`, e.g. `gauss/nwcache`.
    pub label: String,
    /// Workload spec in `AppSel::parse` syntax (what a job would send).
    pub spec: String,
    pub cfg: MachineConfig,
    pub sel: AppSel,
}

impl Cell {
    pub fn new(name: &str, spec: &str, kind: MachineKind, scale: f64, seed: Option<u64>) -> Cell {
        let cfg = RunParams {
            machine: kind,
            prefetch: PrefetchMode::Naive,
            prefetch_window: None,
            scale,
            seed,
            topo: None,
        }
        .to_config()
        .expect("benchmark cells are valid configurations");
        Cell {
            label: format!("{name}/{}", machine_label(kind)),
            spec: spec.to_string(),
            cfg,
            sel: AppSel::parse(spec).expect("benchmark workload specs parse"),
        }
    }

    pub fn machine(&self) -> &'static str {
        machine_label(self.cfg.kind)
    }

    /// A fresh machine loaded with this cell's workload.
    pub fn machine_new(&self) -> Result<Machine, SimError> {
        Machine::try_from_build(self.cfg.clone(), self.sel.build(&self.cfg)?)
    }

    /// Memory references in this cell's workload (drains a fresh build).
    pub fn count_refs(&self) -> Result<u64, SimError> {
        let build = self.sel.build(&self.cfg)?;
        Ok(build
            .streams
            .into_iter()
            .map(|s| {
                s.filter(|a| matches!(a, Action::Read(_) | Action::Write(_)))
                    .count() as u64
            })
            .sum())
    }
}

pub fn machine_label(kind: MachineKind) -> &'static str {
    match kind {
        MachineKind::Standard => "standard",
        MachineKind::NwCache => "nwcache",
        MachineKind::Dcd => "dcd",
    }
}

/// Each `(name, spec)` on the standard and the NWCache machine, in that
/// order: cells `2k` and `2k + 1` share one workload build.
pub fn pairs(workloads: &[(&str, &str)], scale: f64, seed: Option<u64>) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|&(name, spec)| {
            [MachineKind::Standard, MachineKind::NwCache]
                .map(|kind| Cell::new(name, spec, kind, scale, seed))
        })
        .collect()
}

pub fn paper_cells(scale: f64, seed: Option<u64>) -> Vec<Cell> {
    let apps: Vec<(&str, &str)> = AppId::ALL.iter().map(|a| (a.name(), a.name())).collect();
    pairs(&apps, scale, seed)
}

/// The untimed set-up cell of `paper`, always at the default seed so
/// its pin is checked on every run.
pub fn paper_canary() -> Cell {
    Cell::new("lu", "lu", MachineKind::NwCache, 1.0, Some(DEFAULT_SEED))
}

/// The untimed set-up cell of `ooc_write`, at the default seed.
pub fn ooc_canary() -> Cell {
    Cell::new(
        "ooc.0",
        OOC_SPEC,
        MachineKind::Standard,
        1.0,
        Some(DEFAULT_SEED),
    )
}

/// `OOC_INSTANCES` instances of the scenario; instance 0 uses `seed`.
pub fn ooc_cells(seed: u64) -> Vec<Cell> {
    (0..OOC_INSTANCES)
        .flat_map(|k| {
            let name = format!("ooc.{k}");
            let s = seed.wrapping_add(k.wrapping_mul(1_000_003));
            pairs(&[(&name, OOC_SPEC)], 1.0, Some(s))
        })
        .collect()
}

/// One executed cell.
pub struct Exec {
    pub metrics: RunMetrics,
    pub json: String,
    pub events: u64,
    /// `(events, host ns)` per timed chunk.
    pub chunks: Vec<(u64, u64)>,
}

/// Build a machine for `cell` (untimed) and run it to completion in
/// timed `Machine::try_run_events` chunks of `CHUNK_EVENTS` events.
/// The simulation is deterministic, so the k-th chunk of a cell is the
/// same work in every execution.
pub fn execute(cell: &Cell, t: &mut Tracer, id: u64) -> Result<Exec, SimError> {
    let mut m = t.span("machine.new", id, |_| cell.machine_new())?;
    let mut chunks = Vec::new();
    let metrics = loop {
        let before = m.events_dispatched();
        let t0 = Instant::now();
        let out = t.span("machine.try_run_events", id, |_| {
            m.try_run_events(CHUNK_EVENTS)
        })?;
        chunks.push((
            m.events_dispatched() - before,
            t0.elapsed().as_nanos() as u64,
        ));
        if let RunOutcome::Done(metrics) = out {
            break *metrics;
        }
    };
    let json = t.span("summary.to_json", id, |_| metrics.summary().to_json());
    Ok(Exec {
        metrics,
        json,
        events: m.events_dispatched(),
        chunks,
    })
}

/// The first execution of each cell: its output, its event count and
/// its workload's reference count.
pub struct CellResult {
    pub cell: Cell,
    pub exec: Exec,
    pub refs: u64,
}

/// Everything before the first timed call: build every workload and
/// count its references, construct every machine, and run the canary
/// cell untimed. Returns the reference count per cell and the canary.
fn setup_once(cells: &[Cell], canary: &Cell, t: &mut Tracer) -> Result<(Vec<u64>, Exec), SimError> {
    t.span("setup", NO_ID, |t| {
        let mut refs: Vec<u64> = Vec::with_capacity(cells.len());
        for (i, c) in cells.iter().enumerate() {
            let id = i as u64 + 1;
            let r = match i % 2 {
                1 => refs[i - 1],
                _ => t.span("workload.build", id, |_| c.count_refs())?,
            };
            refs.push(r);
            t.span("machine.new", id, |_| c.machine_new())?;
        }
        let warm = t.span("warmup.cell", NO_ID, |t| execute(canary, t, NO_ID))?;
        Ok((refs, warm))
    })
}

/// Set up `SETUP_REPS` times; returns the last set-up and the median
/// set-up time in seconds. Checks the canary against its pin each time.
pub fn setup(
    cells: &[Cell],
    canary: &Cell,
    workload: &str,
    t: &mut Tracer,
    rep: &mut Report,
) -> Result<(Vec<u64>, Exec, f64), SimError> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let out = setup_once(cells, canary, t)?;
        times.push(t0.elapsed().as_secs_f64());
        let label = format!("{workload}/canary/{}", canary.label);
        rep.check(|| pins::check(&label, &out.1.json));
        last = Some(out);
    }
    let (refs, canary_exec) = last.expect("SETUP_REPS > 0");
    Ok((refs, canary_exec, median(&times)))
}

/// Run the batch workload `workload` over `cells` for `seconds`, then
/// compute its end-to-end and (when tracing) per-layer metrics.
pub fn run(
    workload: &'static str,
    cells: Vec<Cell>,
    canary: Cell,
    seed: u64,
    seconds: f64,
    t: &mut Tracer,
    rep: &mut Report,
) -> Result<(), SimError> {
    let (refs, canary_exec, setup_s) = setup(&cells, &canary, workload, t, rep)?;

    // Timed passes: every cell once per pass, in a seeded order, until
    // the time is up. The first pass always completes. Each chunk keeps
    // its fastest time over the passes: interference from other tenants
    // of the host only ever slows a chunk, and it comes in bursts of
    // about a second, so the fastest of a few passes filters it.
    let n = cells.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rng = Pcg32::new(seed, 0x00B3_7C4E);
    let mut best: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut calls = 0usize;
    let mut first: Vec<Option<Exec>> = (0..n).map(|_| None).collect();
    let mut chunk_sets: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut id = 1000u64;
    'passes: for pass in 0.. {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            if pass > 0 && Instant::now() >= deadline {
                break 'passes;
            }
            id += 1;
            let cell = &cells[i];
            rep.attempted += 1;
            let ex = match t.span("cell", id, |t| execute(cell, t, id)) {
                Ok(ex) => ex,
                Err(e) => {
                    rep.fail(format!("{}: {e}", cell.label));
                    continue;
                }
            };
            calls += 1;
            if best[i].is_empty() {
                best[i] = ex.chunks.iter().map(|c| c.1).collect();
            } else if best[i].len() == ex.chunks.len() {
                for (b, c) in best[i].iter_mut().zip(&ex.chunks) {
                    *b = (*b).min(c.1);
                }
            }
            if t.on() {
                chunk_sets.push(ex.chunks.clone());
            }
            match &first[i] {
                Some(f) if f.json != ex.json || f.chunks.len() != ex.chunks.len() => {
                    rep.fail(format!(
                        "{}: output differs between two runs of the same cell",
                        cell.label
                    ))
                }
                Some(_) => {}
                None => {
                    if seed == DEFAULT_SEED {
                        let label = format!("{workload}/{}", cell.label);
                        if let Err(e) = pins::check(&label, &ex.json) {
                            rep.fail(e);
                        }
                    }
                    first[i] = Some(ex);
                }
            }
        }
    }

    let results: Vec<CellResult> = cells
        .into_iter()
        .zip(first)
        .zip(refs)
        .filter_map(|((cell, exec), refs)| exec.map(|exec| CellResult { cell, exec, refs }))
        .collect();
    let host_s = best.iter().flatten().sum::<u64>() as f64 / 1e9;
    let refs_sum: u64 = results.iter().map(|r| r.refs).sum();
    let pcycles: u64 = results.iter().map(|r| r.exec.metrics.exec_time).sum();

    let rate = refs_sum as f64 / host_s;
    let calls_note =
        format!("{calls} runs of {n} cells; fastest time of each {CHUNK_EVENTS}-event chunk");
    if t.on() {
        rep.layer("trace.sim_refs_per_s", rate, "1/s", Clock::Host);
        rep.note("trace.sim_refs_per_s", calls_note);
        layers::sim_layers(&results, rep);
        layers::engine_layers(&chunk_sets, rep);
        let kernel_cells = match workload {
            "paper" => paper_cells(1.0, Some(DEFAULT_SEED)),
            _ => ooc_cells(DEFAULT_SEED),
        };
        layers::kernels(
            workload,
            &results,
            &kernel_cells,
            &canary,
            &canary_exec,
            t,
            rep,
        );
        return Ok(());
    }
    rep.e2e("sim_refs_per_s", rate, "1/s", Clock::Host);
    rep.note("sim_refs_per_s", calls_note);
    let pc_rate = pcycles as f64 / host_s;
    rep.e2e("sim_pcycles_per_s", pc_rate, "pcycles/s", Clock::Host);
    rep.e2e("setup_s", setup_s, "s", Clock::Host);
    rep.note("setup_s", format!("median of {SETUP_REPS} set-ups"));
    rep.e2e("nwcache_gain_pct", gain_pct(&results), "%", Clock::Sim);
    if workload == "paper" {
        let err = hit_rate_err_pp(&results);
        rep.e2e("hit_rate_err_pp", err, "pp", Clock::Sim);
    }
    Ok(())
}

/// Mean over machine pairs of (standard − NWCache) ÷ standard exec time.
pub fn gain_pct(results: &[CellResult]) -> f64 {
    let mut gains = Vec::new();
    for std in results
        .iter()
        .filter(|r| r.cell.cfg.kind == MachineKind::Standard)
    {
        let name = std.cell.label.split('/').next().unwrap_or_default();
        if let Some(nwc) = results
            .iter()
            .find(|r| r.cell.label == format!("{name}/nwcache"))
        {
            gains.push(nwc.exec.metrics.improvement_over(&std.exec.metrics));
        }
    }
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// Mean absolute gap between each app's NWCache ring hit rate and the
/// paper's Table 7 naive column.
fn hit_rate_err_pp(results: &[CellResult]) -> f64 {
    let gaps: Vec<f64> = PAPER_RING_HIT_NAIVE
        .iter()
        .filter_map(|(app, paper)| {
            let label = format!("{}/nwcache", app.name());
            results
                .iter()
                .find(|r| r.cell.label == label)
                .map(|r| (r.exec.metrics.ring_hit_rate() - paper).abs())
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}
