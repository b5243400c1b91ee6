//! Per-layer metrics.
//!
//! Three kinds, all from the traced run:
//! * simulated counts and ratios per layer, from the cells' `RunMetrics`
//!   (deterministic for a seed);
//! * the engine's host cost per event, from the timed
//!   `Machine::try_run_events` chunks;
//! * layer kernels: each layer's public entry points driven directly
//!   with inputs taken from the workload itself (its own reference
//!   lines, pages and topology), timed per operation. Each kernel's
//!   checksum is pinned, and must repeat on every pass.

use crate::batch::{Cell, CellResult, Exec, NO_ID};
use crate::pins;
use crate::report::{Clock, Report};
use crate::spans::Tracer;
use crate::stats::{fnv64, fold};
use nw_apps::Action;
use nw_disk::{DiskController, DiskControllerConfig, Mechanics, PrefetchPolicy};
use nw_memhier::{
    Cache, CacheConfig, Directory, LookupResult, ReadOutcome as DirRead, LINES_PER_PAGE,
};
use nw_mesh::{Mesh, MeshConfig};
use nw_optical::{OpticalRing, RingConfig};
use nw_server::proto::{self, JobSpec, Request, Response};
use nwcache::checkpoint::{machine_from_bytes, machine_to_bytes};
use nwcache::MachineKind;
use std::time::Instant;

/// Each kernel repeats whole passes over its input until it has run
/// this long (and at least `MIN_PASSES` times); the fastest pass is
/// used, as for the timed chunks of a cell.
const KERNEL_NS: u64 = 300_000_000;
const MIN_PASSES: usize = 3;

/// At most this many references per workload build feed the kernels.
const KERNEL_REFS_PER_BUILD: usize = 60_000;
/// At most this many page transitions feed the disk and ring kernels.
const KERNEL_PAGES: usize = 50_000;

/// Simulated per-layer metrics, pooled over the workload's cells (one
/// execution each).
pub fn sim_layers(results: &[CellResult], rep: &mut Report) {
    let sum = |f: &dyn Fn(&CellResult) -> u64| results.iter().map(f).sum::<u64>();
    let refs = sum(&|r| r.refs);
    let events = sum(&|r| r.exec.events);
    rep.layer("workload.refs", refs as f64, "count", Clock::Sim);
    rep.layer("machine.events", events as f64, "count", Clock::Sim);
    rep.layer(
        "machine.events_per_ref",
        events as f64 / refs.max(1) as f64,
        "ratio",
        Clock::Sim,
    );

    let l2 = results
        .iter()
        .map(|r| r.refs as f64 * r.exec.metrics.l2_miss_ratio)
        .sum::<f64>()
        / refs.max(1) as f64;
    rep.layer("memhier.l2_miss_ratio", l2, "ratio", Clock::Sim);
    rep.layer(
        "memhier.shootdowns",
        sum(&|r| r.exec.metrics.shootdowns) as f64,
        "count",
        Clock::Sim,
    );

    rep.layer(
        "mesh.messages",
        sum(&|r| r.exec.metrics.mesh_messages) as f64,
        "count",
        Clock::Sim,
    );
    rep.layer(
        "mesh.bytes",
        sum(&|r| r.exec.metrics.mesh_bytes) as f64,
        "B",
        Clock::Sim,
    );
    let util = results
        .iter()
        .map(|r| r.exec.metrics.mesh_utilization)
        .sum::<f64>()
        / results.len().max(1) as f64;
    rep.layer("mesh.utilization", util, "ratio", Clock::Sim);

    rep.layer(
        "disk.read_hits",
        sum(&|r| r.exec.metrics.disk_read_hits) as f64,
        "count",
        Clock::Sim,
    );
    rep.layer(
        "disk.read_misses",
        sum(&|r| r.exec.metrics.disk_read_misses) as f64,
        "count",
        Clock::Sim,
    );
    rep.layer(
        "disk.swap_nacks",
        sum(&|r| r.exec.metrics.swap_nacks) as f64,
        "count",
        Clock::Sim,
    );
    let mut combining = nw_sim::stats::Tally::new();
    let mut swap_out = nw_sim::stats::Tally::new();
    let mut ring_fault = nw_sim::stats::Tally::new();
    for r in results {
        combining.merge(&r.exec.metrics.write_combining);
        swap_out.merge(&r.exec.metrics.swap_out_time);
        ring_fault.merge(&r.exec.metrics.fault_latency_ring);
    }
    rep.layer(
        "disk.write_combining",
        combining.mean(),
        "pages/write",
        Clock::Sim,
    );
    rep.layer(
        "disk.swap_out_mean_pc",
        swap_out.mean(),
        "pcycles",
        Clock::Sim,
    );

    let nwc: Vec<&CellResult> = results
        .iter()
        .filter(|r| r.cell.cfg.kind == MachineKind::NwCache)
        .collect();
    let hits: u64 = nwc.iter().map(|r| r.exec.metrics.ring_hits).sum();
    let misses: u64 = nwc.iter().map(|r| r.exec.metrics.ring_misses).sum();
    rep.layer("ring.hits", hits as f64, "count", Clock::Sim);
    rep.layer(
        "ring.hit_rate",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        "%",
        Clock::Sim,
    );
    let peak = nwc
        .iter()
        .map(|r| r.exec.metrics.ring_peak_pages)
        .max()
        .unwrap_or(0);
    rep.layer("ring.peak_pages", peak as f64, "pages", Clock::Sim);
    rep.layer(
        "ring.fault_mean_pc",
        ring_fault.mean(),
        "pcycles",
        Clock::Sim,
    );

    rep.layer(
        "vm.page_faults",
        sum(&|r| r.exec.metrics.page_faults) as f64,
        "count",
        Clock::Sim,
    );
    rep.layer(
        "vm.swap_outs",
        sum(&|r| r.exec.metrics.swap_outs) as f64,
        "count",
        Clock::Sim,
    );
    rep.layer(
        "vm.fault_p99_pc",
        pooled_fault_p99(results) as f64,
        "pcycles",
        Clock::Sim,
    );
    let (mut fault, mut all) = (0u64, 0u64);
    for r in results {
        let b = r.exec.metrics.total_breakdown();
        fault += b.fault;
        all += b.no_free + b.transit + b.fault + b.tlb + b.other;
    }
    rep.layer(
        "vm.fault_share",
        fault as f64 / all.max(1) as f64,
        "ratio",
        Clock::Sim,
    );
}

/// 99th percentile of the fault-latency histograms of all cells pooled,
/// by the same log2-bucket rule as `Histogram::percentile`.
fn pooled_fault_p99(results: &[CellResult]) -> u64 {
    let mut buckets = [0u64; 64];
    for r in results {
        for (i, b) in buckets.iter_mut().enumerate() {
            *b += r.exec.metrics.fault_hist.bucket(i);
        }
    }
    let n: u64 = buckets.iter().sum();
    let target = ((0.99 * n as f64).ceil() as u64).clamp(1, n.max(1));
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if c > 0 && seen >= target {
            return if i == 0 { 0 } else { 1u64 << i };
        }
    }
    0
}

/// Host cost of the event loop, from the traced chunks of every timed
/// call: ns per event overall, and the tail ratio (ns/event in the last
/// tenth of each call's chunks ÷ the first tenth, pooled over calls).
pub fn engine_layers(chunk_sets: &[Vec<(u64, u64)>], rep: &mut Report) {
    let (mut ev, mut ns) = (0u64, 0u64);
    let (mut head, mut tail) = ((0u64, 0u64), (0u64, 0u64));
    for chunks in chunk_sets.iter().filter(|c| !c.is_empty()) {
        let tenth = (chunks.len() / 10).max(1);
        for &(e, n) in chunks {
            ev += e;
            ns += n;
        }
        for &(e, n) in &chunks[..tenth] {
            head.0 += e;
            head.1 += n;
        }
        for &(e, n) in &chunks[chunks.len() - tenth..] {
            tail.0 += e;
            tail.1 += n;
        }
    }
    let per = |(e, n): (u64, u64)| n as f64 / e.max(1) as f64;
    rep.layer("machine.ns_per_event", per((ev, ns)), "ns", Clock::Host);
    rep.layer(
        "machine.ns_per_event_tail",
        per(tail) / per(head),
        "ratio",
        Clock::Host,
    );
    rep.note(
        "machine.ns_per_event",
        format!(
            "{} chunks over {} timed calls",
            chunk_sets.iter().map(Vec::len).sum::<usize>(),
            chunk_sets.len()
        ),
    );
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One memory reference: (processor, cache line, is-write).
type Ref = (u32, u64, bool);

/// Up to `KERNEL_REFS_PER_BUILD` references of each distinct workload
/// build among `cells`, interleaved across processors.
fn kernel_refs(cells: &[Cell]) -> Vec<Ref> {
    let mut out = Vec::new();
    for cell in cells.iter().step_by(2) {
        let build = cell.sel.build(&cell.cfg).expect("kernel workloads build");
        let procs = build.streams.len();
        let per_proc = KERNEL_REFS_PER_BUILD / procs.max(1);
        let streams: Vec<Vec<Ref>> = build
            .streams
            .into_iter()
            .enumerate()
            .map(|(p, s)| {
                s.filter_map(|a| match a {
                    Action::Read(l) => Some((p as u32, l, false)),
                    Action::Write(l) => Some((p as u32, l, true)),
                    _ => None,
                })
                .take(per_proc)
                .collect()
            })
            .collect();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            out.extend(streams.iter().filter_map(|s| s.get(k)));
        }
    }
    out
}

/// Time whole passes of a kernel; returns ns per operation of the
/// fastest pass.
/// Every pass must return the same checksum, which is also pinned.
fn kernel(
    workload: &str,
    name: &'static str,
    ops: u64,
    t: &mut Tracer,
    rep: &mut Report,
    mut pass: impl FnMut() -> u64,
) -> f64 {
    t.span(name, NO_ID, |_| {
        let mut times = Vec::new();
        let mut sums = Vec::new();
        let started = Instant::now();
        while times.len() < MIN_PASSES || (started.elapsed().as_nanos() as u64) < KERNEL_NS {
            let t0 = Instant::now();
            sums.push(std::hint::black_box(pass()));
            times.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
        }
        let label = format!("{workload}/kernel/{name}");
        rep.check(|| {
            if sums.iter().any(|&s| s != sums[0]) {
                return Err(format!("{label}: checksum differs between passes"));
            }
            pins::check(&label, &format!("{:016x}", sums[0]))
        });
        fastest(&times)
    })
}

/// Run every layer kernel on inputs from `kernel_cells` (the workload at
/// the default seed) and the canary cell, and record their metrics.
pub fn kernels(
    wl: &str,
    results: &[CellResult],
    kernel_cells: &[Cell],
    canary: &Cell,
    canary_exec: &Exec,
    t: &mut Tracer,
    rep: &mut Report,
) {
    let cfg = &kernel_cells[0].cfg;

    // apps / workload: drain a second build of the same cells.
    let refs: u64 = results.iter().step_by(2).map(|r| r.refs).sum();
    let gen_ns = t.span("workload.gen", NO_ID, |_| {
        let t0 = Instant::now();
        for r in results.iter().step_by(2) {
            let n = r.cell.count_refs().expect("workload rebuilds");
            rep.check(|| {
                (n == r.refs).then_some(()).ok_or(format!(
                    "{}: second build has {n} refs, first {}",
                    r.cell.label, r.refs
                ))
            });
        }
        t0.elapsed().as_nanos() as f64
    });
    rep.layer(
        "workload.gen_ns_per_ref",
        gen_ns / refs.max(1) as f64,
        "ns",
        Clock::Host,
    );

    let input = kernel_refs(kernel_cells);
    let n = input.len() as u64;
    let nodes = cfg.nodes;

    let probe = kernel(wl, "memhier.probe", n, t, rep, || {
        let mut caches: Vec<(Cache, Cache)> = (0..nodes)
            .map(|_| {
                (
                    Cache::new(CacheConfig::l1_default()),
                    Cache::new(CacheConfig::l2_default()),
                )
            })
            .collect();
        let mut sum = 0u64;
        for &(p, line, w) in &input {
            let (l1, l2) = &mut caches[p as usize];
            let v = match l1.access(line, w) {
                LookupResult::Hit => 1,
                LookupResult::Miss => match l2.access(line, w) {
                    LookupResult::Hit => {
                        l1.fill(line, w);
                        2
                    }
                    LookupResult::Miss => {
                        let ev = l2.fill(line, w).map_or(0, |e| e.line * 2 + e.dirty as u64);
                        l1.fill(line, w);
                        3 + ev
                    }
                },
            };
            sum = fold(sum, v);
        }
        sum
    });
    rep.layer("memhier.probe_ns", probe, "ns", Clock::Host);

    let dir_ns = kernel(wl, "memhier.dir", n, t, rep, || {
        let mut dir = Directory::new();
        let mut sum = 0u64;
        for &(p, line, w) in &input {
            let v = if w {
                let o = dir.write(line, p);
                o.invalidate as u64 + o.fetch_from.map_or(0, |f| 1 + f as u64)
            } else {
                match dir.read(line, p) {
                    DirRead::FromMemory => 1,
                    DirRead::FromMemoryShared => 2,
                    DirRead::FromOwner { owner } => 3 + owner as u64,
                }
            };
            sum = fold(sum, v);
        }
        sum
    });
    rep.layer("memhier.dir_ns", dir_ns, "ns", Clock::Host);

    let (width, height) = cfg.mesh_dims();
    let send_ns = kernel(wl, "mesh.send", n, t, rep, || {
        let mut mesh = Mesh::new(MeshConfig {
            width,
            height,
            ..MeshConfig::paper_default()
        });
        let mut now = 0u64;
        let mut sum = 0u64;
        for &(p, line, w) in &input {
            let home = ((line / LINES_PER_PAGE) % nodes as u64) as u32;
            now += 20;
            let d = mesh.send(now, p, home, if w { 72 } else { 64 });
            sum = fold(sum, d.arrival - now);
        }
        sum
    });
    rep.layer("mesh.send_ns", send_ns, "ns", Clock::Host);

    // Distinct consecutive pages of the reference stream: the page
    // traffic a disk controller and the ring see.
    let mut pages: Vec<(u32, u64)> = input
        .iter()
        .map(|&(p, l, _)| (p, l / LINES_PER_PAGE))
        .collect();
    pages.dedup_by_key(|x| x.1);
    pages.truncate(KERNEL_PAGES);
    let np = pages.len() as u64;
    let dcfg = DiskControllerConfig {
        cache_pages: cfg.disk_cache_pages,
        policy: PrefetchPolicy::Naive,
        flush_delay: cfg.disk_flush_delay,
        spec_cache_pages: cfg.prefetch_window.max(2),
    };
    let ctrl_ns = kernel(wl, "disk.ctrl", np, t, rep, || {
        let mut d = DiskController::new(dcfg, Mechanics::paper_default());
        let mut now = 0u64;
        let mut sum = 0u64;
        for w in pages.windows(2) {
            let ((node, out), (_, inp)) = (w[0], w[1]);
            now += 100_000;
            let v = match d.write_page(now, out, out, node) {
                nw_disk::controller::WriteOutcome::Ack { flush_check_at } => d
                    .try_flush(flush_check_at)
                    .map_or(1, |f| f.pages + f.done_at - now),
                nw_disk::controller::WriteOutcome::Nack => 2,
            };
            let r = match d.read_page(now, inp, inp) {
                nw_disk::controller::ReadOutcome::Hit { ready_at } => ready_at - now,
                nw_disk::controller::ReadOutcome::Miss { ready_at } => 7 + ready_at - now,
            };
            sum = fold(fold(sum, v), r);
        }
        sum
    });
    rep.layer("disk.ctrl_ns", ctrl_ns, "ns", Clock::Host);

    let ring_cfg = RingConfig {
        channels: cfg.ring_channels,
        slots_per_channel: cfg.ring_slots_per_channel,
        round_trip: cfg.ring_round_trip,
        ..RingConfig::paper_default()
    };
    let peak = results
        .iter()
        .map(|r| r.exec.metrics.ring_peak_pages)
        .max()
        .unwrap_or(0);
    let ring_ns = kernel(wl, "ring.op", np, t, rep, || {
        let mut ring = OpticalRing::new(ring_cfg);
        // Pre-load to the workload's peak occupancy, leaving one free
        // slot per channel for the cycled page.
        let per_ch = (peak / ring_cfg.channels.max(1)).min(ring_cfg.slots_per_channel - 1);
        for ch in 0..ring_cfg.channels {
            for s in 0..per_ch {
                let _ = ring.insert(0, ch, u64::MAX / 2 + (ch * 1024 + s) as u64);
            }
        }
        let mut now = 1_000u64;
        let mut sum = 0u64;
        for &(_, page) in &pages {
            let ch = (page % ring_cfg.channels as u64) as usize;
            now += 37;
            let ins = ring.insert(now, ch, page).map_or(1, |t| t - now);
            let snoop = ring.snoop_ready(now + 11, ch, page).map_or(0, |t| t - now);
            let rm = ring.remove(ch, page) as u64;
            sum = fold(sum, ins ^ (snoop << 1) ^ rm);
        }
        sum
    });
    rep.layer("ring.op_ns", ring_ns, "ns", Clock::Host);

    // core::checkpoint: the canary paused half way through its run.
    let mut m = canary.machine_new().expect("canary builds");
    m.try_run_events(canary_exec.events / 2)
        .expect("canary runs");
    let (mut save, mut restore) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    t.span("ckpt", NO_ID, |t| {
        let started = Instant::now();
        while save.len() < MIN_PASSES || (started.elapsed().as_nanos() as u64) < KERNEL_NS {
            let t0 = Instant::now();
            bytes = t.span("ckpt.save", NO_ID, |_| machine_to_bytes(&canary.spec, &m));
            save.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let back = t.span("ckpt.restore", NO_ID, |_| machine_from_bytes(&bytes));
            restore.push(t0.elapsed().as_secs_f64() * 1e3);
            let label = format!("{wl}/kernel/ckpt");
            rep.check(|| {
                back.map_err(|e| format!("{label}: restore failed: {e}"))?;
                pins::check(&label, &format!("{:016x}", fnv64(&bytes)))
            });
        }
    });
    rep.layer("ckpt.bytes", bytes.len() as f64, "B", Clock::Sim);
    rep.layer("ckpt.save_ms", fastest(&save), "ms", Clock::Host);
    rep.layer("ckpt.restore_ms", fastest(&restore), "ms", Clock::Host);

    // core::metrics: render the canary's summary.
    let json_ns = kernel(wl, "summary.json", 1, t, rep, || {
        fnv64(canary_exec.metrics.summary().to_json().as_bytes())
    });
    rep.layer("summary.json_us", json_ns / 1e3, "us", Clock::Host);

    // nwserve-v1: the request that would submit the canary, and its Done.
    let request = Request::Submit(JobSpec {
        spec: canary.spec.clone(),
        machines: vec![canary.machine().to_string()],
        scale: canary.cfg.app_scale,
        seed: Some(canary.cfg.seed),
        ..JobSpec::default()
    });
    let done = Response::Done {
        job: 1,
        warm_hit: false,
        json: canary_exec.json.clone(),
    };
    let frame_ns = kernel(wl, "proto.frame", 1, t, rep, || {
        let mut buf = Vec::new();
        proto::write_request(&mut buf, &request).expect("in-memory write");
        proto::write_response(&mut buf, &done).expect("in-memory write");
        let mut rd = buf.as_slice();
        let req_ok = proto::read_request(&mut rd).is_ok_and(|r| r == request);
        let rsp_ok = proto::read_response(&mut rd).is_ok_and(|r| r == done);
        fold(fnv64(&buf), (req_ok && rsp_ok) as u64)
    });
    rep.layer("proto.frame_us", frame_ns / 1e3, "us", Clock::Host);

    attribution(results, rep);
}

/// Estimated host time per layer for one execution of every cell:
/// the layer's simulated operation count × its kernel's ns per
/// operation. The engine, the VM and everything not covered by a kernel
/// is the remainder of the measured machine time.
fn attribution(results: &[CellResult], rep: &mut Report) {
    let g = |name| rep.get(name).unwrap_or(0.0);
    let refs = g("workload.refs");
    let machine_ms: f64 = results
        .iter()
        .map(|r| r.exec.chunks.iter().map(|c| c.1).sum::<u64>() as f64)
        .sum::<f64>()
        / 1e6;
    let nwc_swaps: u64 = results
        .iter()
        .filter(|r| r.cell.cfg.kind == MachineKind::NwCache)
        .map(|r| r.exec.metrics.swap_outs)
        .sum();
    let rows = [
        (
            "apps/workload (generate)",
            refs,
            g("workload.gen_ns_per_ref"),
        ),
        ("memhier (L1/L2 probe)", refs, g("memhier.probe_ns")),
        (
            "memhier (directory)",
            refs * g("memhier.l2_miss_ratio"),
            g("memhier.dir_ns"),
        ),
        ("mesh", g("mesh.messages"), g("mesh.send_ns")),
        (
            "disk",
            g("vm.page_faults") - g("ring.hits") + g("vm.swap_outs"),
            g("disk.ctrl_ns") / 2.0,
        ),
        (
            "optical",
            nwc_swaps as f64 + g("ring.hits"),
            g("ring.op_ns"),
        ),
    ];
    let mut out = format!(
        "{:<24} {:>14} {:>10} {:>12} {:>7}\n",
        "layer", "sim ops", "ns/op", "est. ms", "share"
    );
    let mut covered = 0.0;
    for (name, ops, ns) in rows {
        let ms = ops * ns / 1e6;
        covered += ms;
        out.push_str(&format!(
            "{name:<24} {ops:>14.0} {ns:>10.2} {ms:>12.3} {:>6.1}%\n",
            100.0 * ms / machine_ms.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "{:<24} {:>14} {:>10} {:>12.3} {:>6.1}%\n",
        "engine + vm + rest",
        "",
        "",
        machine_ms - covered,
        100.0 * (machine_ms - covered) / machine_ms.max(1e-9)
    ));
    out.push_str(&format!(
        "{:<24} {:>14} {:>10} {machine_ms:>12.3}\n",
        "machine (measured)", "", ""
    ));
    rep.sections.push((
        "layer attribution: sim op count x kernel ns/op, one traced execution per cell".into(),
        out,
    ));
}
