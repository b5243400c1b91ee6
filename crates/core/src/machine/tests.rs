//! Unit tests for the machine model: protocol liveness, metric
//! plausibility and standard-vs-NWCache behaviour on small inputs.

use super::*;
use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use nw_apps::AppId;

const SCALE: f64 = 0.08;

fn run(kind: MachineKind, prefetch: PrefetchMode, app: AppId) -> crate::RunMetrics {
    let cfg = MachineConfig::scaled_paper(kind, prefetch, SCALE);
    crate::run_app(&cfg, app)
}

#[test]
fn every_app_completes_on_every_machine() {
    for app in AppId::ALL {
        for kind in [MachineKind::Standard, MachineKind::NwCache] {
            for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
                let m = run(kind, pf, app);
                assert!(m.exec_time > 0, "{app:?} {kind:?} {pf:?}");
                assert_eq!(m.breakdown.len(), 8);
            }
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let a = crate::run_app(&cfg, AppId::Sor);
    let b = crate::run_app(&cfg, AppId::Sor);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.swap_outs, b.swap_outs);
    assert_eq!(a.mesh_bytes, b.mesh_bytes);
    assert_eq!(a.ring_hits, b.ring_hits);
}

#[test]
fn out_of_core_apps_swap() {
    // The scaled configuration keeps data larger than memory, so dirty
    // pages must be swapped out.
    for app in [AppId::Sor, AppId::Gauss, AppId::Radix] {
        let m = run(MachineKind::Standard, PrefetchMode::Naive, app);
        assert!(m.swap_outs > 0, "{app:?} never swapped");
        assert!(m.page_faults > 100, "{app:?} faulted only {}", m.page_faults);
    }
}

#[test]
fn nwcache_swap_outs_are_much_faster() {
    // Paper Tables 3/4: one to three orders of magnitude.
    for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
        let std = run(MachineKind::Standard, pf, AppId::Sor);
        let nwc = run(MachineKind::NwCache, pf, AppId::Sor);
        assert!(
            nwc.swap_out_time.mean() * 5.0 < std.swap_out_time.mean(),
            "{pf:?}: nwc {} vs std {}",
            nwc.swap_out_time.mean(),
            std.swap_out_time.mean()
        );
    }
}

#[test]
fn nwcache_never_beaten_badly_overall() {
    // Paper: NWCache wins almost everywhere (FFT/naive may lose a few
    // percent). Check it is never more than 10% slower.
    for app in [AppId::Sor, AppId::Mg] {
        for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
            let std = run(MachineKind::Standard, pf, app);
            let nwc = run(MachineKind::NwCache, pf, app);
            let imp = nwc.improvement_over(&std);
            assert!(imp > -10.0, "{app:?} {pf:?}: improvement {imp:.1}%");
        }
    }
}

#[test]
fn ring_hits_only_on_nwcache_machine() {
    let std = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Gauss);
    assert_eq!(std.ring_hits, 0);
    let nwc = run(MachineKind::NwCache, PrefetchMode::Optimal, AppId::Gauss);
    assert!(nwc.ring_hits > 0, "gauss should hit the victim cache");
}

#[test]
fn swap_traffic_leaves_the_mesh_with_nwcache() {
    // Swap-outs cross the mesh on the standard machine but use the
    // ring on the NWCache machine, so per-swap mesh bytes must drop.
    let std = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Sor);
    let nwc = run(MachineKind::NwCache, PrefetchMode::Optimal, AppId::Sor);
    assert!(std.swap_outs > 0 && nwc.swap_outs > 0);
    let std_per_fault = std.mesh_bytes as f64 / std.page_faults.max(1) as f64;
    let nwc_per_fault = nwc.mesh_bytes as f64 / nwc.page_faults.max(1) as f64;
    assert!(
        nwc_per_fault < std_per_fault,
        "nwc {nwc_per_fault:.0} B/fault vs std {std_per_fault:.0}"
    );
}

#[test]
fn breakdown_accounts_for_execution_time() {
    // Each processor's category sum must be close to its local time
    // (within the shootdown-shift tolerance).
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Sor);
    let m = machine.run();
    for (i, b) in m.breakdown.iter().enumerate() {
        let total = b.total();
        let local = machine.procs[i].local_time;
        let diff = total.abs_diff(local);
        assert!(
            diff as f64 <= 0.02 * local as f64 + 1000.0,
            "proc {i}: breakdown {total} vs local {local}"
        );
    }
}

#[test]
fn shootdowns_happen_when_pages_are_replaced() {
    let m = run(MachineKind::Standard, PrefetchMode::Naive, AppId::Gauss);
    assert!(m.shootdowns > 0);
}

#[test]
fn fault_latency_tallies_cover_all_faults() {
    let m = run(MachineKind::NwCache, PrefetchMode::Naive, AppId::Sor);
    let tallied = m.fault_latency_disk_hit.count()
        + m.fault_latency_disk_miss.count()
        + m.fault_latency_ring.count();
    assert_eq!(tallied, m.page_faults);
    assert_eq!(m.ring_hits, m.fault_latency_ring.count());
}

#[test]
fn optimal_prefetching_removes_disk_miss_faults() {
    let m = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Sor);
    assert_eq!(
        m.fault_latency_disk_miss.count(),
        0,
        "optimal prefetching must serve all reads from the cache"
    );
}

#[test]
fn naive_prefetching_has_both_hits_and_misses() {
    let m = run(MachineKind::Standard, PrefetchMode::Naive, AppId::Sor);
    assert!(m.fault_latency_disk_miss.count() > 0);
    assert!(m.fault_latency_disk_hit.count() > 0);
}

#[test]
fn ring_is_bounded_by_capacity() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
    let cap = cfg.ring_channels * cfg.ring_slots_per_channel;
    let mut machine = Machine::new(cfg, AppId::Gauss);
    let m = machine.run();
    assert!(
        m.ring_peak_pages <= cap,
        "peak {} beyond capacity {cap}",
        m.ring_peak_pages
    );
}

#[test]
fn frame_accounting_conserved_at_end() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Sor);
    machine.run();
    for node in 0..machine.nprocs() as u32 {
        let fp = &machine.frames[node as usize];
        assert!(fp.free() + fp.resident().len() as u32 <= fp.total());
        machine.check_frame_invariant(node);
    }
}

#[test]
fn larger_disk_cache_helps_standard_machine() {
    let mut small = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, SCALE);
    small.disk_cache_pages = 4;
    let mut big = small.clone();
    big.disk_cache_pages = 64;
    let m_small = crate::run_app(&small, AppId::Sor);
    let m_big = crate::run_app(&big, AppId::Sor);
    assert!(
        m_big.exec_time < m_small.exec_time,
        "big cache {} vs small {}",
        m_big.exec_time,
        m_small.exec_time
    );
}

#[test]
fn exec_time_is_max_of_processors() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Mg);
    let m = machine.run();
    let max_local = machine.procs.iter().map(|p| p.local_time).max().unwrap();
    assert_eq!(m.exec_time, max_local);
}


#[test]
fn checkpoint_mid_batch_resumes_bit_identically() {
    // Action streams generate ahead in fixed batches, but a checkpoint
    // records only the actions each processor was handed. Pause where
    // consumption sits part-way through a batch, restore, and the run
    // must finish exactly like the uninterrupted one.
    use crate::checkpoint::{machine_from_bytes, machine_to_bytes};
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05);
    let finish = |mut m: Machine| match m.try_run_events(u64::MAX).unwrap() {
        RunOutcome::Done(metrics) => *metrics,
        RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
    };
    let uninterrupted = finish(Machine::try_new(cfg.clone(), AppId::Sor).unwrap());
    let batch = nw_apps::ActionStream::BATCH as u64;
    let mut m = Machine::try_new(cfg, AppId::Sor).unwrap();
    let mid_batch = |m: &Machine| {
        m.procs
            .iter()
            .any(|p| p.stream.consumed > batch && p.stream.consumed % batch != 0)
    };
    while !mid_batch(&m) {
        assert!(matches!(m.try_run_events(1).unwrap(), RunOutcome::Paused));
    }
    let bytes = machine_to_bytes("sor", &m);
    let (_, restored) = machine_from_bytes(&bytes).unwrap();
    let consumed = |m: &Machine| {
        m.procs
            .iter()
            .map(|p| p.stream.consumed)
            .collect::<Vec<_>>()
    };
    assert_eq!(consumed(&restored), consumed(&m));
    let resumed = finish(restored);
    assert_eq!(resumed, uninterrupted);
    assert_eq!(
        resumed.summary().to_json(),
        uninterrupted.summary().to_json()
    );
}
