//! Out-of-core radix sort, end to end: the workload the paper's
//! introduction motivates — an application whose data does not fit in
//! memory, programmed against plain virtual memory (`mmap`-style)
//! instead of explicit I/O, with the underlying system (here: the
//! NWCache) responsible for making paging fast.
//!
//! Prints a per-phase trace of the radix sort's interaction with the
//! VM system on both machines.
//!
//! ```text
//! cargo run --release -p nw-examples --bin out_of_core_sort [scale]
//! ```

#![forbid(unsafe_code)]

use nw_apps::AppId;
use nwcache::{run_app, MachineConfig, MachineKind, PrefetchMode};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    println!("Out-of-core radix sort (320K keys at scale {scale}, radix 1024)\n");
    for kind in [MachineKind::Standard, MachineKind::NwCache] {
        let cfg = MachineConfig::scaled_paper(kind, PrefetchMode::Naive, scale);
        let frames = cfg.frames_per_node() * cfg.nodes;
        let m = run_app(&cfg, AppId::Radix);
        println!("--- {kind:?} machine ---");
        println!(
            "memory: {} frames total; application faulted {} times, swapped {} pages",
            frames, m.page_faults, m.swap_outs
        );
        println!(
            "execution: {} pcycles ({:.1} simulated ms)",
            m.exec_time,
            m.exec_time as f64 * 5.0 / 1e6
        );
        println!(
            "average swap-out: {:.0} pcycles | NACKed swap-outs: {}",
            m.swap_out_time.mean(),
            m.swap_nacks
        );
        println!(
            "write combining: {:.2} pages per disk operation",
            m.write_combining.mean()
        );
        println!(
            "mesh traffic: {:.1} MB in {} messages\n",
            m.mesh_bytes as f64 / 1e6,
            m.mesh_messages
        );
    }
    println!(
        "Radix's scattered permutation writes dirty pages all over the\n\
         destination array, producing the bursty swap-out traffic the\n\
         NWCache's write staging absorbs."
    );
}
