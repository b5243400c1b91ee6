//! Follow one page through the NWCache protocol: fault from disk,
//! residency, eviction, the optical ring, the interface drain (or a
//! victim read), and the final ACKs — the complete §3.2 lifecycle,
//! printed as a timeline.
//!
//! ```text
//! cargo run --release -p nw-examples --bin page_lifecycle [vpn] [scale]
//! ```

#![forbid(unsafe_code)]

use nw_apps::AppId;
use nwcache::trace::TraceKind;
use nwcache::{Machine, MachineConfig, MachineKind, PrefetchMode};

fn main() {
    let vpn: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);

    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, scale);
    let mut machine = Machine::new(cfg, AppId::Sor);
    assert!(
        vpn < machine.npages(),
        "vpn {vpn} beyond footprint ({} pages)",
        machine.npages()
    );
    machine.trace_page(vpn);
    machine.run();

    println!("Lifecycle of page {vpn} (sor, NWCache machine, naive prefetching)\n");
    println!("{:>14}  event", "pcycles");
    let mut last = 0u64;
    for r in machine.trace_records() {
        let delta = r.at - last;
        last = r.at;
        let what = match r.kind {
            TraceKind::FaultToDisk { proc } => {
                format!("processor {proc} faults; request sent to the disk")
            }
            TraceKind::FaultToRing { proc, channel } => format!(
                "processor {proc} faults; Ring bit set -> snooping channel {channel}"
            ),
            TraceKind::Arrived { node } => format!("page data arrives in node {node}'s memory"),
            TraceKind::Evicted { node, dirty } => format!(
                "node {node} evicts the page ({})",
                if dirty { "dirty: swap-out begins" } else { "clean: frame freed" }
            ),
            TraceKind::OnRing { channel } => {
                format!("page fully serialized onto cache channel {channel}")
            }
            TraceKind::Drained { disk } => {
                format!("interface copied the page into disk {disk}'s cache")
            }
            TraceKind::RingAcked => "origin ACKed: ring slot freed, Ring bit cleared".to_string(),
            TraceKind::SwapAcked => "controller ACKed the swap-out".to_string(),
            TraceKind::SwapNacked => "controller NACKed: waiting for an OK".to_string(),
            TraceKind::Flushed => "page written to the platters".to_string(),
        };
        println!("{:>14}  {what}   (+{delta})", r.at);
    }
    if machine.trace_records().is_empty() {
        println!("(the page was never touched at this scale — try another vpn)");
    }
}
