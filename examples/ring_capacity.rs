//! Ring-capacity exploration: the paper's §3.2 storage equation says
//! the delay-line capacity scales with channels x length x rate. This
//! example sweeps the per-channel slot count and shows how swap-out
//! staging and victim caching respond — the "as optical technology
//! develops, we will see greater gains" claim from the paper's
//! discussion.
//!
//! ```text
//! cargo run --release -p nw-examples --bin ring_capacity [app] [scale]
//! ```

#![forbid(unsafe_code)]

use nw_apps::AppId;
use nwcache::{run_app, MachineConfig, MachineKind, PrefetchMode};

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| AppId::from_name(&s))
        .unwrap_or(AppId::Gauss);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    // The paper's physical capacity equation for reference.
    let cfg0 = nw_optical::RingConfig::paper_default();
    println!(
        "Paper ring: {} channels x {} pcycles round-trip x {:.2} B/pcycle = {} bytes of fiber storage\n",
        cfg0.channels,
        cfg0.round_trip,
        cfg0.rate.bytes_per_cycle(),
        cfg0.capacity_bytes_physical()
    );

    println!("Sweeping per-channel slots for {} at scale {scale}:", app.name());
    println!(
        "{:<8} {:>14} {:>14} {:>10} {:>12}",
        "slots", "exec (pc)", "swap mean", "hit rate", "peak pages"
    );
    let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, scale);
    let std_run = run_app(&std_cfg, app);
    for slots in [1usize, 2, 4, 8, 16, 32] {
        let mut cfg =
            MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, scale);
        cfg.ring_slots_per_channel = slots;
        let m = run_app(&cfg, app);
        println!(
            "{:<8} {:>14} {:>14.0} {:>9.1}% {:>12}",
            slots,
            m.exec_time,
            m.swap_out_time.mean(),
            m.ring_hit_rate(),
            m.ring_peak_pages
        );
    }
    println!(
        "\nstandard machine reference: exec {} pcycles, swap mean {:.0}",
        std_run.exec_time,
        std_run.swap_out_time.mean()
    );
}
