//! Quickstart: run one out-of-core application on the standard and the
//! NWCache-equipped multiprocessor, and compare what the paper's
//! abstract promises — dramatically faster page swap-outs and an
//! overall execution-time win.
//!
//! ```text
//! cargo run --release -p nw-examples --bin quickstart [app] [scale]
//! ```
//!
//! `app` defaults to `sor`, `scale` to `0.25` (a quarter of the
//! paper's input sizes, with the machine shrunk to match).

#![forbid(unsafe_code)]

use nw_apps::AppId;
use nwcache::{run_app, MachineConfig, MachineKind, PrefetchMode};

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| AppId::from_name(&s))
        .unwrap_or(AppId::Sor);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    println!("NWCache quickstart: app={} scale={scale}\n", app.name());
    for prefetch in [PrefetchMode::Optimal, PrefetchMode::Naive] {
        let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale);
        let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
        let std_run = run_app(&std_cfg, app);
        let nwc_run = run_app(&nwc_cfg, app);

        println!("--- {prefetch:?} prefetching ---");
        println!(
            "standard : exec {:>12} pcycles | avg swap-out {:>12.0} pcycles | faults {}",
            std_run.exec_time,
            std_run.swap_out_time.mean(),
            std_run.page_faults
        );
        println!(
            "nwcache  : exec {:>12} pcycles | avg swap-out {:>12.0} pcycles | faults {}",
            nwc_run.exec_time,
            nwc_run.swap_out_time.mean(),
            nwc_run.page_faults
        );
        println!(
            "swap-out speedup: {:>8.1}x | victim-cache hit rate: {:>5.1}% | overall improvement: {:>5.1}%\n",
            std_run.swap_out_time.mean() / nwc_run.swap_out_time.mean().max(1.0),
            nwc_run.ring_hit_rate(),
            nwc_run.improvement_over(&std_run)
        );
    }
}
