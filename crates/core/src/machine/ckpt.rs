//! Machine snapshot/restore.
//!
//! The machine's [`Persist`] impl serializes every piece of dynamic
//! simulation state — engine, processors, memory hierarchy, disks,
//! ring, mesh, VM and metric accumulators — as a sequence of framed
//! `nwckpt-v1` sections (see [`crate::checkpoint`] for the file
//! container). Restore overlays such a snapshot onto a machine freshly
//! built from the same configuration and workload; the pair
//! round-trips the simulation exactly, so a restored run dispatches
//! the same event sequence bit-for-bit as an uninterrupted one.
//!
//! What is deliberately *not* serialized:
//!
//! * configuration and geometry — the restore target is built from the
//!   checkpoint's config section, so structure is already right;
//! * action streams — pure functions of the workload build; each
//!   processor records only how many actions it consumed and restore
//!   fast-forwards the rebuilt stream;
//! * the observer — re-attached (if globally configured) at build
//!   time; observation never feeds back into simulation state;
//! * `fatal` — always `None` at a checkpoint boundary (a fatal error
//!   aborts the run before it can be checkpointed).

use super::{BlockKind, Event, FaultInfo, FaultSource, Machine, Proc, Stream};
use crate::checkpoint::sections;
use nw_sim::ckpt::{CkptError, CkptReader, CkptWriter, Load, Persist};

nw_sim::persist!(enum Event {
    0 => Resume(p),
    1 => DiskRequest { disk, vpn },
    2 => DiskReadReady { disk, vpn },
    3 => PageArrive { vpn },
    4 => SwapWriteArrive { disk, vpn, from },
    5 => SwapAck { node, vpn },
    6 => SwapOk { node, vpn, disk },
    7 => FlushCheck { disk },
    8 => NackRecheck { disk },
    9 => RingInsertDone { node, vpn },
    10 => IfaceEnqueue { disk, ch, vpn },
    11 => DrainCheck { disk },
    12 => DrainCopied { disk, ch, vpn, origin },
    13 => RingAck { origin, ch, vpn },
    14 => CancelMsg { disk, ch, vpn },
    15 => RingChannelFail { ch },
    16 => SwapTimeout { node, vpn, attempt },
    17 => SpecHint { disk, vpn, node },
    18 => SpecCheck { disk },
});

nw_sim::persist!(enum BlockKind {
    0 => Fault,
    1 => Transit,
    2 => NoFree,
    3 => Barrier,
});

nw_sim::persist!(enum FaultSource {
    0 => DiskCacheHit,
    1 => DiskCacheMiss,
    2 => Ring,
});

nw_sim::persist!(value FaultInfo { start, source });

/// The consumed-action count. Restore fast-forwards the freshly built
/// stream by that many actions, rejecting a workload that ends first.
impl Persist for Stream {
    fn save(&self, w: &mut CkptWriter) {
        self.consumed.save(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let consumed = u64::load(r)?;
        for k in self.consumed..consumed {
            if self.next().is_none() {
                return Err(r.invalid(format!(
                    "stream ended after {k} actions, checkpoint consumed {consumed} — wrong workload?"
                )));
            }
        }
        Ok(())
    }
}

nw_sim::persist!(Proc {
    stream,
    pending,
    tlb,
    l1,
    l2,
    wb,
    local_time,
    breakdown,
    pending_interrupt,
    blocked,
    done,
});

nw_sim::persist!(Machine {
    section(sections::ENGINE) { queue, started, events_dispatched, last_time, same_time_events },
    section(sections::PROCS) { fixed procs, finished },
    section(sections::MEMHIER) { fixed mem_bus, fixed io_bus, dir },
    section(sections::DISKS) { fixed disks, fixed drain_busy_until, fixed disk_faults },
    section(sections::RING) { fixed ring, fixed ifaces },
    section(sections::MESH) { mesh, mesh_faults },
    section(sections::VM) {
        fixed pt,
        fixed frames,
        barrier,
        fixed pending_ring_swaps,
        swap_start,
        fault_info,
        pinned,
        disk_retry,
        swap_attempts,
    },
    section(sections::METRICS) {
        m_swap_out_time,
        m_swap_out_hist,
        m_fault_hist,
        m_ring_occupancy,
        m_fault_hit,
        m_fault_miss,
        m_fault_ring,
        m_ring_hits,
        m_ring_misses,
        m_page_faults,
        m_swap_outs,
        m_swap_nacks,
        m_shootdowns,
        m_ring_pages_lost,
        m_swap_retries,
        m_degraded_ring_swaps,
        m_dead_channels,
    },
    section(sections::TRACER) { tracer },
    // Only policies with state write PREFETCH, so the other modes keep
    // their original layout.
    section(sections::PREFETCH, if policy.has_ckpt_state) { policy },
});
