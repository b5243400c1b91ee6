//! Page-lifecycle tracing.
//!
//! Register pages of interest with [`crate::Machine::trace_page`]
//! before running; the machine records a timestamped event for every
//! protocol transition those pages go through. Useful for debugging
//! protocol changes and for teaching — `examples/page_lifecycle.rs`
//! prints one page's journey through memory, the ring and the disk.

use crate::vm::Vpn;
use nw_sim::Time;

/// One step in a traced page's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A processor faulted on the page; the request goes to the disk.
    FaultToDisk {
        /// Faulting processor.
        proc: u32,
    },
    /// A processor faulted on the page and found the Ring bit set.
    FaultToRing {
        /// Faulting processor.
        proc: u32,
        /// Cache channel snooped.
        channel: u32,
    },
    /// The page's data arrived in a node's memory.
    Arrived {
        /// Destination node.
        node: u32,
    },
    /// The page was chosen for replacement (access-rights downgrade).
    Evicted {
        /// Node evicting it.
        node: u32,
        /// Whether a swap-out was required.
        dirty: bool,
    },
    /// The page finished serializing onto its ring cache channel.
    OnRing {
        /// Channel (= swapping node).
        channel: u32,
    },
    /// The page was copied from the ring into a disk controller cache.
    Drained {
        /// Target disk.
        disk: u32,
    },
    /// The origin received the interface's ACK; ring slot freed.
    RingAcked,
    /// The page reached a disk controller cache over the mesh
    /// (standard machine) and was ACKed.
    SwapAcked,
    /// The controller NACKed the swap-out (cache full).
    SwapNacked,
    /// The page's blocks were written to the disk platters.
    Flushed,
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event (pcycles).
    pub at: Time,
    /// The page.
    pub vpn: Vpn,
    /// What happened.
    pub kind: TraceKind,
}

/// Collects lifecycle records for a registered set of pages.
#[derive(Debug, Default)]
pub struct PageTracer {
    watched: Vec<Vpn>,
    records: Vec<TraceRecord>,
}

impl PageTracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Watch `vpn`; idempotent.
    pub fn watch(&mut self, vpn: Vpn) {
        if !self.watched.contains(&vpn) {
            self.watched.push(vpn);
        }
    }

    /// Whether `vpn` is being traced.
    pub fn watching(&self, vpn: Vpn) -> bool {
        self.watched.contains(&vpn)
    }

    /// Record an event if `vpn` is watched.
    pub fn emit(&mut self, at: Time, vpn: Vpn, kind: TraceKind) {
        if self.watching(vpn) {
            self.records.push(TraceRecord { at, vpn, kind });
        }
    }

    /// All records collected so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records for one page only.
    pub fn records_for(&self, vpn: Vpn) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records.iter().filter(move |r| r.vpn == vpn)
    }
}

nw_sim::persist!(enum TraceKind {
    0 => FaultToDisk { proc },
    1 => FaultToRing { proc, channel },
    2 => Arrived { node },
    3 => Evicted { node, dirty },
    4 => OnRing { channel },
    5 => Drained { disk },
    6 => RingAcked,
    7 => SwapAcked,
    8 => SwapNacked,
    9 => Flushed,
});
nw_sim::persist!(value TraceRecord { at, vpn, kind });
nw_sim::persist!(PageTracer { watched, records });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_watched_pages_are_recorded() {
        let mut t = PageTracer::new();
        t.watch(5);
        t.emit(10, 5, TraceKind::FaultToDisk { proc: 0 });
        t.emit(20, 6, TraceKind::FaultToDisk { proc: 1 });
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].vpn, 5);
        assert!(t.watching(5));
        assert!(!t.watching(6));
    }

    #[test]
    fn watch_is_idempotent() {
        let mut t = PageTracer::new();
        t.watch(1);
        t.watch(1);
        t.emit(0, 1, TraceKind::RingAcked);
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn records_for_filters() {
        let mut t = PageTracer::new();
        t.watch(1);
        t.watch(2);
        t.emit(0, 1, TraceKind::SwapAcked);
        t.emit(5, 2, TraceKind::SwapNacked);
        t.emit(9, 1, TraceKind::Flushed);
        assert_eq!(t.records_for(1).count(), 2);
        assert_eq!(t.records_for(2).count(), 1);
    }
}
