//! # nw-disk — disk subsystem of the simulated multiprocessor
//!
//! Everything behind the I/O bus of an I/O-enabled node (paper §3.1):
//!
//! * [`mechanics`] — the mechanical disk model (seek, rotation,
//!   media transfer at Table 1 rates),
//! * [`fs`] — the parallel file system layout: pages stored in groups
//!   of 32 consecutive pages, groups assigned to disks round-robin,
//! * [`controller`] — the disk controller with its small page cache
//!   (Table 1: 16 KB = 4 pages), the ACK/NACK/OK swap-out flow-control
//!   protocol, demand reads with *optimal* or *naive* prefetching, and
//!   **write combining** of consecutive dirty pages (the paper's
//!   Tables 5 and 6).
//!
//! Like the other substrate crates this is a timing/state model: all
//! latencies are computed against [`nw_sim::Resource`] reservations of
//! the disk arm, so contention between demand reads, prefetches and
//! write flushes emerges naturally.
//!
//! ```
//! use nw_disk::{DiskController, PrefetchPolicy, WriteOutcome, ParallelFs};
//!
//! let fs = ParallelFs::paper_default(4);
//! let mut disk = DiskController::paper_default(PrefetchPolicy::Naive);
//!
//! // Four consecutive swapped-out pages fill the controller cache...
//! for page in 0..4 {
//!     let block = fs.block_of(page);
//!     assert!(matches!(
//!         disk.write_page(0, page, block, 1),
//!         WriteOutcome::Ack { .. }
//!     ));
//! }
//! // ...the fifth is NACKed and queued for an OK.
//! assert_eq!(disk.write_page(0, 9, fs.block_of(9), 2), WriteOutcome::Nack);
//!
//! // The flush combines the four consecutive blocks into one write.
//! let flush = disk.try_flush(100_000).unwrap();
//! assert_eq!(flush.pages, 4);
//! assert_eq!(flush.oks, vec![(2, 9)]);
//! ```

#![forbid(unsafe_code)]

pub mod controller;
pub mod dcd;
pub mod faults;
pub mod fs;
pub mod mechanics;

pub use controller::{DiskController, DiskControllerConfig, FlushResult, PrefetchPolicy,
                     ReadOutcome, SpecOutcome, SpecProgress, WriteOutcome};
pub use dcd::LogDisk;
pub use faults::{DiskFault, DiskFaultInjector};
pub use fs::ParallelFs;
pub use mechanics::Mechanics;

/// A virtual page number (the paper equates pages and disk blocks).
pub type Page = u64;

/// A physical block index on one disk.
pub type Block = u64;
