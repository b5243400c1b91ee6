//! Machine-wide directory-based cache coherence (MSI, atomic-directory
//! approximation).
//!
//! The base machine is DASH-like (§4): each resident page has a home
//! node (the node whose memory holds the frame) and a directory that
//! tracks, per cache line, which processors cache the line and whether
//! one of them holds it modified. We collapse transient protocol states:
//! each read/write transaction consults the directory once and the
//! outcome tells the machine model which messages/latencies to charge
//! (remote fetch, owner writeback, invalidations). Under release
//! consistency the processor does not wait for invalidation acks on
//! writes, but the traffic still contends for the network.
//!
//! Directory state lives in one dense `Vec<u64>` indexed by cache
//! line (see DESIGN.md §11): each entry packs the line's MSI state, and
//! 0 means "untracked". A transaction is one indexed load and store; a
//! page purge walks the page's 64 consecutive entries, which keeps its
//! output in ascending line order. The machine sizes the table once
//! for its whole footprint ([`Directory::with_lines`]); a standalone
//! [`Directory::new`] grows to the highest line it sees.
//!
//! **Coarse sharer vectors** (machines past 32 nodes). The sharer
//! mask is a `u32`; with more than 32 nodes each bit covers a *group*
//! of `ceil(nodes/32)` consecutive nodes, DASH's coarse-vector
//! scheme: invalidations go to every node of a sharing group, clean
//! evictions cannot clear a group bit (another group member may still
//! share), and only the exact `Modified(owner)` state stays
//! node-precise. At 32 nodes or fewer the group size is 1 and the
//! directory is bit-for-bit the precise one.

use crate::{first_line_of_page, Line, Vpn, LINES_PER_PAGE};
use nw_sim::ckpt::{CkptError, CkptReader, CkptWriter, Load, Persist};

/// Bitmask of node *groups* caching a line: one node per group up to
/// 32 nodes, `ceil(nodes/32)` nodes per group beyond (see the module
/// docs). Use [`Directory::expand_mask`] to enumerate member nodes.
pub type SharerMask = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// One or more nodes cache the line clean.
    Shared(SharerMask),
    /// Exactly one node holds the line modified.
    Modified(u32),
}

/// Tag bit distinguishing `Modified(owner)` from `Shared(mask)` in the
/// packed table value (sharer masks only use the low 32 bits).
const MOD_TAG: u64 = 1 << 63;

impl State {
    #[inline]
    fn pack(self) -> u64 {
        match self {
            State::Shared(mask) => mask as u64,
            State::Modified(owner) => MOD_TAG | owner as u64,
        }
    }

    /// The state packed into `v`; `None` for 0, an untracked line.
    #[inline]
    fn unpack(v: u64) -> Option<State> {
        if v == 0 {
            None
        } else if v & MOD_TAG != 0 {
            Some(State::Modified((v & !MOD_TAG) as u32))
        } else {
            Some(State::Shared(v as SharerMask))
        }
    }

    /// Sharer mask at granularity `g` (a modified owner is one sharer).
    #[inline]
    fn sharers(self, g: u32) -> SharerMask {
        match self {
            State::Shared(m) => m,
            State::Modified(o) => 1 << (o / g),
        }
    }
}

/// Outcome of a read transaction at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Line was uncached anywhere; fetch from home memory.
    FromMemory,
    /// Line was shared; fetch from home memory (data is clean there).
    FromMemoryShared,
    /// Line was modified at `owner`: owner must write back / forward.
    FromOwner {
        /// Node that held the modified copy.
        owner: u32,
    },
}

/// Outcome of a write (ownership) transaction at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Sharers (excluding the writer) that must be invalidated.
    pub invalidate: SharerMask,
    /// Previous modified owner whose data must be fetched, if any.
    pub fetch_from: Option<u32>,
    /// Whether the line had to be fetched from home memory.
    pub from_memory: bool,
}

/// Lines a grow-on-demand directory may reach through a checkpoint
/// restore: the checkpoint codec's preallocation cap, so a corrupt
/// line index costs a failed decode, never a huge table.
const RESTORE_GROW_CAP: u64 = 1 << 20;

/// Packed MSI state for every line, indexed by line: `0` means
/// "untracked" (`Shared(0)` is never stored, so no state packs to 0).
#[derive(Debug)]
struct Lines {
    states: Vec<u64>,
    /// Grow past the end on demand (standalone directories) rather
    /// than treat a line outside the table as a footprint violation.
    grows: bool,
    /// Nonzero entries of `states`.
    tracked: usize,
}

impl Lines {
    /// The packed state of `line` (0 when untracked).
    #[inline]
    fn get(&self, line: Line) -> u64 {
        self.states.get(line as usize).copied().unwrap_or(0)
    }

    /// The state slot of `line`, growing a standalone table to fit.
    #[inline]
    fn slot(&mut self, line: Line) -> &mut u64 {
        let i = line as usize;
        if i >= self.states.len() {
            self.grow(i);
        }
        &mut self.states[i]
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        assert!(
            self.grows,
            "line {i} outside the directory's {}-line footprint",
            self.states.len()
        );
        self.states.resize((i + 1).next_power_of_two().max(64), 0);
    }

    /// Untrack `line`, returning its previous packed state (0 if none).
    #[inline]
    fn take(&mut self, line: Line) -> u64 {
        let Some(v) = self.states.get_mut(line as usize) else {
            return 0;
        };
        let old = std::mem::take(v);
        self.tracked -= (old != 0) as usize;
        old
    }
}

/// Every `(line, packed state)` entry in ascending line order (index
/// order is line order, so the canonical sorted list needs no sort).
/// Restore rejects a state of 0, a repeated line and a line the table
/// cannot hold.
impl Persist for Lines {
    fn save(&self, w: &mut CkptWriter) {
        w.usize(self.tracked);
        for (line, &v) in self.states.iter().enumerate() {
            if v != 0 {
                (line as Line, v).save(w);
            }
        }
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.usize()?;
        self.states.fill(0);
        self.tracked = 0;
        let limit = if self.grows {
            RESTORE_GROW_CAP.max(self.states.len() as u64)
        } else {
            self.states.len() as u64
        };
        for _ in 0..n {
            let (line, v): (Line, u64) = Load::load(r)?;
            if v == 0 {
                return Err(r.invalid(format!("directory line {line} has no sharers")));
            }
            if line >= limit {
                return Err(r.invalid(format!(
                    "directory line {line} outside the table's {limit} lines"
                )));
            }
            if self.get(line) != 0 {
                return Err(r.invalid(format!("duplicate directory line {line}")));
            }
            *self.slot(line) = v;
            self.tracked += 1;
        }
        Ok(())
    }
}

/// The directory for all resident lines of the machine.
#[derive(Debug)]
pub struct Directory {
    lines: Lines,
    /// Nodes per sharer-mask bit (1 up to 32 nodes; DASH coarse
    /// vector beyond).
    granularity: u32,
    reads: u64,
    writes: u64,
    invalidations_sent: u64,
    owner_forwards: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory with node-precise sharer bits whose table
    /// grows on demand to the highest line it sees (standalone use:
    /// tests and the directory bench kernels).
    pub fn new() -> Self {
        Self::build(Vec::new(), true, 1)
    }

    /// An empty directory sized once for a footprint of `lines` cache
    /// lines on a `nodes`-node machine (the sharer-bit granularity is
    /// `ceil(nodes/32)`). The table never grows: a transaction on a
    /// line at or past `lines` is a footprint violation and panics.
    pub fn with_lines(lines: u64, nodes: u32) -> Self {
        Self::build(vec![0; lines as usize], false, nodes)
    }

    fn build(states: Vec<u64>, grows: bool, nodes: u32) -> Self {
        assert!(nodes >= 1, "directory needs at least one node");
        Directory {
            lines: Lines {
                states,
                grows,
                tracked: 0,
            },
            granularity: nodes.div_ceil(32).max(1),
            reads: 0,
            writes: 0,
            invalidations_sent: 0,
            owner_forwards: 0,
        }
    }

    /// Nodes covered by one sharer-mask bit (1 = node-precise).
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    #[inline]
    fn bit(&self, node: u32) -> SharerMask {
        1 << (node / self.granularity)
    }

    /// Call `f` for every node a sharer mask covers (ascending): the
    /// bit's whole node group at the current granularity, clipped to
    /// `nodes`. At granularity 1 this enumerates exactly the mask's
    /// set bits.
    pub fn expand_mask(&self, mask: SharerMask, nodes: u32, mut f: impl FnMut(u32)) {
        let g = self.granularity;
        let mut m = mask;
        while m != 0 {
            let group = m.trailing_zeros();
            m &= m - 1;
            for node in (group * g)..((group + 1) * g).min(nodes) {
                f(node);
            }
        }
    }

    /// A read by `node`. Updates sharer state and reports where the
    /// data comes from.
    #[inline]
    pub fn read(&mut self, line: Line, node: u32) -> ReadOutcome {
        self.reads += 1;
        let bit = self.bit(node);
        let g = self.granularity;
        let v = self.lines.slot(line);
        match State::unpack(*v) {
            None => {
                *v = State::Shared(bit).pack();
                self.lines.tracked += 1;
                ReadOutcome::FromMemory
            }
            Some(State::Shared(mask)) => {
                *v = State::Shared(mask | bit).pack();
                ReadOutcome::FromMemoryShared
            }
            // Own modified copy: silent hit, state unchanged.
            Some(State::Modified(owner)) if owner == node => ReadOutcome::FromMemoryShared,
            Some(State::Modified(owner)) => {
                // Owner writes back; both now share.
                *v = State::Shared(bit | 1 << (owner / g)).pack();
                self.owner_forwards += 1;
                ReadOutcome::FromOwner { owner }
            }
        }
    }

    /// A write (ownership request) by `node`.
    #[inline]
    pub fn write(&mut self, line: Line, node: u32) -> WriteOutcome {
        self.writes += 1;
        let bit = self.bit(node);
        let v = self.lines.slot(line);
        let old = std::mem::replace(v, State::Modified(node).pack());
        match State::unpack(old) {
            None => {
                self.lines.tracked += 1;
                WriteOutcome {
                    invalidate: 0,
                    fetch_from: None,
                    from_memory: true,
                }
            }
            Some(State::Shared(mask)) => {
                let inv = mask & !bit;
                self.invalidations_sent += inv.count_ones() as u64;
                WriteOutcome {
                    invalidate: inv,
                    fetch_from: None,
                    // If the writer already shared the line it upgrades
                    // in place; otherwise data comes from memory.
                    from_memory: mask & bit == 0,
                }
            }
            Some(State::Modified(owner)) if owner == node => WriteOutcome {
                invalidate: 0,
                fetch_from: None,
                from_memory: false,
            },
            Some(State::Modified(owner)) => {
                self.owner_forwards += 1;
                WriteOutcome {
                    invalidate: 0,
                    fetch_from: Some(owner),
                    from_memory: false,
                }
            }
        }
    }

    /// `node` silently dropped its copy (clean eviction) or wrote back
    /// (dirty eviction). Keeps the directory conservative-but-correct:
    /// with coarse sharer groups a clean eviction cannot clear the
    /// group's bit (another member may still share the line), so only
    /// the node-precise granularity ever shrinks a shared mask.
    #[inline]
    pub fn evict(&mut self, line: Line, node: u32) {
        let bit = self.bit(node);
        let precise = self.granularity == 1;
        match State::unpack(self.lines.get(line)) {
            Some(State::Shared(mask)) if precise => {
                let mask = mask & !bit;
                if mask == 0 {
                    self.lines.take(line);
                } else {
                    *self.lines.slot(line) = State::Shared(mask).pack();
                }
            }
            Some(State::Modified(owner)) if owner == node => {
                self.lines.take(line);
            }
            _ => {}
        }
    }

    /// Drop every directory entry for page `vpn`, returning for each
    /// line the set of nodes that cached it (so their caches can be
    /// invalidated) — this is the access-rights downgrade performed at
    /// page replacement.
    pub fn purge_page(&mut self, vpn: Vpn) -> Vec<(Line, SharerMask)> {
        let mut out = Vec::new();
        self.purge_page_into(vpn, &mut out);
        out
    }

    /// Allocation-free variant of [`purge_page`](Self::purge_page):
    /// clears `out` and fills it with the purged `(line, sharers)`
    /// pairs in ascending line order. The hot page-replacement path
    /// passes a scratch buffer that lives for the whole run.
    pub fn purge_page_into(&mut self, vpn: Vpn, out: &mut Vec<(Line, SharerMask)>) {
        out.clear();
        let start = first_line_of_page(vpn);
        for line in start..start + LINES_PER_PAGE {
            if let Some(state) = State::unpack(self.lines.take(line)) {
                out.push((line, state.sharers(self.granularity)));
            }
        }
    }

    /// Sharer mask of `line` (modified owner counts as one sharer).
    pub fn sharers(&self, line: Line) -> SharerMask {
        State::unpack(self.lines.get(line)).map_or(0, |s| s.sharers(self.granularity))
    }

    /// Whether `line` is held modified, and by whom.
    pub fn modified_owner(&self, line: Line) -> Option<u32> {
        match State::unpack(self.lines.get(line)) {
            Some(State::Modified(o)) => Some(o),
            _ => None,
        }
    }

    /// Number of lines with directory state.
    pub fn tracked_lines(&self) -> usize {
        self.lines.tracked
    }

    /// Total read transactions.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total write transactions.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total invalidation messages implied by write transactions.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations_sent
    }

    /// Total dirty-owner forwards/writebacks implied by transactions.
    pub fn owner_forwards(&self) -> u64 {
        self.owner_forwards
    }
}

nw_sim::persist!(Directory {
    lines,
    reads,
    writes,
    invalidations_sent,
    owner_forwards
});

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::Persist;

    #[test]
    fn first_read_comes_from_memory() {
        let mut d = Directory::new();
        assert_eq!(d.read(10, 0), ReadOutcome::FromMemory);
        assert_eq!(d.sharers(10), 0b1);
    }

    #[test]
    fn second_reader_shares() {
        let mut d = Directory::new();
        d.read(10, 0);
        assert_eq!(d.read(10, 3), ReadOutcome::FromMemoryShared);
        assert_eq!(d.sharers(10), 0b1001);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.read(10, 2);
        let w = d.write(10, 0);
        assert_eq!(w.invalidate, 0b110); // nodes 1 and 2
        assert!(!w.from_memory); // writer already shared the line
        assert_eq!(d.modified_owner(10), Some(0));
        assert_eq!(d.invalidations_sent(), 2);
    }

    #[test]
    fn write_by_non_sharer_fetches_memory() {
        let mut d = Directory::new();
        d.read(10, 1);
        let w = d.write(10, 2);
        assert_eq!(w.invalidate, 0b10);
        assert!(w.from_memory);
    }

    #[test]
    fn read_of_modified_forces_owner_writeback() {
        let mut d = Directory::new();
        d.write(10, 5);
        assert_eq!(d.read(10, 1), ReadOutcome::FromOwner { owner: 5 });
        // Both now share.
        assert_eq!(d.sharers(10), (1 << 5) | (1 << 1));
        assert_eq!(d.owner_forwards(), 1);
    }

    #[test]
    fn owner_rereads_own_line_silently() {
        let mut d = Directory::new();
        d.write(10, 5);
        assert_eq!(d.read(10, 5), ReadOutcome::FromMemoryShared);
        assert_eq!(d.modified_owner(10), Some(5));
    }

    #[test]
    fn write_to_modified_fetches_from_owner() {
        let mut d = Directory::new();
        d.write(10, 0);
        let w = d.write(10, 1);
        assert_eq!(w.fetch_from, Some(0));
        assert_eq!(w.invalidate, 0);
        assert_eq!(d.modified_owner(10), Some(1));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        d.write(10, 0);
        let w = d.write(10, 0);
        assert_eq!(w.fetch_from, None);
        assert_eq!(w.invalidate, 0);
        assert!(!w.from_memory);
    }

    #[test]
    fn evict_clears_state() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.evict(10, 0);
        assert_eq!(d.sharers(10), 0b10);
        d.evict(10, 1);
        assert_eq!(d.sharers(10), 0);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn evict_by_non_owner_keeps_modified() {
        let mut d = Directory::new();
        d.write(10, 2);
        d.evict(10, 3); // stale message from non-owner
        assert_eq!(d.modified_owner(10), Some(2));
    }

    #[test]
    fn purge_page_returns_all_cached_lines() {
        let mut d = Directory::new();
        // Page 1 covers lines 64..128.
        d.read(64, 0);
        d.read(70, 1);
        d.write(100, 2);
        d.read(128, 3); // page 2, untouched
        let purged = d.purge_page(1);
        assert_eq!(purged.len(), 3);
        assert_eq!(purged[0], (64, 0b1));
        assert_eq!(purged[1], (70, 0b10));
        assert_eq!(purged[2], (100, 0b100));
        assert_eq!(d.tracked_lines(), 1);
        assert_eq!(d.sharers(128), 0b1000);
    }

    #[test]
    fn purge_empty_page_is_empty() {
        let mut d = Directory::new();
        assert!(d.purge_page(42).is_empty());
    }

    fn saved(d: &Directory) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        d.save(&mut w);
        w.end_section();
        w.finish()
    }

    #[test]
    fn sized_directory_behaves_like_grown_one() {
        // Drive the same transaction stream through a footprint-sized
        // table and a grow-on-demand one: every outcome and counter
        // must agree, and so must the checkpoint bytes.
        let mut grown = Directory::new();
        let mut sized = Directory::with_lines(8 * LINES_PER_PAGE, 8);
        for (line, node) in [
            (64u64, 0u32),
            (70, 1),
            (129, 2),
            (200, 3),
            (64, 2),
            (300, 0),
        ] {
            assert_eq!(
                grown.read(line, node),
                sized.read(line, node),
                "read {line} {node}"
            );
        }
        for (line, node) in [(64u64, 1u32), (129, 0), (300, 0)] {
            assert_eq!(
                grown.write(line, node),
                sized.write(line, node),
                "write {line} {node}"
            );
        }
        grown.evict(70, 1);
        sized.evict(70, 1);
        assert_eq!(grown.purge_page(1), sized.purge_page(1));
        assert_eq!(grown.tracked_lines(), sized.tracked_lines());
        assert_eq!(grown.invalidations_sent(), sized.invalidations_sent());
        assert_eq!(saved(&grown), saved(&sized));
    }

    #[test]
    fn checkpoint_restores_into_any_table_size() {
        let mut d = Directory::new();
        d.read(64, 0);
        d.write(129, 2);
        d.read(700, 1);
        let bytes = saved(&d);
        for mut e in [Directory::new(), Directory::with_lines(1024, 8)] {
            let mut r = CkptReader::new(&bytes).unwrap();
            r.begin_section(1).unwrap();
            e.restore(&mut r).unwrap();
            r.end_section().unwrap();
            assert_eq!(e.tracked_lines(), 3);
            assert_eq!(e.modified_owner(129), Some(2));
            assert_eq!(e.sharers(700), 0b10);
            assert_eq!(saved(&e), bytes);
        }
        // A sized table rejects a line outside its footprint.
        let mut small = Directory::with_lines(512, 8);
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(matches!(
            small.restore(&mut r),
            Err(CkptError::Invalid { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn sized_directory_rejects_lines_past_its_footprint() {
        Directory::with_lines(64, 8).read(64, 0);
    }

    #[test]
    fn coarse_vector_groups_nodes_past_32() {
        // 64 nodes: 2 nodes per sharer bit.
        let mut d = Directory::with_lines(64, 64);
        assert_eq!(d.granularity(), 2);
        d.read(10, 0);
        d.read(10, 1); // same group as node 0
        d.read(10, 63); // group 31
        assert_eq!(d.sharers(10), 0b1 | (1 << 31));
        // A write by node 40 (group 20) invalidates groups 0 and 31.
        let w = d.write(10, 40);
        assert_eq!(w.invalidate, 0b1 | (1 << 31));
        // Modified owner stays node-precise.
        assert_eq!(d.modified_owner(10), Some(40));
        let r = d.read(10, 0);
        assert_eq!(r, ReadOutcome::FromOwner { owner: 40 });
        assert_eq!(d.sharers(10), 0b1 | (1 << 20));
    }

    #[test]
    fn coarse_clean_evict_is_conservative() {
        let mut d = Directory::with_lines(64, 64);
        d.read(10, 4);
        d.read(10, 5); // same group (2)
        d.evict(10, 4);
        // The group bit must survive: node 5 still shares the line.
        assert_eq!(d.sharers(10), 0b100);
        // A modified owner's eviction is still precise.
        d.write(20, 7);
        d.evict(20, 6); // same group, not the owner: ignored
        assert_eq!(d.modified_owner(20), Some(7));
        d.evict(20, 7);
        assert_eq!(d.sharers(20), 0);
    }

    #[test]
    fn expand_mask_enumerates_group_members() {
        let d = Directory::with_lines(64, 64);
        let mut nodes = Vec::new();
        d.expand_mask(0b1 | (1 << 31), 64, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 62, 63]);
        // Precise directory: expansion is the identity.
        let d = Directory::with_lines(64, 8);
        let mut nodes = Vec::new();
        d.expand_mask(0b1011, 8, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 3]);
        // The last group is clipped to the node count.
        let d = Directory::with_lines(64, 33); // granularity 2
        let mut nodes = Vec::new();
        d.expand_mask(1 << 16, 33, |n| nodes.push(n));
        assert_eq!(nodes, vec![32]);
    }
}
