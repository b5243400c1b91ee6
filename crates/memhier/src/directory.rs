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
//! Directory entries live in open-addressing [`LineTable`]s keyed by
//! cache-line index (PR 3 hot-path layout; see DESIGN.md §11). Each
//! entry packs its MSI state into the table's `u64` value; page purges
//! walk the page's 64 consecutive line indices directly, which keeps
//! their output in ascending line order — the same observable order
//! the previous `BTreeMap` range scan produced.
//!
//! **Sharding** (generated topologies). The directory can split its
//! lines over several [`LineTable`] shards, keyed by page
//! (`(line / LINES_PER_PAGE) % shards`) so every line of a page lands
//! in one shard and a page purge probes exactly one table. One shard
//! (the default) is the paper machine's single directory.
//!
//! **Coarse sharer vectors** (machines past 32 nodes). The sharer
//! mask is a `u32`; with more than 32 nodes each bit covers a *group*
//! of `ceil(nodes/32)` consecutive nodes, DASH's coarse-vector
//! scheme: invalidations go to every node of a sharing group, clean
//! evictions cannot clear a group bit (another group member may still
//! share), and only the exact `Modified(owner)` state stays
//! node-precise. At 32 nodes or fewer the group size is 1 and the
//! directory is bit-for-bit the precise one.

use crate::linetable::LineTable;
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

    #[inline]
    fn unpack(v: u64) -> State {
        if v & MOD_TAG != 0 {
            State::Modified((v & !MOD_TAG) as u32)
        } else {
            State::Shared(v as SharerMask)
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

/// The directory's line tables, keyed by page so every line of a page
/// (and therefore each purge) probes exactly one shard.
#[derive(Debug)]
struct Shards(Vec<LineTable>);

impl Shards {
    #[inline]
    fn index(&self, line: Line) -> usize {
        ((line / LINES_PER_PAGE) % self.0.len() as u64) as usize
    }

    #[inline]
    fn of(&self, line: Line) -> &LineTable {
        &self.0[self.index(line)]
    }

    #[inline]
    fn of_mut(&mut self, line: Line) -> &mut LineTable {
        let i = self.index(line);
        &mut self.0[i]
    }
}

/// Every `(line, packed state)` entry in ascending line order, merged
/// across shards: the shard split (like the [`LineTable`]'s slot
/// layout) is not observable, so a sharded directory checkpoints to
/// exactly the bytes a single-shard one would. Restore keeps the
/// receiving directory's shard count.
impl Persist for Shards {
    fn save(&self, w: &mut CkptWriter) {
        let mut entries: Vec<(Line, u64)> = self.0.iter().flat_map(|s| s.iter()).collect();
        entries.sort_unstable_by_key(|&(line, _)| line);
        entries.save(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let entries: Vec<(Line, u64)> = Load::load(r)?;
        for s in &mut self.0 {
            *s = LineTable::new();
        }
        for (line, v) in entries {
            if self.of_mut(line).insert(line, v).is_some() {
                return Err(r.invalid(format!("duplicate directory line {line}")));
            }
        }
        Ok(())
    }
}

/// The directory for all resident lines of the machine.
#[derive(Debug)]
pub struct Directory {
    shards: Shards,
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
    /// An empty single-shard directory with node-precise sharer bits
    /// (the paper machine's directory).
    pub fn new() -> Self {
        Self::with_topology(1, 1)
    }

    /// An empty directory with `shards` line-table shards, sized for a
    /// `nodes`-node machine (the sharer-bit granularity is
    /// `ceil(nodes/32)`). `with_topology(1, n)` for `n <= 32` behaves
    /// exactly like [`Directory::new`].
    pub fn with_topology(shards: usize, nodes: u32) -> Self {
        assert!(shards > 0, "directory needs at least one shard");
        assert!(nodes >= 1, "directory needs at least one node");
        Directory {
            shards: Shards((0..shards).map(|_| LineTable::new()).collect()),
            granularity: nodes.div_ceil(32).max(1),
            reads: 0,
            writes: 0,
            invalidations_sent: 0,
            owner_forwards: 0,
        }
    }

    /// Number of line-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.0.len()
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
    pub fn read(&mut self, line: Line, node: u32) -> ReadOutcome {
        self.reads += 1;
        let bit = self.bit(node);
        let owner_bit = |o: u32| 1u32 << (o / self.granularity);
        let entries = self.shards.of_mut(line);
        if let Some(v) = entries.get_mut(line) {
            return match State::unpack(*v) {
                State::Shared(mask) => {
                    *v = State::Shared(mask | bit).pack();
                    ReadOutcome::FromMemoryShared
                }
                // Own modified copy: silent hit, state unchanged.
                State::Modified(owner) if owner == node => ReadOutcome::FromMemoryShared,
                State::Modified(owner) => {
                    // Owner writes back; both now share.
                    *v = State::Shared(bit | owner_bit(owner)).pack();
                    self.owner_forwards += 1;
                    ReadOutcome::FromOwner { owner }
                }
            };
        }
        entries.insert(line, State::Shared(bit).pack());
        ReadOutcome::FromMemory
    }

    /// A write (ownership request) by `node`.
    pub fn write(&mut self, line: Line, node: u32) -> WriteOutcome {
        self.writes += 1;
        let bit = self.bit(node);
        let new = State::Modified(node).pack();
        let entries = self.shards.of_mut(line);
        if let Some(v) = entries.get_mut(line) {
            let outcome = match State::unpack(*v) {
                State::Shared(mask) => {
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
                State::Modified(owner) if owner == node => WriteOutcome {
                    invalidate: 0,
                    fetch_from: None,
                    from_memory: false,
                },
                State::Modified(owner) => {
                    self.owner_forwards += 1;
                    WriteOutcome {
                        invalidate: 0,
                        fetch_from: Some(owner),
                        from_memory: false,
                    }
                }
            };
            *v = new;
            return outcome;
        }
        entries.insert(line, new);
        WriteOutcome {
            invalidate: 0,
            fetch_from: None,
            from_memory: true,
        }
    }

    /// `node` silently dropped its copy (clean eviction) or wrote back
    /// (dirty eviction). Keeps the directory conservative-but-correct:
    /// with coarse sharer groups a clean eviction cannot clear the
    /// group's bit (another member may still share the line), so only
    /// the node-precise granularity ever shrinks a shared mask.
    pub fn evict(&mut self, line: Line, node: u32) {
        let bit = self.bit(node);
        let precise = self.granularity == 1;
        let entries = self.shards.of_mut(line);
        let Some(v) = entries.get(line) else {
            return;
        };
        match State::unpack(v) {
            State::Shared(mask) if precise => {
                let mask = mask & !bit;
                if mask == 0 {
                    entries.remove(line);
                } else if let Some(slot) = entries.get_mut(line) {
                    *slot = State::Shared(mask).pack();
                }
            }
            State::Shared(_) => {}
            State::Modified(owner) if owner == node => {
                entries.remove(line);
            }
            State::Modified(_) => {}
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
        // Lines of a page are 64 consecutive indices in one shard:
        // probing each beats an ordered range scan, and ascending
        // order falls out of the loop (bit-compatible with the old
        // BTreeMap range).
        let start = first_line_of_page(vpn);
        let g = self.granularity;
        let entries = self.shards.of_mut(start);
        for line in start..start + LINES_PER_PAGE {
            if let Some(v) = entries.remove(line) {
                let mask = match State::unpack(v) {
                    State::Shared(m) => m,
                    State::Modified(o) => 1 << (o / g),
                };
                out.push((line, mask));
            }
        }
    }

    /// Sharer mask of `line` (modified owner counts as one sharer).
    pub fn sharers(&self, line: Line) -> SharerMask {
        let g = self.granularity;
        match self.shards.of(line).get(line) {
            None => 0,
            Some(v) => match State::unpack(v) {
                State::Shared(m) => m,
                State::Modified(o) => 1 << (o / g),
            },
        }
    }

    /// Whether `line` is held modified, and by whom.
    pub fn modified_owner(&self, line: Line) -> Option<u32> {
        match self.shards.of(line).get(line).map(State::unpack) {
            Some(State::Modified(o)) => Some(o),
            _ => None,
        }
    }

    /// Number of lines with directory state.
    pub fn tracked_lines(&self) -> usize {
        self.shards.0.iter().map(|s| s.len()).sum()
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
    shards,
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

    #[test]
    fn sharded_directory_behaves_like_single_shard() {
        // Drive the same transaction stream through 1 and 4 shards:
        // every outcome and counter must agree (the shard split is an
        // implementation detail).
        let mut one = Directory::with_topology(1, 8);
        let mut four = Directory::with_topology(4, 8);
        assert_eq!(four.shard_count(), 4);
        for (line, node) in [(64u64, 0u32), (70, 1), (129, 2), (200, 3), (64, 2), (300, 0)] {
            assert_eq!(one.read(line, node), four.read(line, node), "read {line} {node}");
        }
        for (line, node) in [(64u64, 1u32), (129, 0), (300, 0)] {
            assert_eq!(one.write(line, node), four.write(line, node), "write {line} {node}");
        }
        one.evict(70, 1);
        four.evict(70, 1);
        assert_eq!(one.purge_page(1), four.purge_page(1));
        assert_eq!(one.tracked_lines(), four.tracked_lines());
        assert_eq!(one.invalidations_sent(), four.invalidations_sent());
        // Identical checkpoint bytes: the split is not observable.
        let mut w1 = CkptWriter::new();
        let mut w4 = CkptWriter::new();
        w1.begin_section(1);
        one.save(&mut w1);
        w1.end_section();
        w4.begin_section(1);
        four.save(&mut w4);
        w4.end_section();
        assert_eq!(w1.finish(), w4.finish());
    }

    #[test]
    fn sharded_checkpoint_restores_into_any_shard_count() {
        let mut d = Directory::with_topology(3, 8);
        d.read(64, 0);
        d.write(129, 2);
        d.read(700, 1);
        let mut w = CkptWriter::new();
        w.begin_section(1);
        d.save(&mut w);
        w.end_section();
        let bytes = w.finish();
        let mut e = Directory::with_topology(5, 8);
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        e.restore(&mut r).unwrap();
        r.end_section().unwrap();
        assert_eq!(e.tracked_lines(), 3);
        assert_eq!(e.modified_owner(129), Some(2));
        assert_eq!(e.sharers(700), 0b10);
    }

    #[test]
    fn coarse_vector_groups_nodes_past_32() {
        // 64 nodes: 2 nodes per sharer bit.
        let mut d = Directory::with_topology(1, 64);
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
        let mut d = Directory::with_topology(1, 64);
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
        let d = Directory::with_topology(1, 64);
        let mut nodes = Vec::new();
        d.expand_mask(0b1 | (1 << 31), 64, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 62, 63]);
        // Precise directory: expansion is the identity.
        let d = Directory::with_topology(1, 8);
        let mut nodes = Vec::new();
        d.expand_mask(0b1011, 8, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 3]);
        // The last group is clipped to the node count.
        let d = Directory::with_topology(1, 33); // granularity 2
        let mut nodes = Vec::new();
        d.expand_mask(1 << 16, 33, |n| nodes.push(n));
        assert_eq!(nodes, vec![32]);
    }
}
