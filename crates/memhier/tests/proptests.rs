//! Randomized property tests for memory-hierarchy invariants, driven
//! by the in-tree deterministic [`Pcg32`].

use nw_memhier::{
    page_of_line, Cache, CacheConfig, Directory, ReadOutcome, Tlb, WbOutcome, WriteBuffer,
    WriteOutcome, LINES_PER_PAGE,
};
use nw_sim::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use nw_sim::Pcg32;
use std::collections::BTreeMap;

const CASES: u64 = 48;

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 1024,
        assoc: 2,
        line_bytes: 64,
    })
}

/// After any access sequence, a line the cache claims to contain
/// hits, and the number of valid lines never exceeds capacity.
#[test]
fn cache_capacity_invariant() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3A, case);
        let n = rng.gen_range(1, 300) as usize;
        let mut c = tiny_cache();
        for _ in 0..n {
            let l = rng.gen_range(0, 256);
            if let nw_memhier::LookupResult::Miss = c.access(l, false) {
                c.fill(l, false);
            }
            assert!(c.contains(l), "case {case}");
        }
        // Capacity: 1024/64 = 16 lines max.
        let present = (0u64..256).filter(|&l| c.contains(l)).count();
        assert!(present <= 16, "case {case}");
    }
}

/// fill() after a miss makes the next access to the same line hit.
#[test]
fn cache_fill_then_hit() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3B, case);
        let l = rng.gen_range(0, 100_000);
        let mut c = tiny_cache();
        assert_eq!(c.access(l, false), nw_memhier::LookupResult::Miss);
        c.fill(l, false);
        assert_eq!(c.access(l, false), nw_memhier::LookupResult::Hit);
    }
}

/// Dirty data is never silently lost: every dirty line leaves the
/// cache only via a dirty eviction or an invalidate reporting dirty.
#[test]
fn cache_no_silent_dirty_loss() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3C, case);
        let n = rng.gen_range(1, 400) as usize;
        let mut c = tiny_cache();
        let mut dirty_model = std::collections::HashSet::new();
        for _ in 0..n {
            let l = rng.gen_range(0, 64);
            let w = rng.gen_bool(0.5);
            match c.access(l, w) {
                nw_memhier::LookupResult::Hit => {
                    if w {
                        dirty_model.insert(l);
                    }
                }
                nw_memhier::LookupResult::Miss => {
                    if let Some(ev) = c.fill(l, w) {
                        // Model and cache must agree on victim dirtiness.
                        assert_eq!(
                            ev.dirty,
                            dirty_model.remove(&ev.line),
                            "case {case}: victim {} dirtiness mismatch",
                            ev.line
                        );
                    }
                    if w {
                        dirty_model.insert(l);
                    }
                }
            }
        }
        for &l in &dirty_model {
            assert!(
                c.is_dirty(l),
                "case {case}: model says {l} dirty, cache disagrees"
            );
        }
    }
}

/// TLB never exceeds capacity and lookups after insert hit.
#[test]
fn tlb_capacity() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3D, case);
        let n = rng.gen_range(1, 200) as usize;
        let cap = rng.gen_range(1, 16) as usize;
        let mut tlb = Tlb::new(cap);
        for _ in 0..n {
            let v = rng.gen_range(0, 64);
            tlb.insert(v);
            assert!(tlb.lookup(v), "case {case}");
            assert!(tlb.len() <= cap, "case {case}");
        }
    }
}

/// Directory: after any transaction mix, a modified line has exactly
/// one sharer, and purging a page removes all its state.
#[test]
fn directory_single_writer() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3E, case);
        let n = rng.gen_range(1, 300) as usize;
        let mut d = Directory::new();
        let mut lines_seen = Vec::new();
        for _ in 0..n {
            let line = rng.gen_range(0, 128);
            let node = rng.gen_below(8);
            lines_seen.push(line);
            if rng.gen_bool(0.5) {
                d.write(line, node);
                assert_eq!(d.modified_owner(line), Some(node), "case {case}");
                assert_eq!(d.sharers(line).count_ones(), 1, "case {case}");
            } else {
                d.read(line, node);
                assert!(d.sharers(line) & (1 << node) != 0, "case {case}");
            }
        }
        // Purge every page seen; directory must end empty.
        let mut pages: Vec<u64> = lines_seen.iter().map(|&l| page_of_line(l)).collect();
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            for (line, mask) in d.purge_page(p) {
                assert!(mask != 0, "case {case}");
                assert_eq!(page_of_line(line), p, "case {case}");
            }
        }
        assert_eq!(d.tracked_lines(), 0, "case {case}");
    }
}

/// Purged lines all belong to the requested page and are sorted.
#[test]
fn directory_purge_sorted() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3F, case);
        let n = rng.gen_range(1, 100) as usize;
        let mut d = Directory::new();
        for _ in 0..n {
            let l = rng.gen_range(0, 4 * LINES_PER_PAGE);
            d.read(l, (l % 8) as u32);
        }
        let purged = d.purge_page(1);
        let mut prev = None;
        for (l, _) in purged {
            assert_eq!(page_of_line(l), 1, "case {case}");
            if let Some(p) = prev {
                assert!(l > p, "case {case}");
            }
            prev = Some(l);
        }
    }
}

/// Bytes `save` writes into a one-section checkpoint.
fn saved(save: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
    let mut w = CkptWriter::new();
    w.begin_section(1);
    save(&mut w);
    w.end_section();
    w.finish()
}

/// Restore `target` from a one-section checkpoint.
fn restore_into<T: Persist>(target: &mut T, bytes: &[u8]) -> Result<(), CkptError> {
    let mut r = CkptReader::new(bytes).expect("well-formed container");
    r.begin_section(1)?;
    target.restore(&mut r)?;
    r.end_section()
}

/// A line's state in the reference directory.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RefState {
    Shared(u32),
    Modified(u32),
}

/// Reference directory: the MSI rules of `Directory` written plainly
/// over a `BTreeMap`, with the same coarse-vector granularity.
struct RefDir {
    g: u32,
    map: BTreeMap<u64, RefState>,
    counts: [u64; 4],
}

impl RefDir {
    fn new(nodes: u32) -> Self {
        RefDir {
            g: nodes.div_ceil(32).max(1),
            map: BTreeMap::new(),
            counts: [0; 4],
        }
    }

    fn bit(&self, node: u32) -> u32 {
        1 << (node / self.g)
    }

    fn read(&mut self, line: u64, node: u32) -> ReadOutcome {
        self.counts[0] += 1;
        let bit = self.bit(node);
        match self.map.get(&line).copied() {
            None => {
                self.map.insert(line, RefState::Shared(bit));
                ReadOutcome::FromMemory
            }
            Some(RefState::Shared(m)) => {
                self.map.insert(line, RefState::Shared(m | bit));
                ReadOutcome::FromMemoryShared
            }
            Some(RefState::Modified(o)) if o == node => ReadOutcome::FromMemoryShared,
            Some(RefState::Modified(o)) => {
                self.counts[3] += 1;
                self.map.insert(line, RefState::Shared(bit | self.bit(o)));
                ReadOutcome::FromOwner { owner: o }
            }
        }
    }

    fn write(&mut self, line: u64, node: u32) -> WriteOutcome {
        self.counts[1] += 1;
        let bit = self.bit(node);
        let out = match self.map.get(&line).copied() {
            None => WriteOutcome {
                invalidate: 0,
                fetch_from: None,
                from_memory: true,
            },
            Some(RefState::Shared(m)) => {
                self.counts[2] += (m & !bit).count_ones() as u64;
                WriteOutcome {
                    invalidate: m & !bit,
                    fetch_from: None,
                    from_memory: m & bit == 0,
                }
            }
            Some(RefState::Modified(o)) => {
                if o != node {
                    self.counts[3] += 1;
                }
                WriteOutcome {
                    invalidate: 0,
                    fetch_from: (o != node).then_some(o),
                    from_memory: false,
                }
            }
        };
        self.map.insert(line, RefState::Modified(node));
        out
    }

    fn evict(&mut self, line: u64, node: u32) {
        match self.map.get(&line).copied() {
            Some(RefState::Shared(m)) if self.g == 1 => {
                let m = m & !self.bit(node);
                if m == 0 {
                    self.map.remove(&line);
                } else {
                    self.map.insert(line, RefState::Shared(m));
                }
            }
            Some(RefState::Modified(o)) if o == node => {
                self.map.remove(&line);
            }
            _ => {}
        }
    }

    fn mask(&self, s: RefState) -> u32 {
        match s {
            RefState::Shared(m) => m,
            RefState::Modified(o) => self.bit(o),
        }
    }

    fn purge(&mut self, vpn: u64) -> Vec<(u64, u32)> {
        let start = vpn * LINES_PER_PAGE;
        let page = self.map.range(start..start + LINES_PER_PAGE);
        let purged: Vec<(u64, u32)> = page.map(|(&l, &s)| (l, self.mask(s))).collect();
        for (l, _) in &purged {
            self.map.remove(l);
        }
        purged
    }

    fn sharers(&self, line: u64) -> u32 {
        self.map.get(&line).map_or(0, |&s| self.mask(s))
    }

    fn modified_owner(&self, line: u64) -> Option<u32> {
        match self.map.get(&line) {
            Some(&RefState::Modified(o)) => Some(o),
            _ => None,
        }
    }

    /// The checkpoint layout: the sorted `(line, packed state)` list,
    /// then the four transaction counters.
    fn save(&self, w: &mut CkptWriter) {
        w.usize(self.map.len());
        for (&line, &s) in &self.map {
            w.u64(line);
            w.u64(match s {
                RefState::Shared(m) => m as u64,
                RefState::Modified(o) => 1 << 63 | o as u64,
            });
        }
        for c in self.counts {
            w.u64(c);
        }
    }
}

/// Directory vs the reference model: random reads, writes, evictions
/// and page purges agree on every outcome, sharer mask, modified owner
/// and tracked-line count, and the two checkpoint to the same bytes —
/// for the footprint-sized table and the grow-on-demand one, at
/// node-precise and coarse granularity, across a mid-sequence
/// save/restore.
#[test]
fn directory_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E41, case);
        let nodes = [8u32, 32, 64, 1024][(case / 2 % 4) as usize];
        // Grow-on-demand directories are node-precise (up to 32 nodes).
        let grown = case % 2 == 1 && nodes <= 32;
        let pages = rng.gen_range(1, 12);
        let new_dir = || {
            if grown {
                Directory::new()
            } else {
                Directory::with_lines(pages * LINES_PER_PAGE, nodes)
            }
        };
        let mut d = new_dir();
        let mut model = RefDir::new(if grown { 1 } else { nodes });
        let steps = rng.gen_range(1, 800);
        for step in 0..steps {
            let line = rng.gen_range(0, pages * LINES_PER_PAGE);
            let node = rng.gen_below(nodes);
            let ctx = format!("case {case} step {step} line {line} node {node}");
            match rng.gen_below(8) {
                0..=2 => assert_eq!(d.read(line, node), model.read(line, node), "read {ctx}"),
                3..=4 => assert_eq!(d.write(line, node), model.write(line, node), "write {ctx}"),
                5 => {
                    // Evict a real sharer half the time, so states shrink.
                    let node = match model.map.get(&line) {
                        Some(&RefState::Modified(o)) if rng.gen_bool(0.5) => o,
                        _ => node,
                    };
                    d.evict(line, node);
                    model.evict(line, node);
                }
                6 => {
                    let vpn = rng.gen_below(pages as u32) as u64;
                    let mut out = vec![(7, 7)];
                    d.purge_page_into(vpn, &mut out);
                    assert_eq!(out, model.purge(vpn), "purge {ctx}");
                }
                _ => {
                    let bytes = saved(|w| d.save(w));
                    assert_eq!(bytes, saved(|w| model.save(w)), "save {ctx}");
                    let mut e = new_dir();
                    restore_into(&mut e, &bytes).expect("own checkpoint restores");
                    d = e;
                }
            }
            assert_eq!(d.sharers(line), model.sharers(line), "sharers {ctx}");
            assert_eq!(
                d.modified_owner(line),
                model.modified_owner(line),
                "owner {ctx}"
            );
            assert_eq!(d.tracked_lines(), model.map.len(), "tracked {ctx}");
        }
        assert_eq!(
            saved(|w| d.save(w)),
            saved(|w| model.save(w)),
            "case {case}"
        );
        assert_eq!(
            (
                d.read_count(),
                d.write_count(),
                d.invalidations_sent(),
                d.owner_forwards()
            ),
            (
                model.counts[0],
                model.counts[1],
                model.counts[2],
                model.counts[3]
            ),
            "case {case}"
        );
    }
}

/// The grow-on-demand directory keeps working for lines far past what
/// it has seen, and its checkpoint matches the model's.
#[test]
fn grown_directory_reaches_sparse_lines() {
    let mut rng = Pcg32::new(0x3E43, 0);
    let mut d = Directory::new();
    let mut model = RefDir::new(1);
    for _ in 0..2000 {
        let line = match rng.gen_below(3) {
            0 => rng.gen_range(0, 64),
            1 => 100_000 + rng.gen_range(0, 64),
            _ => rng.gen_range(0, 1 << 19),
        };
        let node = rng.gen_below(32);
        if rng.gen_bool(0.5) {
            assert_eq!(d.write(line, node), model.write(line, node));
        } else {
            assert_eq!(d.read(line, node), model.read(line, node));
        }
    }
    assert_eq!(
        d.purge_page(100_000 / LINES_PER_PAGE),
        model.purge(100_000 / LINES_PER_PAGE)
    );
    assert_eq!(saved(|w| d.save(w)), saved(|w| model.save(w)));
}

/// Restore rejects an entry with an empty sharer set (state 0 means
/// "untracked" and is never saved), a repeated line, and a line outside
/// a footprint-sized table, with `CkptError::Invalid`.
#[test]
fn directory_restore_rejects_malformed_entries() {
    let entries = |list: &[(u64, u64)]| {
        saved(|w| {
            w.usize(list.len());
            for &(l, v) in list {
                w.u64(l);
                w.u64(v);
            }
            for _ in 0..4 {
                w.u64(0);
            }
        })
    };
    let good = entries(&[(3, 0b1), (70, 1 << 63 | 2)]);
    let bad = [
        entries(&[(3, 0b1), (5, 0)]),
        entries(&[(5, 0b1), (5, 0b10)]),
        entries(&[(5, 1 << 63 | 1), (9, 0b1), (5, 0b1)]),
    ];
    for mut d in [
        Directory::new(),
        Directory::with_lines(2 * LINES_PER_PAGE, 8),
    ] {
        for b in &bad {
            let err = restore_into(&mut d, b).expect_err("malformed entry must be rejected");
            assert!(matches!(err, CkptError::Invalid { .. }), "{err}");
        }
        restore_into(&mut d, &good).expect("well-formed entries restore");
        assert_eq!(d.tracked_lines(), 2);
        assert_eq!(d.modified_owner(70), Some(2));
        assert_eq!(saved(|w| d.save(w)), good);
    }
    let far = entries(&[(2 * LINES_PER_PAGE, 0b1)]);
    let mut sized = Directory::with_lines(2 * LINES_PER_PAGE, 8);
    assert!(matches!(
        restore_into(&mut sized, &far),
        Err(CkptError::Invalid { .. })
    ));
    let huge = entries(&[(u64::MAX >> 1, 0b1)]);
    assert!(matches!(
        restore_into(&mut Directory::new(), &huge),
        Err(CkptError::Invalid { .. })
    ));
}

/// Reference TLB: the same entry list, found by a linear scan instead
/// of an index (the reference for [`tlb_index_matches_linear_model`]).
struct LinearTlb {
    capacity: usize,
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl LinearTlb {
    fn new(capacity: usize) -> Self {
        LinearTlb {
            capacity,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn lookup(&mut self, vpn: u64) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, vpn: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = self.clock;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .unwrap();
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.clock));
    }

    fn invalidate(&mut self, vpn: u64) -> bool {
        if let Some(i) = self.entries.iter().position(|e| e.0 == vpn) {
            self.entries.swap_remove(i);
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    fn save(&self, w: &mut CkptWriter) {
        w.usize(self.entries.len());
        for &(vpn, t) in &self.entries {
            w.u64(vpn);
            w.u64(t);
        }
        for v in [self.clock, self.hits, self.misses, self.invalidations] {
            w.u64(v);
        }
    }
}

/// The indexed TLB agrees with the linear-scan model on every hit or
/// miss, every invalidation, and — through the saved bytes, which hold
/// the entries in order — every victim, the entry order and all
/// counters, including across save/restore in mid-sequence.
#[test]
fn tlb_index_matches_linear_model() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E44, case);
        let cap = [1usize, 2, 3, 7, 16, 64][(case % 6) as usize];
        let span = rng.gen_range(1, 3 * cap as u64 + 2);
        let mut tlb = Tlb::new(cap);
        let mut model = LinearTlb::new(cap);
        for step in 0..rng.gen_range(1, 1500) {
            // Mostly a working set near capacity, sometimes far pages.
            let vpn = if rng.gen_bool(0.9) {
                rng.gen_range(0, span)
            } else {
                rng.next_u64() >> 8
            };
            let ctx = format!("case {case} step {step} vpn {vpn}");
            match rng.gen_below(10) {
                0..=4 => assert_eq!(tlb.lookup(vpn), model.lookup(vpn), "lookup {ctx}"),
                5..=7 => {
                    tlb.insert(vpn);
                    model.insert(vpn);
                }
                8 => assert_eq!(
                    tlb.invalidate(vpn),
                    model.invalidate(vpn),
                    "invalidate {ctx}"
                ),
                _ => {
                    let bytes = saved(|w| tlb.save(w));
                    let mut fresh = Tlb::new(cap);
                    restore_into(&mut fresh, &bytes).expect("own checkpoint restores");
                    tlb = fresh;
                }
            }
            assert_eq!(
                tlb.contains(vpn),
                model.entries.iter().any(|e| e.0 == vpn),
                "{ctx}"
            );
            assert_eq!(tlb.len(), model.entries.len(), "{ctx}");
            assert_eq!(saved(|w| tlb.save(w)), saved(|w| model.save(w)), "{ctx}");
        }
        assert_eq!(
            (tlb.hits(), tlb.misses(), tlb.invalidations()),
            (model.hits, model.misses, model.invalidations),
            "case {case}"
        );
    }
}

/// TLB restore rejects more entries than the capacity and a repeated
/// vpn (the index needs each vpn once).
#[test]
fn tlb_restore_rejects_overfull_and_duplicate_entries() {
    let with = |entries: &[(u64, u64)]| {
        let mut m = LinearTlb::new(8);
        m.entries = entries.to_vec();
        saved(|w| m.save(w))
    };
    let mut tlb = Tlb::new(2);
    for bad in [with(&[(1, 1), (2, 2), (3, 3)]), with(&[(4, 1), (4, 2)])] {
        let err = restore_into(&mut tlb, &bad).expect_err("must be rejected");
        assert!(matches!(err, CkptError::Invalid { .. }), "{err}");
    }
}

/// Write buffer: drained lines come out in insertion order and every
/// queued line is eventually drained exactly once.
#[test]
fn wbuffer_fifo() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E40, case);
        let n = rng.gen_range(1, 100) as usize;
        let mut wb = WriteBuffer::new(8);
        let mut expected = Vec::new();
        for _ in 0..n {
            let l = rng.gen_range(0, 32);
            match wb.insert(l) {
                WbOutcome::Queued => expected.push(l),
                WbOutcome::Coalesced => {}
                WbOutcome::Full => {
                    let drained = wb.drain_one().unwrap();
                    assert_eq!(drained, expected.remove(0), "case {case}");
                    assert_eq!(wb.insert(l), WbOutcome::Queued, "case {case}");
                    expected.push(l);
                }
            }
        }
        while let Some(d) = wb.drain_one() {
            assert_eq!(d, expected.remove(0), "case {case}");
        }
        assert!(expected.is_empty(), "case {case}");
    }
}
