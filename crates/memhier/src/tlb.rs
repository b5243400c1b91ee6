//! Translation lookaside buffer with shootdown support.
//!
//! The paper's VM system keeps a machine-wide page table; every time a
//! page's access rights are downgraded (e.g. it is chosen for
//! replacement) a *TLB shootdown* interrupts all other processors,
//! which must delete their entry for the page (§3.1). The TLB model
//! here is fully associative with true-LRU replacement; the shootdown
//! latencies themselves (100/500/400 pcycles) are charged by the
//! machine model.

use crate::Vpn;
use nw_sim::ckpt::{CkptError, CkptReader, CkptWriter, Persist};

/// `2^64 / phi`, the Fibonacci hashing multiplier.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Marks an empty [`Index`] bucket.
const EMPTY: u32 = u32::MAX;

/// Derived map from a cached vpn to its position in [`Tlb::entries`]:
/// open addressing with linear probing over at least twice as many
/// buckets as the TLB has entries, and backward-shift deletion (no
/// tombstones). It is never saved; restore rebuilds it.
#[derive(Debug, Clone)]
struct Index {
    keys: Vec<Vpn>,
    /// Entry position per bucket, [`EMPTY`] for a free bucket.
    slots: Vec<u32>,
    /// `64 - log2(buckets)`: the hash's top bits pick the bucket.
    shift: u32,
}

impl Index {
    fn new(capacity: usize) -> Self {
        let buckets = (2 * capacity).next_power_of_two().max(2);
        Index {
            keys: vec![0; buckets],
            slots: vec![EMPTY; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, vpn: Vpn) -> usize {
        (vpn.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Bucket holding `vpn`, if cached.
    #[inline]
    fn bucket(&self, vpn: Vpn) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut b = self.home(vpn);
        loop {
            if self.slots[b] == EMPTY {
                return None;
            }
            if self.keys[b] == vpn {
                return Some(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Entry position of `vpn`, if cached.
    #[inline]
    fn get(&self, vpn: Vpn) -> Option<usize> {
        self.bucket(vpn).map(|b| self.slots[b] as usize)
    }

    /// Record that `vpn` (absent) now sits at entry position `pos`.
    fn insert(&mut self, vpn: Vpn, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut b = self.home(vpn);
        while self.slots[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.keys[b] = vpn;
        self.slots[b] = pos as u32;
    }

    /// Point the cached `vpn` at entry position `pos`.
    fn relocate(&mut self, vpn: Vpn, pos: usize) {
        let b = self.bucket(vpn).expect("relocated vpn is indexed");
        self.slots[b] = pos as u32;
    }

    /// Drop the cached `vpn`, shifting displaced keys back over the hole.
    fn remove(&mut self, vpn: Vpn) {
        let mask = self.slots.len() - 1;
        let mut hole = self.bucket(vpn).expect("removed vpn is indexed");
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            if self.slots[b] == EMPTY {
                break;
            }
            // The key at `b` may fill the hole only if that does not
            // move it before its home bucket.
            let home = self.home(self.keys[b]);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[b];
                self.slots[hole] = self.slots[b];
                hole = b;
            }
        }
        self.slots[hole] = EMPTY;
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }
}

/// A fully associative, LRU translation lookaside buffer.
///
/// Entries are kept in a `Vec` whose order is observable (the LRU scan
/// breaks ties by position, and removal swaps the last entry into the
/// hole); a derived [`Index`] finds a vpn's entry in O(1).
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// `(vpn, last_use)` pairs; length <= capacity.
    entries: Vec<(Vpn, u64)>,
    index: Index,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// A TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            index: Index::new(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Look up `vpn`, updating LRU state. Returns `true` on a hit.
    /// On a miss the entry is *not* inserted — callers insert after the
    /// page-table walk succeeds (the page may not be resident at all).
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        self.clock += 1;
        if let Some(i) = self.index.get(vpn) {
            self.entries[i].1 = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Insert a translation for `vpn`, evicting the LRU entry if full.
    pub fn insert(&mut self, vpn: Vpn) {
        self.clock += 1;
        if let Some(i) = self.index.get(vpn) {
            self.entries[i].1 = self.clock;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("TLB full implies non-empty");
            self.swap_remove(lru);
        }
        self.index.insert(vpn, self.entries.len());
        self.entries.push((vpn, self.clock));
    }

    /// Remove the entry for `vpn` (TLB shootdown). Returns `true` if an
    /// entry was present — only then does the processor pay the
    /// shootdown interrupt.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        if let Some(i) = self.index.get(vpn) {
            self.swap_remove(i);
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Remove entry `i`, moving the last entry into its place.
    fn swap_remove(&mut self, i: usize) {
        let (vpn, _) = self.entries.swap_remove(i);
        self.index.remove(vpn);
        if let Some(&(moved, _)) = self.entries.get(i) {
            self.index.relocate(moved, i);
        }
    }

    /// Whether `vpn` is currently cached (no LRU update).
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.index.get(vpn).is_some()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total successful invalidations.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

// Entry order is observable (LRU eviction scans in order and
// swap-removes), so entries are saved exactly as stored; the index is
// rebuilt from them.
impl Persist for Tlb {
    fn save(&self, w: &mut CkptWriter) {
        self.entries.save(w);
        self.clock.save(w);
        self.hits.save(w);
        self.misses.save(w);
        self.invalidations.save(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.entries.restore(r)?;
        self.clock.restore(r)?;
        self.hits.restore(r)?;
        self.misses.restore(r)?;
        self.invalidations.restore(r)?;
        if self.entries.len() > self.capacity {
            return Err(r.invalid(format!(
                "TLB holds {} entries, capacity is {}",
                self.entries.len(),
                self.capacity
            )));
        }
        self.index.clear();
        for (i, &(vpn, _)) in self.entries.iter().enumerate() {
            if self.index.get(vpn).is_some() {
                return Err(r.invalid(format!("TLB holds vpn {vpn} twice")));
            }
            self.index.insert(vpn, i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.lookup(10));
        tlb.insert(10);
        assert!(tlb.lookup(10));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1);
        tlb.insert(2);
        assert!(tlb.lookup(1)); // 2 is now LRU
        tlb.insert(3); // evicts 2
        assert!(tlb.contains(1));
        assert!(!tlb.contains(2));
        assert!(tlb.contains(3));
    }

    #[test]
    fn insert_existing_refreshes() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1);
        tlb.insert(2);
        tlb.insert(1); // refresh, not duplicate
        assert_eq!(tlb.len(), 2);
        tlb.insert(3); // evicts 2 (LRU), not 1
        assert!(tlb.contains(1));
        assert!(!tlb.contains(2));
    }

    #[test]
    fn shootdown_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.insert(7);
        assert!(tlb.invalidate(7));
        assert!(!tlb.invalidate(7)); // already gone
        assert!(!tlb.contains(7));
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn capacity_respected() {
        let mut tlb = Tlb::new(8);
        for v in 0..100 {
            tlb.insert(v);
        }
        assert_eq!(tlb.len(), 8);
        // The most recent 8 survive under LRU.
        for v in 92..100 {
            assert!(tlb.contains(v), "missing {v}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
