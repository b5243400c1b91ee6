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

/// A fully associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// `(vpn, last_use)` pairs; length <= capacity.
    entries: Vec<(Vpn, u64)>,
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
            clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Look up `vpn`, updating LRU state. Returns `true` on a hit.
    /// On a miss the entry is *not* inserted — callers insert after the
    /// page-table walk succeeds (the page may not be resident at all).
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
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

    /// Insert a translation for `vpn`, evicting the LRU entry if full.
    pub fn insert(&mut self, vpn: Vpn) {
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
                .expect("TLB full implies non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.clock));
    }

    /// Remove the entry for `vpn` (TLB shootdown). Returns `true` if an
    /// entry was present — only then does the processor pay the
    /// shootdown interrupt.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        if let Some(i) = self.entries.iter().position(|e| e.0 == vpn) {
            self.entries.swap_remove(i);
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Whether `vpn` is currently cached (no LRU update).
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.entries.iter().any(|e| e.0 == vpn)
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
// swap-removes), so entries are saved exactly as stored.
nw_sim::persist!(Tlb { entries, clock, hits, misses, invalidations } check |t| {
    (t.entries.len() > t.capacity)
        .then(|| format!("TLB holds {} entries, capacity is {}", t.entries.len(), t.capacity))
});

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
