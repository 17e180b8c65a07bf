//! Differential property test of the hot-row cache: the O(1) slab LRU
//! against the lazy-queue LRU it replaced, kept here as the reference,
//! both behind the same frequency-gated admission (the reference keeps
//! its own plain counts). On random lookup, insert, invalidate, resize,
//! count-clearing and reset sequences over row ids above `u32::MAX`, both
//! must report the same hit or miss on every lookup and the same
//! counters, resident bytes, row count and access counts after every
//! step, and neither may hold more bytes than its capacity.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};

use ecssd_ssd::{CacheStats, HotRowCache};
use proptest::prelude::*;

/// The lazy-queue LRU: a map of row → (bytes, sequence of the latest
/// touch) and a queue of `(row, seq)` pairs in touch order, where a pair
/// whose `seq` no longer matches the entry is stale and skipped on
/// eviction. Admission: every lookup bumps a count that saturates at 15,
/// after `10 × full_rows` lookups all counts halve, and a row that does
/// not fit is inserted only if its count beats the LRU row's.
#[derive(Debug, Default)]
struct LazyLru {
    capacity_bytes: u64,
    resident_bytes: u64,
    entries: HashMap<u64, (u64, u64)>,
    order: VecDeque<(u64, u64)>,
    seq: u64,
    counts: HashMap<u64, u8>,
    /// Lookups since the counts last halved.
    lookups: u64,
    /// Rows resident when an insert last found the cache full.
    full_rows: u64,
    stats: CacheStats,
}

impl LazyLru {
    fn new(capacity_bytes: u64) -> Self {
        LazyLru {
            capacity_bytes,
            ..Self::default()
        }
    }

    fn touch(&mut self, row: u64, bytes: u64) {
        self.seq += 1;
        self.entries.insert(row, (bytes, self.seq));
        self.order.push_back((row, self.seq));
        if self.order.len() > 4 * self.entries.len().max(16) {
            let entries = &self.entries;
            self.order
                .retain(|&(r, s)| entries.get(&r).is_some_and(|&(_, live)| live == s));
        }
    }

    fn is_live(&self, (row, seq): (u64, u64)) -> bool {
        self.entries.get(&row).is_some_and(|&(_, live)| live == seq)
    }

    /// The least recently used resident row, dropping stale pairs ahead
    /// of it.
    fn victim(&mut self) -> Option<u64> {
        while let Some(&front) = self.order.front() {
            if self.is_live(front) {
                return Some(front.0);
            }
            self.order.pop_front();
        }
        None
    }

    fn count(&self, row: u64) -> u8 {
        self.counts.get(&row).copied().unwrap_or(0)
    }

    fn evict_one(&mut self) -> bool {
        let Some(pair) = self.order.pop_front() else {
            return false;
        };
        if self.is_live(pair) {
            let (bytes, _) = self.entries.remove(&pair.0).unwrap();
            self.resident_bytes -= bytes;
            self.stats.evictions += 1;
        }
        true
    }

    fn lookup(&mut self, row: u64) -> bool {
        if self.capacity_bytes == 0 {
            return false;
        }
        let count = self.counts.entry(row).or_default();
        *count = (*count + 1).min(15);
        self.lookups += 1;
        if self.full_rows > 0 && self.lookups >= 10 * self.full_rows {
            self.lookups = 0;
            for count in self.counts.values_mut() {
                *count /= 2;
            }
            self.counts.retain(|_, count| *count > 0);
        }
        match self.entries.get(&row).copied() {
            Some((bytes, _)) => {
                self.stats.hits += 1;
                self.stats.bytes_saved += bytes;
                self.touch(row, bytes);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, row: u64, bytes: u64) {
        if self.capacity_bytes == 0 || bytes > self.capacity_bytes {
            return;
        }
        if let Some(&(old, _)) = self.entries.get(&row) {
            self.resident_bytes -= old;
            self.touch(row, bytes);
            self.resident_bytes += bytes;
            while self.resident_bytes > self.capacity_bytes && self.evict_one() {}
            return;
        }
        if self.resident_bytes + bytes > self.capacity_bytes {
            self.full_rows = self.entries.len() as u64;
            let victim = self.victim().unwrap();
            if self.count(row) <= self.count(victim) {
                return;
            }
            while self.resident_bytes + bytes > self.capacity_bytes && self.evict_one() {}
        }
        self.stats.insertions += 1;
        self.touch(row, bytes);
        self.resident_bytes += bytes;
    }

    fn invalidate_rows(&mut self, rows: &[u64]) {
        if self.capacity_bytes == 0 {
            return;
        }
        for row in rows {
            if let Some((bytes, _)) = self.entries.remove(row) {
                self.resident_bytes -= bytes;
                self.stats.invalidations += 1;
            }
        }
    }

    fn set_capacity(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
        while self.resident_bytes > self.capacity_bytes && self.evict_one() {}
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            resident_bytes: self.resident_bytes,
            capacity_bytes: self.capacity_bytes,
            ..self.stats
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Insert(u64, u64),
    Invalidate(Vec<u64>),
    SetCapacity(u64),
    ClearCounts,
    Reset,
}

/// Row ids from a small pool, so rows recur, spread above `u32::MAX`.
fn row() -> impl Strategy<Value = u64> {
    (0u64..24).prop_map(|r| (r << 32) | (r * 7 + 3))
}

fn bytes() -> impl Strategy<Value = u64> {
    prop_oneof![4 => Just(4096u64), 1 => 0u64..3 * 4096]
}

fn capacity() -> impl Strategy<Value = u64> {
    prop_oneof![1 => Just(0u64), 4 => 0u64..16 * 4096]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => row().prop_map(Op::Lookup),
        8 => (row(), bytes()).prop_map(|(r, b)| Op::Insert(r, b)),
        2 => prop::collection::vec(row(), 0..4).prop_map(Op::Invalidate),
        1 => capacity().prop_map(Op::SetCapacity),
        1 => Just(Op::ClearCounts),
        1 => Just(Op::Reset),
    ]
}

proptest! {
    #[test]
    fn slab_lru_matches_the_lazy_queue_lru(
        initial in capacity(),
        ops in prop::collection::vec(op(), 1..200),
    ) {
        let mut cache = HotRowCache::new(initial);
        let mut reference = LazyLru::new(initial);
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Lookup(r) => {
                    prop_assert_eq!(cache.lookup(*r), reference.lookup(*r), "step {}", step);
                }
                Op::Insert(r, b) => {
                    cache.insert(*r, *b);
                    reference.insert(*r, *b);
                }
                Op::Invalidate(rows) => {
                    cache.invalidate_rows(rows);
                    reference.invalidate_rows(rows);
                }
                Op::SetCapacity(c) => {
                    cache.set_capacity(*c);
                    reference.set_capacity(*c);
                }
                Op::ClearCounts => {
                    cache.clear_counts();
                    reference.counts.clear();
                    reference.lookups = 0;
                }
                Op::Reset => {
                    cache.reset();
                    reference = LazyLru::new(reference.capacity_bytes);
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats, reference.stats(), "step {}", step);
            prop_assert!(stats.resident_bytes <= stats.capacity_bytes, "step {}: {:?}", step, stats);
            prop_assert_eq!(cache.len(), reference.entries.len(), "step {}", step);
            for r in 0..24 {
                let row = (r << 32) | (r * 7 + 3);
                prop_assert_eq!(cache.frequency(row), reference.count(row), "step {}", step);
            }
        }
        // The survivors are the same rows.
        for &row in reference.entries.keys() {
            prop_assert!(cache.lookup(row), "row {} missing", row);
        }
    }
}
