//! A real memcached-style keyed store with LRU eviction.
//!
//! Unlike the rest of the web model — which is a timing simulation — the
//! cache is an actual data structure: `get` indexes the key's slot,
//! promotes the entry in an intrusive LRU list, and the *measured hit
//! ratio emerges from what was inserted during warm-up*, exactly as on the
//! paper's testbed ("we control the cache hit ratio by adjusting the
//! warm-up time").
//!
//! Implementation: slab of entries with prev/next indices + a dense slot
//! table from key to slot — O(1) get/insert/evict, no hashing and no
//! per-operation allocation once the slab is warm. Keys are dense
//! ([`Key::index`] is `table·ROWS_PER_TABLE + row`), and a cluster's
//! client spreads them over `n` servers by `index % n`, so the store for
//! one server indexes its table at `index / n` ([`LruStore::partition`]).

use crate::scenario::ROWS_PER_TABLE;

/// A cache key: (table, row) — the paper's PHP picks a random table and row
/// per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub table: u8,
    pub row: u32,
}

impl Key {
    /// Dense global index of the key: `table·ROWS_PER_TABLE + row`. The
    /// memcached client partitions keys over servers by this index.
    pub fn index(self) -> usize {
        debug_assert!(self.row < ROWS_PER_TABLE, "row {} out of range", self.row);
        usize::from(self.table) * ROWS_PER_TABLE as usize + self.row as usize
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: Key,
    bytes: u32,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Byte-capacity-bounded LRU store. See module docs.
#[derive(Debug, Clone)]
pub struct LruStore {
    /// Slab slot of each stored key at `key.index() / stride`; `NIL` when
    /// absent. Grows on demand up to the highest key inserted.
    slots: Vec<u32>,
    /// Number of servers the key space is partitioned over (1: the whole
    /// key space lives here).
    stride: usize,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruStore {
    /// Create a store bounded to `capacity_bytes` of values, holding keys
    /// from anywhere in the key space.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::partition(capacity_bytes, 1)
    }

    /// Create the store for one of `n_servers` servers that share the key
    /// space by `key.index() % n_servers`. It must only see keys of its
    /// own partition: a key of another partition aliases one of its own.
    pub fn partition(capacity_bytes: u64, n_servers: usize) -> Self {
        assert!(capacity_bytes > 0);
        assert!(n_servers > 0);
        LruStore {
            slots: Vec::new(),
            stride: n_servers,
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bytes of values stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        // every slab slot is either live or on the free list
        self.slab.len() - self.free.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Measured hit ratio (what the paper reads from memcached stats).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset hit/miss counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Look up `key`, promoting it to most-recently-used on hit. Returns
    /// the stored value size.
    pub fn get(&mut self, key: Key) -> Option<u32> {
        match self.slot_of(key) {
            Some(slot) => {
                self.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                Some(self.slab[slot as usize].bytes)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching LRU order or stats.
    pub fn contains(&self, key: Key) -> bool {
        self.slot_of(key).is_some()
    }

    /// Position of `key` in the slot table.
    fn slot_index(&self, key: Key) -> usize {
        key.index() / self.stride
    }

    /// Slab slot holding `key`, if stored.
    fn slot_of(&self, key: Key) -> Option<u32> {
        match self.slots.get(self.slot_index(key)) {
            Some(&slot) if slot != NIL => Some(slot),
            _ => None,
        }
    }

    /// Insert (or refresh) `key` with a value of `bytes`, evicting LRU
    /// entries as needed. Values larger than the whole store are rejected
    /// (memcached's behaviour for oversize items).
    pub fn set(&mut self, key: Key, bytes: u32) -> bool {
        if bytes as u64 > self.capacity_bytes {
            return false;
        }
        if let Some(slot) = self.slot_of(key) {
            // refresh: adjust accounting and promote
            let old = self.slab[slot as usize].bytes;
            self.used_bytes = self.used_bytes - old as u64 + bytes as u64;
            self.slab[slot as usize].bytes = bytes;
            self.unlink(slot);
            self.push_front(slot);
        } else {
            let slot = self.alloc(Entry { key, bytes, prev: NIL, next: NIL });
            let at = self.slot_index(key);
            if at >= self.slots.len() {
                self.slots.resize(at + 1, NIL);
            }
            self.slots[at] = slot;
            self.push_front(slot);
            self.used_bytes += bytes as u64;
        }
        while self.used_bytes > self.capacity_bytes {
            self.evict_lru();
        }
        true
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        debug_assert!(tail != NIL, "evicting from an empty store");
        let e = self.slab[tail as usize].clone();
        self.unlink(tail);
        let at = self.slot_index(e.key);
        self.slots[at] = NIL;
        self.free.push(tail);
        self.used_bytes -= e.bytes as u64;
        self.evictions += 1;
    }

    fn alloc(&mut self, e: Entry) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = e;
            slot
        } else {
            self.slab.push(e);
            (self.slab.len() - 1) as u32
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(table: u8, row: u32) -> Key {
        Key { table, row }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut s = LruStore::new(10_000);
        assert!(s.set(k(0, 1), 1500));
        assert_eq!(s.get(k(0, 1)), Some(1500));
        assert_eq!(s.get(k(0, 2)), None);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut s = LruStore::new(3_000);
        s.set(k(0, 1), 1000);
        s.set(k(0, 2), 1000);
        s.set(k(0, 3), 1000);
        // touch 1 so 2 becomes LRU
        assert!(s.get(k(0, 1)).is_some());
        s.set(k(0, 4), 1000);
        assert!(s.contains(k(0, 1)));
        assert!(!s.contains(k(0, 2)), "2 was LRU and must be evicted");
        assert!(s.contains(k(0, 3)));
        assert!(s.contains(k(0, 4)));
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn refresh_updates_size_without_duplicate() {
        let mut s = LruStore::new(10_000);
        s.set(k(1, 1), 1000);
        s.set(k(1, 1), 4000);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 4000);
        assert_eq!(s.get(k(1, 1)), Some(4000));
    }

    #[test]
    fn oversize_value_rejected() {
        let mut s = LruStore::new(1_000);
        assert!(!s.set(k(0, 0), 2_000));
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut s = LruStore::new(50_000);
        for i in 0..1_000 {
            s.set(k((i % 4) as u8, i), 1500);
            assert!(s.used_bytes() <= 50_000);
        }
        assert!(s.len() <= 33);
        assert!(s.evictions() > 900);
    }

    #[test]
    fn warmup_fraction_produces_target_hit_ratio() {
        // Fill 93 % of a 1000-row table, then read uniformly: measured hit
        // ratio ≈ 93 % — the mechanism the §5.1.1 warm-up relies on.
        let mut s = LruStore::new(10_000_000);
        for row in 0..930 {
            s.set(k(0, row), 1500);
        }
        s.reset_stats();
        let mut hits = 0;
        for i in 0..10_000u32 {
            let row = (i * 7919) % 1000; // co-prime stride = uniform coverage
            if s.get(k(0, row)).is_some() {
                hits += 1;
            }
        }
        let ratio = hits as f64 / 10_000.0;
        assert!((ratio - 0.93).abs() < 0.01, "ratio {ratio}");
        assert!((s.hit_ratio() - ratio).abs() < 1e-9);
    }

    #[test]
    fn partitioned_stores_keep_their_keys_apart() {
        // three servers, every key in its own server's store: each store
        // answers exactly for the keys it was given
        let mut stores: Vec<LruStore> = (0..3).map(|_| LruStore::partition(1 << 20, 3)).collect();
        for row in (0..60).step_by(2) {
            let key = k(4, row);
            assert!(stores[key.index() % 3].set(key, 100 + row));
        }
        for row in 0..60 {
            let key = k(4, row);
            let got = stores[key.index() % 3].get(key);
            assert_eq!(got, (row % 2 == 0).then_some(100 + row), "row {row}");
        }
        assert_eq!(stores.iter().map(LruStore::len).sum::<usize>(), 30);
    }

    #[test]
    fn slab_reuse_after_eviction() {
        let mut s = LruStore::new(2_000);
        for i in 0..100 {
            s.set(k(0, i), 1000);
        }
        // slab should not grow unboundedly: at most capacity/size + 1 slots
        assert!(s.slab.len() <= 3, "slab {}", s.slab.len());
    }
}
