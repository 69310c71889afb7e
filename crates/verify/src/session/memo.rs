//! The byte-capped answer memo behind a [`Session`](super::Session).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One resident memo entry: the shared answer plus the bookkeeping the
/// byte cap needs.
struct MemoEntry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A byte-capped memo with least-recently-used eviction. With a cap of 0
/// the tier is unbounded (the historical behavior); otherwise an insert
/// that pushes the estimated resident bytes past the cap evicts the
/// stalest entries (never the one just inserted) until the tier fits.
pub(super) struct MemoTier<K, V> {
    map: HashMap<K, MemoEntry<V>>,
    bytes: usize,
    tick: u64,
    cap: usize,
    /// Estimated resident bytes of one entry.
    weigh: fn(&K, &V) -> usize,
}

impl<K: Eq + Hash + Clone, V> MemoTier<K, V> {
    pub(super) fn new(cap: usize, weigh: fn(&K, &V) -> usize) -> Self {
        MemoTier {
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            cap,
            weigh,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    /// Estimated resident bytes across all entries.
    pub(super) fn resident_bytes(&self) -> usize {
        self.bytes
    }

    pub(super) fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Inserts and enforces the cap, returning how many entries were
    /// evicted to make room.
    pub(super) fn insert(&mut self, key: K, value: Arc<V>) -> usize {
        self.tick += 1;
        let bytes = (self.weigh)(&key, &value);
        let entry = MemoEntry {
            value,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        if self.cap > 0 {
            // The freshly inserted entry holds the highest tick, so the
            // LRU scan never picks it while anything else remains.
            while self.bytes > self.cap && self.map.len() > 1 {
                let stalest = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map has a minimum");
                if let Some(e) = self.map.remove(&stalest) {
                    self.bytes -= e.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = (&K, &Arc<V>)> {
        self.map.iter().map(|(k, e)| (k, &e.value))
    }
}
