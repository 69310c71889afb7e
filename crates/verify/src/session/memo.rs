//! The byte-capped answer memo behind a [`Session`](super::Session).

use bonsai_core::scenarios::FailureScenario;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// Looks `key` up — in any borrowed form of `K`, so a hit clones
    /// nothing — and marks the entry used.
    pub(super) fn get<Q>(&mut self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
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

/// Locks a memo. A memo is a cache: one whose holder panicked mid-update
/// is emptied and serves on — a poisoned memo is an empty memo, never a
/// panic in every later request.
pub(super) fn lock<K, V>(memo: &Mutex<MemoTier<K, V>>) -> MutexGuard<'_, MemoTier<K, V>> {
    memo.lock().unwrap_or_else(|poisoned| {
        let mut tier = poisoned.into_inner();
        tier.map.clear();
        tier.bytes = 0;
        memo.clear_poison();
        tier
    })
}

/// Key of the verdict memo: `(class index, scenario)`.
pub(super) type VerdictKey = (usize, FailureScenario);

/// A [`VerdictKey`] by reference — `&(i, &scenario) as &dyn VerdictKeyRef`
/// is what a lookup passes, so a memo hit never clones the scenario.
pub(super) trait VerdictKeyRef {
    fn parts(&self) -> (usize, &FailureScenario);
}

// Both `VerdictKey` itself and `(usize, &FailureScenario)`.
impl<S: Borrow<FailureScenario>> VerdictKeyRef for (usize, S) {
    fn parts(&self) -> (usize, &FailureScenario) {
        (self.0, self.1.borrow())
    }
}

impl<'a> Borrow<dyn VerdictKeyRef + 'a> for VerdictKey {
    fn borrow(&self) -> &(dyn VerdictKeyRef + 'a) {
        self
    }
}

// A tuple hashes its members in order, so both forms hash alike.
impl Hash for dyn VerdictKeyRef + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state)
    }
}

impl PartialEq for dyn VerdictKeyRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn VerdictKeyRef + '_ {}

#[cfg(test)]
mod tests {
    use super::super::{Session, SessionOptions};
    use super::*;

    fn gadget_session() -> Session {
        Session::builder(bonsai_srp::papernets::figure2_gadget())
            .options(SessionOptions {
                threads: 1,
                ..Default::default()
            })
            .build()
            .expect("gadget session builds")
    }

    /// Panics while holding `mutex`, leaving it poisoned.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        let holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = mutex.lock().unwrap();
                    panic!("a handler panics holding the lock");
                })
                .join()
        });
        assert!(holder.is_err() && mutex.is_poisoned());
    }

    #[test]
    fn a_poisoned_memo_is_an_empty_memo() {
        let session = gadget_session();
        let failed = [("b1".to_string(), "d".to_string())];
        let before = session.reach("a", "d", &failed).expect("reach answers");
        session.path("a", "d", &failed, &[]).expect("path answers");
        assert_eq!(
            (session.stats().verdict_memo, session.stats().path_memo),
            (1, 1)
        );

        poison(&session.verdicts);
        poison(&session.paths);
        poison(&session.solve_stats);
        let stats = session.stats();
        assert_eq!(
            (stats.verdict_memo, stats.path_memo, stats.memo_bytes),
            (0, 0, 0)
        );
        assert_eq!(stats.by_representative + stats.by_own_refinement, 1);

        // Served again — recomputed, memoized, and hit on the repeat.
        assert_eq!(
            session.reach("a", "d", &failed).expect("reach answers"),
            before
        );
        assert_eq!(
            session.reach("a", "d", &failed).expect("reach answers"),
            before
        );
        session.path("a", "d", &failed, &[]).expect("path answers");
        let stats = session.stats();
        assert_eq!((stats.verdict_memo, stats.path_memo), (1, 1));
        assert_eq!(stats.by_representative + stats.by_own_refinement, 2);
        assert!(!session.verdicts.is_poisoned() && !session.paths.is_poisoned());
    }

    #[test]
    fn a_borrowed_key_finds_what_an_owned_key_stored() {
        let mut memo: MemoTier<VerdictKey, Vec<bool>> = MemoTier::new(0, |_, v| v.len());
        let scenario = FailureScenario::new(vec![(bonsai_net::NodeId(0), bonsai_net::NodeId(1))]);
        memo.insert((3, scenario.clone()), Arc::new(vec![true]));
        assert!(memo
            .get(&(3usize, &scenario) as &dyn VerdictKeyRef)
            .is_some());
        assert!(memo
            .get(&(2usize, &scenario) as &dyn VerdictKeyRef)
            .is_none());
        let other = FailureScenario::new(vec![]);
        assert!(memo.get(&(3usize, &other) as &dyn VerdictKeyRef).is_none());
    }
}
