//! Arena storage for per-transaction lifecycle state.
//!
//! The simulator keys its in-flight state by monotonically increasing
//! 64-bit ids (`TxnId`, `CohortId`). The original `BTreeMap` storage
//! paid an allocation-heavy tree node per handful of entries and
//! O(log n) probes on the event hot path; at the ROADMAP's target scale
//! (10⁶–10⁷ transactions per run) that dominated the profile. This
//! module provides the same interface shape at O(1) per operation, the
//! way `bds-wtpg` arenas its graph nodes:
//!
//! * [`IdMap`] — an open-addressing hash map from `u64` id to `u64`
//!   value (linear probing, backward-shift deletion, power-of-two
//!   capacity). No iteration-order guarantees — callers must not iterate
//!   it in any order-sensitive way, and the simulator never does: ids
//!   are only inserted, looked up, and removed.
//! * [`Arena`] — a slot arena with free-list reuse for arbitrary values,
//!   indexed through an [`IdMap`] of id → slot. Dead slots are recycled
//!   before the arena grows, so steady-state memory is O(live entries),
//!   not O(ids ever issued).
//!
//! Determinism: both structures are pure functions of their operation
//! sequence (the hash is a fixed multiplier, capacity growth is
//! deterministic), so swapping them in for `BTreeMap` cannot perturb
//! simulation results as long as no caller observes iteration order.

/// Sentinel key marking an empty bucket; ids are sequence numbers
/// starting at 0/1 and can never reach `u64::MAX` in practice.
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hash multiplier (2⁶⁴ / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing `u64 → u64` map with linear probing and
/// backward-shift deletion (no tombstones, so probe chains never rot).
#[derive(Debug, Clone)]
pub(crate) struct IdMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    mask: usize,
}

impl Default for IdMap {
    fn default() -> Self {
        Self::new()
    }
}

impl IdMap {
    /// An empty map.
    pub(crate) fn new() -> Self {
        let cap = 16;
        IdMap {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            len: 0,
            mask: cap - 1,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> 32) as usize & self.mask
    }

    /// Look up `key`.
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert or overwrite `key → val`.
    pub(crate) fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY);
        if self.len * 4 >= (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove `key`, returning its value.
    pub(crate) fn remove(&mut self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let val = self.vals[i];
        self.len -= 1;
        // Backward-shift deletion: slide the probe chain left so later
        // entries stay reachable without tombstones.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // `k` may move into the hole only if its home bucket lies at
            // or cyclically before the hole (otherwise the move would
            // put it ahead of its own probe start).
            let home = self.bucket(k);
            let dist_home = j.wrapping_sub(home) & self.mask;
            let dist_hole = j.wrapping_sub(hole) & self.mask;
            if dist_home >= dist_hole {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        Some(val)
    }

    /// Remove every entry whose `(key, value)` fails the predicate.
    pub(crate) fn retain(&mut self, mut f: impl FnMut(u64, u64) -> bool) {
        // Collect victims first: backward-shift deletion relocates
        // entries, so removing while scanning would skip or revisit.
        let doomed: Vec<u64> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, &v)| k != EMPTY && !f(k, v))
            .map(|(&k, _)| k)
            .collect();
        for k in doomed {
            self.remove(k);
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

/// Slot arena with free-list reuse, indexed by an [`IdMap`] of
/// id → slot. Values of dead slots are dropped on removal; the slot
/// itself is recycled.
#[derive(Debug)]
pub(crate) struct Arena<V> {
    index: IdMap,
    slots: Vec<Option<V>>,
    free: Vec<u32>,
}

impl<V> Default for Arena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Arena<V> {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Arena {
            index: IdMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Insert `id → value`.
    ///
    /// # Panics
    /// Panics if `id` is already present (the simulator never reuses a
    /// live id).
    pub(crate) fn insert(&mut self, id: u64, value: V) {
        assert!(self.index.get(id).is_none(), "Arena: duplicate id {id}");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(value);
                s
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, u64::from(slot));
    }

    /// Borrow the value for `id`.
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        let slot = self.index.get(id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Mutably borrow the value for `id`.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let slot = self.index.get(id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Remove `id`, returning its value and recycling the slot.
    pub(crate) fn remove(&mut self, id: u64) -> Option<V> {
        let slot = self.index.remove(id)?;
        self.free.push(slot as u32);
        self.slots[slot as usize].take()
    }

    /// All live ids in unspecified order: bucket order depends on
    /// insertion history, so callers that need determinism must sort.
    pub(crate) fn ids(&self) -> Vec<u64> {
        self.index
            .keys
            .iter()
            .copied()
            .filter(|&k| k != EMPTY)
            .collect()
    }

    /// Arena occupancy as `(allocated_slots, free_listed_slots)`; the
    /// leak invariant `allocated − free == len()` mirrors the WTPG
    /// arena's.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_des::rng::Xoshiro256;
    use std::collections::BTreeMap;

    #[test]
    fn idmap_basic_ops() {
        let mut m = IdMap::new();
        assert_eq!(m.get(1), None);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(10));
        m.insert(1, 11);
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(2), Some(20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn idmap_survives_growth_and_collisions() {
        let mut m = IdMap::new();
        for i in 1..=10_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 1..=10_000u64 {
            assert_eq!(m.get(i), Some(i * 3));
        }
    }

    #[test]
    fn idmap_matches_btreemap_on_random_ops() {
        let mut r = Xoshiro256::seed_from_u64(0xA4E7A);
        for _case in 0..50 {
            let mut map = IdMap::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for _ in 0..2_000 {
                // Small key space forces heavy collision/removal churn.
                let key = 1 + r.next_range(300);
                match r.next_range(3) {
                    0 => {
                        let v = r.next_range(1_000_000);
                        map.insert(key, v);
                        model.insert(key, v);
                    }
                    1 => {
                        assert_eq!(map.remove(key), model.remove(&key));
                    }
                    _ => {
                        assert_eq!(map.get(key), model.get(&key).copied());
                    }
                }
                assert_eq!(map.len(), model.len());
            }
            for k in 1..=300u64 {
                assert_eq!(map.get(k), model.get(&k).copied());
            }
        }
    }

    #[test]
    fn idmap_retain_drops_matching_values() {
        let mut m = IdMap::new();
        for i in 1..=100u64 {
            m.insert(i, i % 7);
        }
        m.retain(|_, v| v != 3);
        // 1..=100 has 14 values with i % 7 == 3 (3, 10, …, 94).
        assert_eq!(m.len(), 100 - 14);
        for i in 1..=100u64 {
            assert_eq!(m.get(i).is_some(), i % 7 != 3);
        }
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a: Arena<String> = Arena::new();
        for i in 1..=8u64 {
            a.insert(i, format!("v{i}"));
        }
        assert_eq!(a.stats(), (8, 0));
        for i in 1..=4u64 {
            assert_eq!(a.remove(i), Some(format!("v{i}")));
        }
        assert_eq!(a.stats(), (8, 4));
        assert_eq!(a.len(), 4);
        // New inserts reuse freed slots instead of growing the arena.
        for i in 9..=12u64 {
            a.insert(i, format!("v{i}"));
        }
        assert_eq!(a.stats(), (8, 0));
        for i in 5..=12u64 {
            assert_eq!(a.get(i).map(String::as_str), Some(format!("v{i}").as_str()));
        }
        // Leak invariant: allocated − free == len.
        let (alloc, free) = a.stats();
        assert_eq!(alloc - free, a.len());
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn arena_rejects_duplicate_ids() {
        let mut a: Arena<u32> = Arena::new();
        a.insert(7, 1);
        a.insert(7, 2);
    }

    #[test]
    fn arena_ids_enumerate_live_entries() {
        let mut a: Arena<u64> = Arena::new();
        for i in [3u64, 1, 7] {
            a.insert(i, i);
        }
        a.remove(1);
        let mut ids = a.ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 7]);
    }

    #[test]
    fn arena_get_mut_mutates_in_place() {
        let mut a: Arena<Vec<u32>> = Arena::new();
        a.insert(1, vec![1]);
        a.get_mut(1).unwrap().push(2);
        assert_eq!(a.get(1), Some(&vec![1, 2]));
        assert_eq!(a.get_mut(99), None);
    }
}
