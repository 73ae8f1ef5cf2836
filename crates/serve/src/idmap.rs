//! A structurally shared hash map from wire id to handle.
//!
//! The writer clones the whole [`World`](crate::World) once per
//! published epoch, so its wire-id → handle map must clone in
//! O(capacity / page), not O(entries): a `BTreeMap` clone allocates one
//! node per few entries, and even an `Arc`-wrapped one copies the whole
//! tree on the first insert or remove of every epoch. [`IdMap`] is an
//! open-addressing table (linear probing, backward-shift deletion, load
//! at most ½) whose slots live in a copy-on-write
//! [`CowVec`]. A clone shares every slot page; an insert or remove
//! writes only the slots it changes, so it copies one or two pages.
//!
//! Slots are indexed by the *high* bits of the id's splitmix64 hash.
//! Shard routing ([`shard_of`](pinocchio_core::shard_of)) takes the same
//! hash modulo the shard count, so within one shard the low bits are
//! correlated; the high bits are not.

use pinocchio_core::splitmix64;
use pinocchio_data::CowVec;

/// Slots per copy-on-write page. Slots are plain data, so copying a
/// touched page is one `memcpy`; large pages keep the page count — the
/// clone cost and the allocations of a rehash — low.
const SLOT_PAGE: usize = 256;

/// Slots of a new table: one page.
const MIN_CAPACITY: usize = SLOT_PAGE;

/// An id-keyed hash map with an O(pages) clone (see the module docs).
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// `capacity` slots, a power of two, at most half full.
    slots: CowVec<Option<(u64, V)>, SLOT_PAGE>,
    len: usize,
}

/// The home slot of `key` in a table of `2^bits` slots: the top `bits`
/// hash bits.
fn home(key: u64, bits: u32) -> usize {
    usize::try_from(splitmix64(key) >> (64 - bits)).unwrap_or(0)
}

/// Places every entry of `entries` into a fresh table of `capacity`
/// slots (a power of two, at least twice the entry count).
fn table<V: Copy>(
    entries: impl Iterator<Item = (u64, V)>,
    capacity: usize,
) -> Vec<Option<(u64, V)>> {
    debug_assert!(capacity.is_power_of_two());
    let bits = capacity.trailing_zeros();
    let mut slots = vec![None; capacity];
    for (k, v) in entries {
        let mut i = home(k, bits);
        while slots[i].is_some() {
            i = (i + 1) & (capacity - 1);
        }
        slots[i] = Some((k, v));
    }
    slots
}

impl<V: Copy> IdMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map that holds `entries` entries without growing.
    pub fn with_capacity(entries: usize) -> Self {
        let capacity = (2 * entries + 1).next_power_of_two().max(MIN_CAPACITY);
        IdMap {
            slots: CowVec::from_slice(&vec![None; capacity]),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        home(key, self.slots.len().trailing_zeros())
    }

    /// The slot holding `key`, if any.
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                None => return None,
                Some((k, _)) if k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The value stored for `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).and_then(|i| self.slots[i].map(|(_, v)| v))
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key`, which must be absent (callers check with
    /// [`Self::contains_key`] first, to report a duplicate).
    pub fn insert(&mut self, key: u64, value: V) {
        debug_assert!(!self.contains_key(key), "duplicate key {key}");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        *self.slots.make_mut(i) = Some((key, value));
        self.len += 1;
    }

    /// Removes `key`, returning its value. Later entries of the probe
    /// run shift back into the hole, so no tombstone is left.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let removed = self.slots.make_mut(hole).take().map(|(_, v)| v);
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = self.slots[j] else {
                return removed;
            };
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in (hole, j]: then it would move before home.
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                let moved = self.slots.make_mut(j).take();
                *self.slots.make_mut(hole) = moved;
                hole = j;
            }
        }
    }

    /// Every key, in table order (unordered; sort for a stable order).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().map(|&(k, _)| k)
    }

    /// Doubles the capacity and rehashes every entry (O(len), once per
    /// doubling — O(1) amortised per insert).
    fn grow(&mut self) {
        let bigger = table(self.slots.iter().flatten().copied(), self.slots.len() * 2);
        self.slots = CowVec::from_slice(&bigger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn agrees_with_a_btreemap_through_churn() {
        // Sequential, even-only and scattered ids, inserted and removed
        // at random, exercise collisions, growth and backward-shift
        // removal.
        let mut map: IdMap<u32> = IdMap::new();
        let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
        let mut state = 1u64;
        for step in 0..20_000u32 {
            state = splitmix64(state);
            let key = match step % 3 {
                0 => u64::from(step % 700),
                1 => (state % 900) * 2,
                _ => state % 5000,
            };
            if state % 5 < 2 {
                assert_eq!(map.remove(key), oracle.remove(&key), "step {step}");
            } else if map.contains_key(key) {
                assert!(oracle.contains_key(&key), "step {step}");
            } else {
                map.insert(key, step);
                oracle.insert(key, step);
            }
            assert_eq!(map.len(), oracle.len());
            if step % 997 == 0 {
                for (&k, &v) in &oracle {
                    assert_eq!(map.get(k), Some(v), "key {k}");
                }
                let mut keys: Vec<u64> = map.keys().collect();
                keys.sort_unstable();
                assert_eq!(keys, oracle.keys().copied().collect::<Vec<_>>());
            }
        }
        assert!(!map.contains_key(u64::MAX));
    }

    #[test]
    fn clone_shares_pages_and_an_edit_copies_few() {
        let mut map: IdMap<u32> = IdMap::new();
        for id in 0..10_000u32 {
            map.insert(u64::from(id), id);
        }
        let snapshot = map.clone();
        let pages = map.slots.page_count();
        map.insert(1_000_000, 7);
        map.remove(42);
        let copied = (0..pages)
            .filter(|&p| !map.slots.shares_page(&snapshot.slots, p))
            .count();
        assert!(copied <= 4, "{copied} of {pages} pages copied");
        assert_eq!(snapshot.get(42), Some(42));
        assert_eq!(snapshot.get(1_000_000), None);
        assert_eq!(map.get(42), None);
        assert_eq!(map.get(1_000_000), Some(7));
    }
}
