//! A tiny inline-first vector for `Copy` element types.
//!
//! The WTPG arena stores each node's adjacency in a `SmallVec<Adj, 4>`.
//! GOW's chain-form graphs have degree ≤ 2 and stay inline, so its hot
//! loops touch one contiguous slab of memory. The other graphs are not
//! chain-form: at the Fig. 8 hot point C2PL's nodes average ~490
//! neighbours, and their adjacency lives in the spill `Vec`. The crate
//! is dependency-free and forbids `unsafe`, so this is a safe
//! hand-rolled implementation: elements live in `inline[..len]` until
//! they outgrow `N`, after which they spill into a heap `Vec` (and stay
//! there — a spilled vector never moves back inline, so `clear` keeps
//! the spill capacity for reuse).

use std::fmt;

/// Inline-first vector of `Copy` elements; spills to the heap past `N`.
pub struct SmallVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// An empty vector (no heap allocation).
    pub fn new() -> Self {
        SmallVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// View the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spilled() {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// View the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spilled() {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    fn spill_out(&mut self) {
        debug_assert!(!self.spilled());
        self.spill.extend_from_slice(&self.inline[..self.len]);
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        if !self.spilled() && self.len < N {
            self.inline[self.len] = value;
        } else {
            if !self.spilled() {
                self.spill_out();
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Insert `value` at `index`, shifting later elements right.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len, "insert index out of bounds");
        if !self.spilled() && self.len < N {
            self.inline.copy_within(index..self.len, index + 1);
            self.inline[index] = value;
        } else {
            if !self.spilled() {
                self.spill_out();
            }
            self.spill.insert(index, value);
        }
        self.len += 1;
    }

    /// Remove and return the element at `index`, shifting later elements
    /// left.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "remove index out of bounds");
        let out;
        if self.spilled() {
            out = self.spill.remove(index);
        } else {
            out = self.inline[index];
            self.inline.copy_within(index + 1..self.len, index);
        }
        self.len -= 1;
        out
    }

    /// Drop all elements; retains any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Iterate over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        SmallVec {
            len: self.len,
            inline: self.inline,
            spill: self.spill.clone(),
        }
    }

    /// Reuses `self`'s spill allocation — the arena's trial-graph
    /// `clone_from` path depends on this to stay allocation-free in
    /// steady state.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.inline = source.inline;
        self.spill.clear();
        self.spill.extend_from_slice(&source.spill);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_stays_inline_then_spills() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn insert_and_remove_inline() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        v.push(1);
        v.push(3);
        v.insert(1, 2);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.remove(0), 1);
        assert_eq!(v.as_slice(), &[2, 3]);
    }

    #[test]
    fn insert_across_spill_boundary() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        v.push(10);
        v.push(30);
        v.insert(1, 20); // forces spill
        assert_eq!(v.as_slice(), &[10, 20, 30]);
        assert_eq!(v.remove(1), 20);
        // stays spilled even when short again
        assert_eq!(v.as_slice(), &[10, 30]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn clone_and_eq_ignore_storage_mode() {
        let mut a: SmallVec<u32, 2> = SmallVec::new();
        a.push(1);
        a.push(2);
        a.push(3); // spilled
        a.remove(2);
        let mut b: SmallVec<u32, 2> = SmallVec::new();
        b.push(1);
        b.push(2); // inline
        assert_eq!(a, b);
        let mut c: SmallVec<u32, 2> = SmallVec::new();
        c.clone_from(&a);
        assert_eq!(c, a);
        assert_eq!(c.clone(), b);
    }
}
