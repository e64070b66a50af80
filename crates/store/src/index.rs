//! The primary-key index of a [`crate::Relation`].
//!
//! [`HashIndex`] maps a *key* (the values of the indexed attribute
//! positions, in order) to the row slots holding matching tuples, with O(1)
//! expected equality lookup; it serves primary-key access and the CA⋈ key
//! join. Row slots are the stable `usize` handles issued by
//! [`crate::Relation`].

use std::collections::HashMap;

use chronicle_types::{Tuple, Value};

/// Extract the index key of `tuple` for the attribute positions `cols`.
pub(crate) fn key_of(tuple: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| tuple.get(c).clone()).collect()
}

/// Hash index over a list of attribute positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    cols: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Create an empty index on attribute positions `cols`.
    pub fn new(cols: Vec<usize>) -> Self {
        HashIndex {
            cols,
            map: HashMap::new(),
        }
    }

    /// The indexed attribute positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Register `slot` as holding `tuple`.
    pub fn insert(&mut self, tuple: &Tuple, slot: usize) {
        self.map
            .entry(key_of(tuple, &self.cols))
            .or_default()
            .push(slot);
    }

    /// Remove `slot` (which held `tuple`).
    pub fn remove(&mut self, tuple: &Tuple, slot: usize) {
        if let Some(slots) = self.map.get_mut(&key_of(tuple, &self.cols)) {
            if let Some(pos) = slots.iter().position(|&s| s == slot) {
                slots.swap_remove(pos);
            }
            if slots.is_empty() {
                self.map.remove(&key_of(tuple, &self.cols));
            }
        }
    }

    /// Slots whose tuples have exactly this `key`.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::tuple;

    #[test]
    fn hash_index_insert_lookup_remove() {
        let mut idx = HashIndex::new(vec![0]);
        let t1 = tuple![1i64, "a"];
        let t2 = tuple![1i64, "b"];
        let t3 = tuple![2i64, "c"];
        idx.insert(&t1, 10);
        idx.insert(&t2, 11);
        idx.insert(&t3, 12);
        assert_eq!(idx.lookup(&[Value::Int(1)]).len(), 2);
        assert_eq!(idx.lookup(&[Value::Int(2)]), &[12]);
        assert_eq!(idx.map.len(), 2);
        idx.remove(&t1, 10);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[11]);
        idx.remove(&t2, 11);
        assert!(idx.lookup(&[Value::Int(1)]).is_empty());
        assert_eq!(idx.map.len(), 1);
    }

    #[test]
    fn hash_index_missing_key_is_empty() {
        let idx = HashIndex::new(vec![0]);
        assert!(idx.lookup(&[Value::Int(99)]).is_empty());
    }

    #[test]
    fn composite_key_index() {
        let mut idx = HashIndex::new(vec![0, 1]);
        let t = tuple![1i64, "a", 5i64];
        idx.insert(&t, 7);
        assert_eq!(idx.lookup(&[Value::Int(1), Value::str("a")]), &[7]);
        assert!(idx.lookup(&[Value::Int(1), Value::str("b")]).is_empty());
    }
}
