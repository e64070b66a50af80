//! Z-sets: tuple collections with signed integer multiplicities.
//!
//! A Z-set generalizes both sets and multisets: each tuple carries a
//! weight in ℤ, positive weights meaning insertions and negative weights
//! retractions (DBSP, PAPERS.md). The chronicle engine uses Z-sets as the
//! single delta currency — chronicle appends are Z-sets whose weights are
//! all `+1`, relation updates/deletes are `−old +new` pairs, and sliding-
//! window expiration is a negative-weight delta at bucket granularity —
//! so every maintenance path consumes one representation.
//!
//! The invariant that makes Z-sets a *collection* rather than a log is
//! **consolidation**: weights for equal tuples merge, and entries whose
//! merged weight reaches zero are eliminated. Dropping the elimination is
//! observable (a deleted tuple would linger as a zero-weight ghost), which
//! is exactly what the `CHRONICLE_MUTATE=skip_consolidation` test backdoor
//! does so the differential oracle suite can prove it would notice.

use std::collections::btree_map::{self, BTreeMap};

use chronicle_types::{mutate, ChronicleError, Result, Tuple};

/// A weighted tuple collection with consolidation-on-insert.
///
/// Entries are kept in a `BTreeMap` so iteration order is deterministic —
/// deltas built from the same history are byte-identical across runs and
/// shards, which the sharded-equivalence and simulation suites rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZSet {
    entries: BTreeMap<Tuple, i64>,
}

impl ZSet {
    /// The empty Z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single tuple with the given weight.
    pub fn singleton(tuple: Tuple, weight: i64) -> Self {
        let mut z = Self::new();
        z.insert(tuple, weight);
        z
    }

    /// Lift plain tuples into a Z-set with weight `+1` each; duplicate
    /// tuples consolidate to higher weights.
    pub fn from_tuples<'a, I: IntoIterator<Item = &'a Tuple>>(tuples: I) -> Self {
        let mut z = Self::new();
        for t in tuples {
            z.insert(t.clone(), 1);
        }
        z
    }

    /// Merge `weight` into the entry for `tuple`, eliminating the entry if
    /// the merged weight reaches zero (unless the `skip_consolidation`
    /// mutation is active — see module docs).
    pub fn insert(&mut self, tuple: Tuple, weight: i64) {
        match self.entries.entry(tuple) {
            btree_map::Entry::Vacant(v) => {
                if weight != 0 || mutate("skip_consolidation") {
                    v.insert(weight);
                }
            }
            btree_map::Entry::Occupied(mut o) => {
                let w = *o.get() + weight;
                if w == 0 && !mutate("skip_consolidation") {
                    o.remove();
                } else {
                    *o.get_mut() = w;
                }
            }
        }
    }

    /// The weight of `tuple` (zero if absent).
    pub fn weight(&self, tuple: &Tuple) -> i64 {
        self.entries.get(tuple).copied().unwrap_or(0)
    }

    /// Merge every entry of `other` into `self`.
    pub fn merge(&mut self, other: &ZSet) {
        for (t, w) in other.iter() {
            self.insert(t.clone(), w);
        }
    }

    /// The Z-set with every weight negated — the retraction of `self`.
    pub fn negated(&self) -> ZSet {
        ZSet {
            entries: self.entries.iter().map(|(t, w)| (t.clone(), -w)).collect(),
        }
    }

    /// Iterate entries in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> + '_ {
        self.entries.iter().map(|(t, w)| (t, *w))
    }

    /// Number of distinct tuples carried (after consolidation).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Sum of signed weights.
    pub fn total_weight(&self) -> i64 {
        self.entries.values().sum()
    }

    /// Sum of |weight| over all entries — the number of *logical* tuple
    /// changes carried, which is the currency the Theorem 4.1 work
    /// counters charge in.
    pub fn abs_weight(&self) -> u64 {
        self.entries.values().map(|w| w.unsigned_abs()).sum()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Expand a non-negative Z-set back into plain tuples, repeating each
    /// tuple `weight` times. Errors on negative weights: the append-only
    /// chronicle paths that call this can never produce retractions, so a
    /// negative weight there is a logic bug, not data.
    pub fn expand_positive(&self) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (t, w) in self.iter() {
            if w < 0 {
                return Err(ChronicleError::Internal(format!(
                    "negative delta weight {w} in append-only context for {t}"
                )));
            }
            for _ in 0..w {
                out.push(t.clone());
            }
        }
        Ok(out)
    }
}

impl FromIterator<(Tuple, i64)> for ZSet {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        let mut z = ZSet::new();
        for (t, w) in iter {
            z.insert(t, w);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::tuple;

    #[test]
    fn weights_merge_and_zero_entries_vanish() {
        let mut z = ZSet::new();
        z.insert(tuple![1i64, 2i64], 1);
        z.insert(tuple![1i64, 2i64], 2);
        assert_eq!(z.weight(&tuple![1i64, 2i64]), 3);
        assert_eq!(z.entry_count(), 1);
        z.insert(tuple![1i64, 2i64], -3);
        assert!(z.is_empty(), "+3 then −3 must leave no residue");
    }

    #[test]
    fn zero_weight_insert_is_a_no_op() {
        let mut z = ZSet::new();
        z.insert(tuple![7i64], 0);
        assert!(z.is_empty());
    }

    #[test]
    fn from_tuples_consolidates_duplicates() {
        let ts = vec![tuple![1i64], tuple![2i64], tuple![1i64]];
        let z = ZSet::from_tuples(&ts);
        assert_eq!(z.weight(&tuple![1i64]), 2);
        assert_eq!(z.weight(&tuple![2i64]), 1);
        assert_eq!(z.entry_count(), 2);
        assert_eq!(z.abs_weight(), 3);
        assert_eq!(z.total_weight(), 3);
    }

    #[test]
    fn negation_and_merge_cancel() {
        let ts = vec![tuple![1i64], tuple![2i64], tuple![1i64]];
        let z = ZSet::from_tuples(&ts);
        let mut m = z.clone();
        m.merge(&z.negated());
        assert!(m.is_empty());
    }

    #[test]
    fn expand_positive_repeats_by_weight_and_rejects_negative() {
        let mut z = ZSet::new();
        z.insert(tuple![5i64], 2);
        z.insert(tuple![6i64], 1);
        let rows = z.expand_positive().unwrap();
        assert_eq!(rows.len(), 3);
        z.insert(tuple![9i64], -1);
        assert!(z.expand_positive().is_err());
    }

    #[test]
    fn iteration_is_deterministic_tuple_order() {
        let mut z = ZSet::new();
        z.insert(tuple![3i64], 1);
        z.insert(tuple![1i64], 1);
        z.insert(tuple![2i64], 1);
        let order: Vec<i64> = z
            .iter()
            .map(|(t, _)| match t.values()[0] {
                chronicle_types::Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
