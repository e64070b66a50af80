//! In-memory relations with a primary-key index.

use std::collections::HashMap;

use chronicle_types::{ChronicleError, Result, Schema, Tuple, Value};

use crate::index::{key_of, HashIndex};

/// An in-memory relation: a set of tuples conforming to a [`Schema`], with
/// an optional primary-key hash index.
///
/// Rows live in stable *slots* so the index can reference them cheaply;
/// deleted slots are recycled through a free list.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    slots: Vec<Option<Tuple>>,
    free: Vec<usize>,
    len: usize,
    /// Primary-key index (present iff the schema declares a key).
    pk: Option<HashIndex>,
}

impl Relation {
    /// Create an empty relation. If the schema declares a key, a unique
    /// hash index on it is built automatically.
    pub fn new(schema: Schema) -> Self {
        let pk = schema.key().map(|k| HashIndex::new(k.to_vec()));
        Relation {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            pk,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a tuple. Enforces schema conformance and, if a key is
    /// declared, key uniqueness.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        tuple.check_against(&self.schema)?;
        if let Some(pk) = &self.pk {
            let key = key_of(&tuple, pk.cols());
            if !pk.lookup(&key).is_empty() {
                return Err(ChronicleError::KeyViolation {
                    detail: format!("duplicate key {key:?}"),
                });
            }
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(tuple.clone());
                s
            }
            None => {
                self.slots.push(Some(tuple.clone()));
                self.slots.len() - 1
            }
        };
        if let Some(pk) = &mut self.pk {
            pk.insert(&tuple, slot);
        }
        self.len += 1;
        Ok(())
    }

    /// Delete the (first) tuple equal to `tuple`. Returns whether a tuple
    /// was removed.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        // Prefer the pk index to find the slot; fall back to a scan.
        let slot = if let Some(pk) = &self.pk {
            let key = key_of(tuple, pk.cols());
            pk.lookup(&key)
                .iter()
                .copied()
                .find(|&s| self.slots[s].as_ref() == Some(tuple))
        } else {
            self.slots.iter().position(|t| t.as_ref() == Some(tuple))
        };
        let Some(slot) = slot else { return false };
        self.remove_slot(slot);
        true
    }

    /// Delete the tuple with primary key `key`. Returns the removed tuple.
    pub fn delete_by_key(&mut self, key: &[Value]) -> Option<Tuple> {
        let pk = self.pk.as_ref()?;
        let slot = pk.lookup(key).first().copied()?;
        let tuple = self.slots[slot].clone();
        self.remove_slot(slot);
        tuple
    }

    fn remove_slot(&mut self, slot: usize) {
        if let Some(tuple) = self.slots[slot].take() {
            if let Some(pk) = &mut self.pk {
                pk.remove(&tuple, slot);
            }
            self.free.push(slot);
            self.len -= 1;
        }
    }

    /// Replace the tuple with primary key equal to `tuple`'s key by `tuple`
    /// (upsert). Returns the previous tuple, if any.
    pub fn upsert(&mut self, tuple: Tuple) -> Result<Option<Tuple>> {
        tuple.check_against(&self.schema)?;
        let Some(pk) = &self.pk else {
            return Err(ChronicleError::InvalidSchema(
                "upsert requires a primary key".into(),
            ));
        };
        let key = key_of(&tuple, pk.cols());
        let old = self.delete_by_key(&key);
        self.insert(tuple)?;
        Ok(old)
    }

    /// The tuple with primary key `key`, via the hash index (O(1) expected).
    pub fn get_by_key(&self, key: &[Value]) -> Option<&Tuple> {
        let pk = self.pk.as_ref()?;
        pk.lookup(key)
            .first()
            .and_then(|&slot| self.slots[slot].as_ref())
    }

    /// Tuples whose values at `cols` equal `key`, through the primary-key
    /// index when `cols` is the key, else by a full scan. The second
    /// component of the return value reports whether an index was used
    /// (feeding the work-counter model of Theorem 4.2, where an index probe
    /// costs `log |R|` and a scan costs `|R|`).
    pub fn lookup_cols(&self, cols: &[usize], key: &[Value]) -> (Vec<&Tuple>, bool) {
        if let Some(pk) = &self.pk {
            if pk.cols() == cols {
                let hits = pk
                    .lookup(key)
                    .iter()
                    .filter_map(|&s| self.slots[s].as_ref())
                    .collect();
                return (hits, true);
            }
        }
        let hits = self
            .iter()
            .filter(|t| cols.iter().zip(key).all(|(&c, v)| t.get(c) == v))
            .collect();
        (hits, false)
    }

    /// Iterate over all tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// All tuples, cloned (handy for tests and snapshots).
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// True iff `tuple` is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        if let Some(pk) = &self.pk {
            let key = key_of(tuple, pk.cols());
            return pk
                .lookup(&key)
                .iter()
                .any(|&s| self.slots[s].as_ref() == Some(tuple));
        }
        self.iter().any(|t| t == tuple)
    }

    /// Group the relation's tuples by the values at `cols` (test/oracle
    /// helper; persistent views maintain their own group index).
    pub fn group_by(&self, cols: &[usize]) -> HashMap<Vec<Value>, Vec<&Tuple>> {
        let mut groups: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
        for t in self.iter() {
            groups.entry(key_of(t, cols)).or_default().push(t);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::{tuple, AttrType, Attribute};

    fn customers() -> Relation {
        let schema = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("name", AttrType::Str),
                Attribute::new("state", AttrType::Str),
            ],
            &["acct"],
        )
        .unwrap();
        Relation::new(schema)
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut r = customers();
        r.insert(tuple![1i64, "alice", "NJ"]).unwrap();
        r.insert(tuple![2i64, "bob", "NY"]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.get_by_key(&[Value::Int(1)]).unwrap().get(1).as_str(),
            Some("alice")
        );
        assert!(r.delete(&tuple![1i64, "alice", "NJ"]));
        assert_eq!(r.len(), 1);
        assert!(r.get_by_key(&[Value::Int(1)]).is_none());
        assert!(!r.delete(&tuple![1i64, "alice", "NJ"]));
    }

    #[test]
    fn key_violation_detected() {
        let mut r = customers();
        r.insert(tuple![1i64, "alice", "NJ"]).unwrap();
        let err = r.insert(tuple![1i64, "dup", "CA"]).unwrap_err();
        assert!(matches!(err, ChronicleError::KeyViolation { .. }));
    }

    #[test]
    fn schema_enforced_on_insert() {
        let mut r = customers();
        assert!(r.insert(tuple!["oops", "alice", "NJ"]).is_err());
        assert!(r.insert(tuple![1i64, "alice"]).is_err());
    }

    #[test]
    fn upsert_replaces() {
        let mut r = customers();
        r.insert(tuple![1i64, "alice", "NJ"]).unwrap();
        let old = r.upsert(tuple![1i64, "alice", "CA"]).unwrap();
        assert_eq!(old.unwrap().get(2).as_str(), Some("NJ"));
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get_by_key(&[Value::Int(1)]).unwrap().get(2).as_str(),
            Some("CA")
        );
        // Upsert of a brand-new key inserts.
        assert!(r.upsert(tuple![3i64, "carol", "TX"]).unwrap().is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn slots_recycled_after_delete() {
        let mut r = customers();
        for i in 0..100i64 {
            r.insert(tuple![i, "x", "NJ"]).unwrap();
        }
        for i in 0..50i64 {
            assert!(r.delete_by_key(&[Value::Int(i)]).is_some());
        }
        for i in 100..150i64 {
            r.insert(tuple![i, "y", "NY"]).unwrap();
        }
        assert_eq!(r.len(), 100);
        // Slot vector should not have grown past the original 100.
        assert!(r.slots.len() <= 100);
    }

    #[test]
    fn lookup_cols_reports_access_path() {
        let mut r = customers();
        r.insert(tuple![1i64, "alice", "NJ"]).unwrap();
        let (hits, indexed) = r.lookup_cols(&[0], &[Value::Int(1)]);
        assert_eq!(hits.len(), 1);
        assert!(indexed, "pk lookup should be indexed");
        let (hits, indexed) = r.lookup_cols(&[2], &[Value::str("NJ")]);
        assert_eq!(hits.len(), 1);
        assert!(!indexed, "a non-key column is scanned");
    }

    #[test]
    fn contains_and_group_by() {
        let mut r = customers();
        r.insert(tuple![1i64, "alice", "NJ"]).unwrap();
        r.insert(tuple![2i64, "bob", "NJ"]).unwrap();
        assert!(r.contains(&tuple![1i64, "alice", "NJ"]));
        assert!(!r.contains(&tuple![1i64, "alice", "NY"]));
        let groups = r.group_by(&[2]);
        assert_eq!(groups[&vec![Value::str("NJ")]].len(), 2);
    }

    #[test]
    fn keyless_relation_allows_duplicates_by_scan() {
        let schema = Schema::relation(vec![Attribute::new("x", AttrType::Int)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert(tuple![5i64]).unwrap();
        r.insert(tuple![5i64]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.delete(&tuple![5i64]));
        assert_eq!(r.len(), 1);
    }
}
