//! Temporal relation versioning and the proactive-update rule.
//!
//! §2.3 of the paper: *"Each relation conceptually has multiple temporal
//! versions, one after every update. ... If an update to a relation affects
//! only the versions corresponding to sequence numbers not seen as yet, then
//! it is a proactive update; such an update does not affect the persistent
//! views."* Retroactive updates are excluded from the model.
//!
//! [`TemporalRelation`] keeps the *current* version materialized (that is
//! the only version maintenance ever joins against — the implicit temporal
//! join is always with the most current version, §6) and records a change
//! log tagged with the chronicle-group high-water mark at update time. The
//! log lets tests and the oracle reconstruct `version_at(seq)` — the
//! version a chronicle tuple with sequence number `seq` joins with
//! (Example 2.2) — and lets the API *reject* retroactive updates with a
//! typed error.

use chronicle_types::{ChronicleError, Result, Schema, SeqNo, Tuple, Value};

use crate::relation::Relation;

/// One logged change to a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationChange {
    /// A tuple was inserted.
    Insert(Tuple),
    /// A tuple was deleted.
    Delete(Tuple),
}

/// A relation plus its version history over the chronicle-group sequence
/// domain.
#[derive(Debug, Clone)]
pub struct TemporalRelation {
    current: Relation,
    /// State as of the compaction floor: the starting point for replays.
    base: Relation,
    /// `version_at` is answerable only for sequence numbers at or above
    /// this floor; compaction raises it.
    floor: SeqNo,
    /// `(high_water, change)`: the change was applied while the group
    /// high-water mark was `high_water`, so it is visible to chronicle
    /// tuples with sequence numbers **strictly greater** than `high_water`.
    /// Entries below the floor have been compacted into `base`.
    log: Vec<(SeqNo, RelationChange)>,
}

impl TemporalRelation {
    /// Create an empty temporal relation.
    pub fn new(schema: Schema) -> Self {
        TemporalRelation {
            current: Relation::new(schema.clone()),
            base: Relation::new(schema),
            floor: SeqNo::ZERO,
            log: Vec::new(),
        }
    }

    /// The current (latest) version. All view maintenance joins against
    /// this — by the proactive rule it equals the version any *future*
    /// chronicle tuple will see.
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// Stamp of the newest logged change (`SeqNo(0)` if none). Callers
    /// that derive a stamp from a group watermark clamp against this:
    /// equal stamps are always accepted, so a watermark that moved
    /// *backwards* (the stamping group was relocated to another shard)
    /// cannot wedge the relation.
    pub fn last_stamp(&self) -> SeqNo {
        self.log.last().map(|&(at, _)| at).unwrap_or(SeqNo(0))
    }

    /// Insert a tuple, recording the change as of group high-water `at`.
    pub fn insert(&mut self, tuple: Tuple, at: SeqNo) -> Result<()> {
        self.check_monotone(at)?;
        self.current.insert(tuple.clone())?;
        self.log.push((at, RelationChange::Insert(tuple)));
        Ok(())
    }

    /// Delete a tuple, recording the change as of group high-water `at`.
    pub fn delete(&mut self, tuple: &Tuple, at: SeqNo) -> Result<bool> {
        self.check_monotone(at)?;
        let removed = self.current.delete(tuple);
        if removed {
            self.log.push((at, RelationChange::Delete(tuple.clone())));
        }
        Ok(removed)
    }

    /// Modify the tuple with primary key `key` to become `new`, recording
    /// the change as of group high-water `at`.
    pub fn update_by_key(&mut self, key: &[Value], new: Tuple, at: SeqNo) -> Result<()> {
        self.check_monotone(at)?;
        let old = self
            .current
            .delete_by_key(key)
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "relation tuple",
                name: format!("{key:?}"),
            })?;
        self.current.insert(new.clone())?;
        self.log.push((at, RelationChange::Delete(old)));
        self.log.push((at, RelationChange::Insert(new)));
        Ok(())
    }

    /// Reject any update whose effect would precede an already-logged one —
    /// the change log must stay sorted by high-water mark so that
    /// `version_at` is well defined.
    fn check_monotone(&self, at: SeqNo) -> Result<()> {
        if let Some(&(last, _)) = self.log.last() {
            if at < last {
                return Err(ChronicleError::RetroactiveUpdate {
                    detail: format!(
                        "update effective at group high-water {at} precedes an update already logged at {last}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Explicitly attempt a *retroactive* update: one whose effect should
    /// apply to chronicle tuples at or before sequence number
    /// `effective_from`. The chronicle model excludes these (§2.3); if
    /// `effective_from` is not strictly greater than the group high-water
    /// mark `high_water`, this returns [`ChronicleError::RetroactiveUpdate`].
    ///
    /// This exists so applications get a *typed, explained* rejection
    /// rather than silent wrong answers — one of the model's selling points
    /// over ad-hoc procedural code.
    pub fn insert_effective(
        &mut self,
        tuple: Tuple,
        effective_from: SeqNo,
        high_water: SeqNo,
    ) -> Result<()> {
        if effective_from <= high_water {
            return Err(ChronicleError::RetroactiveUpdate {
                detail: format!(
                    "insert effective from {effective_from} but the chronicle group has already seen {high_water}; \
                     older chronicle tuples would need re-processing"
                ),
            });
        }
        self.insert(tuple, high_water)
    }

    /// Reconstruct the version of the relation visible to a chronicle tuple
    /// with sequence number `seq`: all changes logged at a high-water mark
    /// **strictly below** `seq` are applied (an update logged at high-water
    /// `h` is seen by tuples with `SN > h`).
    ///
    /// This is O(log size) replay and exists for the oracle/e12 tests; the
    /// maintenance fast path never calls it. Fails with
    /// [`ChronicleError::ChronicleNotStored`] for sequence numbers below
    /// the compaction floor (that history was reclaimed).
    pub fn version_at(&self, seq: SeqNo) -> Result<Relation> {
        if seq < self.floor {
            return Err(ChronicleError::ChronicleNotStored {
                detail: format!(
                    "relation history before {} was compacted away; requested version at {seq}",
                    self.floor
                ),
            });
        }
        let mut rel = self.base.clone();
        for (at, change) in &self.log {
            if *at >= seq {
                break;
            }
            match change {
                RelationChange::Insert(t) => {
                    // Replay ignores key violations that the live path
                    // already validated.
                    let _ = rel.insert(t.clone());
                }
                RelationChange::Delete(t) => {
                    rel.delete(t);
                }
            }
        }
        Ok(rel)
    }

    /// Compact the version history: sequence numbers below `seq` become
    /// unanswerable, the log entries they needed are folded into the base
    /// snapshot, and their space is reclaimed. Maintenance is unaffected —
    /// it only ever uses the current version; compaction bounds the memory
    /// of the *audit* path.
    pub fn compact_before(&mut self, seq: SeqNo) -> Result<usize> {
        if seq < self.floor {
            return Ok(0); // already compacted past there
        }
        let new_base = self.version_at(seq)?;
        let keep_from = self.log.partition_point(|(at, _)| *at < seq);
        let dropped = keep_from;
        self.log.drain(..keep_from);
        self.base = new_base;
        self.floor = seq;
        Ok(dropped)
    }

    /// The compaction floor: the oldest sequence number whose relation
    /// version is still reconstructable.
    pub fn floor(&self) -> SeqNo {
        self.floor
    }

    /// Number of logged changes.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The raw change log (read-only).
    pub fn log(&self) -> &[(SeqNo, RelationChange)] {
        &self.log
    }

    /// The base-version rows (the state at the compaction floor).
    pub fn base_rows(&self) -> Vec<Tuple> {
        self.base.to_vec()
    }

    /// Replace the full temporal state from a checkpoint image: base rows
    /// at `floor` plus the change log above it; the current version is
    /// rebuilt by replaying the log.
    pub fn restore_state(
        &mut self,
        base_rows: Vec<Tuple>,
        floor: SeqNo,
        log: Vec<(SeqNo, RelationChange)>,
    ) -> Result<()> {
        if log.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(ChronicleError::Corruption {
                detail: "relation change log in checkpoint image is not sorted".into(),
            });
        }
        let schema = self.current.schema().clone();
        let mut base = Relation::new(schema.clone());
        for t in base_rows {
            t.check_against(&schema)?;
            base.insert(t)?;
        }
        let mut current = base.clone();
        for (_, change) in &log {
            match change {
                RelationChange::Insert(t) => {
                    t.check_against(&schema)?;
                    current.insert(t.clone())?;
                }
                RelationChange::Delete(t) => {
                    current.delete(t);
                }
            }
        }
        self.base = base;
        self.current = current;
        self.floor = floor;
        self.log = log;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::{tuple, AttrType, Attribute};

    fn customers() -> TemporalRelation {
        let schema = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("state", AttrType::Str),
            ],
            &["acct"],
        )
        .unwrap();
        TemporalRelation::new(schema)
    }

    #[test]
    fn current_tracks_latest() {
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(0)).unwrap();
        r.update_by_key(&[Value::Int(1)], tuple![1i64, "NY"], SeqNo(10))
            .unwrap();
        assert_eq!(
            r.current()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("NY")
        );
    }

    #[test]
    fn version_at_replays_history() {
        // Example 2.2: alice lives in NJ until the group high-water is 10,
        // then moves to NY. A flight with SN 5 must see NJ; SN 11 sees NJ
        // too (update logged at 10 is visible only to SN > 10), SN 12 sees NY.
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(0)).unwrap();
        r.update_by_key(&[Value::Int(1)], tuple![1i64, "NY"], SeqNo(10))
            .unwrap();

        let v5 = r.version_at(SeqNo(5)).unwrap();
        assert_eq!(
            v5.get_by_key(&[Value::Int(1)]).unwrap().get(1).as_str(),
            Some("NJ")
        );
        let v10 = r.version_at(SeqNo(10)).unwrap();
        assert_eq!(
            v10.get_by_key(&[Value::Int(1)]).unwrap().get(1).as_str(),
            Some("NJ")
        );
        let v11 = r.version_at(SeqNo(11)).unwrap();
        assert_eq!(
            v11.get_by_key(&[Value::Int(1)]).unwrap().get(1).as_str(),
            Some("NY")
        );
    }

    #[test]
    fn version_at_zero_is_initial_state_after_bootstrap() {
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(0)).unwrap();
        // Changes logged at high-water 0 are seen by SN >= 1.
        assert!(r.version_at(SeqNo(0)).unwrap().is_empty());
        assert_eq!(r.version_at(SeqNo(1)).unwrap().len(), 1);
    }

    #[test]
    fn out_of_order_log_rejected() {
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(10)).unwrap();
        let err = r.insert(tuple![2i64, "NY"], SeqNo(5)).unwrap_err();
        assert!(matches!(err, ChronicleError::RetroactiveUpdate { .. }));
    }

    #[test]
    fn retroactive_insert_rejected_with_typed_error() {
        let mut r = customers();
        let err = r
            .insert_effective(tuple![1i64, "NJ"], SeqNo(5), SeqNo(10))
            .unwrap_err();
        assert!(matches!(err, ChronicleError::RetroactiveUpdate { .. }));
        // Proactive variant succeeds.
        r.insert_effective(tuple![1i64, "NJ"], SeqNo(11), SeqNo(10))
            .unwrap();
        assert_eq!(r.current().len(), 1);
    }

    #[test]
    fn delete_logged_and_replayed() {
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(0)).unwrap();
        assert!(r.delete(&tuple![1i64, "NJ"], SeqNo(4)).unwrap());
        assert!(r.current().is_empty());
        assert_eq!(r.version_at(SeqNo(4)).unwrap().len(), 1);
        assert_eq!(r.version_at(SeqNo(5)).unwrap().len(), 0);
        assert_eq!(r.log_len(), 2);
    }

    #[test]
    fn compaction_reclaims_history_and_preserves_later_versions() {
        let mut r = customers();
        r.insert(tuple![1i64, "NJ"], SeqNo(0)).unwrap();
        r.update_by_key(&[Value::Int(1)], tuple![1i64, "NY"], SeqNo(10))
            .unwrap();
        r.update_by_key(&[Value::Int(1)], tuple![1i64, "CA"], SeqNo(20))
            .unwrap();
        assert_eq!(r.log_len(), 5);
        // Compact away everything before SN 11.
        let dropped = r.compact_before(SeqNo(11)).unwrap();
        assert_eq!(dropped, 3, "insert + first update folded into the base");
        assert_eq!(r.floor(), SeqNo(11));
        // Early versions are gone with a typed error...
        assert!(matches!(
            r.version_at(SeqNo(5)).unwrap_err(),
            ChronicleError::ChronicleNotStored { .. }
        ));
        // ...later versions still reconstruct exactly.
        assert_eq!(
            r.version_at(SeqNo(11))
                .unwrap()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("NY")
        );
        assert_eq!(
            r.version_at(SeqNo(21))
                .unwrap()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("CA")
        );
        // Current state untouched.
        assert_eq!(
            r.current()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("CA")
        );
        // Compacting backwards is a no-op.
        assert_eq!(r.compact_before(SeqNo(5)).unwrap(), 0);
        // Compacting everything leaves an empty log but a live base.
        r.compact_before(SeqNo(100)).unwrap();
        assert_eq!(r.log_len(), 0);
        assert_eq!(r.version_at(SeqNo(100)).unwrap().len(), 1);
    }

    #[test]
    fn update_missing_key_errors() {
        let mut r = customers();
        let err = r
            .update_by_key(&[Value::Int(9)], tuple![9i64, "NJ"], SeqNo(0))
            .unwrap_err();
        assert!(matches!(err, ChronicleError::NotFound { .. }));
    }
}
