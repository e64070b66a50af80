//! The catalog: name resolution and ownership of chronicles, relations and
//! groups.
//!
//! The catalog enforces the two cross-object invariants of the model:
//!
//! 1. group-level sequence-number monotonicity — an append to *any*
//!    chronicle in a group advances the group's single high-water mark
//!    (§4), and
//! 2. the proactive-update rule — relation updates are stamped with the
//!    relevant group high-water mark so that [`crate::TemporalRelation`]
//!    can answer `version_at` queries and reject retroactive updates
//!    (§2.3).

use std::collections::HashMap;

use chronicle_types::{
    ChronicleError, ChronicleId, Chronon, GroupId, RelationId, Result, Schema, SeqNo, Tuple, Value,
};

use crate::chronicle::{Chronicle, Retention};
use crate::group::ChronicleGroup;
use crate::temporal::TemporalRelation;

/// Owner of all chronicles, relations, and chronicle groups.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    groups: Vec<ChronicleGroup>,
    chronicles: Vec<Chronicle>,
    relations: Vec<TemporalRelation>,
    group_names: HashMap<String, GroupId>,
    chronicle_names: HashMap<String, ChronicleId>,
    relation_names: HashMap<String, RelationId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- groups ---------------------------------------------------------

    /// Create a chronicle group.
    pub fn create_group(&mut self, name: &str) -> Result<GroupId> {
        if self.group_names.contains_key(name) {
            return Err(ChronicleError::AlreadyExists {
                kind: "chronicle group",
                name: name.into(),
            });
        }
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(ChronicleGroup::new(id, name));
        self.group_names.insert(name.into(), id);
        Ok(id)
    }

    /// Resolve a group by name.
    pub fn group_id(&self, name: &str) -> Result<GroupId> {
        self.group_names
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "chronicle group",
                name: name.into(),
            })
    }

    /// The group with this id.
    pub fn group(&self, id: GroupId) -> &ChronicleGroup {
        &self.groups[id.0 as usize]
    }

    /// Mutable group access.
    pub fn group_mut(&mut self, id: GroupId) -> &mut ChronicleGroup {
        &mut self.groups[id.0 as usize]
    }

    /// All groups, in id order.
    pub fn groups(&self) -> &[ChronicleGroup] {
        &self.groups
    }

    // ---- chronicles -----------------------------------------------------

    /// Create a chronicle inside `group`.
    pub fn create_chronicle(
        &mut self,
        name: &str,
        group: GroupId,
        schema: Schema,
        retention: Retention,
    ) -> Result<ChronicleId> {
        if self.chronicle_names.contains_key(name) {
            return Err(ChronicleError::AlreadyExists {
                kind: "chronicle",
                name: name.into(),
            });
        }
        if group.0 as usize >= self.groups.len() {
            return Err(ChronicleError::NotFound {
                kind: "chronicle group",
                name: group.to_string(),
            });
        }
        let id = ChronicleId(self.chronicles.len() as u32);
        self.chronicles
            .push(Chronicle::new(id, name, group, schema, retention)?);
        self.chronicle_names.insert(name.into(), id);
        Ok(id)
    }

    /// Resolve a chronicle by name.
    pub fn chronicle_id(&self, name: &str) -> Result<ChronicleId> {
        self.chronicle_names
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "chronicle",
                name: name.into(),
            })
    }

    /// The chronicle with this id.
    pub fn chronicle(&self, id: ChronicleId) -> &Chronicle {
        &self.chronicles[id.0 as usize]
    }

    /// All chronicles.
    pub fn chronicles(&self) -> &[Chronicle] {
        &self.chronicles
    }

    /// Mutable chronicle access (restart/restore path).
    pub fn chronicle_mut(&mut self, id: ChronicleId) -> &mut Chronicle {
        &mut self.chronicles[id.0 as usize]
    }

    /// Append a batch of tuples to chronicle `id` at temporal instant `at`.
    ///
    /// The group allocates the next sequence number; every tuple's
    /// sequencing attribute must already carry that number (use
    /// [`Catalog::next_seq`] to obtain it when building the batch), keeping
    /// tuple contents and admitted SNs honest. Returns the admitted SN.
    pub fn append(&mut self, id: ChronicleId, at: Chronon, tuples: &[Tuple]) -> Result<SeqNo> {
        let group = self.chronicles[id.0 as usize].group();
        let seq = self.groups[group.0 as usize].next_seq();
        self.append_at(id, seq, at, tuples)
    }

    /// Append a batch with an explicit (possibly sparse) sequence number.
    pub fn append_at(
        &mut self,
        id: ChronicleId,
        seq: SeqNo,
        at: Chronon,
        tuples: &[Tuple],
    ) -> Result<SeqNo> {
        let group = self.chronicles[id.0 as usize].group();
        // Validate the batch fully before admitting the SN so a failed
        // append leaves no trace.
        {
            let c = &self.chronicles[id.0 as usize];
            let sp = c.seq_pos();
            for t in tuples {
                t.check_against(c.schema())?;
                if t.seq_at(sp)? != seq {
                    return Err(ChronicleError::NonMonotonicAppend {
                        high_water: seq.0,
                        attempted: t.seq_at(sp)?.0,
                    });
                }
            }
        }
        self.groups[group.0 as usize].admit(seq, at)?;
        self.chronicles[id.0 as usize].record_batch(seq, tuples)?;
        Ok(seq)
    }

    /// The sequence number the next append to `id`'s group will receive.
    pub fn next_seq(&self, id: ChronicleId) -> SeqNo {
        let group = self.chronicles[id.0 as usize].group();
        self.groups[group.0 as usize].next_seq()
    }

    // ---- relations ------------------------------------------------------

    /// Create a relation.
    pub fn create_relation(&mut self, name: &str, schema: Schema) -> Result<RelationId> {
        if self.relation_names.contains_key(name) {
            return Err(ChronicleError::AlreadyExists {
                kind: "relation",
                name: name.into(),
            });
        }
        if schema.is_chronicle() {
            return Err(ChronicleError::InvalidSchema(
                "relations must not have a sequencing attribute".into(),
            ));
        }
        let id = RelationId(self.relations.len() as u32);
        self.relations.push(TemporalRelation::new(schema));
        self.relation_names.insert(name.into(), id);
        Ok(id)
    }

    /// Resolve a relation by name.
    pub fn relation_id(&self, name: &str) -> Result<RelationId> {
        self.relation_names
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "relation",
                name: name.into(),
            })
    }

    /// The relation with this id.
    pub fn relation(&self, id: RelationId) -> &TemporalRelation {
        &self.relations[id.0 as usize]
    }

    /// Mutable relation access (index management).
    pub fn relation_mut(&mut self, id: RelationId) -> &mut TemporalRelation {
        &mut self.relations[id.0 as usize]
    }

    /// Insert into relation `id`, stamped with group `group`'s current
    /// high-water mark (a proactive update by construction: it only affects
    /// chronicle tuples appended later).
    pub fn relation_insert(&mut self, id: RelationId, group: GroupId, tuple: Tuple) -> Result<()> {
        let hw = self.groups[group.0 as usize].high_water();
        self.relations[id.0 as usize].insert(tuple, hw)
    }

    /// Update by key in relation `id`, stamped with group `group`'s
    /// high-water.
    pub fn relation_update(
        &mut self,
        id: RelationId,
        group: GroupId,
        key: &[Value],
        new: Tuple,
    ) -> Result<()> {
        let hw = self.groups[group.0 as usize].high_water();
        self.relations[id.0 as usize].update_by_key(key, new, hw)
    }

    /// Iterate relations with their names, in id order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &TemporalRelation)> + '_ {
        let mut named: Vec<(&str, RelationId)> = self
            .relation_names
            .iter()
            .map(|(n, &id)| (n.as_str(), id))
            .collect();
        named.sort_by_key(|&(_, id)| id.0);
        named
            .into_iter()
            .map(move |(n, id)| (n, &self.relations[id.0 as usize]))
    }

    /// Name of chronicle `id` (for diagnostics).
    pub fn chronicle_name(&self, id: ChronicleId) -> &str {
        self.chronicles[id.0 as usize].name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::{tuple, AttrType, Attribute};

    fn call_schema() -> Schema {
        Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("caller", AttrType::Int),
            ],
            "sn",
        )
        .unwrap()
    }

    fn setup() -> (Catalog, GroupId, ChronicleId) {
        let mut cat = Catalog::new();
        let g = cat.create_group("main").unwrap();
        let c = cat
            .create_chronicle("calls", g, call_schema(), Retention::All)
            .unwrap();
        (cat, g, c)
    }

    #[test]
    fn name_resolution() {
        let (cat, g, c) = setup();
        assert_eq!(cat.group_id("main").unwrap(), g);
        assert_eq!(cat.chronicle_id("calls").unwrap(), c);
        assert!(cat.chronicle_id("nope").is_err());
        assert!(cat.group_id("nope").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut cat, g, _) = setup();
        assert!(matches!(
            cat.create_group("main").unwrap_err(),
            ChronicleError::AlreadyExists { .. }
        ));
        assert!(matches!(
            cat.create_chronicle("calls", g, call_schema(), Retention::All)
                .unwrap_err(),
            ChronicleError::AlreadyExists { .. }
        ));
    }

    #[test]
    fn append_allocates_group_seq() {
        let (mut cat, _, c) = setup();
        let s1 = cat
            .append(c, Chronon(1), &[tuple![SeqNo(1), 100i64]])
            .unwrap();
        assert_eq!(s1, SeqNo(1));
        let s2 = cat
            .append(c, Chronon(2), &[tuple![SeqNo(2), 100i64]])
            .unwrap();
        assert_eq!(s2, SeqNo(2));
        assert_eq!(cat.chronicle(c).total_appended(), 2);
    }

    #[test]
    fn group_monotonicity_spans_chronicles() {
        let (mut cat, g, c1) = setup();
        let schema2 = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("x", AttrType::Int),
            ],
            "sn",
        )
        .unwrap();
        let c2 = cat
            .create_chronicle("other", g, schema2, Retention::All)
            .unwrap();
        cat.append(c1, Chronon(1), &[tuple![SeqNo(1), 5i64]])
            .unwrap();
        // Group high-water is now 1, so c2's next SN is 2, not 1.
        assert_eq!(cat.next_seq(c2), SeqNo(2));
        cat.append(c2, Chronon(2), &[tuple![SeqNo(2), 6i64]])
            .unwrap();
        // Explicit stale SN into c1 is rejected at the group level.
        let err = cat
            .append_at(c1, SeqNo(2), Chronon(3), &[tuple![SeqNo(2), 7i64]])
            .unwrap_err();
        assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
    }

    #[test]
    fn failed_append_leaves_no_trace() {
        let (mut cat, g, c) = setup();
        // Tuple SN doesn't match the allocated SN -> rejected before admit.
        let err = cat
            .append(c, Chronon(1), &[tuple![SeqNo(9), 5i64]])
            .unwrap_err();
        assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
        assert_eq!(cat.group(g).high_water(), SeqNo::ZERO);
        assert_eq!(cat.chronicle(c).total_appended(), 0);
    }

    #[test]
    fn sparse_explicit_seq_numbers() {
        let (mut cat, g, c) = setup();
        cat.append_at(c, SeqNo(10), Chronon(1), &[tuple![SeqNo(10), 5i64]])
            .unwrap();
        cat.append_at(c, SeqNo(100), Chronon(2), &[tuple![SeqNo(100), 6i64]])
            .unwrap();
        assert_eq!(cat.group(g).high_water(), SeqNo(100));
    }

    #[test]
    fn relation_updates_are_stamped_proactively() {
        let (mut cat, g, c) = setup();
        let rschema = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("state", AttrType::Str),
            ],
            &["acct"],
        )
        .unwrap();
        let r = cat.create_relation("customers", rschema).unwrap();
        cat.relation_insert(r, g, tuple![1i64, "NJ"]).unwrap();
        cat.append(c, Chronon(1), &[tuple![SeqNo(1), 1i64]])
            .unwrap();
        cat.relation_update(r, g, &[Value::Int(1)], tuple![1i64, "NY"])
            .unwrap();
        cat.append(c, Chronon(2), &[tuple![SeqNo(2), 1i64]])
            .unwrap();
        // SN 1 saw NJ; SN 2 sees NY.
        let rel = cat.relation(r);
        assert_eq!(
            rel.version_at(SeqNo(1))
                .unwrap()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("NJ")
        );
        assert_eq!(
            rel.version_at(SeqNo(2))
                .unwrap()
                .get_by_key(&[Value::Int(1)])
                .unwrap()
                .get(1)
                .as_str(),
            Some("NY")
        );
    }

    #[test]
    fn chronicle_schema_rejected_as_relation() {
        let mut cat = Catalog::new();
        assert!(cat.create_relation("bad", call_schema()).is_err());
    }
}
