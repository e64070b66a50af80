//! Chronicle groups: the shared sequence-number domain.
//!
//! §4 of the paper: *"We define a chronicle group as a collection of
//! chronicles whose sequence numbers are drawn from the same domain, along
//! with the requirement that an insert into any chronicle in a chronicle
//! group must have a sequence number greater than the sequence number of
//! any tuple in the chronicle group."* Union, difference and SN-joins are
//! only permitted within one group.
//!
//! The group also owns the monotone `SeqNo → Chronon` mapping of §2.1/§5.1:
//! every sequence number has an associated temporal instant, and calendars
//! (sets of time intervals) are evaluated through this mapping.

use chronicle_types::{ChronicleError, Chronon, GroupId, Result, SeqNo};

/// A chronicle group: shared sequence domain + SN→chronon mapping.
#[derive(Debug, Clone)]
pub struct ChronicleGroup {
    id: GroupId,
    name: String,
    high_water: SeqNo,
    /// Monotone (SeqNo, Chronon) pairs, appended on every admitted batch.
    /// Both components are non-decreasing, enabling binary search both ways.
    timeline: Vec<(SeqNo, Chronon)>,
}

impl ChronicleGroup {
    /// Create an empty group.
    pub fn new(id: GroupId, name: impl Into<String>) -> Self {
        ChronicleGroup {
            id,
            name: name.into(),
            high_water: SeqNo::ZERO,
            timeline: Vec::new(),
        }
    }

    /// Group id.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Highest sequence number admitted so far ([`SeqNo::ZERO`] if none).
    pub fn high_water(&self) -> SeqNo {
        self.high_water
    }

    /// Admit a batch at sequence number `seq` with temporal instant `at`.
    ///
    /// Fails if `seq` is not strictly greater than the group high-water
    /// mark, or if `at` precedes the last admitted chronon (time, like
    /// sequence numbers, only moves forward).
    pub fn admit(&mut self, seq: SeqNo, at: Chronon) -> Result<()> {
        if seq <= self.high_water {
            return Err(ChronicleError::NonMonotonicAppend {
                high_water: self.high_water.0,
                attempted: seq.0,
            });
        }
        if let Some(&(_, last)) = self.timeline.last() {
            if at < last {
                return Err(ChronicleError::NonMonotonicAppend {
                    high_water: last.0 as u64,
                    attempted: at.0 as u64,
                });
            }
        }
        self.high_water = seq;
        self.timeline.push((seq, at));
        Ok(())
    }

    /// Allocate the next sequence number without admitting it (callers that
    /// generate their own SNs use [`ChronicleGroup::admit`] directly).
    pub fn next_seq(&self) -> SeqNo {
        self.high_water.next()
    }

    /// The chronon associated with sequence number `seq`, if admitted.
    pub fn chronon_of(&self, seq: SeqNo) -> Option<Chronon> {
        self.timeline
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .map(|i| self.timeline[i].1)
    }

    /// The latest admitted chronon (the group's "now"), if any batch was
    /// admitted.
    pub fn now(&self) -> Option<Chronon> {
        self.timeline.last().map(|&(_, c)| c)
    }

    /// The smallest sequence number whose chronon is `>= at` — the start of
    /// the suffix of the chronicle lying inside an interval beginning at
    /// `at`. Returns `None` if no admitted SN is that late.
    pub fn first_seq_at_or_after(&self, at: Chronon) -> Option<SeqNo> {
        let idx = self.timeline.partition_point(|&(_, c)| c < at);
        self.timeline.get(idx).map(|&(s, _)| s)
    }

    /// Restore the watermark from a checkpoint image: the high-water mark
    /// plus the last admitted (SN, chronon) point. The full timeline is
    /// deliberately not persisted — durable state must stay `O(|V|)`, not
    /// `O(|C|)` — so after recovery [`ChronicleGroup::chronon_of`] and
    /// [`ChronicleGroup::first_seq_at_or_after`] only answer for batches
    /// admitted since (plus the final pre-crash point).
    pub fn restore_watermark(&mut self, high_water: SeqNo, last_at: Option<Chronon>) {
        self.high_water = high_water;
        self.timeline.clear();
        if let Some(at) = last_at {
            if high_water > SeqNo::ZERO {
                self.timeline.push((high_water, at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ChronicleGroup {
        ChronicleGroup::new(GroupId(0), "g")
    }

    #[test]
    fn admit_enforces_monotonicity() {
        let mut g = group();
        g.admit(SeqNo(1), Chronon(100)).unwrap();
        g.admit(SeqNo(5), Chronon(100)).unwrap(); // sparse SNs allowed, equal chronon allowed
        let err = g.admit(SeqNo(5), Chronon(200)).unwrap_err();
        assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
        let err = g.admit(SeqNo(4), Chronon(200)).unwrap_err();
        assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
        assert_eq!(g.high_water(), SeqNo(5));
    }

    #[test]
    fn chronon_must_not_go_backwards() {
        let mut g = group();
        g.admit(SeqNo(1), Chronon(100)).unwrap();
        let err = g.admit(SeqNo(2), Chronon(99)).unwrap_err();
        assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
    }

    #[test]
    fn chronon_lookup() {
        let mut g = group();
        g.admit(SeqNo(2), Chronon(10)).unwrap();
        g.admit(SeqNo(7), Chronon(20)).unwrap();
        assert_eq!(g.chronon_of(SeqNo(2)), Some(Chronon(10)));
        assert_eq!(g.chronon_of(SeqNo(7)), Some(Chronon(20)));
        assert_eq!(g.chronon_of(SeqNo(3)), None);
        assert_eq!(g.now(), Some(Chronon(20)));
    }

    #[test]
    fn first_seq_at_or_after_boundaries() {
        let mut g = group();
        g.admit(SeqNo(2), Chronon(10)).unwrap();
        g.admit(SeqNo(7), Chronon(20)).unwrap();
        g.admit(SeqNo(9), Chronon(30)).unwrap();
        assert_eq!(g.first_seq_at_or_after(Chronon(5)), Some(SeqNo(2)));
        assert_eq!(g.first_seq_at_or_after(Chronon(10)), Some(SeqNo(2)));
        assert_eq!(g.first_seq_at_or_after(Chronon(11)), Some(SeqNo(7)));
        assert_eq!(g.first_seq_at_or_after(Chronon(30)), Some(SeqNo(9)));
        assert_eq!(g.first_seq_at_or_after(Chronon(31)), None);
    }

    #[test]
    fn next_seq_is_high_water_plus_one() {
        let mut g = group();
        assert_eq!(g.next_seq(), SeqNo(1));
        g.admit(SeqNo(41), Chronon(0)).unwrap();
        assert_eq!(g.next_seq(), SeqNo(42));
    }
}
