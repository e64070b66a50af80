//! The two comparators E1 and E7 measure the chronicle model against.
//!
//! * [`NaiveRecomputeView`] — the Proposition 3.1 strategy: store the whole
//!   chronicle and recompute the view from scratch on demand. Maintenance
//!   work is `Ω(|C|)` per refresh; the class is IM-C^k.
//! * [`StoredThetaJoinCount`] — classical incremental maintenance *with*
//!   chronicle access, for the constructions Theorem 4.3 proves cannot be
//!   in CA: a cross product / θ-join between two chronicles. The delta for
//!   an append to one side joins against the entire stored other side, so
//!   per-append work grows with `|C|` — incremental, yet still IM-C^k.

use chronicle_algebra::eval::eval_sca;
use chronicle_algebra::{CmpOp, ScaExpr};
use chronicle_store::Catalog;
use chronicle_types::{ChronicleId, Result, Tuple};

/// Store-everything + recompute-on-demand (IM-C^k).
#[derive(Debug, Clone)]
pub struct NaiveRecomputeView {
    expr: ScaExpr,
    /// Chronicle tuples read by the last refresh.
    pub last_read: u64,
}

impl NaiveRecomputeView {
    /// Wrap an SCA expression (the *same* definition the incremental
    /// engine uses, for apples-to-apples comparisons).
    pub fn new(expr: ScaExpr) -> Self {
        NaiveRecomputeView { expr, last_read: 0 }
    }

    /// Recompute the view from the stored chronicle. Fails if retention
    /// evicted needed history — the paper's core objection to this design.
    pub fn refresh(&mut self, catalog: &Catalog) -> Result<Vec<Tuple>> {
        self.last_read = self
            .expr
            .ca()
            .base_chronicles()
            .iter()
            .map(|&c| catalog.chronicle(c).stored_len() as u64)
            .sum();
        eval_sca(catalog, &self.expr)
    }
}

/// Incrementally maintained `COUNT(C₁ ⋈_θ C₂)` where the join is a θ-join
/// on given columns — the beyond-CA construction. The count is exact and
/// updated per append, but each append must scan the stored other side.
#[derive(Debug)]
pub struct StoredThetaJoinCount {
    left: ChronicleId,
    right: ChronicleId,
    /// (left column, op, right column).
    cond: (usize, CmpOp, usize),
    /// The maintained count.
    pub count: u64,
    /// Chronicle tuples scanned by maintenance so far.
    pub scanned: u64,
}

impl StoredThetaJoinCount {
    /// A maintained count over `left ⋈_{l θ r} right`.
    pub fn new(left: ChronicleId, right: ChronicleId, cond: (usize, CmpOp, usize)) -> Self {
        StoredThetaJoinCount {
            left,
            right,
            cond,
            count: 0,
            scanned: 0,
        }
    }

    /// Maintain after a batch lands in `chronicle`. Requires the *other*
    /// chronicle to be fully stored; that requirement is the point.
    pub fn on_append(
        &mut self,
        catalog: &Catalog,
        chronicle: ChronicleId,
        tuples: &[Tuple],
    ) -> Result<()> {
        let (lc, op, rc) = self.cond;
        if chronicle == self.left {
            let other = catalog.chronicle(self.right);
            for t in tuples {
                for o in other.scan_all()? {
                    self.scanned += 1;
                    if op.test(t.get(lc).sql_cmp(o.get(rc))?) {
                        self.count += 1;
                    }
                }
            }
        }
        if chronicle == self.right {
            let other = catalog.chronicle(self.left);
            for t in tuples {
                for o in other.scan_all()? {
                    self.scanned += 1;
                    if op.test(o.get(lc).sql_cmp(t.get(rc))?) {
                        self.count += 1;
                    }
                }
            }
        }
        // Self-joins: tuples of this batch also pair with each other; both
        // branches above ran against the *stored* chronicle, which already
        // contains the batch if the caller appended before maintaining. The
        // double-count guard: when left == right, the two branches counted
        // (batch × stored) twice including (batch × batch); correct by
        // halving is wrong in general, so self-joins require left != right.
        debug_assert_ne!(self.left, self.right, "use distinct chronicles");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_algebra::{AggFunc, AggSpec, CaExpr};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, Chronon, Schema, SeqNo, Value};

    fn setup(retention: Retention) -> (Catalog, ChronicleId) {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("acct", AttrType::Int),
                Attribute::new("amount", AttrType::Float),
            ],
            "sn",
        )
        .unwrap();
        let c = cat.create_chronicle("txns", g, cs, retention).unwrap();
        (cat, c)
    }

    #[test]
    fn naive_recompute_matches_and_reads_everything() {
        let (mut cat, c) = setup(Retention::All);
        for i in 1..=10u64 {
            cat.append(c, Chronon(i as i64), &[tuple![SeqNo(i), 1i64, 1.0f64]])
                .unwrap();
        }
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["acct"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap();
        let mut naive = NaiveRecomputeView::new(expr);
        let rows = naive.refresh(&cat).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Float(10.0));
        assert_eq!(naive.last_read, 10, "every stored tuple was read");
    }

    #[test]
    fn naive_fails_once_history_evicted() {
        let (mut cat, c) = setup(Retention::LastTuples(2));
        for i in 1..=5u64 {
            cat.append(c, Chronon(i as i64), &[tuple![SeqNo(i), 1i64, 1.0f64]])
                .unwrap();
        }
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["acct"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap();
        let mut naive = NaiveRecomputeView::new(expr);
        assert!(naive.refresh(&cat).is_err());
    }

    #[test]
    fn theta_join_count_scans_other_side() {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("v", AttrType::Int),
            ],
            "sn",
        )
        .unwrap();
        let a = cat
            .create_chronicle("a", g, cs.clone(), Retention::All)
            .unwrap();
        let b = cat.create_chronicle("b", g, cs, Retention::All).unwrap();
        let mut joined = StoredThetaJoinCount::new(a, b, (1, CmpOp::Lt, 1));
        // Interleave appends; maintain after each.
        let mut seq = 0u64;
        for i in 0..4i64 {
            seq += 1;
            let ta = vec![tuple![SeqNo(seq), i]];
            cat.append_at(a, SeqNo(seq), Chronon(seq as i64), &ta)
                .unwrap();
            joined.on_append(&cat, a, &ta).unwrap();
            seq += 1;
            let tb = vec![tuple![SeqNo(seq), i + 1]];
            cat.append_at(b, SeqNo(seq), Chronon(seq as i64), &tb)
                .unwrap();
            joined.on_append(&cat, b, &tb).unwrap();
        }
        // Oracle: pairs (x from a, y from b) with x < y;
        // a = {0,1,2,3}, b = {1,2,3,4}.
        let expected = (0..4)
            .flat_map(|x| (1..5).map(move |y| (x, y)))
            .filter(|(x, y)| x < y)
            .count() as u64;
        assert_eq!(joined.count, expected);
        // Work grows with the stored sizes: last append scanned |a| = 4.
        assert!(joined.scanned >= 4 + 3 + 3 + 2 + 2);
    }

    #[test]
    fn theta_join_requires_stored_chronicles() {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("v", AttrType::Int),
            ],
            "sn",
        )
        .unwrap();
        let a = cat
            .create_chronicle("a", g, cs.clone(), Retention::None)
            .unwrap();
        let b = cat.create_chronicle("b", g, cs, Retention::None).unwrap();
        let ta = vec![tuple![SeqNo(1), 5i64]];
        cat.append_at(a, SeqNo(1), Chronon(1), &ta).unwrap();
        let tb = vec![tuple![SeqNo(2), 9i64]];
        cat.append_at(b, SeqNo(2), Chronon(2), &tb).unwrap();
        let mut joined = StoredThetaJoinCount::new(a, b, (1, CmpOp::Lt, 1));
        // Appending to b needs a's history, which isn't stored.
        assert!(joined.on_append(&cat, b, &tb).is_err());
    }
}
