//! The selection-predicate language of Definition 4.1.
//!
//! *"A selection on a chronicle, σ_p(C), where p is a predicate of the form
//! A₁θA₂, or A₁θk, or a disjunction of such terms, k is a constant, and θ
//! is one of {=, ≠, ≤, <, >, ≥}."*
//!
//! A conjunction is not part of the predicate language itself, but `σ_{p∧q}`
//! is expressible as `σ_p(σ_q(C))` — the SQL planner performs exactly that
//! decomposition, so the fragment loses no selection power on conjunctive
//! conditions.

use std::fmt;

use chronicle_types::{ChronicleError, Result, Schema, Tuple, Value};

/// A comparison operator θ ∈ {=, ≠, <, ≤, >, ≥}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering outcome. `None` (NULL involved or
    /// incomparable) yields `false`, matching SQL's unknown-is-not-selected.
    pub fn test(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        match (self, ord) {
            (_, None) => false,
            (CmpOp::Eq, Some(Equal)) => true,
            (CmpOp::Ne, Some(Less | Greater)) => true,
            (CmpOp::Lt, Some(Less)) => true,
            (CmpOp::Le, Some(Less | Equal)) => true,
            (CmpOp::Gt, Some(Greater)) => true,
            (CmpOp::Ge, Some(Greater | Equal)) => true,
            _ => false,
        }
    }

    /// The operator with its operands swapped (`a θ b` ⇔ `b θ' a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// The right-hand side of an atom: another attribute or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An attribute, by position in the input schema.
    Attr(usize),
    /// A constant `k`.
    Const(Value),
}

/// One atomic term `A θ B` or `A θ k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Left attribute position.
    pub left: usize,
    /// The comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Operand,
}

impl Atom {
    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        let l = tuple.get(self.left);
        let r = match &self.right {
            Operand::Attr(p) => tuple.get(*p),
            Operand::Const(v) => v,
        };
        Ok(self.op.test(l.sql_cmp(r)?))
    }
}

/// A predicate: a disjunction of atoms (Def. 4.1). The empty disjunction is
/// not representable; use [`Predicate::always`] for the trivial predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Selects every tuple (σ_true).
    True,
    /// `atom₁ ∨ atom₂ ∨ …` (at least one atom).
    Or(Vec<Atom>),
}

impl Predicate {
    /// The trivially true predicate.
    pub fn always() -> Predicate {
        Predicate::True
    }

    /// A single-atom predicate `left θ right` with positional operands.
    pub fn atom(left: usize, op: CmpOp, right: Operand) -> Predicate {
        Predicate::Or(vec![Atom { left, op, right }])
    }

    /// A disjunction of atoms. Errors if `atoms` is empty.
    pub fn disjunction(atoms: Vec<Atom>) -> Result<Predicate> {
        if atoms.is_empty() {
            return Err(ChronicleError::NotInLanguage {
                language: "CA",
                reason: "empty disjunction".into(),
            });
        }
        Ok(Predicate::Or(atoms))
    }

    /// Name-based constructor: `attr θ constant`.
    pub fn attr_cmp_const(
        schema: &Schema,
        attr: &str,
        op: CmpOp,
        value: Value,
    ) -> Result<Predicate> {
        let left = schema.position(attr)?;
        Self::check_types(schema, left, &Operand::Const(value.clone()))?;
        Ok(Predicate::atom(left, op, Operand::Const(value)))
    }

    /// Name-based constructor: `attr₁ θ attr₂`.
    pub fn attr_cmp_attr(schema: &Schema, a: &str, op: CmpOp, b: &str) -> Result<Predicate> {
        let left = schema.position(a)?;
        let right = schema.position(b)?;
        Self::check_types(schema, left, &Operand::Attr(right))?;
        Ok(Predicate::atom(left, op, Operand::Attr(right)))
    }

    /// Validate that every atom's positions are in range and its operand
    /// types are comparable under `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        let Predicate::Or(atoms) = self else {
            return Ok(());
        };
        for a in atoms {
            if a.left >= schema.arity() {
                return Err(ChronicleError::UnknownAttribute {
                    name: format!("position {}", a.left),
                    context: "selection predicate".into(),
                });
            }
            if let Operand::Attr(p) = a.right {
                if p >= schema.arity() {
                    return Err(ChronicleError::UnknownAttribute {
                        name: format!("position {p}"),
                        context: "selection predicate".into(),
                    });
                }
            }
            Self::check_types(schema, a.left, &a.right)?;
        }
        Ok(())
    }

    fn check_types(schema: &Schema, left: usize, right: &Operand) -> Result<()> {
        use chronicle_types::AttrType as T;
        let lt = schema.attr(left).ty;
        let rt = match right {
            Operand::Attr(p) => Some(schema.attr(*p).ty),
            Operand::Const(v) => v.attr_type(),
        };
        let Some(rt) = rt else { return Ok(()) }; // NULL constant: legal, never matches
        let compatible = lt == rt || matches!((lt, rt), (T::Int, T::Float) | (T::Float, T::Int));
        if !compatible {
            return Err(ChronicleError::TypeMismatch {
                context: "selection predicate".into(),
                left: lt.to_string(),
                right: rt.to_string(),
            });
        }
        Ok(())
    }

    /// Evaluate against a tuple: true iff any atom holds.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Or(atoms) => {
                for a in atoms {
                    if a.eval(tuple)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Or(atoms) => {
                for (i, a) in atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    match &a.right {
                        Operand::Attr(p) => write!(f, "${} {} ${}", a.left, a.op, p)?,
                        Operand::Const(v) => write!(f, "${} {} {}", a.left, a.op, v)?,
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::{tuple, AttrType, Attribute, SeqNo};

    fn schema() -> Schema {
        Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("caller", AttrType::Int),
                Attribute::new("minutes", AttrType::Float),
                Attribute::new("dest", AttrType::Str),
            ],
            "sn",
        )
        .unwrap()
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Some(Equal)));
        assert!(!CmpOp::Eq.test(Some(Less)));
        assert!(CmpOp::Ne.test(Some(Greater)));
        assert!(CmpOp::Le.test(Some(Equal)));
        assert!(CmpOp::Ge.test(Some(Greater)));
        assert!(!CmpOp::Lt.test(None), "NULL comparisons select nothing");
    }

    #[test]
    fn flipped_round_trip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
    }

    #[test]
    fn attr_const_predicate() {
        let s = schema();
        let p = Predicate::attr_cmp_const(&s, "minutes", CmpOp::Gt, Value::Float(10.0)).unwrap();
        let t_hit = tuple![SeqNo(1), 555i64, 12.5f64, "NYC"];
        let t_miss = tuple![SeqNo(2), 555i64, 2.0f64, "NYC"];
        assert!(p.eval(&t_hit).unwrap());
        assert!(!p.eval(&t_miss).unwrap());
    }

    #[test]
    fn attr_attr_predicate() {
        let s = schema();
        let p = Predicate::attr_cmp_attr(&s, "caller", CmpOp::Lt, "minutes").unwrap();
        assert!(p.eval(&tuple![SeqNo(1), 5i64, 12.5f64, "x"]).unwrap());
        assert!(!p.eval(&tuple![SeqNo(1), 50i64, 12.5f64, "x"]).unwrap());
    }

    #[test]
    fn disjunction_any_atom_selects() {
        let s = schema();
        let p = Predicate::disjunction(vec![
            Atom {
                left: s.position("dest").unwrap(),
                op: CmpOp::Eq,
                right: Operand::Const(Value::str("NYC")),
            },
            Atom {
                left: s.position("minutes").unwrap(),
                op: CmpOp::Gt,
                right: Operand::Const(Value::Float(100.0)),
            },
        ])
        .unwrap();
        assert!(p.eval(&tuple![SeqNo(1), 1i64, 5.0f64, "NYC"]).unwrap());
        assert!(p.eval(&tuple![SeqNo(1), 1i64, 500.0f64, "LA"]).unwrap());
        assert!(!p.eval(&tuple![SeqNo(1), 1i64, 5.0f64, "LA"]).unwrap());
    }

    #[test]
    fn empty_disjunction_rejected() {
        assert!(Predicate::disjunction(vec![]).is_err());
    }

    #[test]
    fn type_mismatch_rejected_at_build() {
        let s = schema();
        let err = Predicate::attr_cmp_const(&s, "dest", CmpOp::Gt, Value::Int(3)).unwrap_err();
        assert!(matches!(err, ChronicleError::TypeMismatch { .. }));
        let err = Predicate::attr_cmp_attr(&s, "caller", CmpOp::Eq, "dest").unwrap_err();
        assert!(matches!(err, ChronicleError::TypeMismatch { .. }));
    }

    #[test]
    fn int_float_comparison_allowed() {
        let s = schema();
        // minutes FLOAT vs integer constant: fine.
        let p = Predicate::attr_cmp_const(&s, "minutes", CmpOp::Ge, Value::Int(10)).unwrap();
        assert!(p.eval(&tuple![SeqNo(1), 1i64, 10.0f64, "x"]).unwrap());
    }

    #[test]
    fn unknown_attribute_rejected() {
        let s = schema();
        assert!(Predicate::attr_cmp_const(&s, "ghost", CmpOp::Eq, Value::Int(1)).is_err());
    }

    #[test]
    fn validate_checks_positions() {
        let s = schema();
        let bad = Predicate::atom(99, CmpOp::Eq, Operand::Const(Value::Int(1)));
        assert!(bad.validate(&s).is_err());
        let bad = Predicate::atom(1, CmpOp::Eq, Operand::Attr(99));
        assert!(bad.validate(&s).is_err());
        let ok = Predicate::atom(1, CmpOp::Eq, Operand::Const(Value::Int(1)));
        assert!(ok.validate(&s).is_ok());
    }

    #[test]
    fn null_constant_never_matches() {
        let s = schema();
        let p = Predicate::attr_cmp_const(&s, "caller", CmpOp::Eq, Value::Null).unwrap();
        assert!(!p.eval(&tuple![SeqNo(1), 1i64, 1.0f64, "x"]).unwrap());
    }

    #[test]
    fn display_is_readable() {
        let s = schema();
        let p = Predicate::attr_cmp_const(&s, "minutes", CmpOp::Gt, Value::Float(10.0)).unwrap();
        assert_eq!(p.to_string(), "$2 > 10");
        assert_eq!(Predicate::True.to_string(), "true");
    }
}
