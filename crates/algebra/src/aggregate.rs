//! Incrementally computable aggregation functions.
//!
//! The paper (Preliminaries) admits aggregation functions that are
//! *incrementally computable, or decomposable into incremental computation
//! functions*: computable in O(n) over a group of size n and in O(1) per
//! increment of size 1. MIN, MAX, SUM and COUNT are the paper's examples.
//!
//! Because chronicles are append-only, MIN and MAX are genuinely
//! incrementally computable here (no deletions ever retract a witness).
//! AVG and STDDEV are *decomposable*: maintained as (SUM, COUNT) and
//! (SUM, SUMSQ, COUNT) respectively and finalized on read. FIRST/LAST
//! exploit the sequence order of chronicles.
//!
//! The Z-set delta core additionally distinguishes the **retractable**
//! functions — COUNT/SUM/AVG/STDDEV, whose states form a group, so a
//! deleted input can be undone in O(1) via [`Accumulator::update_weighted`]
//! with a negative weight — from MIN/MAX/FIRST/LAST, whose states only
//! form a monoid (a retracted witness would force a rescan). Relation-
//! backed views, which face deletes, are restricted to the retractable
//! set; chronicle views may use all nine.

use std::fmt;

use chronicle_types::{ChronicleError, Result, Schema, Tuple, Value};

/// An aggregation function over one attribute (or over whole tuples for
/// `CountStar`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — number of tuples in the group.
    CountStar,
    /// `COUNT(a)` — number of non-NULL values of attribute `a`.
    Count(usize),
    /// `SUM(a)`.
    Sum(usize),
    /// `MIN(a)` — incrementally computable because chronicles never delete.
    Min(usize),
    /// `MAX(a)`.
    Max(usize),
    /// `AVG(a)` — decomposed into (SUM, COUNT).
    Avg(usize),
    /// Population standard deviation — decomposed into (SUM, SUMSQ, COUNT).
    StdDev(usize),
    /// First value of `a` in sequence order (well defined on chronicles).
    First(usize),
    /// Last value of `a` in sequence order.
    Last(usize),
}

impl AggFunc {
    /// The attribute this aggregate reads, if any.
    pub fn input_attr(&self) -> Option<usize> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(a)
            | AggFunc::Sum(a)
            | AggFunc::Min(a)
            | AggFunc::Max(a)
            | AggFunc::Avg(a)
            | AggFunc::StdDev(a)
            | AggFunc::First(a)
            | AggFunc::Last(a) => Some(*a),
        }
    }

    /// Validate against a schema: positions in range, numeric input for the
    /// arithmetic aggregates.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        use chronicle_types::AttrType as T;
        let Some(a) = self.input_attr() else {
            return Ok(());
        };
        if a >= schema.arity() {
            return Err(ChronicleError::UnknownAttribute {
                name: format!("position {a}"),
                context: "aggregate".into(),
            });
        }
        let ty = schema.attr(a).ty;
        let needs_numeric = matches!(self, AggFunc::Sum(_) | AggFunc::Avg(_) | AggFunc::StdDev(_));
        if needs_numeric && !matches!(ty, T::Int | T::Float) {
            return Err(ChronicleError::BadAggregate {
                detail: format!("{self} requires a numeric attribute, found {ty}"),
            });
        }
        if matches!(self, AggFunc::Min(_) | AggFunc::Max(_)) && matches!(ty, T::Seq) {
            // MIN/MAX over the sequencing attribute is legal but suspicious;
            // allow it (it is just the first/last SN).
        }
        Ok(())
    }

    /// The output type of the aggregate under `schema`.
    pub fn output_type(&self, schema: &Schema) -> chronicle_types::AttrType {
        use chronicle_types::AttrType as T;
        match self {
            AggFunc::CountStar | AggFunc::Count(_) => T::Int,
            AggFunc::Avg(_) | AggFunc::StdDev(_) => T::Float,
            AggFunc::Sum(a) => match schema.attr(*a).ty {
                T::Int => T::Int,
                _ => T::Float,
            },
            AggFunc::Min(a) | AggFunc::Max(a) | AggFunc::First(a) | AggFunc::Last(a) => {
                schema.attr(*a).ty
            }
        }
    }

    /// Whether this function can undo a deleted input in O(1): its state
    /// forms a group under the update operation. MIN/MAX/FIRST/LAST are
    /// not retractable — removing the current witness would require a
    /// rescan of the group.
    pub fn is_retractable(&self) -> bool {
        matches!(
            self,
            AggFunc::CountStar
                | AggFunc::Count(_)
                | AggFunc::Sum(_)
                | AggFunc::Avg(_)
                | AggFunc::StdDev(_)
        )
    }

    /// Create the empty accumulator for this function.
    pub fn new_state(&self) -> AccState {
        match self {
            AggFunc::CountStar | AggFunc::Count(_) => AccState::Count(0),
            AggFunc::Sum(_) => AccState::Sum {
                int: 0,
                float: 0.0,
                floats: 0,
                n: 0,
            },
            AggFunc::Min(_) => AccState::Extreme(None),
            AggFunc::Max(_) => AccState::Extreme(None),
            AggFunc::Avg(_) => AccState::SumCount { sum: 0.0, n: 0 },
            AggFunc::StdDev(_) => AccState::Moments {
                sum: 0.0,
                sumsq: 0.0,
                n: 0,
            },
            AggFunc::First(_) => AccState::Held(None),
            AggFunc::Last(_) => AccState::Held(None),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => write!(f, "COUNT(*)"),
            AggFunc::Count(a) => write!(f, "COUNT(${a})"),
            AggFunc::Sum(a) => write!(f, "SUM(${a})"),
            AggFunc::Min(a) => write!(f, "MIN(${a})"),
            AggFunc::Max(a) => write!(f, "MAX(${a})"),
            AggFunc::Avg(a) => write!(f, "AVG(${a})"),
            AggFunc::StdDev(a) => write!(f, "STDDEV(${a})"),
            AggFunc::First(a) => write!(f, "FIRST(${a})"),
            AggFunc::Last(a) => write!(f, "LAST(${a})"),
        }
    }
}

/// An aggregate with its output attribute name, as written in a GROUPBY's
/// aggregation list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Output attribute name.
    pub name: String,
}

impl AggSpec {
    /// Construct a named aggregate.
    pub fn new(func: AggFunc, name: impl Into<String>) -> Self {
        AggSpec {
            func,
            name: name.into(),
        }
    }
}

/// The decomposed running state of one aggregate over one group.
///
/// Every variant updates in O(1) per inserted tuple — the paper's
/// incremental-computability requirement.
#[derive(Debug, Clone, PartialEq)]
pub enum AccState {
    /// COUNT state.
    Count(i64),
    /// SUM state. Keeps an exact integer sum while all inputs are ints and
    /// switches to float while any float input is live, so `SUM(INT)`
    /// stays exact over billions of tuples. The float-input *count* (not a
    /// sticky bool) makes the representation retractable: deleting the
    /// last float input returns the sum to the exact integer domain.
    Sum {
        /// Exact integer partial sum.
        int: i64,
        /// Float partial sum (used while `floats > 0`).
        float: f64,
        /// Number of live float inputs.
        floats: u64,
        /// Number of non-NULL inputs.
        n: u64,
    },
    /// MIN/MAX state: the current extreme value.
    Extreme(Option<Value>),
    /// AVG state.
    SumCount {
        /// Running sum.
        sum: f64,
        /// Non-NULL input count.
        n: u64,
    },
    /// STDDEV state.
    Moments {
        /// Running sum.
        sum: f64,
        /// Running sum of squares.
        sumsq: f64,
        /// Non-NULL input count.
        n: u64,
    },
    /// FIRST/LAST state: the held value.
    Held(Option<Value>),
}

/// One aggregate function bound to its running state.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    func: AggFunc,
    state: AccState,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            state: func.new_state(),
        }
    }

    /// The function this accumulator runs.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// The decomposed running state (read-only; used by snapshotting).
    pub fn state(&self) -> &AccState {
        &self.state
    }

    /// Reassemble an accumulator from a function and a state (snapshot
    /// restore). Fails if the state variant does not belong to the
    /// function.
    pub fn from_parts(func: AggFunc, state: AccState) -> Result<Accumulator> {
        let compatible = matches!(
            (&state, func),
            (AccState::Count(_), AggFunc::CountStar | AggFunc::Count(_))
                | (AccState::Sum { .. }, AggFunc::Sum(_))
                | (AccState::Extreme(_), AggFunc::Min(_) | AggFunc::Max(_))
                | (AccState::SumCount { .. }, AggFunc::Avg(_))
                | (AccState::Moments { .. }, AggFunc::StdDev(_))
                | (AccState::Held(_), AggFunc::First(_) | AggFunc::Last(_))
        );
        if !compatible {
            return Err(ChronicleError::Internal(format!(
                "accumulator state {state:?} does not belong to {func}"
            )));
        }
        Ok(Accumulator { func, state })
    }

    /// Fold one tuple into the state — O(1), the incremental step.
    pub fn update(&mut self, tuple: &Tuple) -> Result<()> {
        let input = self.func.input_attr().map(|a| tuple.get(a));
        match (&mut self.state, self.func) {
            (AccState::Count(n), AggFunc::CountStar) => *n += 1,
            (AccState::Count(n), AggFunc::Count(_)) => {
                if !input.expect("Count has input").is_null() {
                    *n += 1;
                }
            }
            (
                AccState::Sum {
                    int,
                    float,
                    floats,
                    n,
                },
                AggFunc::Sum(_),
            ) => {
                let v = input.expect("Sum has input");
                match v {
                    Value::Null => {}
                    Value::Int(i) => {
                        *int = int.wrapping_add(*i);
                        *float += *i as f64;
                        *n += 1;
                    }
                    Value::Float(f) => {
                        *floats += 1;
                        *float += f;
                        *n += 1;
                    }
                    other => {
                        return Err(ChronicleError::BadAggregate {
                            detail: format!("SUM over non-numeric value {other:?}"),
                        })
                    }
                }
            }
            (AccState::Extreme(cur), AggFunc::Min(_)) => {
                let v = input.expect("Min has input");
                if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            (AccState::Extreme(cur), AggFunc::Max(_)) => {
                let v = input.expect("Max has input");
                if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
            (AccState::SumCount { sum, n }, AggFunc::Avg(_)) => {
                let v = input.expect("Avg has input");
                if let Some(f) = v.as_float() {
                    *sum += f;
                    *n += 1;
                } else if !v.is_null() {
                    return Err(ChronicleError::BadAggregate {
                        detail: format!("AVG over non-numeric value {v:?}"),
                    });
                }
            }
            (AccState::Moments { sum, sumsq, n }, AggFunc::StdDev(_)) => {
                let v = input.expect("StdDev has input");
                if let Some(f) = v.as_float() {
                    *sum += f;
                    *sumsq += f * f;
                    *n += 1;
                } else if !v.is_null() {
                    return Err(ChronicleError::BadAggregate {
                        detail: format!("STDDEV over non-numeric value {v:?}"),
                    });
                }
            }
            (AccState::Held(cur), AggFunc::First(_)) => {
                let v = input.expect("First has input");
                if cur.is_none() && !v.is_null() {
                    *cur = Some(v.clone());
                }
            }
            (AccState::Held(cur), AggFunc::Last(_)) => {
                let v = input.expect("Last has input");
                if !v.is_null() {
                    *cur = Some(v.clone());
                }
            }
            (state, func) => {
                return Err(ChronicleError::Internal(format!(
                    "accumulator state {state:?} does not match function {func}"
                )))
            }
        }
        Ok(())
    }

    /// Fold one tuple into the state `weight` times — the Z-set form of
    /// [`Self::update`]. Positive weights insert; negative weights retract
    /// (only for [`AggFunc::is_retractable`] functions — MIN/MAX and
    /// FIRST/LAST reject negative weights with a typed error instead of
    /// silently keeping a dead witness).
    pub fn update_weighted(&mut self, tuple: &Tuple, weight: i64) -> Result<()> {
        if weight == 0 {
            return Ok(());
        }
        if weight < 0 && !self.func.is_retractable() {
            return Err(ChronicleError::BadAggregate {
                detail: format!(
                    "{} is not retractable: undoing a deleted input needs a group rescan",
                    self.func
                ),
            });
        }
        // Presence-based states (MIN/MAX/FIRST/LAST): folding the same
        // tuple once or `weight > 0` times is identical.
        if matches!(self.state, AccState::Extreme(_) | AccState::Held(_)) {
            return self.update(tuple);
        }
        let input = self.func.input_attr().map(|a| tuple.get(a));
        match (&mut self.state, self.func) {
            (AccState::Count(n), AggFunc::CountStar) => *n += weight,
            (AccState::Count(n), AggFunc::Count(_)) => {
                if !input.expect("Count has input").is_null() {
                    *n += weight;
                }
            }
            (
                AccState::Sum {
                    int,
                    float,
                    floats,
                    n,
                },
                AggFunc::Sum(_),
            ) => {
                let v = input.expect("Sum has input");
                match v {
                    Value::Null => {}
                    Value::Int(i) => {
                        *int = int.wrapping_add(i.wrapping_mul(weight));
                        *float += *i as f64 * weight as f64;
                        adjust_count(n, weight, "SUM")?;
                    }
                    Value::Float(f) => {
                        *float += f * weight as f64;
                        adjust_count(floats, weight, "SUM")?;
                        adjust_count(n, weight, "SUM")?;
                    }
                    other => {
                        return Err(ChronicleError::BadAggregate {
                            detail: format!("SUM over non-numeric value {other:?}"),
                        })
                    }
                }
            }
            (AccState::SumCount { sum, n }, AggFunc::Avg(_)) => {
                let v = input.expect("Avg has input");
                if let Some(f) = v.as_float() {
                    *sum += f * weight as f64;
                    adjust_count(n, weight, "AVG")?;
                } else if !v.is_null() {
                    return Err(ChronicleError::BadAggregate {
                        detail: format!("AVG over non-numeric value {v:?}"),
                    });
                }
            }
            (AccState::Moments { sum, sumsq, n }, AggFunc::StdDev(_)) => {
                let v = input.expect("StdDev has input");
                if let Some(f) = v.as_float() {
                    *sum += f * weight as f64;
                    *sumsq += f * f * weight as f64;
                    adjust_count(n, weight, "STDDEV")?;
                } else if !v.is_null() {
                    return Err(ChronicleError::BadAggregate {
                        detail: format!("STDDEV over non-numeric value {v:?}"),
                    });
                }
            }
            (state, func) => {
                return Err(ChronicleError::Internal(format!(
                    "accumulator state {state:?} does not match function {func}"
                )))
            }
        }
        Ok(())
    }

    /// Merge another accumulator of the *same function* into this one —
    /// the decomposability property, used by the sliding-window cyclic
    /// buffer (§5.1) to combine per-bucket sub-aggregates.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        if self.func != other.func {
            return Err(ChronicleError::BadAggregate {
                detail: format!("cannot merge {} into {}", other.func, self.func),
            });
        }
        match (&mut self.state, &other.state) {
            (AccState::Count(a), AccState::Count(b)) => *a += b,
            (
                AccState::Sum {
                    int: ai,
                    float: af,
                    floats: afl,
                    n: an,
                },
                AccState::Sum {
                    int: bi,
                    float: bf,
                    floats: bfl,
                    n: bn,
                },
            ) => {
                *ai = ai.wrapping_add(*bi);
                *af += bf;
                *afl += bfl;
                *an += bn;
            }
            (AccState::Extreme(a), AccState::Extreme(b)) => {
                if let Some(bv) = b {
                    let better = match self.func {
                        AggFunc::Min(_) => a.as_ref().is_none_or(|av| bv < av),
                        AggFunc::Max(_) => a.as_ref().is_none_or(|av| bv > av),
                        _ => false,
                    };
                    if better {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AccState::SumCount { sum: a, n: an }, AccState::SumCount { sum: b, n: bn }) => {
                *a += b;
                *an += bn;
            }
            (
                AccState::Moments {
                    sum: a,
                    sumsq: aq,
                    n: an,
                },
                AccState::Moments {
                    sum: b,
                    sumsq: bq,
                    n: bn,
                },
            ) => {
                *a += b;
                *aq += bq;
                *an += bn;
            }
            (AccState::Held(a), AccState::Held(b)) => match self.func {
                AggFunc::First(_) => {
                    if a.is_none() {
                        *a = b.clone();
                    }
                }
                AggFunc::Last(_) => {
                    if b.is_some() {
                        *a = b.clone();
                    }
                }
                _ => unreachable!("Held state only for First/Last"),
            },
            _ => {
                return Err(ChronicleError::Internal(
                    "mismatched accumulator states in merge".into(),
                ))
            }
        }
        Ok(())
    }

    /// Subtract another accumulator of the same function from this one —
    /// the inverse of [`Self::merge`], used by the sliding-window engine to
    /// retire an expired bucket as an ordinary negative-weight delta.
    /// Only defined for retractable functions; MIN/MAX/FIRST/LAST states
    /// cannot be unmerged and return a typed error.
    pub fn unmerge(&mut self, other: &Accumulator) -> Result<()> {
        if self.func != other.func {
            return Err(ChronicleError::BadAggregate {
                detail: format!("cannot unmerge {} from {}", other.func, self.func),
            });
        }
        match (&mut self.state, &other.state) {
            (AccState::Count(a), AccState::Count(b)) => *a -= b,
            (
                AccState::Sum {
                    int: ai,
                    float: af,
                    floats: afl,
                    n: an,
                },
                AccState::Sum {
                    int: bi,
                    float: bf,
                    floats: bfl,
                    n: bn,
                },
            ) => {
                *ai = ai.wrapping_sub(*bi);
                *af -= bf;
                sub_count(afl, *bfl, "SUM")?;
                sub_count(an, *bn, "SUM")?;
            }
            (AccState::SumCount { sum: a, n: an }, AccState::SumCount { sum: b, n: bn }) => {
                *a -= b;
                sub_count(an, *bn, "AVG")?;
            }
            (
                AccState::Moments {
                    sum: a,
                    sumsq: aq,
                    n: an,
                },
                AccState::Moments {
                    sum: b,
                    sumsq: bq,
                    n: bn,
                },
            ) => {
                *a -= b;
                *aq -= bq;
                sub_count(an, *bn, "STDDEV")?;
            }
            _ => {
                return Err(ChronicleError::BadAggregate {
                    detail: format!(
                        "{} is not retractable: expired buckets need recomputation",
                        self.func
                    ),
                })
            }
        }
        Ok(())
    }

    /// True when every live input has been retracted again — the group is
    /// observationally empty and may be consolidated away.
    pub fn is_drained(&self) -> bool {
        match &self.state {
            AccState::Count(n) => *n == 0,
            AccState::Sum { n, .. } => *n == 0,
            AccState::SumCount { n, .. } => *n == 0,
            AccState::Moments { n, .. } => *n == 0,
            AccState::Extreme(v) | AccState::Held(v) => v.is_none(),
        }
    }

    /// Finalize to the SQL result value.
    pub fn finalize(&self) -> Value {
        match &self.state {
            AccState::Count(n) => Value::Int(*n),
            AccState::Sum {
                int,
                float,
                floats,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *floats > 0 {
                    Value::Float(*float)
                } else {
                    Value::Int(*int)
                }
            }
            AccState::Extreme(v) | AccState::Held(v) => v.clone().unwrap_or(Value::Null),
            AccState::SumCount { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            AccState::Moments { sum, sumsq, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    let nf = *n as f64;
                    let mean = sum / nf;
                    let var = (sumsq / nf - mean * mean).max(0.0);
                    Value::Float(var.sqrt())
                }
            }
        }
    }
}

/// Adjust an unsigned live-input count by a signed weight; underflow is a
/// logic error (retracting an input that was never inserted), reported
/// rather than wrapped.
fn adjust_count(n: &mut u64, weight: i64, what: &str) -> Result<()> {
    if weight >= 0 {
        *n += weight as u64;
        Ok(())
    } else {
        sub_count(n, weight.unsigned_abs(), what)
    }
}

fn sub_count(n: &mut u64, by: u64, what: &str) -> Result<()> {
    *n = n.checked_sub(by).ok_or_else(|| {
        ChronicleError::Internal(format!(
            "{what} retraction underflow: more inputs retracted than inserted"
        ))
    })?;
    Ok(())
}

/// Compute `aggs` over a complete group in one pass (the O(n) batch form
/// the paper requires each function to also have). Used by the oracle and
/// by CA's GROUPBY-with-SN, whose groups are always brand new.
pub fn aggregate_group(aggs: &[AggFunc], tuples: &[&Tuple]) -> Result<Vec<Value>> {
    let mut accs: Vec<Accumulator> = aggs.iter().map(|&f| Accumulator::new(f)).collect();
    for t in tuples {
        for acc in &mut accs {
            acc.update(t)?;
        }
    }
    Ok(accs.iter().map(Accumulator::finalize).collect())
}

/// The weighted form of [`aggregate_group`]: fold Z-set entries, each
/// carrying a signed multiplicity, into fresh accumulators.
pub fn aggregate_group_weighted(aggs: &[AggFunc], members: &[(&Tuple, i64)]) -> Result<Vec<Value>> {
    let mut accs: Vec<Accumulator> = aggs.iter().map(|&f| Accumulator::new(f)).collect();
    for (t, w) in members {
        for acc in &mut accs {
            acc.update_weighted(t, *w)?;
        }
    }
    Ok(accs.iter().map(Accumulator::finalize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::tuple;

    fn rows() -> Vec<Tuple> {
        vec![
            tuple![1i64, 10.0f64],
            tuple![2i64, 30.0f64],
            tuple![3i64, 20.0f64],
        ]
    }

    fn run(func: AggFunc, rows: &[Tuple]) -> Value {
        let mut acc = Accumulator::new(func);
        for r in rows {
            acc.update(r).unwrap();
        }
        acc.finalize()
    }

    #[test]
    fn count_star_and_count_attr() {
        let mut r = rows();
        r.push(tuple![Value::Null, 5.0f64]);
        assert_eq!(run(AggFunc::CountStar, &r), Value::Int(4));
        assert_eq!(run(AggFunc::Count(0), &r), Value::Int(3));
    }

    #[test]
    fn sum_int_stays_exact() {
        assert_eq!(run(AggFunc::Sum(0), &rows()), Value::Int(6));
    }

    #[test]
    fn sum_switches_to_float() {
        assert_eq!(run(AggFunc::Sum(1), &rows()), Value::Float(60.0));
        let mixed = vec![tuple![1i64, 1i64], tuple![1i64, 0.5f64]];
        assert_eq!(run(AggFunc::Sum(1), &mixed), Value::Float(1.5));
    }

    #[test]
    fn min_max_insert_only() {
        assert_eq!(run(AggFunc::Min(1), &rows()), Value::Float(10.0));
        assert_eq!(run(AggFunc::Max(1), &rows()), Value::Float(30.0));
    }

    #[test]
    fn avg_decomposed() {
        assert_eq!(run(AggFunc::Avg(0), &rows()), Value::Float(2.0));
    }

    #[test]
    fn stddev_population() {
        // Values 10, 30, 20: mean 20, variance (100+100+0)/3.
        let v = run(AggFunc::StdDev(1), &rows());
        let f = v.as_float().unwrap();
        assert!((f - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn first_and_last_follow_sequence_order() {
        assert_eq!(run(AggFunc::First(1), &rows()), Value::Float(10.0));
        assert_eq!(run(AggFunc::Last(1), &rows()), Value::Float(20.0));
    }

    #[test]
    fn empty_group_finalization() {
        assert_eq!(
            Accumulator::new(AggFunc::CountStar).finalize(),
            Value::Int(0)
        );
        assert_eq!(Accumulator::new(AggFunc::Sum(0)).finalize(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Min(0)).finalize(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Avg(0)).finalize(), Value::Null);
    }

    #[test]
    fn nulls_skipped_by_all() {
        let r = vec![tuple![Value::Null, Value::Null]];
        assert_eq!(run(AggFunc::Sum(0), &r), Value::Null);
        assert_eq!(run(AggFunc::Min(0), &r), Value::Null);
        assert_eq!(run(AggFunc::Avg(0), &r), Value::Null);
        assert_eq!(run(AggFunc::Last(0), &r), Value::Null);
    }

    #[test]
    fn sum_over_string_errors() {
        let mut acc = Accumulator::new(AggFunc::Sum(0));
        assert!(acc.update(&tuple!["oops"]).is_err());
    }

    #[test]
    fn merge_matches_single_pass() {
        let r = rows();
        for func in [
            AggFunc::CountStar,
            AggFunc::Sum(1),
            AggFunc::Min(1),
            AggFunc::Max(1),
            AggFunc::Avg(1),
            AggFunc::StdDev(1),
            AggFunc::First(1),
            AggFunc::Last(1),
        ] {
            let mut left = Accumulator::new(func);
            left.update(&r[0]).unwrap();
            let mut right = Accumulator::new(func);
            right.update(&r[1]).unwrap();
            right.update(&r[2]).unwrap();
            left.merge(&right).unwrap();
            assert_eq!(left.finalize(), run(func, &r), "merge mismatch for {func}");
        }
    }

    #[test]
    fn merge_wrong_function_errors() {
        let mut a = Accumulator::new(AggFunc::Sum(0));
        let b = Accumulator::new(AggFunc::CountStar);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn aggregate_group_batch_form() {
        let r = rows();
        let refs: Vec<&Tuple> = r.iter().collect();
        let out = aggregate_group(&[AggFunc::CountStar, AggFunc::Sum(0)], &refs).unwrap();
        assert_eq!(out, vec![Value::Int(3), Value::Int(6)]);
    }

    #[test]
    fn weighted_update_retracts_exactly() {
        for func in [
            AggFunc::CountStar,
            AggFunc::Count(1),
            AggFunc::Sum(1),
            AggFunc::Avg(1),
            AggFunc::StdDev(1),
        ] {
            let mut acc = Accumulator::new(func);
            acc.update_weighted(&tuple![1i64, 10.0f64], 1).unwrap();
            acc.update_weighted(&tuple![2i64, 30.0f64], 2).unwrap();
            acc.update_weighted(&tuple![2i64, 30.0f64], -2).unwrap();
            let mut expect = Accumulator::new(func);
            expect.update(&tuple![1i64, 10.0f64]).unwrap();
            assert_eq!(
                acc.finalize(),
                expect.finalize(),
                "insert+retract must cancel exactly for {func}"
            );
            assert!(!acc.is_drained());
            acc.update_weighted(&tuple![1i64, 10.0f64], -1).unwrap();
            assert!(acc.is_drained(), "{func} fully retracted must drain");
        }
    }

    #[test]
    fn sum_reverts_to_int_when_floats_retracted() {
        let mut acc = Accumulator::new(AggFunc::Sum(0));
        acc.update(&tuple![2i64]).unwrap();
        acc.update_weighted(&tuple![0.5f64], 1).unwrap();
        assert_eq!(acc.finalize(), Value::Float(2.5));
        acc.update_weighted(&tuple![0.5f64], -1).unwrap();
        assert_eq!(
            acc.finalize(),
            Value::Int(2),
            "retracting the last float input returns SUM to the exact integer domain"
        );
    }

    #[test]
    fn non_retractable_functions_reject_negative_weights() {
        for func in [
            AggFunc::Min(0),
            AggFunc::Max(0),
            AggFunc::First(0),
            AggFunc::Last(0),
        ] {
            assert!(!func.is_retractable());
            let mut acc = Accumulator::new(func);
            acc.update(&tuple![1i64]).unwrap();
            assert!(acc.update_weighted(&tuple![1i64], -1).is_err());
            // Positive weights still work (presence semantics).
            acc.update_weighted(&tuple![0i64], 3).unwrap();
        }
    }

    #[test]
    fn unmerge_inverts_merge() {
        let r = rows();
        for func in [
            AggFunc::CountStar,
            AggFunc::Sum(1),
            AggFunc::Avg(1),
            AggFunc::StdDev(1),
        ] {
            let mut total = Accumulator::new(func);
            for t in &r {
                total.update(t).unwrap();
            }
            let mut bucket = Accumulator::new(func);
            bucket.update(&r[2]).unwrap();
            total.unmerge(&bucket).unwrap();
            let mut expect = Accumulator::new(func);
            expect.update(&r[0]).unwrap();
            expect.update(&r[1]).unwrap();
            assert_eq!(total.finalize(), expect.finalize(), "unmerge for {func}");
        }
        let mut m = Accumulator::new(AggFunc::Min(0));
        assert!(m.unmerge(&Accumulator::new(AggFunc::Min(0))).is_err());
    }

    #[test]
    fn retraction_underflow_is_loud() {
        let mut acc = Accumulator::new(AggFunc::Sum(0));
        assert!(acc.update_weighted(&tuple![1i64], -1).is_err());
    }

    #[test]
    fn aggregate_group_weighted_matches_expansion() {
        let r = rows();
        let weighted: Vec<(&Tuple, i64)> = vec![(&r[0], 2), (&r[1], 1)];
        let expanded = [r[0].clone(), r[0].clone(), r[1].clone()];
        let refs: Vec<&Tuple> = expanded.iter().collect();
        let funcs = [AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Avg(1)];
        assert_eq!(
            aggregate_group_weighted(&funcs, &weighted).unwrap(),
            aggregate_group(&funcs, &refs).unwrap()
        );
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        use chronicle_types::{AttrType, Attribute, Schema};
        let s = Schema::relation(vec![
            Attribute::new("name", AttrType::Str),
            Attribute::new("x", AttrType::Int),
        ])
        .unwrap();
        assert!(AggFunc::Sum(0).validate(&s).is_err());
        assert!(AggFunc::Sum(1).validate(&s).is_ok());
        assert!(
            AggFunc::Min(0).validate(&s).is_ok(),
            "MIN over strings is fine"
        );
        assert!(AggFunc::Sum(9).validate(&s).is_err());
        assert!(AggFunc::CountStar.validate(&s).is_ok());
    }

    #[test]
    fn output_types() {
        use chronicle_types::{AttrType, Attribute, Schema};
        let s = Schema::relation(vec![
            Attribute::new("i", AttrType::Int),
            Attribute::new("f", AttrType::Float),
            Attribute::new("s", AttrType::Str),
        ])
        .unwrap();
        assert_eq!(AggFunc::Sum(0).output_type(&s), AttrType::Int);
        assert_eq!(AggFunc::Sum(1).output_type(&s), AttrType::Float);
        assert_eq!(AggFunc::Avg(0).output_type(&s), AttrType::Float);
        assert_eq!(AggFunc::Min(2).output_type(&s), AttrType::Str);
        assert_eq!(AggFunc::CountStar.output_type(&s), AttrType::Int);
    }
}
