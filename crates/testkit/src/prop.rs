//! A minimal property-testing harness with shrinking.
//!
//! A property test draws inputs from a [`Gen`] (built from the combinators
//! in this module), runs the property on each, and on failure *shrinks* the
//! failing input — repeatedly replacing it with a simpler input that still
//! fails — before reporting the minimal counterexample found. Every draw is
//! derived deterministically from the seed written in the test source, so a
//! reported failure is reproducible by re-running the test unchanged.
//!
//! The surface mirrors what the workspace's suites need from `proptest`:
//!
//! * combinators: [`ints`], [`floats`], [`bools`], [`option_of`],
//!   [`vec_of`], [`pair`], [`triple`], [`weighted`], [`just`], [`map`],
//!   [`from_fn`];
//! * the [`prop_test!`](crate::prop_test) macro declaring a `#[test]` with
//!   a case count and seed;
//! * [`prop_assert!`](crate::prop_assert) /
//!   [`prop_assert_eq!`](crate::prop_assert_eq) /
//!   [`prop_assert_ne!`](crate::prop_assert_ne) for failures that carry a
//!   message (plain `assert!` and `unwrap` panics are also caught and
//!   shrunk).

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng, SeedableRng, SmallRng};

/// A generator of test inputs, with an optional notion of "simpler" inputs
/// used for shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. An empty vec
    /// means the value cannot be shrunk further.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// A boxed, type-erased generator (what [`weighted`] composes over).
pub type BoxGen<T> = Box<dyn Gen<Value = T>>;

impl<T: Clone + Debug> Gen for BoxGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Box a generator for use in heterogeneous collections.
pub fn boxed<G: Gen + 'static>(g: G) -> BoxGen<G::Value> {
    Box::new(g)
}

// ---------------------------------------------------------------------------
// Scalar generators
// ---------------------------------------------------------------------------

/// Integer types [`ints`] can generate.
pub trait PropInt: Copy + Clone + Debug + PartialEq + PartialOrd {
    /// Sample uniformly from `lo..hi`.
    fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self;
    /// Midpoint of `lo..=v`, used to shrink toward `lo`.
    fn midpoint(lo: Self, v: Self) -> Self;
    /// `v - 1`.
    fn pred(v: Self) -> Self;
}

macro_rules! prop_int {
    ($($t:ty),+ $(,)?) => {$(
        impl PropInt for $t {
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                rng.gen_range(lo..hi)
            }
            fn midpoint(lo: Self, v: Self) -> Self {
                lo + (v - lo) / 2
            }
            fn pred(v: Self) -> Self {
                v - 1
            }
        }
    )+};
}

prop_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// Uniform integers from a half-open range, shrinking toward the range
/// start.
pub fn ints<T: PropInt>(range: Range<T>) -> IntGen<T> {
    IntGen { range }
}

/// See [`ints`].
#[derive(Debug, Clone)]
pub struct IntGen<T> {
    range: Range<T>,
}

impl<T: PropInt> Gen for IntGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        T::sample(rng, self.range.start, self.range.end)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        let lo = self.range.start;
        if *value == lo {
            return Vec::new();
        }
        let mut out = vec![lo];
        let mid = T::midpoint(lo, *value);
        if mid != lo && mid != *value {
            out.push(mid);
        }
        let pred = T::pred(*value);
        if pred != lo && !out.contains(&pred) {
            out.push(pred);
        }
        out
    }
}

/// Uniform floats from a half-open range, shrinking toward the range start.
pub fn floats(range: Range<f64>) -> FloatGen {
    FloatGen { range }
}

/// See [`floats`].
#[derive(Debug, Clone)]
pub struct FloatGen {
    range: Range<f64>,
}

impl Gen for FloatGen {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.range.clone())
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        let lo = self.range.start;
        if *value == lo {
            return Vec::new();
        }
        let mid = lo + (*value - lo) / 2.0;
        if mid != lo && mid != *value {
            vec![lo, mid]
        } else {
            vec![lo]
        }
    }
}

/// Uniform booleans; `true` shrinks to `false`.
pub fn bools() -> BoolGen {
    BoolGen
}

/// See [`bools`].
#[derive(Debug, Clone)]
pub struct BoolGen;

impl Gen for BoolGen {
    type Value = bool;
    fn generate(&self, rng: &mut SmallRng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// The constant generator; never shrinks.
pub fn just<T: Clone + Debug>(value: T) -> JustGen<T> {
    JustGen { value }
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct JustGen<T> {
    value: T,
}

impl<T: Clone + Debug> Gen for JustGen<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.value.clone()
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// `None` half the time, otherwise `Some` of the inner generator. `Some(v)`
/// shrinks to `None` first, then through the inner generator's shrinks.
pub fn option_of<G: Gen>(inner: G) -> OptionGen<G> {
    OptionGen { inner }
}

/// See [`option_of`].
#[derive(Debug, Clone)]
pub struct OptionGen<G> {
    inner: G,
}

impl<G: Gen> Gen for OptionGen<G> {
    type Value = Option<G::Value>;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        if rng.gen_bool(0.5) {
            Some(self.inner.generate(rng))
        } else {
            None
        }
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        match value {
            None => Vec::new(),
            Some(v) => std::iter::once(None)
                .chain(self.inner.shrink(v).into_iter().map(Some))
                .collect(),
        }
    }
}

/// Vectors whose length is drawn from `len` and whose elements come from
/// `elem`. Shrinks by halving, by dropping single elements, and by
/// shrinking individual elements, never going below the minimum length.
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    VecGen { elem, len }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let min = self.len.start;
        let mut out = Vec::new();
        if value.len() > min {
            // Aggressive first: cut to the front/back half.
            let half = (value.len() / 2).max(min);
            if half < value.len() {
                out.push(value[..half].to_vec());
                out.push(value[value.len() - half..].to_vec());
            }
            // Then drop one element at a time.
            for i in 0..value.len() {
                let mut c = value.clone();
                c.remove(i);
                out.push(c);
            }
        }
        // Finally shrink elements in place (a few candidates each, to keep
        // the fan-out bounded).
        for i in 0..value.len() {
            for s in self.elem.shrink(&value[i]).into_iter().take(4) {
                let mut c = value.clone();
                c[i] = s;
                out.push(c);
            }
        }
        out
    }
}

/// A pair of independent generators with component-wise shrinking.
pub fn pair<A: Gen, B: Gen>(a: A, b: B) -> PairGen<A, B> {
    PairGen { a, b }
}

/// See [`pair`].
#[derive(Debug, Clone)]
pub struct PairGen<A, B> {
    a: A,
    b: B,
}

impl<A: Gen, B: Gen> Gen for PairGen<A, B> {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (self.a.generate(rng), self.b.generate(rng))
    }
    fn shrink(&self, (a, b): &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .a
            .shrink(a)
            .into_iter()
            .map(|sa| (sa, b.clone()))
            .collect();
        out.extend(self.b.shrink(b).into_iter().map(|sb| (a.clone(), sb)));
        out
    }
}

/// A triple of independent generators with component-wise shrinking.
pub fn triple<A: Gen, B: Gen, C: Gen>(a: A, b: B, c: C) -> TripleGen<A, B, C> {
    TripleGen { a, b, c }
}

/// See [`triple`].
#[derive(Debug, Clone)]
pub struct TripleGen<A, B, C> {
    a: A,
    b: B,
    c: C,
}

impl<A: Gen, B: Gen, C: Gen> Gen for TripleGen<A, B, C> {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (
            self.a.generate(rng),
            self.b.generate(rng),
            self.c.generate(rng),
        )
    }
    fn shrink(&self, (a, b, c): &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .a
            .shrink(a)
            .into_iter()
            .map(|sa| (sa, b.clone(), c.clone()))
            .collect();
        out.extend(
            self.b
                .shrink(b)
                .into_iter()
                .map(|sb| (a.clone(), sb, c.clone())),
        );
        out.extend(
            self.c
                .shrink(c)
                .into_iter()
                .map(|sc| (a.clone(), b.clone(), sc)),
        );
        out
    }
}

/// Choose among alternatives with the given relative weights. Values shrink
/// through whichever alternative produced them *and* toward earlier
/// alternatives' capability is not tracked — place simpler alternatives
/// first and give them their own shrinks via [`from_fn`] when that matters.
pub fn weighted<T: Clone + Debug>(choices: Vec<(u32, BoxGen<T>)>) -> WeightedGen<T> {
    assert!(!choices.is_empty(), "weighted() needs at least one choice");
    assert!(
        choices.iter().any(|(w, _)| *w > 0),
        "weighted() needs a positive weight"
    );
    WeightedGen { choices }
}

/// See [`weighted`].
pub struct WeightedGen<T> {
    choices: Vec<(u32, BoxGen<T>)>,
}

impl<T: Clone + Debug> Gen for WeightedGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        let total: u64 = self.choices.iter().map(|(w, _)| *w as u64).sum();
        let mut ticket = rng.gen_range(0..total);
        for (w, g) in &self.choices {
            if ticket < *w as u64 {
                return g.generate(rng);
            }
            ticket -= *w as u64;
        }
        unreachable!("ticket within total weight")
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        // Ask every alternative for shrinks; wrong-variant alternatives
        // return nothing or candidates that simply won't fail again.
        self.choices
            .iter()
            .flat_map(|(_, g)| g.shrink(value))
            .take(8)
            .collect()
    }
}

/// Apply `f` to the inner generator's values. Mapped values do not shrink
/// (the mapping cannot be inverted); use [`from_fn`] with a hand-written
/// shrink when shrinking matters for the mapped type.
pub fn map<G: Gen, U, F>(inner: G, f: F) -> MapGen<G, F>
where
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    MapGen { inner, f }
}

/// See [`map`].
pub struct MapGen<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U, F> Gen for MapGen<G, F>
where
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A generator from closures: `gen_f` draws a value, `shrink_f` proposes
/// simplifications. The escape hatch for enum inputs with custom shrinking.
pub fn from_fn<T, G, S>(gen_f: G, shrink_f: S) -> FnGen<G, S>
where
    T: Clone + Debug,
    G: Fn(&mut SmallRng) -> T,
    S: Fn(&T) -> Vec<T>,
{
    FnGen { gen_f, shrink_f }
}

/// See [`from_fn`].
pub struct FnGen<G, S> {
    gen_f: G,
    shrink_f: S,
}

impl<T, G, S> Gen for FnGen<G, S>
where
    T: Clone + Debug,
    G: Fn(&mut SmallRng) -> T,
    S: Fn(&T) -> Vec<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.gen_f)(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink_f)(value)
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Harness configuration: how many cases to run, the seed that determines
/// them all, and a bound on shrinking effort.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Master seed; each case derives its own sub-seed from it.
    pub seed: u64,
    /// Maximum accepted shrink steps before reporting.
    pub max_shrink_steps: u32,
}

impl Config {
    /// A config with the default shrink budget.
    pub fn new(cases: u32, seed: u64) -> Self {
        Config {
            cases,
            seed,
            max_shrink_steps: 512,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_case<V, F>(test: &mut F, value: &V) -> Result<(), String>
where
    F: FnMut(&V) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(r) => r,
        Err(payload) => Err(format!("panic: {}", panic_message(payload))),
    }
}

/// Run `cfg.cases` random cases of `test` over inputs from `gen`, shrinking
/// and reporting the first failure. Panics (failing the `#[test]`) with the
/// minimal counterexample, the master seed, and the failing case index.
///
/// Prefer the [`prop_test!`](crate::prop_test) macro, which wraps this.
pub fn run<G, F>(name: &str, cfg: &Config, gen: &G, mut test: F)
where
    G: Gen,
    F: FnMut(&G::Value) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        // Per-case sub-seed: reproducible independently of earlier cases.
        let mut s = cfg.seed ^ (case as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let sub_seed = splitmix64(&mut s);
        let mut rng = SmallRng::seed_from_u64(sub_seed);
        let value = gen.generate(&mut rng);
        if let Err(first_msg) = run_case(&mut test, &value) {
            let (minimal, msg, steps) = shrink_failure(gen, &mut test, value, first_msg, cfg);
            panic!(
                "[{name}] property failed at case {case}/{} (seed {:#x}, {steps} shrink steps)\n\
                 minimal failing input: {minimal:#?}\n{msg}",
                cfg.cases, cfg.seed
            );
        }
    }
}

fn shrink_failure<G, F>(
    gen: &G,
    test: &mut F,
    mut value: G::Value,
    mut msg: String,
    cfg: &Config,
) -> (G::Value, String, u32)
where
    G: Gen,
    F: FnMut(&G::Value) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in gen.shrink(&value) {
            if let Err(m) = run_case(test, &candidate) {
                value = candidate;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break; // local minimum: no candidate still fails
    }
    (value, msg, steps)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declare a property test.
///
/// ```ignore
/// chronicle_testkit::prop_test! {
///     /// Doubling is monotone.
///     fn doubling_monotone(cases = 64, seed = 0x1DEA;
///         x in ints(0..1000i64),
///         ys in vec_of(ints(0..10i64), 0..5),
///     ) {
///         prop_assert!(2 * x >= x, "x = {}", x);
///     }
/// }
/// ```
///
/// Each named input draws from its generator; on failure the whole input
/// tuple is shrunk component-wise and the minimal counterexample reported
/// together with the seed, which is fixed in the source for
/// reproducibility.
#[macro_export]
macro_rules! prop_test {
    (
        $(#[$meta:meta])*
        fn $name:ident(cases = $cases:expr, seed = $seed:expr;
            $($arg:ident in $gen:expr),+ $(,)?
        ) $body:block
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg = $crate::prop::Config::new($cases, $seed);
            let __gen = $crate::__prop_nest_gen!($($gen),+);
            $crate::prop::run(stringify!($name), &__cfg, &__gen, |__value| {
                let $crate::__prop_nest_pat!($($arg),+) = __value.clone();
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
    };
}

/// Internal: right-nest generators into pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_nest_gen {
    ($g:expr) => { $g };
    ($g:expr, $($rest:expr),+) => {
        $crate::prop::pair($g, $crate::__prop_nest_gen!($($rest),+))
    };
}

/// Internal: right-nest bindings to match [`__prop_nest_gen`].
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_nest_pat {
    ($a:ident) => { $a };
    ($a:ident, $($rest:ident),+) => {
        ($a, $crate::__prop_nest_pat!($($rest),+))
    };
}

/// Fail the enclosing property when `cond` is false (with an optional
/// format message), recording the failure for shrinking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "prop_assert!({}) failed",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "prop_assert!({}) failed: {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Fail the enclosing property when the two sides differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err(format!(
                "prop_assert_eq! failed\n  left: {:?}\n right: {:?}",
                __l, __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err(format!(
                "prop_assert_eq! failed: {}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __l, __r
            ));
        }
    }};
}

/// Fail the enclosing property when the two sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return Err(format!(
                "prop_assert_ne! failed: both sides equal {:?}",
                __l
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return Err(format!(
                "prop_assert_ne! failed: {} (both sides equal {:?})",
                format!($($fmt)+), __l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g = vec_of(ints(0..100i64), 0..10);
        let mut r1 = SmallRng::seed_from_u64(99);
        let mut r2 = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(g.generate(&mut r1), g.generate(&mut r2));
        }
    }

    #[test]
    fn int_shrink_moves_toward_start() {
        let g = ints(3..100i64);
        assert!(g.shrink(&3).is_empty());
        let c = g.shrink(&50);
        assert!(c.contains(&3));
        assert!(c.iter().all(|&v| (3..50).contains(&v)));
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let g = vec_of(ints(0..10i64), 2..6);
        let v = vec![5, 6, 7, 8];
        for cand in g.shrink(&v) {
            assert!(cand.len() >= 2, "candidate too short: {cand:?}");
        }
        // A vec at min length only shrinks elements.
        for cand in g.shrink(&vec![4, 9]) {
            assert_eq!(cand.len(), 2);
        }
    }

    #[test]
    fn weighted_hits_every_choice() {
        let g = weighted(vec![
            (1, boxed(just(0u8))),
            (2, boxed(just(1u8))),
            (3, boxed(just(2u8))),
        ]);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut seen = [false; 3];
        for _ in 0..500 {
            seen[g.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn failing_property_shrinks_to_minimal_counterexample() {
        // Property: no element exceeds 100. With inputs up to 1000 it
        // fails; the minimal counterexample is a single-element vec [101].
        let cfg = Config::new(64, 0xBEEF);
        let gen = vec_of(ints(0..1000i64), 0..20);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("shrink_demo", &cfg, &gen, |v| {
                if v.iter().any(|&x| x > 100) {
                    Err("element over 100".into())
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(result.expect_err("property must fail"));
        assert!(
            msg.contains("101"),
            "shrinking should reach the boundary value 101, got:\n{msg}"
        );
        assert!(msg.contains("seed 0xbeef"), "seed reported: {msg}");
    }

    #[test]
    fn panics_inside_properties_are_caught_and_shrunk() {
        let cfg = Config::new(32, 7);
        let gen = ints(0..50i64);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("panic_demo", &cfg, &gen, |&x| {
                assert!(x < 10, "x too big: {x}");
                Ok(())
            });
        }));
        let msg = panic_message(result.expect_err("property must fail"));
        // Shrinking drives x down to the boundary 10.
        assert!(msg.contains("minimal failing input: 10"), "got:\n{msg}");
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::new(100, 1);
        let gen = pair(ints(0..10i64), bools());
        let mut count = 0;
        run("pass_demo", &cfg, &gen, |_| {
            count += 1;
            Ok(())
        });
        assert_eq!(count, 100);
    }

    prop_test! {
        /// The macro itself: addition commutes.
        fn macro_smoke(cases = 32, seed = 0xD06;
            a in ints(-50..50i64),
            b in ints(-50..50i64),
            flip in bools(),
        ) {
            let (x, y) = if flip { (b, a) } else { (a, b) };
            prop_assert_eq!(x + y, y + x);
            prop_assert!(a + b == b + a, "commutes for {} {}", a, b);
        }
    }

    prop_test! {
        /// A deliberately false property: the harness must fail it (and
        /// shrinking must terminate), which `should_panic` verifies.
        #[should_panic(expected = "property failed")]
        fn macro_reports_failures(cases = 16, seed = 0xBAD;
            xs in vec_of(ints(0..100i64), 1..10),
        ) {
            prop_assert!(xs.iter().sum::<i64>() < 40, "sum reached {}", xs.iter().sum::<i64>());
        }
    }
}
