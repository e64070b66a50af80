//! Record generators.

use chronicle_testkit::{Rng, SeedableRng, SmallRng, Zipf};

use chronicle_types::Value;

/// `CREATE CHRONICLE` DDL for cellular call records.
pub const CALLS_SCHEMA_SQL: &str =
    "CREATE CHRONICLE calls (sn SEQ, caller INT, callee INT, minutes FLOAT, cost FLOAT)";

/// `CREATE CHRONICLE` DDL for frequent-flyer flight records.
pub const FLIGHTS_SCHEMA_SQL: &str =
    "CREATE CHRONICLE flights (sn SEQ, acct INT, miles INT, fare FLOAT)";

/// `CREATE CHRONICLE` DDL for ATM/banking transactions.
pub const ATM_SCHEMA_SQL: &str =
    "CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT, kind STRING)";

/// `CREATE CHRONICLE` DDL for stock trades.
pub const TRADES_SCHEMA_SQL: &str =
    "CREATE CHRONICLE trades (sn SEQ, symbol STRING, shares INT, price FLOAT)";

/// `CREATE RELATION` DDL for the customers dimension.
pub const CUSTOMERS_SCHEMA_SQL: &str =
    "CREATE RELATION customers (acct INT, name STRING, state STRING, plan STRING, PRIMARY KEY (acct))";

/// Generator for cellular call records (SN-less rows for
/// `ChronicleDb::append`).
#[derive(Debug)]
pub struct CallGen {
    rng: SmallRng,
    /// Number of distinct subscriber accounts.
    pub accounts: i64,
}

impl CallGen {
    /// Deterministic generator over `accounts` subscribers.
    pub fn new(seed: u64, accounts: i64) -> Self {
        CallGen {
            rng: SmallRng::seed_from_u64(seed),
            accounts: accounts.max(1),
        }
    }

    /// One call record: `[caller, callee, minutes, cost]`.
    pub fn next_row(&mut self) -> Vec<Value> {
        let caller = self.rng.gen_range(0..self.accounts);
        let callee = self.rng.gen_range(0..self.accounts);
        let minutes: f64 = (self.rng.gen_range(1..6000) as f64) / 100.0;
        let cost = (minutes * 0.07 * 100.0).round() / 100.0;
        vec![
            Value::Int(caller),
            Value::Int(callee),
            Value::Float(minutes),
            Value::Float(cost),
        ]
    }

    /// A batch of `n` records.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<Value>> {
        (0..n).map(|_| self.next_row()).collect()
    }
}

/// Generator for frequent-flyer flight records.
#[derive(Debug)]
pub struct FlightGen {
    rng: SmallRng,
    /// Number of member accounts.
    pub accounts: i64,
}

impl FlightGen {
    /// Deterministic generator over `accounts` members.
    pub fn new(seed: u64, accounts: i64) -> Self {
        FlightGen {
            rng: SmallRng::seed_from_u64(seed),
            accounts: accounts.max(1),
        }
    }

    /// One flight record: `[acct, miles, fare]`.
    pub fn next_row(&mut self) -> Vec<Value> {
        let acct = self.rng.gen_range(0..self.accounts);
        let miles = self.rng.gen_range(100..5000i64);
        let fare = (self.rng.gen_range(5000..150000) as f64) / 100.0;
        vec![Value::Int(acct), Value::Int(miles), Value::Float(fare)]
    }

    /// A batch of `n` records.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<Value>> {
        (0..n).map(|_| self.next_row()).collect()
    }
}

/// Generator for ATM transactions (deposits positive, withdrawals
/// negative — the Chemical Bank scenario).
#[derive(Debug)]
pub struct AtmGen {
    rng: SmallRng,
    /// Number of bank accounts.
    pub accounts: i64,
}

impl AtmGen {
    /// Deterministic generator over `accounts` bank accounts.
    pub fn new(seed: u64, accounts: i64) -> Self {
        AtmGen {
            rng: SmallRng::seed_from_u64(seed),
            accounts: accounts.max(1),
        }
    }

    /// One transaction: `[acct, amount, kind]`.
    pub fn next_row(&mut self) -> Vec<Value> {
        let acct = self.rng.gen_range(0..self.accounts);
        let withdraw = self.rng.gen_bool(0.6);
        let magnitude = (self.rng.gen_range(2000..50000) as f64) / 100.0;
        let (amount, kind) = if withdraw {
            (-magnitude, "withdrawal")
        } else {
            (magnitude, "deposit")
        };
        vec![Value::Int(acct), Value::Float(amount), Value::str(kind)]
    }

    /// A batch of `n` records.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<Value>> {
        (0..n).map(|_| self.next_row()).collect()
    }
}

/// Generator for stock trades.
#[derive(Debug)]
pub struct TradeGen {
    rng: SmallRng,
    symbols: Vec<&'static str>,
}

impl TradeGen {
    /// Deterministic generator over a fixed ticker set.
    pub fn new(seed: u64) -> Self {
        TradeGen {
            rng: SmallRng::seed_from_u64(seed),
            symbols: vec!["T", "IBM", "GE", "XON", "MO", "DD", "KO", "PG"],
        }
    }

    /// One trade: `[symbol, shares, price]`.
    pub fn next_row(&mut self) -> Vec<Value> {
        let sym = self.symbols[self.rng.gen_range(0..self.symbols.len())];
        let shares = self.rng.gen_range(100..10_000i64);
        let price = (self.rng.gen_range(1000..20000) as f64) / 100.0;
        vec![Value::str(sym), Value::Int(shares), Value::Float(price)]
    }

    /// A batch of `n` records.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<Value>> {
        (0..n).map(|_| self.next_row()).collect()
    }

    /// The ticker universe.
    pub fn symbols(&self) -> &[&'static str] {
        &self.symbols
    }
}

/// Zipf-skewed append mix: each step picks a target rank (a chronicle
/// group, ranked hottest first) from a seeded [`Zipf`] distribution and
/// generates one call record for it. The whole mix — which group gets
/// each append and what the row contains — is a pure function of the one
/// `u64` seed, so skewed scenarios reproduce exactly like uniform ones.
#[derive(Debug)]
pub struct SkewedCallGen {
    rng: SmallRng,
    dist: Zipf,
    calls: CallGen,
}

impl SkewedCallGen {
    /// Deterministic skewed generator over `targets` ranked groups with
    /// Zipf exponent `theta` and `accounts` subscribers per group.
    pub fn new(seed: u64, targets: usize, theta: f64, accounts: i64) -> Self {
        SkewedCallGen {
            rng: SmallRng::seed_from_u64(seed),
            dist: Zipf::new(targets, theta),
            calls: CallGen::new(seed ^ 0x5ca1_ab1e, accounts),
        }
    }

    /// One append: `(target rank, call record)`.
    pub fn next_call(&mut self) -> (usize, Vec<Value>) {
        let rank = self.dist.sample(&mut self.rng);
        (rank, self.calls.next_row())
    }

    /// The distribution driving the mix.
    pub fn distribution(&self) -> &Zipf {
        &self.dist
    }
}

/// Generator for the customers dimension relation.
#[derive(Debug)]
pub struct CustomerGen {
    rng: SmallRng,
}

impl CustomerGen {
    /// Deterministic generator.
    pub fn new(seed: u64) -> Self {
        CustomerGen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Customer row for account `acct`: `[acct, name, state, plan]`.
    pub fn row(&mut self, acct: i64) -> Vec<Value> {
        const STATES: [&str; 8] = ["NJ", "NY", "CA", "TX", "IL", "WA", "FL", "MA"];
        const PLANS: [&str; 3] = ["basic", "silver", "gold"];
        vec![
            Value::Int(acct),
            Value::str(format!("cust{acct}")),
            Value::str(STATES[self.rng.gen_range(0..STATES.len())]),
            Value::str(PLANS[self.rng.gen_range(0..PLANS.len())]),
        ]
    }

    /// Rows for accounts `0..n`.
    pub fn table(&mut self, n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|a| self.row(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = CallGen::new(42, 100);
        let mut b = CallGen::new(42, 100);
        for _ in 0..10 {
            assert_eq!(a.next_row(), b.next_row());
        }
        let mut c = CallGen::new(43, 100);
        let rows_a: Vec<_> = a.batch(20);
        let rows_c: Vec<_> = c.batch(20);
        assert_ne!(rows_a, rows_c, "different seeds diverge");
    }

    #[test]
    fn call_rows_are_well_formed() {
        let mut g = CallGen::new(1, 50);
        for row in g.batch(100) {
            assert_eq!(row.len(), 4);
            let caller = row[0].as_int().unwrap();
            assert!((0..50).contains(&caller));
            assert!(row[2].as_float().unwrap() > 0.0);
        }
    }

    #[test]
    fn atm_amounts_signed_by_kind() {
        let mut g = AtmGen::new(7, 10);
        for row in g.batch(200) {
            let amount = row[1].as_float().unwrap();
            let kind = row[2].as_str().unwrap().to_string();
            if kind == "withdrawal" {
                assert!(amount < 0.0);
            } else {
                assert!(amount > 0.0);
            }
        }
    }

    #[test]
    fn trades_use_known_symbols() {
        let mut g = TradeGen::new(3);
        let symbols: Vec<String> = g.symbols().iter().map(|s| s.to_string()).collect();
        for row in g.batch(50) {
            assert!(symbols.contains(&row[0].as_str().unwrap().to_string()));
            assert!(row[1].as_int().unwrap() >= 100);
        }
    }

    #[test]
    fn customer_table_covers_accounts() {
        let mut g = CustomerGen::new(9);
        let rows = g.table(25);
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[24][0], Value::Int(24));
    }

    #[test]
    fn skewed_mix_is_deterministic_and_head_heavy() {
        let mut a = SkewedCallGen::new(21, 32, 1.1, 64);
        let mut b = SkewedCallGen::new(21, 32, 1.1, 64);
        let mut counts = [0usize; 32];
        for _ in 0..2_000 {
            let (ra, row_a) = a.next_call();
            let (rb, row_b) = b.next_call();
            assert_eq!((ra, &row_a), (rb, &row_b), "mix replays from its seed");
            assert!(ra < 32);
            counts[ra] += 1;
        }
        assert!(
            counts[0] > counts[1] && counts[0] > 400,
            "rank 0 must dominate a theta=1.1 mix: {counts:?}"
        );
    }

    #[test]
    fn flight_rows_in_range() {
        let mut g = FlightGen::new(11, 5);
        for row in g.batch(50) {
            assert!((100..5000).contains(&row[1].as_int().unwrap()));
        }
    }
}
