//! The declarative view-definition language of the chronicle model.
//!
//! §1 of the paper: *"one feature that must be provided \[by\] the chronicle
//! model is support for summary queries that are specified declaratively
//! (an SQL like language may be used)"*. This crate supplies that language:
//! a lexer, recursive-descent parser, and a planner that lowers parsed view
//! definitions onto the chronicle algebra — so every view written in SQL is
//! *automatically* validated into CA₁/CA⋈/CA and classified into its IM
//! complexity class before any data flows.
//!
//! Statement inventory (executed by `chronicle-db`):
//!
//! ```sql
//! CREATE GROUP billing;
//! CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP billing RETAIN NONE;
//! CREATE RELATION customers (acct INT, name STRING, state STRING, PRIMARY KEY (acct));
//! CREATE VIEW total_minutes AS
//!   SELECT caller, SUM(minutes) AS mins FROM calls GROUP BY caller;
//! CREATE VIEW nj_calls AS
//!   SELECT caller, COUNT(*) AS n FROM calls
//!   JOIN customers ON caller = acct
//!   WHERE state = 'NJ' GROUP BY caller;
//! CREATE PERIODIC VIEW monthly AS
//!   SELECT caller, SUM(minutes) AS mins FROM calls GROUP BY caller
//!   OVER CALENDAR EVERY 2592000 EXPIRE AFTER 5184000;
//! APPEND INTO calls VALUES (555, 12.5);          -- SN auto-assigned
//! APPEND INTO calls AT 1700000000 VALUES (555, 3.0);
//! INSERT INTO customers VALUES (555, 'alice', 'NJ');
//! UPDATE customers SET state = 'NY' WHERE acct = 555;
//! DELETE FROM customers WHERE acct = 555;
//! SELECT * FROM total_minutes WHERE caller = 555;
//! DROP VIEW total_minutes;
//! ```
//!
//! `WHERE` accepts either a pure conjunction (`a = 1 AND b > 2`, lowered to
//! stacked selections — σ_{p∧q} = σ_p(σ_q(C))) or a pure disjunction
//! (`a = 1 OR a = 2`, Def. 4.1's native predicate form). Mixing AND and OR
//! in one clause is rejected with a hint, since the paper's predicate
//! language has no parenthesized nesting.

#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;
mod planner;

pub use ast::{
    AggCall, AppendStmt, CalendarSpec, ColumnDef, Literal, RetentionSpec, SelectItem, Statement,
    ViewQuery, WhereAtom, WhereClause, WhereRhs,
};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::parse;
pub use planner::{plan_any_view, plan_view, resolve_literal_row};
