//! # bds-wtpg — Weighted Transaction-Precedence Graph
//!
//! The WTPG is the scheduling tool introduced by Ohmori, Kitsuregawa and
//! Tanaka (ICDE 1990 \[13\], used by the ICDE 1991 paper reproduced here).
//! It is a serialization graph over live transactions augmented with I/O
//! cost **weights**:
//!
//! * Every pair of transactions that declared conflicting accesses to the
//!   same file carries a **conflict edge** `(Ti, Tj)` — a pair of candidate
//!   directed edges. Once a serializable order between the two is
//!   determined the conflict edge is replaced by a **precedence edge**
//!   `Ti → Tj`.
//! * The weight of `Ti → Tj` is the I/O cost `Tj` still has to pay from
//!   the first step at which `Ti` can block it through its commitment.
//! * A virtual initial transaction `T0` precedes every transaction with an
//!   edge weighted by that transaction's **remaining** I/O demand, and a
//!   virtual final transaction `Tf` succeeds every transaction with weight
//!   zero (the paper's cost model ends at commitment).
//!
//! The **critical path** from `T0` to `Tf` estimates the completion time of
//! the schedule; the paper's two schedulers both minimize it:
//!
//! * **GOW** restricts the graph to *chain form* and, on every lock
//!   request, computes the full serializable order with the shortest
//!   critical path ([`chain::min_critical`]).
//! * **LOW** evaluates the *local* contention estimate `E(q)` — the
//!   critical path after tentatively granting `q` ([`eq::eval_grant`]).
//!
//! All algorithms are validated against brute-force oracles in
//! [`oracle`] by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod eq;
pub mod graph;
pub mod oracle;
pub mod paths;

pub use graph::{Direction, EdgeState, TxnId, Wtpg};
