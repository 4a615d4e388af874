//! Relational substrate for the P2P data sharing system.
//!
//! The paper's peers share data "in the form of database relations" (§2):
//! a global schema is known to all peers, sources hold base relations, and
//! peers cache *horizontal partitions* — the tuples of one relation
//! selected by a range predicate on a single attribute. A query is a plan
//! with its selections at the leaves; the leaves are served from cached
//! partitions fetched through the P2P layer while joins/projections run
//! locally at the querying peer.
//!
//! This crate is what the paper's §2 example executes, and no more (it
//! takes plans built in code — there is no SQL text front-end, DESIGN §4):
//!
//! * [`Value`] / [`Schema`] / [`Relation`] — typed
//!   tuples and relations;
//! * [`Predicate`] — single-attribute range and equality
//!   selections (the paper's restriction: one attribute per select);
//! * [`HorizontalPartition`] — a cached fragment with its
//!   defining [`ars_lsh::RangeSet`];
//! * [`LogicalPlan`] — logical plans: select leaves, equi-joins, projection;
//! * [`exec`] — a small executor: scan, filter, project, hash join.

#![warn(missing_docs)]

pub mod exec;
mod partition;
mod plan;
mod predicate;
pub mod schema;
pub mod value;

pub use exec::execute;
pub use partition::HorizontalPartition;
pub use plan::LogicalPlan;
pub use predicate::Predicate;
pub use schema::{Attribute, Relation, Schema, Tuple};
pub use value::{Value, ValueType};
