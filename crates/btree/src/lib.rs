//! # ddc-btree
//!
//! One-dimensional cumulative stores: the paper's Cumulative B-Tree
//! ([`BcTree`], §4.1) — the base case of the Dynamic Data Cube's recursion
//! — and its implicit blocked layout ([`BlockedBc`]), which is the store
//! the tree actually uses for its one-dimensional row-sum groups. Both
//! implement [`CumulativeStore`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bc_tree;
mod blocked;
mod store;

pub use bc_tree::{BcTree, DEFAULT_FANOUT, MIN_FANOUT};
pub use blocked::{BlockedBc, DEFAULT_BLOCK};
pub use store::CumulativeStore;
