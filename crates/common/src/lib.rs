//! Shared foundation types for the `sqlml` workspace.
//!
//! This crate deliberately has **no external dependencies**: every other
//! crate in the workspace (the DFS simulation, the MPP SQL engine, the ML
//! engine, the transfer layer, …) builds on the value/row/schema model,
//! error type, deterministic RNG, text/compact codecs, and stage timers
//! defined here.

pub mod alloc;
pub mod cancel;
pub mod codec;
pub mod error;
pub mod intern;
pub mod lockorder;
pub mod rng;
pub mod row;
pub mod schema;
pub mod timer;
pub mod value;

pub use cancel::CancelToken;
pub use codec::DictStats;
pub use error::{counter_u32, counter_u64, wire_u32, Result, SqlmlError};
pub use intern::Interner;
pub use lockorder::{
    declare_order, set_perturb_seed, TrackedCondvar, TrackedMutex, TrackedRwLock, WaitTimeoutResult,
};
pub use rng::SplitMix64;
pub use row::Row;
pub use schema::{DataType, Field, Schema};
pub use timer::StageTimer;
pub use value::{sql_string_literal, Value};
