//! In-SQL data transformations for ML (the paper's §2).
//!
//! Machine-learning systems consume numeric values; SQL warehouses store
//! categorical variables as strings. This crate implements the common
//! transformations **inside the SQL engine** as parallel table UDFs plus
//! generated SQL, exploiting the engine's partition parallelism:
//!
//! * **Recoding of categorical variables** ([`recode`]) — the two-pass
//!   distributed algorithm. Pass 1 computes per-partition distinct
//!   values via the `distinct_values` table UDF, merges them with
//!   `SELECT DISTINCT` and numbers them with `assign_recode_ids`; the
//!   result is a [`RecodeMap`]: per column the sorted values, a value's
//!   code its position + 1, so recoded values are consecutive integers
//!   starting at 1 (the SystemML requirement the paper cites).
//! * **Pass 2** ([`apply`]) — one parallel per-partition table-UDF pass
//!   that recodes *and* dummy-codes every column of a partition at once,
//!   one binary search per dictionary entry ([`FlatRecodeApplier`],
//!   which also owns the transformed schema). §2.1 words this pass as a
//!   join against the recode-map table; that join-per-column SQL is what
//!   `sqlml-rewriter`'s script emits, and the differential tests hold
//!   this pass to it row for row. The naive baseline's external job runs
//!   the same applier over each part-file, so a NULL or an unseen value
//!   means the same thing under every strategy.
//! * **Dummy coding** ([`dummy`]) — one-hot expansion of a recoded
//!   column into K binary columns as the standalone `dummy_code` table
//!   UDF (the rewriter script's form).
//! * **Effect and orthogonal (Helmert) coding** ([`effect`]) — the "less
//!   common transformations" §2 mentions, implemented the same way: the
//!   applier's dummy block and all three UDFs expand a column through one
//!   kernel, from a `K × w` level table.
//! * **The pipeline** ([`pipeline`]) — [`InSqlTransformer`]: pass 1 then
//!   pass 2 over a prepared table, or pass 2 alone with a cached recode
//!   map (§5.2's optimization: skipping one of the two passes).

pub mod apply;
pub mod dummy;
pub mod effect;
pub mod pipeline;
pub mod recode;

pub use apply::FlatRecodeApplier;
pub use pipeline::{register_udfs, InSqlTransformer, TransformOutput, TransformSpec};
pub use recode::RecodeMap;
