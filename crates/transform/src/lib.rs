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
//!   starting at 1 (the SystemML requirement the paper cites). The map
//!   crosses the catalog as the `M` table's three columns
//!   ([`RecodeMap::to_batch`], [`RecodeMap::from_batches`]).
//! * **Pass 2** ([`apply`]) — one parallel per-partition table-UDF pass
//!   that recodes *and* codes every column of a partition at once, one
//!   binary search per dictionary entry ([`FlatRecodeApplier`], which
//!   also owns the transformed schema), the `recode_dummy` UDF. §2.1
//!   words this pass as a join against the recode-map table; the
//!   differential tests hold this pass to that join row for row. The
//!   naive baseline's external job runs the same applier over each
//!   part-file, so a NULL, an unseen value or a coding's refusal means
//!   the same thing under every strategy.
//! * **Coding** ([`coding`]) — dummy coding (one-hot), and the "less
//!   common transformations" §2 mentions, effect and orthogonal
//!   (Helmert) coding, named per column by [`TransformSpec`] and expanded
//!   by one kernel from the coding's `K × w` level table.
//! * **Binding** ([`spec`]) — a [`TransformSpec`] names columns as a user
//!   spells them; [`TransformSpec::bind`] resolves each name once, to a
//!   position, and its [`BoundSpec`] is what every pass, the naive job,
//!   the rewriter and the cache read, output names included.
//! * **The pipeline** ([`pipeline`]) — the two passes' statements, which
//!   the §4 rewriter's script carries and [`InSqlTransformer`] runs:
//!   pass 1 then pass 2, or pass 2 alone with a cached recode map (§5.2's
//!   optimization: skipping one of the two passes).

pub mod apply;
pub mod coding;
pub mod pipeline;
pub mod recode;
pub mod spec;

pub use apply::FlatRecodeApplier;
pub use coding::Coding;
pub use pipeline::{
    read_recode_map, recode_dummy_select, recode_map_statements, register_recode_map,
    register_udfs, InSqlTransformer, TransformOutput,
};
pub use recode::RecodeMap;
pub use spec::{BoundSpec, TransformSpec, Treatment};
