//! User-defined function traits — the extensibility hooks the paper's
//! whole approach rests on ("our techniques apply to any big SQL system
//! that supports UDFs").

use sqlml_common::{Result, Schema, Value};

use crate::column::Batch;

/// Context handed to each per-partition invocation of a table UDF.
///
/// Mirrors what a Big SQL / Hive UDF learns from its runtime: which
/// logical worker it runs on, how many peers exist, and where (which node)
/// the partition lives — enough for the streaming-transfer UDF of §3 to
/// register itself with the coordinator.
#[derive(Debug, Clone)]
pub struct PartitionCtx {
    /// Index of the partition being processed.
    pub partition: usize,
    /// Total number of partitions in the input table.
    pub num_partitions: usize,
    /// SQL worker executing this partition.
    pub worker: usize,
    /// Total number of SQL workers.
    pub num_workers: usize,
    /// Node name hosting this worker (locality identity).
    pub node: String,
}

/// A scalar UDF: a pure function of row values, usable anywhere an
/// expression is.
pub trait ScalarUdf: Send + Sync {
    /// Name used to invoke the function in SQL (case-insensitive).
    fn name(&self) -> &str;

    /// Evaluate on one set of argument values.
    fn eval(&self, args: &[Value]) -> Result<Value>;

    /// Static return type given argument types, used for output-schema
    /// inference. Defaults to DOUBLE (the common case for ML feature
    /// functions); override for string- or integer-valued UDFs.
    fn return_type(
        &self,
        _arg_types: &[sqlml_common::schema::DataType],
    ) -> sqlml_common::schema::DataType {
        sqlml_common::schema::DataType::Double
    }
}

/// A parallel table UDF: invoked as `TABLE(name(args...))` in a FROM
/// clause. The engine calls [`TableUdf::execute`] once per partition of
/// the input table, **in parallel across SQL workers** — this is the
/// mechanism behind the In-SQL transformations (§2) and the streaming
/// transfer source (§3).
pub trait TableUdf: Send + Sync {
    /// Name used to invoke the function in SQL (case-insensitive).
    fn name(&self) -> &str;

    /// Output schema, given the input table's schema and the literal
    /// arguments.
    fn output_schema(&self, input: &Schema, args: &[Value]) -> Result<Schema>;

    /// Process one partition: a column batch in, a column batch out
    /// (a column the UDF passes through is shared, not copied). A UDF
    /// that works row by row reads [`Batch::rows`] and returns
    /// [`Batch::from_rows`] under its output schema. Implementations must
    /// be deterministic given `(input, args, ctx)` so that restarted
    /// partitions (fault tolerance, §6) reproduce identical output.
    fn execute(
        &self,
        input: &Batch,
        input_schema: &Schema,
        args: &[Value],
        ctx: &PartitionCtx,
    ) -> Result<Batch>;
}

/// Adapter: build a scalar UDF from a closure.
pub struct ScalarFn<F> {
    name: String,
    f: F,
}

impl<F> ScalarFn<F>
where
    F: Fn(&[Value]) -> Result<Value> + Send + Sync,
{
    pub fn new(name: impl Into<String>, f: F) -> Self {
        ScalarFn {
            name: name.into(),
            f,
        }
    }
}

impl<F> ScalarUdf for ScalarFn<F>
where
    F: Fn(&[Value]) -> Result<Value> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        (self.f)(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::SqlmlError;

    #[test]
    fn scalar_fn_adapter_evaluates() {
        let double = ScalarFn::new("double_it", |args: &[Value]| {
            Ok(Value::Double(args[0].as_f64()? * 2.0))
        });
        assert_eq!(double.name(), "double_it");
        assert_eq!(double.eval(&[Value::Int(21)]).unwrap(), Value::Double(42.0));
    }

    #[test]
    fn scalar_fn_propagates_errors() {
        let strict = ScalarFn::new("strict", |_: &[Value]| {
            Err(SqlmlError::Execution("nope".into()))
        });
        assert!(strict.eval(&[]).is_err());
    }
}
