//! The catalog: named tables plus UDF registries. Thread-safe and shared
//! across all workers of one engine.

use std::collections::HashMap;
use std::sync::Arc;

use sqlml_common::lockorder::TrackedRwLock;
use sqlml_common::{Result, SqlmlError};

use crate::table::PartitionedTable;
use crate::udf::{ScalarUdf, TableUdf};

/// The key a relation name is known by: table, table UDF and scalar
/// UDF names, and the planner's FROM bindings, all match ignoring ASCII
/// case.
pub fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Tables and functions known to an [`crate::engine::Engine`].
pub struct Catalog {
    tables: TrackedRwLock<HashMap<String, Arc<PartitionedTable>>>,
    scalar_udfs: TrackedRwLock<HashMap<String, Arc<dyn ScalarUdf>>>,
    table_udfs: TrackedRwLock<HashMap<String, Arc<dyn TableUdf>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: TrackedRwLock::new("sqlengine.catalog.tables", HashMap::new()),
            scalar_udfs: TrackedRwLock::new("sqlengine.catalog.scalar_udfs", HashMap::new()),
            table_udfs: TrackedRwLock::new("sqlengine.catalog.table_udfs", HashMap::new()),
        }
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table.
    pub fn register_table(&self, name: &str, table: PartitionedTable) {
        self.tables.write().insert(key(name), Arc::new(table));
    }

    pub fn register_table_arc(&self, name: &str, table: Arc<PartitionedTable>) {
        self.tables.write().insert(key(name), table);
    }

    pub fn table(&self, name: &str) -> Result<Arc<PartitionedTable>> {
        self.tables
            .read()
            .get(&key(name))
            .cloned()
            .ok_or_else(|| SqlmlError::Plan(format!("unknown table {name:?}")))
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(&key(name))
            .map(|_| ())
            .ok_or_else(|| SqlmlError::Plan(format!("unknown table {name:?}")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&key(name))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn register_scalar_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.scalar_udfs.write().insert(key(udf.name()), udf);
    }

    pub fn scalar_udf(&self, name: &str) -> Result<Arc<dyn ScalarUdf>> {
        self.scalar_udfs
            .read()
            .get(&key(name))
            .cloned()
            .ok_or_else(|| SqlmlError::Plan(format!("unknown scalar UDF {name:?}")))
    }

    pub fn register_table_udf(&self, udf: Arc<dyn TableUdf>) {
        self.table_udfs.write().insert(key(udf.name()), udf);
    }

    pub fn table_udf(&self, name: &str) -> Result<Arc<dyn TableUdf>> {
        self.table_udfs
            .read()
            .get(&key(name))
            .cloned()
            .ok_or_else(|| SqlmlError::Plan(format!("unknown table UDF {name:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::ScalarFn;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::{Schema, Value};

    fn tiny_table() -> PartitionedTable {
        PartitionedTable::single(Schema::new(vec![Field::new("x", DataType::Int)]), vec![])
    }

    #[test]
    fn table_registration_is_case_insensitive() {
        let c = Catalog::new();
        c.register_table("Carts", tiny_table());
        assert!(c.table("carts").is_ok());
        assert!(c.table("CARTS").is_ok());
        assert!(c.has_table("cArTs"));
        assert!(c.table("users").is_err());
    }

    #[test]
    fn drop_table_removes() {
        let c = Catalog::new();
        c.register_table("t", tiny_table());
        c.drop_table("T").unwrap();
        assert!(!c.has_table("t"));
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn scalar_udf_lookup() {
        let c = Catalog::new();
        c.register_scalar_udf(Arc::new(ScalarFn::new("inc", |a: &[Value]| {
            Ok(Value::Int(a[0].as_i64()? + 1))
        })));
        let f = c.scalar_udf("INC").unwrap();
        assert_eq!(f.eval(&[Value::Int(1)]).unwrap(), Value::Int(2));
        assert!(c.scalar_udf("dec").is_err());
    }

    #[test]
    fn table_names_sorted() {
        let c = Catalog::new();
        c.register_table("zeta", tiny_table());
        c.register_table("alpha", tiny_table());
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }
}
