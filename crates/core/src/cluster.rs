//! A simulated cluster standing in for the paper's 5-server testbed: a
//! DFS, an MPP SQL engine, an ML worker pool, and a streaming-transfer
//! coordinator, all sharing one set of node names so locality is
//! meaningful end to end.

use sqlml_common::Result;
use sqlml_dfs::{Dfs, DfsConfig};
use sqlml_mlengine::job::JobConfig;
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transfer::{StreamSession, StreamSessionConfig, TransferConfig};

use crate::workload::{Workload, WorkloadScale};

/// Cluster layout knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// SQL workers (the paper ran 1 multi-threaded Big SQL worker per
    /// server; we default to one worker per node).
    pub sql_workers: usize,
    /// ML workers (the paper ran 6 Spark workers per server).
    pub ml_workers: usize,
    /// Streaming data-plane tunables (the paper's `k` and send buffer,
    /// plus the frame size).
    pub transfer: TransferConfig,
    /// DFS parameters (block size, replication, optional throttling).
    /// `num_datanodes` is also the number of simulated machines (the
    /// paper used 4 worker servers): datanodes and compute nodes are
    /// colocated in this simulation.
    pub dfs: DfsConfig,
    /// Split DFS text inputs at block granularity (Hadoop's behaviour)
    /// instead of one split per part-file.
    pub block_level_splits: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            sql_workers: 4,
            ml_workers: 4,
            transfer: TransferConfig::default(),
            dfs: DfsConfig {
                num_datanodes: 4,
                block_size: 1024 * 1024,
                replication: 3,
                bytes_per_sec: None,
                remote_bytes_per_sec: None,
            },
            block_level_splits: false,
        }
    }
}

impl ClusterConfig {
    /// A tiny configuration for unit tests.
    pub fn for_tests() -> Self {
        ClusterConfig {
            sql_workers: 2,
            ml_workers: 2,
            dfs: DfsConfig {
                num_datanodes: 2,
                block_size: 64 * 1024,
                replication: 2,
                bytes_per_sec: None,
                remote_bytes_per_sec: None,
            },
            ..Default::default()
        }
    }
}

/// The assembled cluster.
pub struct SimCluster {
    pub config: ClusterConfig,
    pub dfs: Dfs,
    pub engine: Engine,
    pub stream: StreamSession,
    pub nodes: Vec<String>,
}

impl SimCluster {
    pub fn start(config: ClusterConfig) -> Result<SimCluster> {
        let nodes: Vec<String> = (0..config.dfs.num_datanodes)
            .map(sqlml_dfs::node_name)
            .collect();
        let dfs = Dfs::new(config.dfs.clone());
        let engine = Engine::new(EngineConfig {
            num_workers: config.sql_workers,
            nodes: nodes.clone(),
        });
        let stream = StreamSession::start()?;
        Ok(SimCluster {
            config,
            dfs,
            engine,
            stream,
            nodes,
        })
    }

    /// The ML job layout for this cluster.
    pub fn ml_job_config(&self) -> JobConfig {
        JobConfig {
            num_workers: self.config.ml_workers,
            worker_nodes: self.nodes.clone(),
        }
    }

    /// Build a text input format over a DFS directory, honouring the
    /// cluster's split-granularity setting.
    pub fn text_input_format(
        &self,
        dir: &str,
        schema: sqlml_common::Schema,
    ) -> sqlml_mlengine::input::TextInputFormat {
        let fmt = sqlml_mlengine::input::TextInputFormat::new(self.dfs.clone(), dir, schema);
        if self.config.block_level_splits {
            fmt.with_block_splits()
        } else {
            fmt
        }
    }

    /// The streaming-session tunables for this cluster.
    pub fn stream_config(&self) -> StreamSessionConfig {
        StreamSessionConfig {
            transfer: self.config.transfer,
            ml_job: self.ml_job_config(),
            spill_dir: std::env::temp_dir().join("sqlml-cluster-spill"),
        }
    }

    /// Boot `n` independent shard clusters with identical layout and load
    /// the same seeded workload into each — the replicated-warehouse
    /// topology the sharded serving plane assumes, where any shard can
    /// serve any request and a router chooses between them by load and
    /// cache affinity. Each shard is a full [`SimCluster`] (own DFS, SQL
    /// engine, streaming session, §5 cache domain); the identical seed
    /// makes their warehouses byte-identical, so results never depend on
    /// placement.
    pub fn start_shards(
        config: ClusterConfig,
        n: usize,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<Vec<std::sync::Arc<SimCluster>>> {
        (0..n.max(1))
            .map(|_| SimCluster::start_seeded(config.clone(), scale, seed))
            .collect()
    }

    /// Boot ONE shard warehouse: start a cluster and load the seeded
    /// workload. This is the unit [`SimCluster::start_shards`] repeats,
    /// split out so an elastic serving plane can boot an identical
    /// replacement shard at runtime (`add_shard`) from the same template
    /// the original fleet was built from.
    pub fn start_seeded(
        config: ClusterConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<std::sync::Arc<SimCluster>> {
        let c = SimCluster::start(config)?;
        c.load_workload(scale, seed)?;
        Ok(std::sync::Arc::new(c))
    }

    /// Write the workload to the DFS as text (the warehouse layout the
    /// paper describes) and register both tables with the SQL engine.
    pub fn load_workload(&self, scale: WorkloadScale, seed: u64) -> Result<Workload> {
        let w = Workload::generate(scale, seed);
        for (name, schema, rows) in [
            ("carts", &w.carts_schema, &w.carts),
            ("users", &w.users_schema, &w.users),
        ] {
            // Store on the DFS first: "both tables were stored in text
            // format on HDFS". The staging table is dropped once written.
            let dir = format!("/warehouse/{name}");
            sqlml_sqlengine::PartitionedTable::partition_rows(
                schema.clone(),
                rows,
                self.config.sql_workers,
                &self.nodes,
            )
            .save_text(&self.dfs, &dir)?;
            // The engine reads its tables from the warehouse.
            self.engine
                .load_text_table(name, schema.clone(), &self.dfs, &dir)?;
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_boots_and_loads_workload() {
        let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        let w = cluster.load_workload(WorkloadScale::TINY, 7).unwrap();
        assert_eq!(cluster.engine.table_rows("carts").unwrap(), w.carts.len());
        assert_eq!(cluster.engine.table_rows("users").unwrap(), w.users.len());
        // The warehouse files exist on the DFS.
        assert!(!cluster.dfs.list("/warehouse/carts/").is_empty());
        // And the prep query runs.
        let rows = cluster
            .engine
            .query(crate::workload::PREP_QUERY)
            .unwrap()
            .num_rows();
        assert!(rows > 0 && rows < w.carts.len());
    }

    #[test]
    fn shard_fleet_boots_with_identical_warehouses() {
        let shards =
            SimCluster::start_shards(ClusterConfig::for_tests(), 2, WorkloadScale::TINY, 7)
                .unwrap();
        assert_eq!(shards.len(), 2);
        let rows: Vec<usize> = shards
            .iter()
            .map(|c| {
                c.engine
                    .query(crate::workload::PREP_QUERY)
                    .unwrap()
                    .num_rows()
            })
            .collect();
        assert!(rows[0] > 0);
        assert_eq!(rows[0], rows[1], "same seed must mean same warehouse");
    }
}
