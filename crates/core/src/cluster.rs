//! A simulated cluster standing in for the paper's 5-server testbed: a
//! DFS, an MPP SQL engine, an ML worker pool, and a streaming-transfer
//! coordinator, all sharing one set of node names so locality is
//! meaningful end to end.

use sqlml_common::Result;
use sqlml_dfs::{Dfs, DfsConfig};
use sqlml_mlengine::job::JobConfig;
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transfer::{StreamSession, StreamSessionConfig, TransferConfig};

use crate::workload::{Warehouse, WorkloadScale};

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
    /// Boot the cluster and register the `stream_transfer` UDF with its
    /// engine, once, with no fault injector. A caller that wants faults
    /// re-registers it through [`StreamSession::install_udf`]; building a
    /// [`crate::Pipeline`] afterwards keeps that injector.
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
        let cluster = SimCluster {
            config,
            dfs,
            engine,
            stream,
            nodes,
        };
        cluster
            .stream
            .install_udf(&cluster.engine, &cluster.stream_config(), None);
        Ok(cluster)
    }

    /// The ML job layout for this cluster.
    pub fn ml_job_config(&self) -> JobConfig {
        JobConfig {
            num_workers: self.config.ml_workers,
            worker_nodes: self.nodes.clone(),
        }
    }

    /// Build a text input format over a DFS directory of this cluster.
    pub fn text_input_format(
        &self,
        dir: &str,
        schema: sqlml_common::Schema,
    ) -> sqlml_mlengine::input::TextInputFormat {
        sqlml_mlengine::input::TextInputFormat::new(self.dfs.clone(), dir, schema)
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
    /// engine, streaming session, §5 cache domain). The warehouse is
    /// generated once and every shard writes it to its own DFS and reads
    /// it back from there, so their warehouses are byte-identical and
    /// results never depend on placement.
    pub fn start_shards(
        config: ClusterConfig,
        n: usize,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<Vec<std::sync::Arc<SimCluster>>> {
        let warehouse = Warehouse::generate(scale, seed, config.sql_workers)?;
        (0..n.max(1))
            .map(|_| {
                let c = SimCluster::start(config.clone())?;
                c.load_warehouse(&warehouse)?;
                Ok(std::sync::Arc::new(c))
            })
            .collect()
    }

    /// Boot ONE shard warehouse: start a cluster and load the seeded
    /// workload, generated for it alone. An elastic serving plane boots
    /// a replacement shard at runtime (`add_shard`) this way, from the
    /// same template the original fleet was built from.
    pub fn start_seeded(
        config: ClusterConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<std::sync::Arc<SimCluster>> {
        let c = SimCluster::start(config)?;
        c.load_workload(scale, seed)?;
        Ok(std::sync::Arc::new(c))
    }

    /// Generate the seeded workload as one column batch per SQL worker
    /// ([`Warehouse::generate`]) and load it ([`Self::load_warehouse`]).
    /// No row is built on the way. Returns the loaded row counts.
    pub fn load_workload(&self, scale: WorkloadScale, seed: u64) -> Result<WorkloadScale> {
        self.load_warehouse(&Warehouse::generate(scale, seed, self.config.sql_workers)?)
    }

    /// Write a generated warehouse to the DFS as text, one part-file per
    /// partition (the warehouse layout the paper describes: "both tables
    /// were stored in text format on HDFS"), and register both tables
    /// with the SQL engine from those files. Returns the loaded row
    /// counts.
    pub fn load_warehouse(&self, warehouse: &Warehouse) -> Result<WorkloadScale> {
        for (name, table) in [("carts", &warehouse.carts), ("users", &warehouse.users)] {
            let dir = format!("/warehouse/{name}");
            table.save_text(&self.dfs, &dir)?;
            // The engine reads its tables from the warehouse.
            self.engine
                .load_text_table(name, table.schema().clone(), &self.dfs, &dir)?;
        }
        Ok(WorkloadScale {
            carts: warehouse.carts.num_rows(),
            users: warehouse.users.num_rows(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_boots_and_loads_workload() {
        let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        let loaded = cluster.load_workload(WorkloadScale::TINY, 7).unwrap();
        assert_eq!(loaded, WorkloadScale::TINY);
        assert_eq!(cluster.engine.table_rows("carts").unwrap(), loaded.carts);
        assert_eq!(cluster.engine.table_rows("users").unwrap(), loaded.users);
        // The warehouse files exist on the DFS.
        assert!(!cluster.dfs.list("/warehouse/carts/").is_empty());
        // And the prep query runs.
        let rows = cluster
            .engine
            .query(crate::workload::PREP_QUERY)
            .unwrap()
            .num_rows();
        assert!(rows > 0 && rows < loaded.carts);
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
