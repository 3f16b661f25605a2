//! The cluster facade: datanodes, file writers/readers, locality queries.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;

use sqlml_common::lockorder::{TrackedMutex, TrackedRwLock};
use sqlml_common::{codec, Result, SqlmlError};

use crate::namenode::{BlockId, BlockLocation, FileStatus, NameNode};
use crate::throttle::Throttle;
use crate::NodeId;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Number of datanodes in the simulated cluster.
    pub num_datanodes: usize,
    /// Block size in bytes. Real HDFS defaults to 128 MiB; scaled-down
    /// workloads use smaller blocks so files still span many blocks.
    pub block_size: usize,
    /// Replication factor (HDFS default 3; the paper's cluster used 3).
    pub replication: usize,
    /// Optional per-datanode I/O bandwidth in bytes/second. `None`
    /// disables throttling (tests); benchmarks set it to model disk or
    /// network limits.
    pub bytes_per_sec: Option<u64>,
    /// Optional extra bandwidth cap for **remote** reads (a reader not
    /// colocated with any replica), modeling the network hop that
    /// HDFS-style local short-circuit reads avoid. `None` makes remote
    /// reads free (beyond `bytes_per_sec`).
    pub remote_bytes_per_sec: Option<u64>,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            num_datanodes: 4,
            block_size: 4 * 1024 * 1024,
            replication: 3,
            bytes_per_sec: None,
            remote_bytes_per_sec: None,
        }
    }
}

impl DfsConfig {
    /// Small-block configuration useful in tests (files span many blocks).
    pub fn for_tests() -> Self {
        DfsConfig {
            num_datanodes: 4,
            block_size: 64,
            replication: 2,
            bytes_per_sec: None,
            remote_bytes_per_sec: None,
        }
    }
}

/// One datanode: its block store, liveness flag, and throttle.
struct DataNode {
    blocks: TrackedRwLock<HashMap<BlockId, Arc<Vec<u8>>>>,
    alive: TrackedRwLock<bool>,
    throttle: Option<Throttle>,
}

impl DataNode {
    fn new(throttle: Option<Throttle>) -> Self {
        DataNode {
            blocks: TrackedRwLock::new("dfs.node.blocks", HashMap::new()),
            alive: TrackedRwLock::new("dfs.node.alive", true),
            throttle,
        }
    }

    fn store(&self, id: BlockId, data: Arc<Vec<u8>>) {
        if let Some(t) = &self.throttle {
            t.consume(data.len());
        }
        self.blocks.write().insert(id, data);
    }

    fn fetch(&self, id: BlockId) -> Option<Arc<Vec<u8>>> {
        if !*self.alive.read() {
            return None;
        }
        let data = self.blocks.read().get(&id).cloned()?;
        if let Some(t) = &self.throttle {
            t.consume(data.len());
        }
        Some(data)
    }
}

struct Inner {
    config: DfsConfig,
    namenode: TrackedMutex<NameNode>,
    datanodes: Vec<DataNode>,
    /// Cluster-interconnect budget charged to remote reads.
    network: Option<Arc<Throttle>>,
}

/// Handle to a simulated DFS cluster. Cheap to clone; all clones address
/// the same namespace and datanodes.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<Inner>,
}

impl Dfs {
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.num_datanodes > 0, "need at least one datanode");
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        let datanodes = (0..config.num_datanodes)
            .map(|_| DataNode::new(config.bytes_per_sec.map(Throttle::new)))
            .collect();
        let network = config
            .remote_bytes_per_sec
            .map(|b| Arc::new(Throttle::new(b)));
        Dfs {
            inner: Arc::new(Inner {
                config,
                namenode: TrackedMutex::new("dfs.namenode", NameNode::new()),
                datanodes,
                network,
            }),
        }
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        self.inner
            .datanodes
            .iter()
            .enumerate()
            .filter(|(_, d)| *d.alive.read())
            .map(|(i, _)| i)
            .collect()
    }

    /// Kill a datanode: its replicas become unreadable and it receives no
    /// new blocks. Reads fail over to surviving replicas.
    pub fn kill_datanode(&self, node: NodeId) {
        *self.inner.datanodes[node].alive.write() = false;
    }

    /// Bring a previously killed datanode back (its old blocks reappear,
    /// as when an HDFS datanode re-registers).
    pub fn revive_datanode(&self, node: NodeId) {
        *self.inner.datanodes[node].alive.write() = true;
    }

    /// Open a file for (over)writing. Returns a buffered block writer;
    /// its buffer is allocated as bytes arrive, up to a block, not a
    /// whole block up front.
    pub fn create(&self, path: &str) -> Result<DfsWriter> {
        self.inner.namenode.lock().begin_file(path, true)?;
        Ok(DfsWriter {
            dfs: self.clone(),
            path: path.to_string(),
            buf: Vec::new(),
            offset: 0,
            closed: false,
        })
    }

    /// Write an entire string as a file. Each block's buffer is
    /// allocated at the size `contents` fills it to, and copied into once.
    pub fn write_string(&self, path: &str, contents: &str) -> Result<()> {
        let mut w = self.create(path)?;
        w.write_all(contents.as_bytes())?;
        w.close()
    }

    /// The whole file as a string, read by [`Dfs::read_text`] (tests and
    /// diagnostics).
    pub fn read_string(&self, path: &str) -> Result<String> {
        self.read_text(path, None, |pieces| Ok(pieces.concat()))
    }

    /// `read` of a text file as pieces of whole lines in file order
    /// ([`codec::text_pieces`]): every block is read where the datanode
    /// holds it, and only a line that straddles two blocks is copied. A
    /// dead replica fails over; a block with no live replica is the error.
    /// A reader on `node` pays the cluster's remote-read bandwidth (when
    /// one is configured) for every block with no replica on that node; a
    /// reader with no node pays nothing.
    pub fn read_text<T>(
        &self,
        path: &str,
        node: Option<&str>,
        read: impl FnOnce(&[Cow<'_, str>]) -> Result<T>,
    ) -> Result<T> {
        let blocks = self.read_blocks(path, node)?;
        read(&codec::text_pieces(blocks.iter().map(|b| b.as_slice()))?)
    }

    /// Every block of a file in order, shared with the datanode rather
    /// than copied, fetched as [`Dfs::read_text`] says.
    fn read_blocks(&self, path: &str, node: Option<&str>) -> Result<Vec<Arc<Vec<u8>>>> {
        let locations = self.block_locations(path)?;
        (locations.iter())
            .map(|loc| {
                let data = self.fetch_block(loc)?;
                if let (Some(node), Some(net)) = (node, &self.inner.network) {
                    if !loc.nodes.iter().any(|&n| crate::node_name(n) == node) {
                        net.consume(data.len());
                    }
                }
                Ok(data)
            })
            .collect()
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.namenode.lock().exists(path)
    }

    pub fn len(&self, path: &str) -> Result<u64> {
        Ok(self.inner.namenode.lock().meta(path)?.len)
    }

    pub fn delete(&self, path: &str) -> Result<()> {
        let meta = self.inner.namenode.lock().delete(path)?;
        for loc in meta.blocks {
            for node in loc.nodes {
                self.inner.datanodes[node].blocks.write().remove(&loc.block);
            }
        }
        Ok(())
    }

    pub fn list(&self, prefix: &str) -> Vec<FileStatus> {
        self.inner.namenode.lock().list(prefix)
    }

    /// The block layout of a file, with replica locations — the locality
    /// information `InputFormat::get_splits` consumes.
    pub fn block_locations(&self, path: &str) -> Result<Vec<BlockLocation>> {
        Ok(self.inner.namenode.lock().meta(path)?.blocks.clone())
    }

    /// Total bytes stored on one datanode (test/diagnostic helper).
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.inner.datanodes[node]
            .blocks
            .read()
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }

    fn commit_block(&self, path: &str, offset: u64, data: Vec<u8>) -> Result<()> {
        let len = data.len() as u64;
        let live = self.live_nodes();
        let (block, nodes) = self
            .inner
            .namenode
            .lock()
            .allocate_block(&live, self.inner.config.replication)?;
        let shared = Arc::new(data);
        for &node in &nodes {
            self.inner.datanodes[node].store(block, Arc::clone(&shared));
        }
        self.inner.namenode.lock().append_block(
            path,
            BlockLocation {
                block,
                offset,
                len,
                nodes,
            },
        )
    }

    fn fetch_block(&self, loc: &BlockLocation) -> Result<Arc<Vec<u8>>> {
        for &node in &loc.nodes {
            if let Some(data) = self.inner.datanodes[node].fetch(loc.block) {
                return Ok(data);
            }
        }
        Err(SqlmlError::Dfs(format!(
            "block {} unavailable: all {} replicas dead",
            loc.block,
            loc.nodes.len()
        )))
    }
}

/// Streaming block writer returned by [`Dfs::create`].
///
/// Bytes are buffered into block-sized chunks; each full block is
/// replicated to datanodes as it completes. Call [`DfsWriter::close`] to
/// flush the final partial block — dropping without closing loses the
/// tail, matching HDFS semantics for unclosed files.
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    buf: Vec<u8>,
    offset: u64,
    closed: bool,
}

impl DfsWriter {
    /// Flush the trailing partial block and seal the file.
    pub fn close(mut self) -> Result<()> {
        self.closed = true;
        if !self.buf.is_empty() {
            let data = std::mem::take(&mut self.buf);
            self.dfs.commit_block(&self.path, self.offset, data)?;
        }
        Ok(())
    }
}

impl Write for DfsWriter {
    fn write(&mut self, mut bytes: &[u8]) -> io::Result<usize> {
        let total = bytes.len();
        let block_size = self.dfs.inner.config.block_size;
        while !bytes.is_empty() {
            let room = block_size - self.buf.len();
            let take = room.min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() == block_size {
                let data = std::mem::take(&mut self.buf);
                let len = data.len() as u64;
                self.dfs
                    .commit_block(&self.path, self.offset, data)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                self.offset += len;
            }
        }
        Ok(total)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Partial blocks flush only on close (block-oriented store).
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip_spanning_blocks() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let payload: String = (0..50).map(|i| format!("line-{i}\n")).collect();
        dfs.write_string("/t/a.txt", &payload).unwrap();
        assert_eq!(dfs.read_string("/t/a.txt").unwrap(), payload);
        assert_eq!(dfs.len("/t/a.txt").unwrap(), payload.len() as u64);
        let blocks = dfs.block_locations("/t/a.txt").unwrap();
        assert!(blocks.len() > 1, "payload should span multiple 64B blocks");
        for b in &blocks {
            assert_eq!(b.nodes.len(), 2, "replication=2");
        }
    }

    #[test]
    fn blocks_are_held_at_their_size_and_read_in_place() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let payload: String = (0..30).map(|i| format!("row-{i}\n")).collect();
        dfs.write_string("/t/a.txt", &payload).unwrap();
        let blocks = dfs.read_blocks("/t/a.txt", None).unwrap();
        assert!(blocks.len() > 1);
        // No block, the last and partial one included, holds a buffer
        // larger than its bytes.
        for b in &blocks {
            assert_eq!(b.capacity(), b.len());
        }
        let joined: Vec<u8> = blocks.iter().flat_map(|b| b.iter().copied()).collect();
        assert_eq!(joined, payload.as_bytes());
        assert_eq!(joined, dfs.read_string("/t/a.txt").unwrap().as_bytes());
        assert!(dfs.read_blocks("/t/missing", None).is_err());
    }

    #[test]
    fn empty_file() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/t/empty", "").unwrap();
        assert_eq!(dfs.read_string("/t/empty").unwrap(), "");
        assert_eq!(dfs.len("/t/empty").unwrap(), 0);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/t/f", "old contents old contents")
            .unwrap();
        dfs.write_string("/t/f", "new").unwrap();
        assert_eq!(dfs.read_string("/t/f").unwrap(), "new");
    }

    #[test]
    fn block_offsets_tile_the_file() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let payload = "x".repeat(200);
        dfs.write_string("/t/f", &payload).unwrap();
        let blocks = dfs.block_locations("/t/f").unwrap();
        let mut expect_offset = 0u64;
        for b in &blocks {
            assert_eq!(b.offset, expect_offset);
            expect_offset += b.len;
        }
        assert_eq!(expect_offset, 200);
        // All but the last block are exactly block-sized.
        for b in &blocks[..blocks.len() - 1] {
            assert_eq!(b.len, 64);
        }
    }

    #[test]
    fn read_fails_over_to_surviving_replica() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let payload = "abcdefgh".repeat(32);
        dfs.write_string("/t/f", &payload).unwrap();
        // Kill the primary replica node of every block.
        let primaries: Vec<NodeId> = dfs
            .block_locations("/t/f")
            .unwrap()
            .iter()
            .map(|b| b.nodes[0])
            .collect();
        for p in primaries {
            dfs.kill_datanode(p);
        }
        // With replication 2 across 4 nodes, killing primaries may kill
        // every node; revive one non-primary per block instead: simply
        // revive all and kill only node 0.
        for n in 0..4 {
            dfs.revive_datanode(n);
        }
        dfs.kill_datanode(0);
        assert_eq!(dfs.read_string("/t/f").unwrap(), payload);
    }

    #[test]
    fn read_fails_when_all_replicas_dead() {
        let dfs = Dfs::new(DfsConfig {
            replication: 1,
            ..DfsConfig::for_tests()
        });
        dfs.write_string("/t/f", "payload-that-matters").unwrap();
        for n in 0..4 {
            dfs.kill_datanode(n);
        }
        assert!(dfs.read_string("/t/f").is_err());
    }

    #[test]
    fn delete_frees_datanode_space() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/t/f", &"z".repeat(1000)).unwrap();
        let before: u64 = (0..4).map(|n| dfs.node_bytes(n)).sum();
        assert!(before >= 2000, "replication 2 should store 2x bytes");
        dfs.delete("/t/f").unwrap();
        let after: u64 = (0..4).map(|n| dfs.node_bytes(n)).sum();
        assert_eq!(after, 0);
        assert!(!dfs.exists("/t/f"));
    }

    #[test]
    fn listing_is_prefix_scoped_and_sorted() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        dfs.write_string("/a/2", "x").unwrap();
        dfs.write_string("/a/1", "x").unwrap();
        dfs.write_string("/b/1", "x").unwrap();
        let names: Vec<String> = dfs.list("/a/").into_iter().map(|f| f.path).collect();
        assert_eq!(names, vec!["/a/1", "/a/2"]);
    }

    #[test]
    fn remote_reads_pay_the_network_while_local_reads_do_not() {
        use std::time::Instant;
        // Single-block file so "local" genuinely means zero network.
        let dfs = Dfs::new(DfsConfig {
            num_datanodes: 4,
            block_size: 64 * 1024,
            replication: 1,
            bytes_per_sec: None,
            remote_bytes_per_sec: Some(100_000), // 100 KB/s network
        });
        let payload = "r".repeat(20_000); // 20 KB => ~200ms remotely
        dfs.write_string("/t/f", &payload).unwrap();
        let holder = dfs.block_locations("/t/f").unwrap()[0].nodes[0];
        let local_node = crate::node_name(holder);
        let remote_node = crate::node_name((holder + 1) % 4);

        let read_from = |node: Option<&str>| {
            let t = Instant::now();
            let text = dfs.read_text("/t/f", node, |p| Ok(p.concat())).unwrap();
            assert_eq!(text, payload);
            t.elapsed()
        };
        let local_t = read_from(Some(&local_node));
        let remote_t = read_from(Some(&remote_node));
        let nowhere_t = read_from(None);
        assert!(nowhere_t.as_millis() < 50, "no node={nowhere_t:?}");
        assert!(
            local_t.as_millis() < 50 && remote_t.as_millis() >= 150,
            "remote={remote_t:?} local={local_t:?}"
        );
    }

    #[test]
    fn throttled_write_is_slower() {
        use std::time::Instant;
        let fast = Dfs::new(DfsConfig {
            bytes_per_sec: None,
            block_size: 1024,
            ..DfsConfig::for_tests()
        });
        let slow = Dfs::new(DfsConfig {
            bytes_per_sec: Some(200_000), // 200 KB/s
            block_size: 1024,
            replication: 1,
            num_datanodes: 4,
            remote_bytes_per_sec: None,
        });
        let payload = "y".repeat(20_000); // 20 KB => >= ~100ms at 200 KB/s
        let t0 = Instant::now();
        fast.write_string("/f", &payload).unwrap();
        let fast_t = t0.elapsed();
        let t1 = Instant::now();
        slow.write_string("/f", &payload).unwrap();
        let slow_t = t1.elapsed();
        assert!(
            slow_t > fast_t && slow_t.as_millis() >= 80,
            "slow={slow_t:?} fast={fast_t:?}"
        );
    }
}
