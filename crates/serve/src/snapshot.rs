//! Immutable model snapshots with atomic, validated hot-swap.
//!
//! The serving path never locks a model: it grabs an
//! `Arc<ModelSnapshot>` and computes against that immutable weight set
//! even if a hot-swap lands mid-request. Loading is *staged* — checkpoint
//! checksum, parameter-blob decode and shape check all happen against a
//! **freshly built** model before the store pointer moves, so a corrupt
//! or truncated `.tpck` can never disturb the snapshot that is serving.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use tp_gnn::checkpoint::{fnv1a64, latest_valid, Checkpoint, CheckpointError};
use tp_gnn::{ModelConfig, TimingGnn};
use tp_nn::Module;

/// One immutable, versioned model the server can answer requests with.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// The weights (shared with every session built against them).
    pub model: Arc<TimingGnn>,
    /// Monotone store-local version (1 = the boot snapshot).
    pub version: u64,
    /// Training epoch recorded in the checkpoint (0 for the boot model).
    pub epoch: u64,
    /// FNV-1a checksum of the parameter blob.
    pub checksum: u64,
    /// Where the snapshot came from (path or "seed").
    pub source: String,
}

/// Why a hot-swap was rejected (the previous snapshot keeps serving).
#[derive(Debug)]
pub enum SnapshotError {
    /// The checkpoint container failed to read or validate.
    Checkpoint(CheckpointError),
    /// The parameter blob did not match the configured architecture.
    Params(String),
    /// No valid checkpoint exists in the snapshot directory.
    NoneFound(PathBuf),
    /// Serializing model weights for checksumming failed.
    Serialize(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            SnapshotError::Params(e) => write!(f, "parameter blob rejected: {e}"),
            SnapshotError::NoneFound(dir) => {
                write!(f, "no valid checkpoint in {}", dir.display())
            }
            SnapshotError::Serialize(e) => write!(f, "snapshot serialization failed: {e}"),
        }
    }
}

impl From<CheckpointError> for SnapshotError {
    fn from(e: CheckpointError) -> SnapshotError {
        SnapshotError::Checkpoint(e)
    }
}

impl From<tp_nn::SerializeError> for SnapshotError {
    fn from(e: tp_nn::SerializeError) -> SnapshotError {
        SnapshotError::Serialize(format!("{e:?}"))
    }
}

/// The atomically swappable snapshot holder.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<ModelSnapshot>>,
    config: ModelConfig,
}

impl SnapshotStore {
    /// Boots the store with `initial` weights (version 1). Serialization
    /// of the boot weights (for the checksum) is fallible: an oversized or
    /// otherwise unserializable parameter set degrades into a structured
    /// [`SnapshotError::Serialize`] instead of panicking the caller.
    pub fn new(
        config: ModelConfig,
        initial: TimingGnn,
        source: &str,
    ) -> Result<SnapshotStore, SnapshotError> {
        let mut blob = Vec::new();
        tp_nn::save_parameters(&initial.parameters(), &mut blob)?;
        let snapshot = Arc::new(ModelSnapshot {
            model: Arc::new(initial),
            version: 1,
            epoch: 0,
            checksum: fnv1a64(&blob),
            source: source.to_string(),
        });
        Ok(SnapshotStore {
            current: RwLock::new(snapshot),
            config,
        })
    }

    /// The architecture every accepted checkpoint must match.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The snapshot currently serving.
    pub fn current(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Stages `path` into a fresh model and, only if every validation
    /// passes, atomically publishes it. On error the serving snapshot is
    /// untouched.
    pub fn load_checkpoint(&self, path: &Path) -> Result<Arc<ModelSnapshot>, SnapshotError> {
        let ckpt = Checkpoint::read(path)?; // container checksum validated here
        self.install(ckpt, &path.display().to_string())
    }

    /// Loads the newest checkpoint in `dir` that passes validation.
    /// Torn or corrupt files are skipped, mirroring crash recovery.
    pub fn load_latest(&self, dir: &Path) -> Result<Arc<ModelSnapshot>, SnapshotError> {
        let (path, ckpt) =
            latest_valid(dir).ok_or_else(|| SnapshotError::NoneFound(dir.to_path_buf()))?;
        self.install(ckpt, &path.display().to_string())
    }

    fn install(
        &self,
        ckpt: Checkpoint,
        source: &str,
    ) -> Result<Arc<ModelSnapshot>, SnapshotError> {
        // Stage into a model that is NOT serving; load_parameters is
        // all-or-nothing, so a shape mismatch leaves nothing half-written.
        let staged = TimingGnn::new(&self.config);
        tp_nn::load_parameters(&staged.parameters(), ckpt.model.as_slice())
            .map_err(|e| SnapshotError::Params(format!("{e:?}")))?;
        // The version is taken under the write lock, so concurrent
        // installs publish versions in the order they land.
        let mut cur = self.current.write().unwrap_or_else(|p| p.into_inner());
        let snapshot = Arc::new(ModelSnapshot {
            model: Arc::new(staged),
            version: cur.version + 1,
            epoch: ckpt.epoch,
            checksum: fnv1a64(&ckpt.model),
            source: source.to_string(),
        });
        *cur = Arc::clone(&snapshot);
        tp_obs::metrics::count("serve.hot_swaps", 1);
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gnn::checkpoint::checkpoint_path;
    use tp_nn::optim::AdamState;

    fn small_config() -> ModelConfig {
        ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 1,
            ablation: Default::default(),
        }
    }

    /// A minimal checkpoint carrying `model`'s weights.
    fn checkpoint_for(model: &TimingGnn, epoch: u64) -> Checkpoint {
        let mut blob = Vec::new();
        tp_nn::save_parameters(&model.parameters(), &mut blob).expect("serialize");
        Checkpoint {
            epoch,
            step: epoch * 10,
            lr: 1e-3,
            rng_state: [1, 2, 3, 4, 5],
            model: blob,
            optimizer: AdamState { m: Vec::new(), v: Vec::new(), t: 0 },
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tp_serve_snapshot_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn serialization_failure_degrades_to_structured_error() {
        // A writer that always fails stands in for an unserializable
        // parameter set; the error must convert into the structured
        // `Serialize` variant (the request path renders it as a reply)
        // instead of the old `.expect` panic that killed the worker.
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("injected write failure"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cfg = small_config();
        let err = tp_nn::save_parameters(&TimingGnn::new(&cfg).parameters(), &mut FailingWriter)
            .expect_err("failing writer must surface an error");
        let snap_err = SnapshotError::from(err);
        assert!(matches!(snap_err, SnapshotError::Serialize(_)), "got {snap_err:?}");
        let msg = snap_err.to_string();
        assert!(msg.contains("snapshot serialization failed"), "display: {msg}");
    }

    #[test]
    fn hot_swap_publishes_new_version() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        assert_eq!(store.current().version, 1);
        let dir = scratch("swap");
        let trained = TimingGnn::new(&ModelConfig { seed: 99, ..cfg });
        let path = checkpoint_path(&dir, 3);
        checkpoint_for(&trained, 3).write_atomic(&path).expect("write");
        let snap = store.load_checkpoint(&path).expect("valid checkpoint");
        assert_eq!(snap.version, 2);
        assert_eq!(snap.epoch, 3);
        assert_eq!(store.current().version, 2);
        // The published weights are the trained ones, bit-for-bit.
        for (a, b) in trained.parameters().iter().zip(snap.model.parameters()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_hot_swaps_publish_distinct_monotone_versions() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        let dir = scratch("concurrent");
        let path = checkpoint_path(&dir, 1);
        checkpoint_for(&TimingGnn::new(&cfg), 1).write_atomic(&path).expect("write");
        const THREADS: usize = 8;
        const ROUNDS: usize = 40;
        let start = std::sync::Barrier::new(THREADS);
        let mut versions = Vec::new();
        for round in 1..=ROUNDS {
            versions.extend(std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            store.load_checkpoint(&path).expect("valid checkpoint").version
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("swap thread"))
                    .collect::<Vec<u64>>()
            }));
            // Whichever swap landed last published the highest version.
            assert_eq!(store.current().version, 1 + (round * THREADS) as u64, "round {round}");
        }
        versions.sort_unstable();
        let expected: Vec<u64> = (2..2 + (ROUNDS * THREADS) as u64).collect();
        assert_eq!(versions, expected, "each swap publishes its own version");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_and_old_snapshot_keeps_serving() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        let before = store.current();
        let dir = scratch("corrupt");
        let path = checkpoint_path(&dir, 1);
        checkpoint_for(&TimingGnn::new(&cfg), 1).write_atomic(&path).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let mut injector = tp_gnn::FaultInjector::new(7);
        let mid = bytes.len() / 2;
        injector.corrupt_at(&mut bytes, mid);
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = store.load_checkpoint(&path);
        assert!(matches!(err, Err(SnapshotError::Checkpoint(_))), "got {err:?}");
        let after = store.current();
        assert_eq!(after.version, before.version, "serving snapshot must be untouched");
        assert!(Arc::ptr_eq(&before.model, &after.model));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_architecture_blob_is_rejected() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        let dir = scratch("arch");
        let other = TimingGnn::new(&ModelConfig { embed_dim: 8, ..cfg });
        let path = checkpoint_path(&dir, 2);
        checkpoint_for(&other, 2).write_atomic(&path).expect("write");
        let err = store.load_checkpoint(&path);
        assert!(matches!(err, Err(SnapshotError::Params(_))), "got {err:?}");
        assert_eq!(store.current().version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_skips_corrupt_newer_files() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        let dir = scratch("latest");
        let good = TimingGnn::new(&ModelConfig { seed: 5, ..cfg.clone() });
        checkpoint_for(&good, 1)
            .write_atomic(&checkpoint_path(&dir, 1))
            .expect("write");
        // A newer, torn checkpoint: recovery must fall back to epoch 1.
        let newer = checkpoint_for(&TimingGnn::new(&cfg), 2).to_bytes();
        std::fs::write(checkpoint_path(&dir, 2), &newer[..newer.len() / 2]).expect("write");
        let snap = store.load_latest(&dir).expect("falls back to the valid file");
        assert_eq!(snap.epoch, 1);
        for (a, b) in good.parameters().iter().zip(snap.model.parameters()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        assert!(matches!(
            SnapshotStore::new(small_config(), TimingGnn::new(&small_config()), "seed")
                .expect("boot")
                .load_latest(&scratch("empty")),
            Err(SnapshotError::NoneFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
