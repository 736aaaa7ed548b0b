//! Versioned, atomically-written training checkpoints.
//!
//! A checkpoint carries everything `Trainer::fit` needs to continue a run
//! bit-identically after a crash: model parameters (as a `TPW1` blob from
//! [`tp_nn::save_parameters`]), Adam moment estimates and step counter,
//! the epoch/step cursors, the current learning rate, and the trainer's
//! `tp-rng` stream state.
//!
//! # On-disk format (`TPCK`, version 1, little-endian)
//!
//! ```text
//! magic      4 bytes   b"TPCK"
//! version    u32       1
//! epoch      u64       next epoch to run
//! step       u64       global step counter
//! lr         f32       optimizer learning rate at save time
//! rng        5 × u64   xoshiro256++ state words + root seed
//! model_len  u64       length of the TPW1 blob that follows
//! model      bytes     tp_nn::save_parameters output
//! opt_t      u32       Adam bias-correction step counter
//! opt_n      u32       number of parameter tensors
//! per tensor u32 len, then len f32 first moments, len f32 second moments
//! ── footer ──────────────────────────────────────────────────────────
//! payload_len u64      byte length of everything above the footer
//! checksum    u64      FNV-1a 64 over those payload bytes
//! ```
//!
//! The footer makes truncation and corruption detectable without trusting
//! any interior length field: a reader first checks that `payload_len`
//! matches the file size, then that the checksum matches, and only then
//! parses. Writers go through a temp-file + rename so a crash mid-write
//! can never leave a half-written file under the final name — and even if
//! the filesystem betrays that, the footer catches it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tp_nn::optim::{AdamState, OptimStateMismatch};
use tp_nn::SerializeError;

/// File magic of the checkpoint container.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"TPCK";
/// Current container version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Extension used by [`latest_valid`] when scanning a directory.
pub const CHECKPOINT_EXT: &str = "tpck";

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the `TPCK` magic.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is shorter than its footer claims (torn/truncated write).
    Truncated {
        /// Payload length the footer (or minimum layout) requires.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The footer checksum does not match the payload (bit corruption).
    ChecksumMismatch,
    /// The payload parsed inconsistently despite a valid checksum.
    Malformed(&'static str),
    /// The model blob does not fit the live model architecture.
    Model(SerializeError),
    /// The optimizer state does not fit the live optimizer.
    Optimizer(OptimStateMismatch),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            CheckpointError::BadMagic => write!(f, "not a TPCK checkpoint file"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated { expected, actual } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} payload bytes, have {actual}"
                )
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Model(e) => write!(f, "checkpoint model blob rejected: {e}"),
            CheckpointError::Optimizer(e) => write!(f, "checkpoint optimizer state rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Model(e) => Some(e),
            CheckpointError::Optimizer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the footer checksum. Not cryptographic; it exists
/// to catch torn writes and bit rot, and its in-tree implementation keeps
/// the workspace hermetic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One decoded checkpoint: everything needed to restore a `Trainer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Next epoch to run (epochs `0..epoch` are complete).
    pub epoch: u64,
    /// Global step counter at save time.
    pub step: u64,
    /// Optimizer learning rate at save time.
    pub lr: f32,
    /// Trainer RNG state (`tp_rng::Xoshiro256pp::state` export).
    pub rng_state: [u64; 5],
    /// Model parameters as a `TPW1` blob.
    pub model: Vec<u8>,
    /// Adam moments and step counter.
    pub optimizer: AdamState,
}

impl Checkpoint {
    /// Serializes to the `TPCK` container, footer included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.model.len());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.lr.to_le_bytes());
        for w in self.rng_state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.model.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.model);
        out.extend_from_slice(&self.optimizer.t.to_le_bytes());
        out.extend_from_slice(&(self.optimizer.m.len() as u32).to_le_bytes());
        for (m, v) in self.optimizer.m.iter().zip(&self.optimizer.v) {
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            for x in m {
                out.extend_from_slice(&x.to_le_bytes());
            }
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        let payload_len = out.len() as u64;
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&payload_len.to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a `TPCK` container.
    ///
    /// # Errors
    ///
    /// Every way a file can lie is a distinct error: missing/short footer
    /// ([`CheckpointError::Truncated`]), checksum failure
    /// ([`CheckpointError::ChecksumMismatch`]), wrong magic/version, or an
    /// interior inconsistency ([`CheckpointError::Malformed`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        const FOOTER: usize = 16;
        if bytes.len() < FOOTER {
            return Err(CheckpointError::Truncated {
                expected: FOOTER,
                actual: bytes.len(),
            });
        }
        let payload = &bytes[..bytes.len() - FOOTER];
        let footer = &bytes[bytes.len() - FOOTER..];
        let stored_len = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
        if stored_len != payload.len() {
            return Err(CheckpointError::Truncated {
                expected: stored_len,
                actual: payload.len(),
            });
        }
        let stored_sum = u64::from_le_bytes(footer[8..].try_into().unwrap());
        if fnv1a64(payload) != stored_sum {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut rd = ByteReader::new(payload);
        let magic = rd.take(4)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = rd.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let epoch = rd.u64()?;
        let step = rd.u64()?;
        let lr = rd.f32()?;
        let mut rng_state = [0u64; 5];
        for w in &mut rng_state {
            *w = rd.u64()?;
        }
        let model_len = rd.u64()? as usize;
        let model = rd.take(model_len)?.to_vec();
        let t = rd.u32()?;
        let count = rd.u32()? as usize;
        let mut m = Vec::with_capacity(count);
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            let len = rd.u32()? as usize;
            m.push(rd.f32s(len)?);
            v.push(rd.f32s(len)?);
        }
        if !rd.at_end() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after optimizer state",
            ));
        }
        Ok(Checkpoint {
            epoch,
            step,
            lr,
            rng_state,
            model,
            optimizer: AdamState { m, v, t },
        })
    }

    /// Writes the checkpoint atomically: the bytes go to a `.tmp` sibling
    /// which is fsynced and then renamed over `path`, so a crash at any
    /// point leaves either the previous file or the complete new one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = tmp_sibling(path);
        let bytes = self.to_bytes();
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }

    /// Reads and validates the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures plus every [`Checkpoint::from_bytes`] rejection.
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&fs::read(path)?)
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Canonical file name for the checkpoint taken after `epoch` epochs:
/// `dir/ckpt-000042.tpck`. Zero padding keeps lexical and numeric order in
/// agreement.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:06}.{CHECKPOINT_EXT}"))
}

/// All `*.tpck` files under `dir`, sorted ascending by file name (which is
/// ascending by epoch for [`checkpoint_path`] names). Missing directories
/// yield an empty list.
pub fn list_checkpoints(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found = BTreeMap::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some(CHECKPOINT_EXT) {
            found.insert(path.file_name().unwrap_or_default().to_os_string(), path);
        }
    }
    found.into_values().collect()
}

/// Scans `dir` newest-first and returns the first checkpoint that decodes
/// and validates, together with its path — the recovery entry point after
/// a crash that may have corrupted the most recent file. Returns `None`
/// when no file validates (including a missing directory).
pub fn latest_valid(dir: &Path) -> Option<(PathBuf, Checkpoint)> {
    for path in list_checkpoints(dir).into_iter().rev() {
        if let Ok(ck) = Checkpoint::read(&path) {
            return Some((path, ck));
        }
    }
    None
}

/// Bounds-checked little-endian reader over the payload.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Malformed("payload field overruns buffer"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 7,
            step: 123,
            lr: 1.5e-3,
            rng_state: [1, 2, 3, 4, 42],
            model: b"TPW1fakeblob".to_vec(),
            optimizer: AdamState {
                m: vec![vec![0.5, -0.25], vec![1.0]],
                v: vec![vec![0.125, 0.0625], vec![2.0]],
                t: 9,
            },
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let ck = sample();
        let decoded = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(decoded, ck);
    }

    #[test]
    fn every_truncation_prefix_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]);
            assert!(
                err.is_err(),
                "prefix of {cut}/{} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample().to_bytes();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at byte {at} slipped through"
            );
        }
    }

    #[test]
    fn atomic_write_read_and_latest_valid() {
        let dir = std::env::temp_dir().join("tpck-test-latest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        let mut a = sample();
        a.epoch = 1;
        let mut b = sample();
        b.epoch = 2;
        b.step = 456;
        a.write_atomic(&checkpoint_path(&dir, 1)).unwrap();
        b.write_atomic(&checkpoint_path(&dir, 2)).unwrap();
        assert_eq!(list_checkpoints(&dir).len(), 2);

        // Newest wins while valid…
        let (_, latest) = latest_valid(&dir).unwrap();
        assert_eq!(latest, b);

        // …and recovery falls back to the newest *valid* one when the
        // latest file is torn.
        let newest = checkpoint_path(&dir, 2);
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (path, recovered) = latest_valid(&dir).unwrap();
        assert_eq!(recovered, a);
        assert_eq!(path, checkpoint_path(&dir, 1));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_yields_none() {
        let dir = std::env::temp_dir().join("tpck-test-does-not-exist");
        let _ = fs::remove_dir_all(&dir);
        assert!(latest_valid(&dir).is_none());
        assert!(list_checkpoints(&dir).is_empty());
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut ck_bytes = sample().to_bytes();
        // Bump the version field (offset 4) and re-seal the footer.
        ck_bytes[4] = 99;
        let plen = ck_bytes.len() - 16;
        let sum = fnv1a64(&ck_bytes[..plen]);
        let range = plen + 8..plen + 16;
        ck_bytes[range].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&ck_bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }
}
