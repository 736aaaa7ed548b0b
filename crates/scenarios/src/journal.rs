//! The append-only sweep journal: crash-safe progress state on disk.
//!
//! # On-disk format (`sweep.tpsj`, version 1, little-endian)
//!
//! The file is a sequence of self-delimiting records, each sealed with the
//! same FNV-1a-64 checksum the `.tpck` checkpoint footer uses
//! ([`tp_gnn::checkpoint::fnv1a64`]):
//!
//! ```text
//! magic        4 bytes   b"TPSJ"
//! version      u32       1
//! kind         u8        0 = sweep header, 1 = cell record
//! payload_len  u32       length of the payload that follows
//! payload      bytes     kind-specific (below)
//! checksum     u64       FNV-1a 64 over every preceding byte of the record
//! ```
//!
//! Record 0 is always the **sweep header** (grid fingerprint, root seed,
//! cell count): a journal can never be resumed against a different grid or
//! seed. Every later record is one **cell record**, appended with a single
//! `write` + `sync_data` after the cell commits — the journal's atomic
//! commit point. A crash mid-append leaves a torn tail record whose
//! length or checksum fails; [`replay`] stops at the first invalid byte
//! and [`Journal::open`] truncates the file back to that valid prefix, so
//! the torn cell simply re-runs. Because the engine appends records in
//! grid-cell order, the journaled set is always a *prefix* of the grid —
//! which is what makes a resumed journal byte-identical to an
//! uninterrupted one.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tp_gnn::checkpoint::fnv1a64;

/// File magic of every journal record.
pub const JOURNAL_MAGIC: &[u8; 4] = b"TPSJ";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// File name the engine uses inside its output directory.
pub const JOURNAL_FILE: &str = "sweep.tpsj";

const KIND_HEADER: u8 = 0;
const KIND_CELL: u8 = 1;
/// magic + version + kind + payload_len.
const PREFIX_LEN: usize = 4 + 4 + 1 + 4;
const CHECKSUM_LEN: usize = 8;

/// Why a journal could not be opened or appended.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The journal on disk belongs to a different sweep (grid or seed
    /// changed since it was written).
    MismatchedSweep {
        /// Fingerprint the current sweep expects.
        expected: u64,
        /// Fingerprint found in the journal header.
        found: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failure: {e}"),
            JournalError::MismatchedSweep { expected, found } => write!(
                f,
                "journal belongs to a different sweep (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::MismatchedSweep { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The sweep identity carried by record 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepHeader {
    /// [`SweepGrid::fingerprint`](crate::SweepGrid::fingerprint) of the
    /// grid plus root seed.
    pub fingerprint: u64,
    /// Root seed of the sweep (`TP_SEED`).
    pub seed: u64,
    /// Total cell count of the grid.
    pub cells: u64,
}

impl SweepHeader {
    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.cells.to_le_bytes());
        out
    }

    fn from_payload(payload: &[u8]) -> Option<SweepHeader> {
        if payload.len() != 24 {
            return None;
        }
        Some(SweepHeader {
            fingerprint: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            seed: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            cells: u64::from_le_bytes(payload[16..24].try_into().unwrap()),
        })
    }
}

/// Terminal state of one journaled cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell evaluated to finite metrics (possibly after retries).
    Completed,
    /// Every attempt failed; the cell is reported and the sweep moved on.
    Quarantined,
    /// The cell was never run: a sibling's deadline overrun skipped it
    /// (`skip_siblings_on_deadline`).
    Skipped,
}

impl CellStatus {
    fn code(self) -> u8 {
        match self {
            CellStatus::Completed => 0,
            CellStatus::Quarantined => 1,
            CellStatus::Skipped => 2,
        }
    }

    fn from_code(code: u8) -> Option<CellStatus> {
        match code {
            0 => Some(CellStatus::Completed),
            1 => Some(CellStatus::Quarantined),
            2 => Some(CellStatus::Skipped),
            _ => None,
        }
    }

    /// Label used in the sweep report.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Completed => "completed",
            CellStatus::Quarantined => "quarantined",
            CellStatus::Skipped => "skipped",
        }
    }
}

/// Metrics one cell evaluation produces.
///
/// `wns`/`tns` must be finite for the cell to count as completed — a
/// non-finite value is the "degraded result" the retry/quarantine path
/// treats like a crash. `aux` is evaluator-defined (the design-explorer
/// example stores the predictor's WNS there); `pins` sizes the cell for
/// the deadline cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellMetrics {
    /// Worst slack over the cell's corner set, ns.
    pub wns: f32,
    /// Total negative slack over the cell's corner set, ns.
    pub tns: f32,
    /// Evaluator-defined auxiliary metric (0.0 when unused).
    pub aux: f32,
    /// Pin count of the evaluated design instance.
    pub pins: u64,
}

/// One committed cell: the unit of sweep progress.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Grid cell index.
    pub cell: u64,
    /// Terminal state.
    pub status: CellStatus,
    /// Attempts consumed (1 = clean first try; 0 only for skipped cells).
    pub attempts: u32,
    /// Whether the cell's wall time exceeded its soft deadline.
    pub deadline_overrun: bool,
    /// Evaluation metrics (zeroed for quarantined/skipped cells so the
    /// record stays finite and deterministic).
    pub metrics: CellMetrics,
    /// Last failure message (empty for cells that completed first try).
    pub failure: String,
}

impl CellRecord {
    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.failure.len());
        out.extend_from_slice(&self.cell.to_le_bytes());
        out.push(self.status.code());
        out.extend_from_slice(&self.attempts.to_le_bytes());
        out.push(u8::from(self.deadline_overrun));
        out.extend_from_slice(&self.metrics.wns.to_bits().to_le_bytes());
        out.extend_from_slice(&self.metrics.tns.to_bits().to_le_bytes());
        out.extend_from_slice(&self.metrics.aux.to_bits().to_le_bytes());
        out.extend_from_slice(&self.metrics.pins.to_le_bytes());
        out.extend_from_slice(&(self.failure.len() as u32).to_le_bytes());
        out.extend_from_slice(self.failure.as_bytes());
        out
    }

    fn from_payload(payload: &[u8]) -> Option<CellRecord> {
        const FIXED: usize = 8 + 1 + 4 + 1 + 4 + 4 + 4 + 8 + 4;
        if payload.len() < FIXED {
            return None;
        }
        let cell = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        let status = CellStatus::from_code(payload[8])?;
        let attempts = u32::from_le_bytes(payload[9..13].try_into().unwrap());
        let deadline_overrun = match payload[13] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let f32_at = |at: usize| -> f32 {
            f32::from_bits(u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()))
        };
        let metrics = CellMetrics {
            wns: f32_at(14),
            tns: f32_at(18),
            aux: f32_at(22),
            pins: u64::from_le_bytes(payload[26..34].try_into().unwrap()),
        };
        let fail_len = u32::from_le_bytes(payload[34..38].try_into().unwrap()) as usize;
        if payload.len() != FIXED + fail_len {
            return None;
        }
        let failure = String::from_utf8(payload[38..].to_vec()).ok()?;
        Some(CellRecord {
            cell,
            status,
            attempts,
            deadline_overrun,
            metrics,
            failure,
        })
    }
}

fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    Header(SweepHeader),
    Cell(CellRecord),
}

/// Decodes the record starting at `bytes[pos..]`; `None` for anything
/// torn, corrupted, or unknown (the caller treats that as end-of-journal).
fn decode_record(bytes: &[u8], pos: usize) -> Option<(Record, usize)> {
    let buf = &bytes[pos..];
    if buf.len() < PREFIX_LEN + CHECKSUM_LEN {
        return None;
    }
    if &buf[0..4] != JOURNAL_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != JOURNAL_VERSION {
        return None;
    }
    let kind = buf[8];
    let payload_len = u32::from_le_bytes(buf[9..13].try_into().unwrap()) as usize;
    let total = PREFIX_LEN + payload_len + CHECKSUM_LEN;
    if buf.len() < total {
        return None;
    }
    let stored = u64::from_le_bytes(buf[total - CHECKSUM_LEN..total].try_into().unwrap());
    if fnv1a64(&buf[..total - CHECKSUM_LEN]) != stored {
        return None;
    }
    let payload = &buf[PREFIX_LEN..PREFIX_LEN + payload_len];
    let record = match kind {
        KIND_HEADER => Record::Header(SweepHeader::from_payload(payload)?),
        KIND_CELL => Record::Cell(CellRecord::from_payload(payload)?),
        _ => return None,
    };
    Some((record, total))
}

/// The valid prefix of a journal byte stream: the header (if record 0
/// validates), every decodable cell record, and the byte length of the
/// valid prefix. Replay stops at the first torn/corrupt record — the
/// engine's recovery semantics in one pure function.
pub fn replay(bytes: &[u8]) -> (Option<SweepHeader>, Vec<CellRecord>, usize) {
    let mut pos = 0usize;
    let mut header = None;
    let mut cells = Vec::new();
    while let Some((record, len)) = decode_record(bytes, pos) {
        match (record, pos) {
            (Record::Header(h), 0) => header = Some(h),
            (Record::Cell(c), p) if p > 0 => cells.push(c),
            // A header mid-stream or a cell at byte 0 means the file is
            // not a journal prefix; stop before it.
            _ => break,
        }
        pos += len;
    }
    if header.is_none() {
        // Without a valid header nothing after it can be trusted either.
        return (None, Vec::new(), 0);
    }
    (header, cells, pos)
}

/// An open journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the sweep identified
    /// by `header`.
    ///
    /// An existing file is replayed: its torn tail (if any) is truncated
    /// away and every valid cell record is returned so the engine can skip
    /// completed cells. A file whose header names a different sweep is
    /// rejected; a file with no valid header (fresh, empty, or torn inside
    /// record 0) is re-initialized.
    ///
    /// # Errors
    ///
    /// [`JournalError::MismatchedSweep`] on fingerprint mismatch, or any
    /// I/O failure.
    pub fn open(
        path: &Path,
        header: &SweepHeader,
    ) -> Result<(Journal, Vec<CellRecord>), JournalError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (found, cells, valid_len) = replay(&bytes);
        if let Some(found) = found {
            if found.fingerprint != header.fingerprint {
                return Err(JournalError::MismatchedSweep {
                    expected: header.fingerprint,
                    found: found.fingerprint,
                });
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let mut journal = if found.is_some() {
            // Drop the torn tail so the file is exactly its valid prefix.
            file.set_len(valid_len as u64)?;
            use std::io::Seek as _;
            file.seek(std::io::SeekFrom::Start(valid_len as u64))?;
            Journal {
                file,
                path: path.to_path_buf(),
            }
        } else {
            file.set_len(0)?;
            let mut j = Journal {
                file,
                path: path.to_path_buf(),
            };
            j.write_record(&encode_record(KIND_HEADER, &header.payload()))?;
            j
        };
        // `cells` is empty when the header was rewritten.
        journal.file.sync_data().map_err(JournalError::Io)?;
        let _ = &mut journal;
        Ok((journal, cells))
    }

    /// Appends one committed cell — a single write followed by
    /// `sync_data`, the journal's atomic commit point.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), JournalError> {
        self.write_record(&encode_record(KIND_CELL, &record.payload()))
    }

    fn write_record(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.file.write_all(bytes)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SweepHeader {
        SweepHeader {
            fingerprint: 0xDEAD_BEEF_1234_5678,
            seed: 42,
            cells: 5,
        }
    }

    fn record(cell: u64) -> CellRecord {
        CellRecord {
            cell,
            status: CellStatus::Completed,
            attempts: 1,
            deadline_overrun: false,
            metrics: CellMetrics {
                wns: -0.125,
                tns: -1.5,
                aux: 0.0,
                pins: 321,
            },
            failure: String::new(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tp-scenarios-journal-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join(JOURNAL_FILE)
    }

    #[test]
    fn records_roundtrip_through_bytes() {
        let mut rec = record(3);
        rec.status = CellStatus::Quarantined;
        rec.attempts = 4;
        rec.failure = "injected panic at cell 3 attempt 4".into();
        rec.metrics = CellMetrics::default();
        let bytes = encode_record(KIND_CELL, &rec.payload());
        let (decoded, len) = decode_record(&bytes, 0).unwrap();
        assert_eq!(len, bytes.len());
        assert_eq!(decoded, Record::Cell(rec));

        let h = header();
        let hb = encode_record(KIND_HEADER, &h.payload());
        assert_eq!(decode_record(&hb, 0).unwrap().0, Record::Header(h));
    }

    #[test]
    fn every_truncation_of_a_record_stream_replays_a_valid_prefix() {
        let mut bytes = encode_record(KIND_HEADER, &header().payload());
        let mut record_ends = vec![bytes.len()];
        for c in 0..3u64 {
            bytes.extend_from_slice(&encode_record(KIND_CELL, &record(c).payload()));
            record_ends.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (h, cells, valid) = replay(&bytes[..cut]);
            // The valid prefix is the last whole record boundary ≤ cut.
            let expect_valid = record_ends
                .iter()
                .rev()
                .find(|&&e| e <= cut)
                .copied()
                .unwrap_or(0);
            assert_eq!(valid, expect_valid, "cut at {cut}");
            if expect_valid == 0 {
                assert!(h.is_none());
                assert!(cells.is_empty());
            } else {
                assert_eq!(h, Some(header()));
                let n = record_ends.iter().filter(|&&e| e <= cut).count() - 1;
                assert_eq!(cells.len(), n);
                for (i, c) in cells.iter().enumerate() {
                    assert_eq!(c, &record(i as u64));
                }
            }
        }
    }

    #[test]
    fn corrupted_record_truncates_replay_at_its_start() {
        let mut bytes = encode_record(KIND_HEADER, &header().payload());
        let first_end = bytes.len();
        bytes.extend_from_slice(&encode_record(KIND_CELL, &record(0).payload()));
        let second_end = bytes.len();
        bytes.extend_from_slice(&encode_record(KIND_CELL, &record(1).payload()));
        // Flip one bit inside the second cell record.
        let mut bad = bytes.clone();
        bad[second_end + 20] ^= 0x10;
        let (h, cells, valid) = replay(&bad);
        assert_eq!(h, Some(header()));
        assert_eq!(cells.len(), 1);
        assert_eq!(valid, second_end);
        // Corrupting the header rejects everything.
        let mut very_bad = bytes;
        very_bad[first_end / 2] ^= 0x01;
        assert_eq!(replay(&very_bad), (None, Vec::new(), 0));
    }

    #[test]
    fn open_append_reopen_resumes_and_truncates_torn_tail() {
        let path = scratch("reopen");
        let h = header();
        let (mut j, existing) = Journal::open(&path, &h).unwrap();
        assert!(existing.is_empty());
        j.append(&record(0)).unwrap();
        j.append(&record(1)).unwrap();
        drop(j);

        // Simulate a torn append: add garbage half-record bytes.
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&encode_record(KIND_CELL, &record(2).payload())[..10]);
        fs::write(&path, &torn).unwrap();

        let (mut j, existing) = Journal::open(&path, &h).unwrap();
        assert_eq!(existing, vec![record(0), record(1)]);
        // The torn tail is gone from disk.
        assert_eq!(fs::read(&path).unwrap(), clean);
        j.append(&record(2)).unwrap();
        drop(j);
        let (_, cells, _) = replay(&fs::read(&path).unwrap());
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn mismatched_sweep_is_rejected() {
        let path = scratch("mismatch");
        let (mut j, _) = Journal::open(&path, &header()).unwrap();
        j.append(&record(0)).unwrap();
        drop(j);
        let other = SweepHeader {
            fingerprint: 1,
            ..header()
        };
        match Journal::open(&path, &other) {
            Err(JournalError::MismatchedSweep { expected, found }) => {
                assert_eq!(expected, 1);
                assert_eq!(found, header().fingerprint);
            }
            other => panic!("expected MismatchedSweep, got {other:?}"),
        }
    }
}
