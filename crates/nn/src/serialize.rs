//! Minimal binary weight (de)serialization.
//!
//! Format: magic `TPW1`, little-endian `u32` tensor count, then per tensor a
//! `u32` element count followed by that many little-endian `f32`s. Shapes
//! are *not* stored: loading requires a freshly constructed module with the
//! same architecture, matching how the training binaries restore models.

use std::fmt;
use std::io::{Read, Write};

use tp_tensor::Tensor;

const MAGIC: &[u8; 4] = b"TPW1";

/// Error produced when loading serialized weights.
#[derive(Debug)]
#[non_exhaustive]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the `TPW1` magic.
    BadMagic,
    /// Tensor count or a tensor length disagrees with the target parameters.
    ArchitectureMismatch {
        /// What the stream describes.
        stored: usize,
        /// What the live module expects.
        expected: usize,
    },
    /// A tensor count or element count exceeds the format's `u32` fields;
    /// writing it would silently truncate and corrupt the file.
    TooLarge {
        /// The count that does not fit.
        count: usize,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o failure while reading weights: {e}"),
            SerializeError::BadMagic => write!(f, "stream is not a TPW1 weight file"),
            SerializeError::ArchitectureMismatch { stored, expected } => write!(
                f,
                "weight file shape mismatch: stored {stored}, module expects {expected}"
            ),
            SerializeError::TooLarge { count } => {
                write!(f, "count {count} exceeds the TPW1 format's u32 field")
            }
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Writes `params` to `w` in `TPW1` format.
///
/// A mutable reference can be passed for `w` (e.g. `&mut Vec<u8>` or
/// `&mut File`).
///
/// # Errors
///
/// Propagates any I/O error from the writer, and returns
/// [`SerializeError::TooLarge`] if a tensor count or element count
/// overflows the format's `u32` fields (instead of silently truncating).
pub fn save_parameters<W: Write>(params: &[Tensor], mut w: W) -> Result<(), SerializeError> {
    let count = u32::try_from(params.len()).map_err(|_| SerializeError::TooLarge {
        count: params.len(),
    })?;
    w.write_all(MAGIC)?;
    w.write_all(&count.to_le_bytes())?;
    // One buffered write per tensor: element-at-a-time 4-byte writes are
    // pathological on unbuffered writers (e.g. a raw File).
    let mut buf: Vec<u8> = Vec::new();
    for p in params {
        let data = p.to_vec();
        let len = u32::try_from(data.len())
            .map_err(|_| SerializeError::TooLarge { count: data.len() })?;
        buf.clear();
        buf.reserve(4 + data.len() * 4);
        buf.extend_from_slice(&len.to_le_bytes());
        for v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads weights from `r` into `params` (in order), overwriting their data.
///
/// The whole stream is decoded into a staging buffer and validated before
/// any destination tensor is touched: a shape mismatch or short read
/// part-way through the file leaves every parameter exactly as it was,
/// never half-written.
///
/// # Errors
///
/// Returns [`SerializeError::BadMagic`] for a foreign stream and
/// [`SerializeError::ArchitectureMismatch`] when tensor counts or lengths
/// disagree with the live parameters.
pub fn load_parameters<R: Read>(params: &[Tensor], mut r: R) -> Result<(), SerializeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let mut u32buf = [0u8; 4];
    r.read_exact(&mut u32buf)?;
    let count = u32::from_le_bytes(u32buf) as usize;
    if count != params.len() {
        return Err(SerializeError::ArchitectureMismatch {
            stored: count,
            expected: params.len(),
        });
    }
    let mut staged: Vec<Vec<f32>> = Vec::with_capacity(count);
    for p in params {
        r.read_exact(&mut u32buf)?;
        let len = u32::from_le_bytes(u32buf) as usize;
        if len != p.numel() {
            return Err(SerializeError::ArchitectureMismatch {
                stored: len,
                expected: p.numel(),
            });
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            r.read_exact(&mut u32buf)?;
            values.push(f32::from_le_bytes(u32buf));
        }
        staged.push(values);
    }
    // Commit phase: nothing above can fail any more.
    for (p, values) in params.iter().zip(&staged) {
        p.data_mut().copy_from_slice(values);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mlp, Module};

    #[test]
    fn roundtrip_preserves_weights() {
        let mut rng = tp_rng::StdRng::seed_from_u64(9);
        let a = Mlp::new(4, &[32, 32], 2, &mut rng);
        let b = Mlp::new(4, &[32, 32], 2, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&a.parameters(), &mut buf).unwrap();
        load_parameters(&b.parameters(), buf.as_slice()).unwrap();
        let x = tp_tensor::Tensor::ones(&[1, 4]);
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    fn bad_magic_rejected() {
        let p = [tp_tensor::Tensor::zeros(&[2])];
        let err = load_parameters(&p, &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, SerializeError::BadMagic));
    }

    #[test]
    fn failed_load_leaves_parameters_untouched() {
        let mut rng = tp_rng::StdRng::seed_from_u64(9);
        let a = Mlp::new(4, &[32, 32], 2, &mut rng);
        let b = Mlp::new(4, &[32, 32], 2, &mut rng);
        let before: Vec<Vec<f32>> = b.parameters().iter().map(|p| p.to_vec()).collect();
        let mut buf = Vec::new();
        save_parameters(&a.parameters(), &mut buf).unwrap();
        // Truncate at every prefix length: whatever the failure point, the
        // destination module must stay exactly as constructed.
        for cut in 0..buf.len() {
            let err = load_parameters(&b.parameters(), &buf[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must be rejected");
            let after: Vec<Vec<f32>> = b.parameters().iter().map(|p| p.to_vec()).collect();
            assert_eq!(before, after, "truncation at {cut} half-wrote tensors");
        }
    }

    #[test]
    fn mismatched_architecture_rejected() {
        let mut rng = tp_rng::StdRng::seed_from_u64(9);
        let a = Mlp::new(4, &[32, 32], 2, &mut rng);
        let b = Mlp::new(5, &[32, 32], 2, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&a.parameters(), &mut buf).unwrap();
        let err = load_parameters(&b.parameters(), buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerializeError::ArchitectureMismatch { .. }));
    }
}
