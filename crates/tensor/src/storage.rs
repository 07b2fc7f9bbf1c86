//! Tensor storage backends — the workspace's backend seam.
//!
//! [`TensorBase<S>`](crate::TensorBase) is generic over a [`Storage`]
//! implementation. [`F32Storage`] is the default backend: a dense,
//! arena-pooled `Vec<f32>` carrying the bit-exact serial-chain kernel
//! contract of DESIGN.md §9 — every pre-existing `Tensor` API runs on it
//! unchanged. [`SInt8Storage`] backs the int8-quantized inference lane
//! (per-row symmetric scales, see [`crate::quant`]); it never appears on
//! the training path.
//!
//! The split between the two lanes is expressed by [`InferenceMode`]:
//! `Exact` is the serial-chain f32 path (bit-identical to training
//! forwards), while `Int8` is an *inference-only* lane whose quantized
//! weights are gated by accuracy tolerances instead of bit-equality
//! (DESIGN.md §15).

use crate::workspace;

/// Element-type tag for a storage backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// IEEE-754 single precision (the training dtype).
    F32,
    /// Symmetric signed 8-bit integers with per-row f32 scales.
    SInt8,
}

/// A tensor storage backend: owns the element buffer of a
/// [`TensorBase`](crate::TensorBase).
///
/// Implementations decide the element representation and where buffers
/// come from (the f32 backend draws from the per-thread workspace
/// arena). `Clone` + `Default` keep `TensorBase` clonable and takeable.
pub trait Storage: Clone + Default + std::fmt::Debug {
    /// The backend's element type.
    const DTYPE: DType;
    /// Number of logical elements held.
    fn len(&self) -> usize;
    /// Whether the storage holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default f32 backend: an arena-pooled `Vec<f32>`.
///
/// `Deref`s to its `Vec<f32>`, so kernels index and slice it exactly
/// like the plain vector it replaced. `Clone` draws from and `Drop`
/// returns to the per-thread [`workspace`] arena — the pooling that used
/// to live on `Tensor` itself (DESIGN.md §10), moved down to the backend
/// so the pooling contract is a storage property.
#[derive(Debug)]
pub struct F32Storage {
    pub(crate) buf: Vec<f32>,
}

impl Storage for F32Storage {
    const DTYPE: DType = DType::F32;

    #[inline]
    fn len(&self) -> usize {
        self.buf.len()
    }
}

impl Default for F32Storage {
    #[inline]
    fn default() -> Self {
        F32Storage { buf: Vec::new() }
    }
}

impl Clone for F32Storage {
    #[inline]
    fn clone(&self) -> Self {
        let mut buf = workspace::checkout_empty(self.buf.len());
        buf.extend_from_slice(&self.buf);
        F32Storage { buf }
    }
}

impl Drop for F32Storage {
    #[inline]
    fn drop(&mut self) {
        workspace::recycle(std::mem::take(&mut self.buf));
    }
}

impl From<Vec<f32>> for F32Storage {
    #[inline]
    fn from(buf: Vec<f32>) -> Self {
        F32Storage { buf }
    }
}

impl PartialEq for F32Storage {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl std::ops::Deref for F32Storage {
    type Target = Vec<f32>;
    #[inline]
    fn deref(&self) -> &Vec<f32> {
        &self.buf
    }
}

impl std::ops::DerefMut for F32Storage {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.buf
    }
}

impl<'a> IntoIterator for &'a F32Storage {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

impl<'a> IntoIterator for &'a mut F32Storage {
    type Item = &'a mut f32;
    type IntoIter = std::slice::IterMut<'a, f32>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter_mut()
    }
}

/// Symmetric signed-int8 backend with per-row f32 scales.
///
/// Element `(i, j)` of a `[rows, cols]` quantized matrix represents the
/// value `q[i*cols + j] as f32 * scales[i]`. Built by
/// [`crate::quant::QTensor::quantize_rows`]; only inference kernels read
/// it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SInt8Storage {
    /// Row-major quantized elements.
    pub(crate) q: Vec<i8>,
    /// One symmetric scale per row (`absmax_row / 127`; `0.0` for an
    /// all-zero row).
    pub(crate) scales: Vec<f32>,
    /// One `Σ q[i][·]` per row, precomputed at quantize time. The VNNI
    /// matmul kernel multiplies offset-unsigned activations (`q + 128`)
    /// and subtracts `128 · sum` per output — storing the sums here keeps
    /// that correction free at small serving batch sizes.
    pub(crate) sums: Vec<i32>,
}

impl Storage for SInt8Storage {
    const DTYPE: DType = DType::SInt8;

    #[inline]
    fn len(&self) -> usize {
        self.q.len()
    }
}

/// Which forward lane an inference caller selects.
///
/// * [`Exact`](InferenceMode::Exact) — the training kernels: one serial
///   ascending-`k` f32 chain per output element, bit-identical to
///   `forward(input, false)` for every thread count.
/// * [`Int8`](InferenceMode::Int8) — per-row absmax symmetric int8
///   weights with i32 accumulators ([`crate::quant`]); gated by
///   quantization error bounds.
///
/// Training never sees this enum: `train_with_options` only calls
/// `forward`, so the int8 lane is unreachable from the training loop
/// (enforced by test via the kernel dispatch counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// Bit-exact serial-chain f32 kernels (the default everywhere).
    Exact,
    /// Int8-quantized weights with i32 accumulation.
    Int8,
}

impl InferenceMode {
    /// Parses the CLI spelling (`off` | `int8`).
    ///
    /// # Errors
    /// Returns a descriptive error for any other spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" | "exact" => Ok(InferenceMode::Exact),
            "int8" => Ok(InferenceMode::Int8),
            other => Err(format!(
                "unknown inference mode {other:?} (expected off or int8)"
            )),
        }
    }
}

impl std::fmt::Display for InferenceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InferenceMode::Exact => "off",
            InferenceMode::Int8 => "int8",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_storage_clone_draws_from_arena_and_drop_recycles() {
        workspace::clear();
        let a = F32Storage::from(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(a, b);
        drop(a);
        drop(b);
        let (checkouts, _) = workspace::stats();
        // Clone checks out; the recycled buffers satisfy the next one.
        let c = F32Storage::from(vec![9.0; 3]).clone();
        let (checkouts2, hits2) = workspace::stats();
        assert_eq!(checkouts2, checkouts + 1);
        assert!(hits2 > 0, "recycled clone buffer should be reused");
        assert_eq!(c.buf, vec![9.0; 3]);
    }

    #[test]
    fn dtype_tags() {
        assert_eq!(F32Storage::DTYPE, DType::F32);
        assert_eq!(SInt8Storage::DTYPE, DType::SInt8);
        assert!(F32Storage::default().is_empty());
        assert!(SInt8Storage::default().is_empty());
    }

    #[test]
    fn inference_mode_parses_cli_spellings() {
        assert_eq!(InferenceMode::parse("off").unwrap(), InferenceMode::Exact);
        assert_eq!(InferenceMode::parse("int8").unwrap(), InferenceMode::Int8);
        let err = InferenceMode::parse("int4").unwrap_err();
        assert!(err.contains("int4") && err.contains("int8"), "{err}");
        // `fast` names no lane; it must be refused, not mapped to another.
        let err = InferenceMode::parse("fast").unwrap_err();
        assert!(
            err.contains("\"fast\"") && err.contains("off") && err.contains("int8"),
            "{err}"
        );
        assert_eq!(InferenceMode::Exact.to_string(), "off");
        assert_eq!(InferenceMode::Int8.to_string(), "int8");
    }
}
