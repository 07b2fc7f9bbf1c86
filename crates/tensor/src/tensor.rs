use crate::rng::{normal, Rng};
use crate::storage::{F32Storage, Storage};
use crate::workspace;

/// Minimum multiply–accumulate count before a matmul is worth handing to
/// the `apots-par` pool: below this, dispatch overhead (task vector +
/// latch) exceeds the kernel time for the small recurrent-step matrices
/// that dominate training, so the row partition collapses to one chunk
/// and `parallel_chunks_mut` takes its inline serial path. Scheduling
/// never affects which f32 chain an output element runs (DESIGN.md §9),
/// so this threshold is bit-neutral.
const PAR_GRAIN_MACS: usize = 1 << 18;

/// Rows per chunk for an `m × k × n` matmul-family dispatch.
#[inline]
pub(crate) fn matmul_chunk_rows(m: usize, k: usize, n: usize) -> usize {
    if m * k * n < PAR_GRAIN_MACS {
        // Size-based decision taken before any threading — the counter is
        // deterministic for any APOTS_THREADS (trace golden-hash eligible).
        apots_obs::metrics::KERNEL_SERIAL_BELOW_GRAIN.bump();
        m
    } else {
        apots_par::rows_per_chunk(m, 8)
    }
}

/// `out = a · b` for row-major `a: [out.len() / n, k]` and `b: [k, n]`,
/// row-partitioned over the pool (`out` zeroed, `n > 0`). The shared body
/// of every matmul entry point except `aᵀ · b`.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let chunk_rows = matmul_chunk_rows(out.len() / n, k, n);
    apots_par::parallel_chunks_mut(out, chunk_rows * n, |ci, out_chunk| {
        let i0 = ci * chunk_rows;
        let rows = out_chunk.len() / n;
        crate::kernels::matmul_block(&a[i0 * k..(i0 + rows) * k], b, out_chunk, k, n);
    });
}

/// Maximum tensor rank. The workspace uses at most rank-4
/// (`[batch, channels, height, width]` conv feature maps).
pub const MAX_RANK: usize = 4;

/// Inline, heap-free shape descriptor. Unused trailing dims are zeroed so
/// derived equality works; the public view is always the `len`-prefix of
/// `dims`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    len: u8,
    dims: [usize; MAX_RANK],
}

impl Shape {
    #[inline]
    fn of(shape: &[usize]) -> Self {
        assert!(
            shape.len() <= MAX_RANK,
            "tensor rank {} exceeds MAX_RANK {MAX_RANK}",
            shape.len()
        );
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Shape {
            len: shape.len() as u8,
            dims,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.len as usize]
    }

    #[inline]
    fn product(&self) -> usize {
        self.as_slice().iter().product()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl std::ops::Index<usize> for Shape {
    type Output = usize;
    #[inline]
    fn index(&self, i: usize) -> &usize {
        &self.as_slice()[i]
    }
}

/// A dense, row-major, n-dimensional tensor over a [`Storage`] backend.
///
/// The tensor owns its storage and is always contiguous. Most of the
/// workspace uses rank-1 (vectors), rank-2 (matrices, `[rows, cols]`) and
/// rank-4 (conv feature maps, `[batch, channels, height, width]`) tensors.
/// [`Tensor`] (`TensorBase<F32Storage>`) is the default f32 backend and
/// serializes as `{shape, data}` (used by the model checkpoint format of
/// `apots-nn`, via the in-house `apots-serde` JSON module);
/// [`crate::quant::QTensor`] is the int8 inference backend.
///
/// f32 storage is pooled: constructors check buffers out of the
/// per-thread [`crate::workspace`] arena and the backend's `Drop`/`Clone`
/// return/draw from it, so steady-state tensor churn performs no heap
/// allocation (DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct TensorBase<S: Storage = F32Storage> {
    shape: Shape,
    data: S,
}

/// The default dense f32 tensor (see [`TensorBase`]).
pub type Tensor = TensorBase<F32Storage>;

impl<S: Storage> TensorBase<S> {
    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backend's element type.
    #[inline]
    pub fn dtype(&self) -> crate::storage::DType {
        S::DTYPE
    }

    /// Assembles a tensor from a shape and a backend value (crate-only:
    /// the quantizer builds `SInt8Storage` tensors through this).
    #[inline]
    pub(crate) fn from_storage(shape: &[usize], data: S) -> Self {
        let shape = Shape::of(shape);
        assert_eq!(
            data.len(),
            shape.product(),
            "storage length {} does not match shape {:?}",
            data.len(),
            shape
        );
        TensorBase { shape, data }
    }

    /// Crate-only view of the backend value.
    #[inline]
    pub(crate) fn storage(&self) -> &S {
        &self.data
    }
}

impl<S: Storage + PartialEq> PartialEq for TensorBase<S> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a tensor from an explicit shape and backing data. The
    /// caller's buffer is adopted as-is (and returned to the arena when
    /// the tensor drops).
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::of(shape);
        let expected = shape.product();
        assert_eq!(
            data.len(),
            expected,
            "tensor data length {} does not match shape {:?} (expected {})",
            data.len(),
            shape,
            expected
        );
        Self {
            shape,
            data: data.into(),
        }
    }

    /// Creates a tensor filled with zeros (pooled).
    pub fn zeros(shape: &[usize]) -> Self {
        let s = Shape::of(shape);
        Self {
            data: workspace::checkout(s.product()).into(),
            shape: s,
        }
    }

    /// Creates a zeroed tensor and hands its storage to `fill` before
    /// returning it. The pooled replacement for the
    /// `vec![0.0; n]` + index-loop + `Tensor::new` construction idiom.
    pub fn build<F: FnOnce(&mut [f32])>(shape: &[usize], fill: F) -> Self {
        let mut t = Self::zeros(shape);
        fill(&mut t.data);
        t
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::build(shape, |d| d.fill(value))
    }

    /// Creates a rank-1 tensor from a vector (buffer adopted as-is).
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            shape: Shape::of(&[data.len()]),
            data: data.into(),
        }
    }

    /// Creates a rank-2 tensor from rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = workspace::checkout_empty(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                ncols,
                "row {i} has length {} but expected {ncols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            shape: Shape::of(&[nrows, ncols]),
            data: data.into(),
        }
    }

    /// Uniform random tensor over `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        Self::build(shape, |d| {
            for v in d.iter_mut() {
                *v = rng.random_range(lo..hi);
            }
        })
    }

    /// Gaussian random tensor (Box–Muller, see [`crate::rng::normal`]).
    pub fn randn<R: Rng>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        Self::build(shape, |d| {
            for v in d.iter_mut() {
                *v = normal(rng, mean, std);
            }
        })
    }

    /// Immutable access to the backing storage (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing storage (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing storage.
    pub fn into_data(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data.buf)
    }

    /// Number of rows of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "rows() requires rank-2, got {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "cols() requires rank-2, got {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// Element of a rank-2 tensor at `(i, j)`.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Sets element of a rank-2 tensor at `(i, j)`.
    #[inline]
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j] = v;
    }

    /// Immutable view of row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable view of row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Returns a tensor with the same data but a different shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "cannot reshape {:?} ({} elems) into {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            expected
        );
        let mut data = workspace::checkout_empty(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            shape: Shape::of(shape),
            data: data.into(),
        }
    }

    /// In-place reshape, avoiding the clone of [`Tensor::reshape`].
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "cannot reshape in place");
        self.shape = Shape::of(shape);
    }

    // ----- element-wise algebra -------------------------------------------

    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Element-wise sum, producing a new tensor.
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "add");
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference, producing a new tensor.
    pub fn sub(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "sub");
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product, producing a new tensor.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "mul");
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place element-wise sum.
    pub fn add_assign_t(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign_t");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place element-wise difference.
    pub fn sub_assign_t(&mut self, other: &Self) {
        self.assert_same_shape(other, "sub_assign_t");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * other`, the axpy kernel used by optimizers.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|v| v * alpha)
    }

    /// In-place multiplication of every element by `alpha`.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds `alpha` to every element, producing a new tensor.
    pub fn add_scalar(&self, alpha: f32) -> Self {
        self.map(|v| v + alpha)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Self {
        apots_obs::metrics::KERNEL_MAP.bump();
        let mut data = workspace::checkout_empty(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Self {
            shape: self.shape,
            data: data.into(),
        }
    }

    /// Applies `f` to every element of `self`, writing the results into
    /// `out` (same element count; `out` takes `self`'s shape). Bit-identical
    /// to [`Self::map`] for pure `f` — same serial element order.
    pub fn map_into<F: FnMut(f32) -> f32>(&self, out: &mut Self, mut f: F) {
        apots_obs::metrics::KERNEL_MAP.bump();
        assert_eq!(
            out.data.len(),
            self.data.len(),
            "map_into: output length {} does not match input {}",
            out.data.len(),
            self.data.len()
        );
        out.shape = self.shape;
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        apots_obs::metrics::KERNEL_MAP.bump();
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    pub fn zip_with<F: FnMut(f32, f32) -> f32>(&self, other: &Self, mut f: F) -> Self {
        apots_obs::metrics::KERNEL_ZIP.bump();
        self.assert_same_shape(other, "zip_with");
        let mut data = workspace::checkout_empty(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Self {
            shape: self.shape,
            data: data.into(),
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`, writing the
    /// results into `out` (same element count; `out` takes `self`'s shape).
    /// Bit-identical to [`Self::zip_with`] for pure `f`.
    pub fn zip_with_into<F: FnMut(f32, f32) -> f32>(&self, other: &Self, out: &mut Self, mut f: F) {
        apots_obs::metrics::KERNEL_ZIP.bump();
        self.assert_same_shape(other, "zip_with_into");
        assert_eq!(
            out.data.len(),
            self.data.len(),
            "zip_with_into: output length {} does not match input {}",
            out.data.len(),
            self.data.len()
        );
        out.shape = self.shape;
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = f(a, b);
        }
    }

    /// Element-wise sum into `out`: bit-identical to [`Self::add`].
    pub fn add_into(&self, other: &Self, out: &mut Self) {
        self.assert_same_shape(other, "add_into");
        self.zip_with_into(other, out, |a, b| a + b);
    }

    /// Element-wise product into `out`: bit-identical to [`Self::mul`].
    pub fn mul_into(&self, other: &Self, out: &mut Self) {
        self.assert_same_shape(other, "mul_into");
        self.zip_with_into(other, out, |a, b| a * b);
    }

    // ----- parallel elementwise (bit-identical to the serial variants) -----

    /// Grain (elements per task) for parallel elementwise kernels: these
    /// ops are memory-bound, so small tensors stay on the calling thread.
    const ELEMWISE_GRAIN: usize = 4096;

    /// Applies `f` to every element, producing a new tensor; chunks of the
    /// output are filled in parallel. Since `f` runs independently per
    /// element, the result is bit-identical to [`Self::map`] for pure `f`.
    pub fn par_map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Self {
        apots_obs::metrics::KERNEL_MAP.bump();
        let mut out = workspace::checkout(self.data.len());
        let src = &self.data;
        apots_par::parallel_chunks_mut(&mut out, Self::ELEMWISE_GRAIN, |ci, chunk| {
            let base = ci * Self::ELEMWISE_GRAIN;
            let src = &src[base..base + chunk.len()];
            for (o, &v) in chunk.iter_mut().zip(src.iter()) {
                *o = f(v);
            }
        });
        Self {
            shape: self.shape,
            data: out.into(),
        }
    }

    /// Applies `f` to every element in place, in parallel. Bit-identical
    /// to [`Self::map_in_place`] for pure `f`.
    pub fn par_map_in_place<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        apots_obs::metrics::KERNEL_MAP.bump();
        apots_par::parallel_chunks_mut(&mut self.data, Self::ELEMWISE_GRAIN, |_ci, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Combines two same-shaped tensors element-wise with `f`, in parallel.
    /// Bit-identical to [`Self::zip_with`] for pure `f`.
    pub fn par_zip_with<F: Fn(f32, f32) -> f32 + Sync>(&self, other: &Self, f: F) -> Self {
        apots_obs::metrics::KERNEL_ZIP.bump();
        self.assert_same_shape(other, "par_zip_with");
        let mut out = workspace::checkout(self.data.len());
        let (lhs, rhs) = (&self.data, &other.data);
        apots_par::parallel_chunks_mut(&mut out, Self::ELEMWISE_GRAIN, |ci, chunk| {
            let base = ci * Self::ELEMWISE_GRAIN;
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(lhs[base + i], rhs[base + i]);
            }
        });
        Self {
            shape: self.shape,
            data: out.into(),
        }
    }

    /// Fills the tensor with zeros without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    // ----- reductions ------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max_val(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min_val(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Frobenius/L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Column sums of a rank-2 tensor (a length-`cols` rank-1 tensor).
    ///
    /// This is the reduction used for bias gradients.
    pub fn sum_axis0(&self) -> Self {
        let mut out = Self::zeros(&[self.cols()]);
        self.sum_axis0_into(&mut out);
        out
    }

    /// Column sums written into `out` (length-`cols` rank-1): bit-identical
    /// to [`Self::sum_axis0`] — same ascending-row accumulation order.
    pub fn sum_axis0_into(&self, out: &mut Self) {
        apots_obs::metrics::KERNEL_SUM_AXIS0.bump();
        assert_eq!(self.rank(), 2, "sum_axis0 requires rank-2");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert_eq!(out.data.len(), c, "sum_axis0_into: bad output length");
        out.shape = Shape::of(&[c]);
        out.data.fill(0.0);
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            for (o, v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Row sums of a rank-2 tensor (a length-`rows` rank-1 tensor).
    pub fn sum_axis1(&self) -> Self {
        assert_eq!(self.rank(), 2, "sum_axis1 requires rank-2");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = workspace::checkout_empty(r);
        out.extend(self.data.chunks_exact(c).map(|row| row.iter().sum::<f32>()));
        Self::from_vec(out)
    }

    // ----- 2-D linear algebra ---------------------------------------------

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose2 requires rank-2");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = workspace::checkout(r * c);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Self {
            shape: Shape::of(&[c, r]),
            data: out.into(),
        }
    }

    /// Matrix product `self · other` of two rank-2 tensors.
    ///
    /// Register-blocked and row-partitioned across the `apots-par` pool.
    /// Bit-identical to [`crate::reference::matmul`] for every input and
    /// thread count: each output element accumulates its products in
    /// ascending `kk` order as one sequential f32 chain (see DESIGN.md §9).
    ///
    /// Note there is deliberately no `a == 0.0` fast path: skipping a zero
    /// LHS element would also skip `0.0 * NaN` / `0.0 * inf` (which must
    /// produce NaN), masking the non-finite values the training runtime's
    /// divergence sentinel exists to detect.
    pub fn matmul(&self, other: &Self) -> Self {
        let (m, _k, n) = self.matmul_dims(other);
        let mut out = Self {
            shape: Shape::of(&[m, n]),
            data: workspace::checkout(m * n).into(),
        };
        self.matmul_dispatch(other, &mut out.data);
        out
    }

    /// `self · other` written into `out` (which must already hold exactly
    /// `m·n` elements; it takes shape `[m, n]`). Bit-identical to
    /// [`Self::matmul`]: both run the same row-partitioned block kernels
    /// over a zeroed buffer. `out` must not alias either operand.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        let (m, _k, n) = self.matmul_dims(other);
        assert_eq!(out.data.len(), m * n, "matmul_into: bad output length");
        out.shape = Shape::of(&[m, n]);
        out.data.fill(0.0);
        self.matmul_dispatch(other, &mut out.data);
    }

    /// `self` flattened over its leading axes (`[..., k] → [rows, k]`)
    /// times `other: [k, n]`, written into `out` (`rows·n` elements; it
    /// takes shape `[rows, n]`). The flattening is purely an indexing view
    /// of the same contiguous row-major data, so every output element runs
    /// the identical ascending-`kk` chain of a rank-2 [`Self::matmul_into`]
    /// on the reshaped input. The RNN layers use this to project **all**
    /// timesteps' inputs in a single dispatch (`[B·T, I] · [I, 4H]`)
    /// instead of `T` tiny per-step matmuls — bit-identical, one kernel
    /// launch, and wide enough to parallelize. `out` must not alias either
    /// operand.
    pub fn matmul_flat_into(&self, other: &Self, out: &mut Self) {
        assert!(self.rank() >= 2, "matmul_flat_into lhs must be rank ≥ 2");
        assert_eq!(other.rank(), 2, "matmul_flat_into rhs must be rank-2");
        let k = self.shape[self.rank() - 1];
        assert!(k > 0, "matmul_flat_into: zero-width rows");
        let rows = self.data.len() / k;
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_flat_into dimension mismatch: [.., {k}] · [{k2}, {n}]"
        );
        assert_eq!(
            out.data.len(),
            rows * n,
            "matmul_flat_into: bad output length"
        );
        out.shape = Shape::of(&[rows, n]);
        out.data.fill(0.0);
        if n == 0 {
            return;
        }
        apots_obs::metrics::KERNEL_MATMUL_FLAT.bump();
        matmul_rows(&self.data, &other.data, &mut out.data, k, n);
    }

    #[inline]
    fn matmul_dims(&self, other: &Self) -> (usize, usize, usize) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul dimension mismatch: [{m}, {k}] · [{k2}, {n}]");
        (m, k, n)
    }

    /// Shared body of `matmul`/`matmul_into`: requires `out` zeroed.
    fn matmul_dispatch(&self, other: &Self, out: &mut [f32]) {
        let k = self.shape[1];
        let n = other.shape[1];
        if n == 0 {
            return;
        }
        apots_obs::metrics::KERNEL_MATMUL.bump();
        matmul_rows(&self.data, &other.data, out, k, n);
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// For `self: [k, m]` and `other: [k, n]` returns `[m, n]`. This is the
    /// kernel behind weight gradients (`xᵀ · dy`). Row-partitioned over the
    /// output; bit-identical to [`crate::reference::matmul_at_b`] for any
    /// thread count (ascending-`kk` chains, no zero-skip — see
    /// [`Self::matmul`] for why the skip was a bug).
    pub fn matmul_at_b(&self, other: &Self) -> Self {
        let (m, n) = self.matmul_at_b_dims(other);
        let mut out = Self {
            shape: Shape::of(&[m, n]),
            data: workspace::checkout(m * n).into(),
        };
        self.matmul_at_b_dispatch(other, &mut out.data);
        out
    }

    /// `selfᵀ · other` written into `out` (`m·n` elements, takes shape
    /// `[m, n]`). Bit-identical to [`Self::matmul_at_b`]; `out` must not
    /// alias either operand.
    pub fn matmul_at_b_into(&self, other: &Self, out: &mut Self) {
        let (m, n) = self.matmul_at_b_dims(other);
        assert_eq!(out.data.len(), m * n, "matmul_at_b_into: bad output length");
        out.shape = Shape::of(&[m, n]);
        out.data.fill(0.0);
        self.matmul_at_b_dispatch(other, &mut out.data);
    }

    #[inline]
    fn matmul_at_b_dims(&self, other: &Self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "matmul_at_b lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_at_b rhs must be rank-2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_at_b dimension mismatch: [{k}, {m}]ᵀ · [{k2}, {n}]"
        );
        (m, n)
    }

    /// Shared body of `matmul_at_b`/`matmul_at_b_into`: requires `out` zeroed.
    fn matmul_at_b_dispatch(&self, other: &Self, out: &mut [f32]) {
        let (k, m) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        if n == 0 {
            return;
        }
        apots_obs::metrics::KERNEL_MATMUL_AT_B.bump();
        let chunk_rows = matmul_chunk_rows(m, k, n);
        let a = &self.data;
        let b = &other.data;
        apots_par::parallel_chunks_mut(out, chunk_rows * n, |ci, out_chunk| {
            let i0 = ci * chunk_rows;
            crate::kernels::matmul_at_b_block(a, b, out_chunk, i0, k, m, n);
        });
    }

    /// `self · otherᵀ`.
    ///
    /// For `self: [m, k]` and `other: [n, k]` returns `[m, n]`. This is the
    /// kernel behind input gradients (`dy · wᵀ`). It runs the `a · b` tile
    /// kernel over a transposed copy of `other` taken from the workspace
    /// arena, row-partitioned over the output; bit-identical to
    /// [`crate::reference::matmul_a_bt`] for any thread count (one
    /// sequential ascending-`kk` dot-product chain per element).
    pub fn matmul_a_bt(&self, other: &Self) -> Self {
        let (m, n) = self.matmul_a_bt_dims(other);
        let mut out = Self {
            shape: Shape::of(&[m, n]),
            data: workspace::checkout(m * n).into(),
        };
        self.matmul_a_bt_dispatch(other, &mut out.data);
        out
    }

    /// `self · otherᵀ` written into `out` (`m·n` elements, takes shape
    /// `[m, n]`). Bit-identical to [`Self::matmul_a_bt`]; `out` must not
    /// alias either operand.
    pub fn matmul_a_bt_into(&self, other: &Self, out: &mut Self) {
        let (m, n) = self.matmul_a_bt_dims(other);
        assert_eq!(out.data.len(), m * n, "matmul_a_bt_into: bad output length");
        out.shape = Shape::of(&[m, n]);
        out.data.fill(0.0);
        self.matmul_a_bt_dispatch(other, &mut out.data);
    }

    #[inline]
    fn matmul_a_bt_dims(&self, other: &Self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "matmul_a_bt lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_a_bt rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_a_bt dimension mismatch: [{m}, {k}] · [{n}, {k2}]ᵀ"
        );
        (m, n)
    }

    /// Shared body of `matmul_a_bt`/`matmul_a_bt_into`: requires `out` zeroed.
    fn matmul_a_bt_dispatch(&self, other: &Self, out: &mut [f32]) {
        let k = self.shape[1];
        let n = other.shape[0];
        if n == 0 {
            return;
        }
        apots_obs::metrics::KERNEL_MATMUL_A_BT.bump();
        // `a · bᵀ` is `a · (bᵀ)`: with `bᵀ` in an arena buffer, element
        // `[i][j]` is `0 + a[i][0]·b[j][0] + … + a[i][k-1]·b[j][k-1]` in
        // ascending `kk`, the same chain as a dot product of two rows, but
        // the a·b tile kernel runs it across 16 output columns at once.
        let bt = other.transpose2();
        matmul_rows(&self.data, &bt.data, out, k, n);
    }

    /// Adds a rank-1 bias to every row of a rank-2 tensor, in place.
    pub fn add_row_broadcast(&mut self, bias: &Self) {
        assert_eq!(self.rank(), 2, "add_row_broadcast target must be rank-2");
        assert_eq!(
            bias.len(),
            self.shape[1],
            "bias length {} does not match column count {}",
            bias.len(),
            self.shape[1]
        );
        let c = self.shape[1];
        if c == 0 {
            return;
        }
        apots_obs::metrics::KERNEL_ADD_ROW_BROADCAST.bump();
        let rows = self.shape[0];
        let chunk_rows = apots_par::rows_per_chunk(rows, 64);
        let bias = &bias.data;
        apots_par::parallel_chunks_mut(&mut self.data, chunk_rows * c, |_ci, chunk| {
            for row in chunk.chunks_exact_mut(c) {
                for (v, b) in row.iter_mut().zip(bias.iter()) {
                    *v += b;
                }
            }
        });
    }

    /// Horizontally concatenates rank-2 tensors with equal row counts.
    pub fn concat_cols(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat_cols needs at least one tensor");
        let rows = parts[0].rows();
        for p in parts {
            assert_eq!(p.rows(), rows, "concat_cols row count mismatch");
        }
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = workspace::checkout_empty(rows * total_cols);
        for i in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(i));
            }
        }
        Self {
            shape: Shape::of(&[rows, total_cols]),
            data: data.into(),
        }
    }

    /// Extracts columns `[start, start + width)` of a rank-2 tensor.
    pub fn slice_cols(&self, start: usize, width: usize) -> Self {
        assert_eq!(self.rank(), 2, "slice_cols requires rank-2");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(
            start + width <= c,
            "slice_cols [{start}, {}) out of bounds for {c} columns",
            start + width
        );
        let mut data = workspace::checkout_empty(r * width);
        for i in 0..r {
            data.extend_from_slice(&self.data[i * c + start..i * c + start + width]);
        }
        Self {
            shape: Shape::of(&[r, width]),
            data: data.into(),
        }
    }

    /// Extracts rows `[start, start + count)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, count: usize) -> Self {
        assert_eq!(self.rank(), 2, "slice_rows requires rank-2");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(
            start + count <= r,
            "slice_rows [{start}, {}) out of bounds for {r} rows",
            start + count
        );
        let mut data = workspace::checkout_empty(count * c);
        data.extend_from_slice(&self.data[start * c..(start + count) * c]);
        Self {
            shape: Shape::of(&[count, c]),
            data: data.into(),
        }
    }

    /// Gathers timestep `t` of a rank-3 `[batch, steps, feat]` tensor into
    /// `out` (`[batch, feat]`, which must already hold `batch·feat`
    /// elements). The strided gather used by the RNN layers; bit-identical
    /// to building the slice row by row into a fresh buffer.
    pub fn time_slice_into(&self, t: usize, out: &mut Self) {
        assert_eq!(
            self.rank(),
            3,
            "time_slice_into requires rank-3 [batch, steps, feat], got {:?}",
            self.shape
        );
        let (b, steps, feat) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(t < steps, "time_slice_into: step {t} out of {steps}");
        assert_eq!(
            out.data.len(),
            b * feat,
            "time_slice_into: bad output length"
        );
        out.shape = Shape::of(&[b, feat]);
        let w = steps * feat;
        for bi in 0..b {
            let src = &self.data[bi * w + t * feat..bi * w + (t + 1) * feat];
            out.data[bi * feat..(bi + 1) * feat].copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
        assert!(t.data().iter().all(|&v| v == 0.0));
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_bad_length() {
        let _ = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_layout() {
        let t = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.at2(0, 1), 2.0);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged() {
        let _ = Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.add(&b).data(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).data(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).data(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = t2(&[&[1.0, 2.0]]);
        let b = t2(&[&[10.0, 20.0]]);
        a.add_assign_t(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.sub_assign_t(&b);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max_val(), 4.0);
        assert_eq!(a.min_val(), 1.0);
        assert_eq!(a.norm_sq(), 30.0);
        assert_eq!(a.sum_axis0().data(), &[4.0, 6.0]);
        assert_eq!(a.sum_axis1().data(), &[3.0, 7.0]);
    }

    #[test]
    fn matmul_small() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t2(&[&[1.0, 0.0, 2.0]]); // 1x3
        let b = t2(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]); // 3x2
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[11.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transposed_matmuls_agree_with_naive() {
        let mut rng = crate::SeededRng::seed_from_u64(42);
        let a = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let expect = a.transpose2().matmul(&b);
        let got = a.matmul_at_b(&b);
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform(&[5, 3], -1.0, 1.0, &mut rng);
        let expect = c.matmul(&d.transpose2());
        let got = c.matmul_a_bt(&d);
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Regression for the old `if a == 0.0 { continue; }` fast path: a NaN
    /// planted in the RHS must propagate through every matmul kernel even
    /// when the matching LHS element is zero (`0.0 * NaN` is NaN, not 0.0).
    /// The skip silently produced finite output, masking exactly the
    /// non-finite values the divergence sentinel watches for.
    #[test]
    fn nan_in_rhs_propagates_through_all_matmul_kernels() {
        // LHS is all zeros: under the buggy skip, every row was bypassed.
        let a = Tensor::zeros(&[2, 3]);
        let mut b = Tensor::ones(&[3, 4]);
        b.data_mut()[5] = f32::NAN; // b[1][1]
        let c = a.matmul(&b);
        assert!(c.at2(0, 1).is_nan(), "matmul swallowed 0*NaN");
        assert!(c.at2(1, 1).is_nan(), "matmul swallowed 0*NaN");
        assert!(c.at2(0, 0).is_finite(), "NaN leaked into unrelated column");

        // matmul_at_b: lhs [k=3, m=2] all zeros, rhs [k=3, n=4] with NaN.
        let at = Tensor::zeros(&[3, 2]);
        let c = at.matmul_at_b(&b);
        assert!(c.at2(0, 1).is_nan(), "matmul_at_b swallowed 0*NaN");
        assert!(c.at2(1, 1).is_nan(), "matmul_at_b swallowed 0*NaN");
        assert!(c.at2(0, 0).is_finite(), "NaN leaked into unrelated column");

        // matmul_a_bt: rhs [n=4, k=3] with NaN in row 1.
        let mut bt = Tensor::ones(&[4, 3]);
        bt.data_mut()[4] = f32::NAN; // bt[1][1]
        let c = a.matmul_a_bt(&bt);
        assert!(c.at2(0, 1).is_nan(), "matmul_a_bt swallowed 0*NaN");
        assert!(c.at2(1, 1).is_nan(), "matmul_a_bt swallowed 0*NaN");
        assert!(c.at2(0, 0).is_finite(), "NaN leaked into unrelated column");

        // Inf behaves the same way (0.0 * inf is NaN).
        let mut binf = Tensor::ones(&[3, 4]);
        binf.data_mut()[0] = f32::INFINITY;
        let c = a.matmul(&binf);
        assert!(c.at2(0, 0).is_nan(), "matmul swallowed 0*inf");
    }

    /// The blocked, pool-partitioned kernels must be bit-identical to the
    /// naive specification loops in `crate::reference` — odd shapes stress
    /// every 4-row panel / 16-8-4 column tile / remainder combination.
    #[test]
    fn blocked_matmuls_bit_match_reference() {
        let mut rng = crate::SeededRng::seed_from_u64(1234);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 2),
            (4, 4, 4),
            (5, 7, 6),
            (8, 16, 3),
            (9, 5, 13),
            (17, 11, 19),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
            let got = a.matmul(&b);
            let want = crate::reference::matmul(a.data(), b.data(), m, k, n);
            assert_eq!(got.data(), &want[..], "matmul {m}x{k}x{n} drifted");

            let at = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
            let got = at.matmul_at_b(&b);
            let want = crate::reference::matmul_at_b(at.data(), b.data(), k, m, n);
            assert_eq!(got.data(), &want[..], "matmul_at_b {k}x{m}x{n} drifted");

            let bt = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
            let got = a.matmul_a_bt(&bt);
            let want = crate::reference::matmul_a_bt(a.data(), bt.data(), m, k, n);
            assert_eq!(got.data(), &want[..], "matmul_a_bt {m}x{k}x{n} drifted");
        }
    }

    #[test]
    fn par_elementwise_matches_serial() {
        let mut rng = crate::SeededRng::seed_from_u64(77);
        let a = Tensor::rand_uniform(&[33, 17], -3.0, 3.0, &mut rng);
        let b = Tensor::rand_uniform(&[33, 17], -3.0, 3.0, &mut rng);
        assert_eq!(a.par_map(|v| v.tanh()), a.map(|v| v.tanh()));
        assert_eq!(
            a.par_zip_with(&b, |x, y| x * y),
            a.zip_with(&b, |x, y| x * y)
        );
        let mut c = a.clone();
        let mut d = a.clone();
        c.par_map_in_place(|v| v.max(0.0));
        d.map_in_place(|v| v.max(0.0));
        assert_eq!(c, d);
    }

    #[test]
    fn transpose_involution() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().shape(), &[3, 2]);
        assert_eq!(a.transpose2().at2(2, 1), 6.0);
    }

    #[test]
    fn broadcast_bias() {
        let mut a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_vec(vec![10.0, 20.0]);
        a.add_row_broadcast(&b);
        assert_eq!(a.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn concat_and_slice() {
        let a = t2(&[&[1.0], &[2.0]]);
        let b = t2(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        assert_eq!(c.slice_cols(1, 2), b);
        assert_eq!(c.slice_rows(1, 1).data(), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = a.reshape(&[4]);
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.data(), a.data());
        let mut c = a.clone();
        c.reshape_in_place(&[1, 4]);
        assert_eq!(c.shape(), &[1, 4]);
    }

    #[test]
    fn random_tensors_respect_bounds_and_seed() {
        let mut rng = crate::SeededRng::seed_from_u64(7);
        let u = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(u.data().iter().all(|&v| (-0.5..0.5).contains(&v)));

        let mut rng_a = crate::SeededRng::seed_from_u64(9);
        let mut rng_b = crate::SeededRng::seed_from_u64(9);
        let a = Tensor::randn(&[16], 0.0, 1.0, &mut rng_a);
        let b = Tensor::randn(&[16], 0.0, 1.0, &mut rng_b);
        assert_eq!(a, b);
    }
}
