//! Per-row symmetric int8 quantization — the `InferenceMode::Int8` lane.
//!
//! Weights quantize once at prepare/checkpoint-load time
//! ([`quantize_weights`]: `[in, out]` f32 → `[out, in]` int8, one
//! symmetric scale `absmax/127` per output row, stored transposed so the
//! matmul streams each weight row contiguously). Activations quantize
//! per sample row at matmul time inside [`qmatmul`], which accumulates
//! int8×int8 products in an `i32` (exact: `|q| ≤ 127` keeps any
//! practical `k` far from overflow) and applies the two scales once per
//! output element.
//!
//! Numerics contract (DESIGN.md §15): the int8 lane is tolerance-gated,
//! never bit-exact — per-element error against the f32 reference is
//! bounded by `k · absmax(x_row) · absmax(w_row) / 127` (quantization
//! steps of both operands), pinned by the `quant_props.rs` property
//! suite. The integer accumulation itself is order-invariant, so the
//! lane is still bitwise deterministic across thread counts and batch
//! compositions.

use crate::storage::SInt8Storage;
use crate::tensor::{matmul_chunk_rows, Tensor, TensorBase};

/// Per-row element sums of a row-major i8 matrix — precomputed at
/// quantize time so the VNNI kernel's unsigned-offset correction
/// (`Σ(q+128)·w = Σq·w + 128·Σw`) costs nothing per request.
fn row_sums(q: &[i8], rows: usize, cols: usize) -> Vec<i32> {
    (0..rows)
        .map(|i| {
            q[i * cols..(i + 1) * cols]
                .iter()
                .map(|&v| i32::from(v))
                .sum()
        })
        .collect()
}

/// An int8-quantized matrix: `TensorBase` over [`SInt8Storage`]
/// (row-major `i8` elements + one scale per row).
pub type QTensor = TensorBase<SInt8Storage>;

/// Quantizes one f32 row symmetrically into `q`, returning the row
/// scale (`absmax/127`; `0.0` for an all-zero row, which quantizes to
/// all zeros).
#[inline]
fn quantize_row(row: &[f32], q: &mut [i8]) -> f32 {
    // 16 independent max lanes so the reduction vectorizes (f32 max is
    // associative on the non-negative `abs` values, so the lane split
    // cannot change the result — unlike a float *sum*, this stays
    // deterministic).
    let mut lanes = [0.0f32; 16];
    let mut it = row.chunks_exact(16);
    for c in it.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    let mut absmax = it.remainder().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    for &m in &lanes {
        absmax = absmax.max(m);
    }
    if absmax == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    for (dst, &v) in q.iter_mut().zip(row) {
        *dst = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

impl QTensor {
    /// Quantizes a rank-2 f32 matrix per **row** (each row gets its own
    /// symmetric scale). The natural layout for already-transposed
    /// weight matrices; [`quantize_weights`] handles the `[in, out]`
    /// orientation used by the layers.
    ///
    /// # Panics
    /// Panics if `t` is not rank-2.
    pub fn quantize_rows(t: &Tensor) -> QTensor {
        assert_eq!(t.rank(), 2, "quantize_rows requires rank-2");
        let (r, c) = (t.shape()[0], t.shape()[1]);
        apots_obs::metrics::KERNEL_QUANTIZE.bump();
        let mut q = vec![0i8; r * c];
        let mut scales = vec![0.0f32; r];
        for i in 0..r {
            scales[i] = quantize_row(&t.data()[i * c..(i + 1) * c], &mut q[i * c..(i + 1) * c]);
        }
        let sums = row_sums(&q, r, c);
        TensorBase::from_storage(&[r, c], SInt8Storage { q, scales, sums })
    }

    /// The quantized elements (row-major).
    #[inline]
    pub fn q_data(&self) -> &[i8] {
        &self.storage().q
    }

    /// One symmetric scale per row.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.storage().scales
    }

    /// Reconstructs the f32 matrix this quantized one represents
    /// (`q[i][j] * scales[i]`).
    pub fn dequantize(&self) -> Tensor {
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let q = self.q_data();
        let scales = self.scales();
        Tensor::build(&[r, c], |d| {
            for i in 0..r {
                let s = scales[i];
                for j in 0..c {
                    d[i * c + j] = q[i * c + j] as f32 * s;
                }
            }
        })
    }
}

/// Quantizes a layer weight matrix `w: [in, out]` into the transposed
/// `[out, in]` int8 layout [`qmatmul`] consumes, with one symmetric
/// scale per **output** feature (i.e. per column of `w`).
pub fn quantize_weights(w: &Tensor) -> QTensor {
    assert_eq!(w.rank(), 2, "quantize_weights requires rank-2");
    let (k, n) = (w.shape()[0], w.shape()[1]);
    apots_obs::metrics::KERNEL_QUANTIZE.bump();
    let wd = w.data();
    let mut q = vec![0i8; n * k];
    let mut scales = vec![0.0f32; n];
    for j in 0..n {
        let mut absmax = 0.0f32;
        for i in 0..k {
            absmax = absmax.max(wd[i * n + j].abs());
        }
        if absmax == 0.0 {
            continue; // row already zeroed, scale stays 0.0
        }
        let scale = absmax / 127.0;
        let inv = 127.0 / absmax;
        let row = &mut q[j * k..(j + 1) * k];
        for (i, dst) in row.iter_mut().enumerate() {
            *dst = (wd[i * n + j] * inv).round().clamp(-127.0, 127.0) as i8;
        }
        scales[j] = scale;
    }
    let sums = row_sums(&q, n, k);
    TensorBase::from_storage(&[n, k], SInt8Storage { q, scales, sums })
}

/// `x · Wᵀ` on the int8 lane: `x: [m, k]` f32 activations against
/// quantized weights `qw: [n, k]` (as built by [`quantize_weights`]),
/// returning `[m, n]` f32. A higher-rank `x` is flattened over its
/// leading axes (`[.., k] → [m, k]`), as in `Tensor::matmul_flat_into`.
///
/// Each activation row is quantized on the fly with its own symmetric
/// scale; products accumulate exactly in `i32`, then one
/// `sa · sw · sum` multiply per output element. Row-partitioned over the
/// output behind the `PAR_GRAIN_MACS` grain gate; bitwise deterministic
/// for any thread count and batch composition (integer accumulation has
/// no order sensitivity).
pub fn qmatmul(x: &Tensor, qw: &QTensor) -> Tensor {
    assert!(x.rank() >= 2, "qmatmul lhs must be rank ≥ 2");
    let (lead, k) = x.shape().split_at(x.rank() - 1);
    let (m, k) = (lead.iter().product::<usize>(), k[0]);
    let (n, k2) = (qw.shape()[0], qw.shape()[1]);
    assert_eq!(
        k, k2,
        "qmatmul dimension mismatch: [{m}, {k}] · [{n}, {k2}]ᵀ"
    );
    let mut out = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return out;
    }
    apots_obs::metrics::KERNEL_QMATMUL.bump();
    let chunk_rows = matmul_chunk_rows(m, k, n);
    let xd = x.data();
    let qd = qw.q_data();
    let scales = qw.scales();
    let wsums = &qw.storage().sums;
    apots_par::parallel_chunks_mut(out.data_mut(), chunk_rows * n, |ci, out_chunk| {
        let i0 = ci * chunk_rows;
        let rows = out_chunk.len() / n;
        // i8/u8 scratch is heap-allocated per chunk: the workspace arena
        // is f32-only, and this is the inference lane, not the
        // zero-alloc-audited training path.
        let mut qx = vec![0i8; k];
        // `vpdpbusd` takes unsigned × signed bytes: offset the
        // activations by +128 and subtract `128 · Σw` per output (the
        // sums are precomputed in the storage). Integer arithmetic
        // throughout, so the VNNI path is bit-identical to the scalar
        // fallback — including all-zero rows, whose offset row is
        // all-128 and cancels exactly against the correction term.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
        {
            let quantize_u8 = |row: usize, qx: &mut [i8], xu: &mut [u8]| {
                let sa = quantize_row(&xd[row * k..(row + 1) * k], qx);
                for (dst, &v) in xu.iter_mut().zip(qx.iter()) {
                    *dst = (i16::from(v) + 128) as u8;
                }
                sa
            };
            let mut xu0 = vec![0u8; k];
            let mut xu1 = vec![0u8; k];
            let mut r = 0;
            while r + 2 <= rows {
                let sa0 = quantize_u8(i0 + r, &mut qx, &mut xu0);
                let sa1 = quantize_u8(i0 + r + 1, &mut qx, &mut xu1);
                let (o0, o1) = out_chunk[r * n..(r + 2) * n].split_at_mut(n);
                vnni::matvec2(&xu0, &xu1, qd, scales, wsums, sa0, sa1, o0, o1, k);
                r += 2;
            }
            if r < rows {
                let sa = quantize_u8(i0 + r, &mut qx, &mut xu0);
                vnni::matvec(&xu0, qd, scales, wsums, sa, &mut out_chunk[r * n..], k);
            }
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512vnni")))]
        for r in 0..rows {
            let sa = quantize_row(&xd[(i0 + r) * k..(i0 + r + 1) * k], &mut qx);
            let orow = &mut out_chunk[r * n..(r + 1) * n];
            if sa == 0.0 {
                orow.fill(0.0);
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                let wrow = &qd[j * k..(j + 1) * k];
                let sum: i32 = qx
                    .iter()
                    .zip(wrow)
                    .map(|(&a, &b)| i32::from(a) * i32::from(b))
                    .sum();
                *o = sa * scales[j] * sum as f32;
            }
        }
    });
    out
}

/// AVX-512 VNNI inner kernel: `vpdpbusd` folds 4 unsigned×signed byte
/// products into each of 16 `i32` lanes per instruction — 64 MACs per
/// µop, against 16 multiply-add lanes for the best f32 kernel. Weight
/// rows are processed [`vnni::JR`] at a time so each 64-byte activation
/// load is shared across that many accumulator chains.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
mod vnni {
    use std::arch::x86_64::{
        _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_reduce_add_epi32, _mm512_setzero_si512,
    };

    /// Weight rows sharing one activation load per 64-byte block — wide
    /// enough to keep that many independent `vpdpbusd` dependency chains
    /// in flight (the instruction's latency is ~5 cycles at 2/cycle
    /// throughput, so 4 chains stall and 8 saturate the ports).
    const JR: usize = 8;

    /// `Σ xu[kk]·w{0..JR}[kk]` for [`JR`] k-long weight rows starting at
    /// `w` (stride `k`), plus the scalar tail past the last 64-byte
    /// block.
    #[inline]
    fn dot8(xu: &[u8], w: &[i8], k: usize) -> [i32; JR] {
        debug_assert!(xu.len() == k && w.len() >= JR * k);
        let mut acc = [0i32; JR];
        let mut kk = 0;
        // SAFETY: every load reads 64 bytes at offset `kk + r·k` with
        // `kk + 64 <= k`, in-bounds for `xu` (len k) and `w` (len ≥ JR·k).
        unsafe {
            // Named accumulators: an indexed `[__m512i; 8]` tempts LLVM
            // into spilling the tile; eight locals stay in registers.
            let z = _mm512_setzero_si512();
            let (mut v0, mut v1, mut v2, mut v3) = (z, z, z, z);
            let (mut v4, mut v5, mut v6, mut v7) = (z, z, z, z);
            let wp = w.as_ptr();
            while kk + 64 <= k {
                let a = _mm512_loadu_si512(xu.as_ptr().add(kk).cast());
                v0 = _mm512_dpbusd_epi32(v0, a, _mm512_loadu_si512(wp.add(kk).cast()));
                v1 = _mm512_dpbusd_epi32(v1, a, _mm512_loadu_si512(wp.add(k + kk).cast()));
                v2 = _mm512_dpbusd_epi32(v2, a, _mm512_loadu_si512(wp.add(2 * k + kk).cast()));
                v3 = _mm512_dpbusd_epi32(v3, a, _mm512_loadu_si512(wp.add(3 * k + kk).cast()));
                v4 = _mm512_dpbusd_epi32(v4, a, _mm512_loadu_si512(wp.add(4 * k + kk).cast()));
                v5 = _mm512_dpbusd_epi32(v5, a, _mm512_loadu_si512(wp.add(5 * k + kk).cast()));
                v6 = _mm512_dpbusd_epi32(v6, a, _mm512_loadu_si512(wp.add(6 * k + kk).cast()));
                v7 = _mm512_dpbusd_epi32(v7, a, _mm512_loadu_si512(wp.add(7 * k + kk).cast()));
                kk += 64;
            }
            for (s, vr) in acc.iter_mut().zip([v0, v1, v2, v3, v4, v5, v6, v7]) {
                *s = _mm512_reduce_add_epi32(vr);
            }
        }
        while kk < k {
            let xv = i32::from(xu[kk]);
            for (r, s) in acc.iter_mut().enumerate() {
                *s += xv * i32::from(w[r * k + kk]);
            }
            kk += 1;
        }
        acc
    }

    /// One k-long weight row (ragged `n % 4` tail of [`matvec`]).
    #[inline]
    fn dot1(xu: &[u8], w: &[i8]) -> i32 {
        let k = xu.len();
        let mut kk = 0;
        // SAFETY: both loads read 64 bytes at `kk` with `kk + 64 <= k`.
        let mut sum = unsafe {
            let mut acc = _mm512_setzero_si512();
            while kk + 64 <= k {
                let a = _mm512_loadu_si512(xu.as_ptr().add(kk).cast());
                let b = _mm512_loadu_si512(w.as_ptr().add(kk).cast());
                acc = _mm512_dpbusd_epi32(acc, a, b);
                kk += 64;
            }
            _mm512_reduce_add_epi32(acc)
        };
        while kk < k {
            sum += i32::from(xu[kk]) * i32::from(w[kk]);
            kk += 1;
        }
        sum
    }

    /// Two activation rows against [`JR`] weight rows — one shared
    /// weight load feeds two accumulator tiles, halving the weight
    /// stream (the bandwidth wall once the matrix outgrows L1). Each
    /// row's accumulators see exactly the ops [`dot8`] would issue, so
    /// pairing is invisible in the bits (batch invariance).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn dot8x2(xu0: &[u8], xu1: &[u8], w: &[i8], k: usize) -> ([i32; JR], [i32; JR]) {
        debug_assert!(xu0.len() == k && xu1.len() == k && w.len() >= JR * k);
        let mut acc0 = [0i32; JR];
        let mut acc1 = [0i32; JR];
        let mut kk = 0;
        // SAFETY: same bounds argument as `dot8`, for both activation
        // rows.
        unsafe {
            let z = _mm512_setzero_si512();
            let (mut p0, mut p1, mut p2, mut p3) = (z, z, z, z);
            let (mut p4, mut p5, mut p6, mut p7) = (z, z, z, z);
            let (mut q0, mut q1, mut q2, mut q3) = (z, z, z, z);
            let (mut q4, mut q5, mut q6, mut q7) = (z, z, z, z);
            let wp = w.as_ptr();
            while kk + 64 <= k {
                let a0 = _mm512_loadu_si512(xu0.as_ptr().add(kk).cast());
                let a1 = _mm512_loadu_si512(xu1.as_ptr().add(kk).cast());
                let b0 = _mm512_loadu_si512(wp.add(kk).cast());
                p0 = _mm512_dpbusd_epi32(p0, a0, b0);
                q0 = _mm512_dpbusd_epi32(q0, a1, b0);
                let b1 = _mm512_loadu_si512(wp.add(k + kk).cast());
                p1 = _mm512_dpbusd_epi32(p1, a0, b1);
                q1 = _mm512_dpbusd_epi32(q1, a1, b1);
                let b2 = _mm512_loadu_si512(wp.add(2 * k + kk).cast());
                p2 = _mm512_dpbusd_epi32(p2, a0, b2);
                q2 = _mm512_dpbusd_epi32(q2, a1, b2);
                let b3 = _mm512_loadu_si512(wp.add(3 * k + kk).cast());
                p3 = _mm512_dpbusd_epi32(p3, a0, b3);
                q3 = _mm512_dpbusd_epi32(q3, a1, b3);
                let b4 = _mm512_loadu_si512(wp.add(4 * k + kk).cast());
                p4 = _mm512_dpbusd_epi32(p4, a0, b4);
                q4 = _mm512_dpbusd_epi32(q4, a1, b4);
                let b5 = _mm512_loadu_si512(wp.add(5 * k + kk).cast());
                p5 = _mm512_dpbusd_epi32(p5, a0, b5);
                q5 = _mm512_dpbusd_epi32(q5, a1, b5);
                let b6 = _mm512_loadu_si512(wp.add(6 * k + kk).cast());
                p6 = _mm512_dpbusd_epi32(p6, a0, b6);
                q6 = _mm512_dpbusd_epi32(q6, a1, b6);
                let b7 = _mm512_loadu_si512(wp.add(7 * k + kk).cast());
                p7 = _mm512_dpbusd_epi32(p7, a0, b7);
                q7 = _mm512_dpbusd_epi32(q7, a1, b7);
                kk += 64;
            }
            for (s, vr) in acc0.iter_mut().zip([p0, p1, p2, p3, p4, p5, p6, p7]) {
                *s = _mm512_reduce_add_epi32(vr);
            }
            for (s, vr) in acc1.iter_mut().zip([q0, q1, q2, q3, q4, q5, q6, q7]) {
                *s = _mm512_reduce_add_epi32(vr);
            }
        }
        while kk < k {
            let (x0, x1) = (i32::from(xu0[kk]), i32::from(xu1[kk]));
            for r in 0..JR {
                let wv = i32::from(w[r * k + kk]);
                acc0[r] += x0 * wv;
                acc1[r] += x1 * wv;
            }
            kk += 1;
        }
        (acc0, acc1)
    }

    /// Two offset-unsigned activation rows against all `n` weight rows.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn matvec2(
        xu0: &[u8],
        xu1: &[u8],
        qd: &[i8],
        scales: &[f32],
        wsums: &[i32],
        sa0: f32,
        sa1: f32,
        o0: &mut [f32],
        o1: &mut [f32],
        k: usize,
    ) {
        let n = o0.len();
        let mut j = 0;
        while j + JR <= n {
            let (d0, d1) = dot8x2(xu0, xu1, &qd[j * k..(j + JR) * k], k);
            for t in 0..JR {
                let corr = 128 * wsums[j + t];
                o0[j + t] = sa0 * scales[j + t] * (d0[t] - corr) as f32;
                o1[j + t] = sa1 * scales[j + t] * (d1[t] - corr) as f32;
            }
            j += JR;
        }
        while j < n {
            let row = &qd[j * k..(j + 1) * k];
            let corr = 128 * wsums[j];
            o0[j] = sa0 * scales[j] * (dot1(xu0, row) - corr) as f32;
            o1[j] = sa1 * scales[j] * (dot1(xu1, row) - corr) as f32;
            j += 1;
        }
    }

    /// One offset-unsigned activation row against all `n` weight rows:
    /// `orow[j] = sa · scales[j] · (Σ xu·w_j − 128·wsums[j])`.
    pub(super) fn matvec(
        xu: &[u8],
        qd: &[i8],
        scales: &[f32],
        wsums: &[i32],
        sa: f32,
        orow: &mut [f32],
        k: usize,
    ) {
        let n = orow.len();
        let mut j = 0;
        while j + JR <= n {
            let d = dot8(xu, &qd[j * k..(j + JR) * k], k);
            for (t, &dt) in d.iter().enumerate() {
                let sum = dt - 128 * wsums[j + t];
                orow[j + t] = sa * scales[j + t] * sum as f32;
            }
            j += JR;
        }
        while j < n {
            let sum = dot1(xu, &qd[j * k..(j + 1) * k]) - 128 * wsums[j];
            orow[j] = sa * scales[j] * sum as f32;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::rng::seeded;

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        let mut rng = seeded(0x0801);
        let t = Tensor::rand_uniform(&[7, 13], -3.0, 3.0, &mut rng);
        let q = QTensor::quantize_rows(&t);
        let back = q.dequantize();
        for i in 0..7 {
            let absmax = t.row(i).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = absmax / 127.0;
            for (a, b) in t.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() <= step * 0.5 + 1e-7, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn weights_quantize_transposed_with_per_output_scales() {
        // w[in=2, out=3]; column j becomes quantized row j.
        let w = Tensor::new(&[2, 3], vec![1.0, -2.0, 0.0, -0.5, 4.0, 0.0]);
        let q = quantize_weights(&w);
        assert_eq!(q.shape(), &[3, 2]);
        assert_eq!(q.scales()[0], 1.0 / 127.0);
        assert_eq!(q.scales()[1], 4.0 / 127.0);
        assert_eq!(q.scales()[2], 0.0, "all-zero column gets scale 0");
        assert_eq!(q.q_data()[0], 127); // w[0][0] = absmax of column 0
        assert!(q.q_data()[4] == 0 && q.q_data()[5] == 0);
    }

    #[test]
    fn qmatmul_tracks_f32_reference_within_quant_bound() {
        let mut rng = seeded(0x0802);
        for &(m, k, n) in &[(1usize, 3usize, 2usize), (4, 16, 8), (9, 33, 17)] {
            let x = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let w = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let qw = quantize_weights(&w);
            let got = qmatmul(&x, &qw);
            let want = reference::matmul(x.data(), w.data(), m, k, n);
            for i in 0..m {
                let xa = x.row(i).iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                for j in 0..n {
                    let wa: f32 = (0..k).fold(0.0f32, |a, kk| a.max(w.at2(kk, j).abs()));
                    let bound = k as f32 * xa * wa / 127.0 + 1e-6;
                    let (g, r) = (got.at2(i, j), want[i * n + j]);
                    assert!(
                        (g - r).abs() <= bound,
                        "({m},{k},{n})@({i},{j}): {g} vs {r} (bound {bound})"
                    );
                }
            }
        }
    }

    #[test]
    fn qmatmul_is_thread_and_batch_invariant() {
        let mut rng = seeded(0x0803);
        let x = Tensor::rand_uniform(&[40, 65], -2.0, 2.0, &mut rng);
        let w = Tensor::rand_uniform(&[65, 33], -1.0, 1.0, &mut rng);
        let qw = quantize_weights(&w);
        apots_par::set_threads(1);
        let one = qmatmul(&x, &qw);
        apots_par::set_threads(4);
        let four = qmatmul(&x, &qw);
        apots_par::reset_threads();
        assert_eq!(one.data(), four.data());
        // Batch invariance: row 7 alone gives the same answer as row 7
        // of the full batch (per-row activation scales).
        let single = Tensor::new(&[1, 65], x.row(7).to_vec());
        let alone = qmatmul(&single, &qw);
        assert_eq!(alone.data(), one.row(7));
    }

    #[test]
    fn zero_rows_stay_exactly_zero() {
        let x = Tensor::zeros(&[2, 8]);
        let w = Tensor::ones(&[8, 3]);
        let out = qmatmul(&x, &quantize_weights(&w));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }
}
