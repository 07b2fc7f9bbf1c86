//! Register-blocked matmul row kernels.
//!
//! Two kernels remain, and both compute a contiguous *row block* of the
//! output so the public entry points in `tensor.rs` can partition work
//! across the `apots-par` pool by output rows:
//!
//! * [`matmul_block`] — `a · b` for a row slice of `a`. It also serves
//!   `a · bᵀ`: `Tensor::matmul_a_bt` transposes `b` into an arena buffer
//!   first, which turns each dot product `a[i]·b[j]` into the same
//!   ascending-`kk` chain over a row of `bᵀ` that this kernel vectorizes
//!   across output columns.
//! * [`matmul_at_b_block`] — `aᵀ · b`, reading `a` down its columns.
//!
//! The blocking (4-row panels × 16/8/4-wide column tiles) exists purely
//! for instruction-level parallelism and load amortisation — **every
//! output element still accumulates its products in ascending `kk` order
//! as one sequential f32 chain**, exactly like the loops in
//! [`crate::reference`]. Rust never contracts `a*b + c` into an FMA or
//! re-associates float adds on its own, so the results are bit-identical
//! to the reference for all inputs, on any thread count.
//!
//! Do not "optimise" these kernels with multiple partial accumulators per
//! element or `kk`-range splitting: that changes rounding and breaks the
//! determinism contract (DESIGN.md §9) that the serial/parallel equality
//! property suite enforces.

/// Rows-per-panel of the register block.
const MR: usize = 4;
/// Columns per C-resident register tile (two 8-lane vectors on AVX2).
const NT: usize = 16;

/// The shared inner loop of `matmul`/`matmul_at_b`: computes a 4-row ×
/// `W`-column *C-resident* tile of the output (`W ∈ {16, 8, 4}`: the full
/// two-vector AVX2 tile plus narrower fallbacks so small column counts —
/// conv filter banks are 6–12 wide — still vectorize instead of falling
/// through to the scalar tail). The `4·W` accumulators live in registers
/// across the entire `kk` loop, so output traffic is a single store per
/// element; `get_a(kk)` fetches the four LHS scalars for this row panel
/// (contiguous for `matmul`, stride-`m` for `matmul_at_b`).
///
/// Each accumulator advances in ascending `kk` — the bit contract. The
/// tile width only changes *which* elements share a pass, never the
/// per-element chain, so narrowing is bit-neutral.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile4xw<const W: usize, Fa: Fn(usize) -> [f32; 4]>(
    b: &[f32],
    k: usize,
    n: usize,
    j: usize,
    get_a: &Fa,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    for kk in 0..k {
        let bb = &b[kk * n + j..][..W];
        let [a0, a1, a2, a3] = get_a(kk);
        for t in 0..W {
            let v = bb[t];
            acc0[t] += a0 * v;
            acc1[t] += a1 * v;
            acc2[t] += a2 * v;
            acc3[t] += a3 * v;
        }
    }
    o0[j..j + W].copy_from_slice(&acc0);
    o1[j..j + W].copy_from_slice(&acc1);
    o2[j..j + W].copy_from_slice(&acc2);
    o3[j..j + W].copy_from_slice(&acc3);
}

/// Column sweep of a 4-row panel: full `NT`-wide tiles, then 8- and
/// 4-wide narrowing steps, then the scalar tail. Shared by `matmul` and
/// `matmul_at_b` (they differ only in `get_a`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep4<Fa: Fn(usize) -> [f32; 4]>(
    b: &[f32],
    k: usize,
    n: usize,
    get_a: &Fa,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let mut j = 0;
    while j + NT <= n {
        tile4xw::<NT, _>(b, k, n, j, get_a, o0, o1, o2, o3);
        j += NT;
    }
    if j + 8 <= n {
        tile4xw::<8, _>(b, k, n, j, get_a, o0, o1, o2, o3);
        j += 8;
    }
    if j + 4 <= n {
        tile4xw::<4, _>(b, k, n, j, get_a, o0, o1, o2, o3);
        j += 4;
    }
    while j < n {
        tail4x1(b, k, n, j, get_a, o0, o1, o2, o3);
        j += 1;
    }
}

/// Column remainder of a 4-row panel: one scalar chain per row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tail4x1<Fa: Fn(usize) -> [f32; 4]>(
    b: &[f32],
    k: usize,
    n: usize,
    j: usize,
    get_a: &Fa,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let (mut c0, mut c1, mut c2, mut c3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for kk in 0..k {
        let v = b[kk * n + j];
        let [a0, a1, a2, a3] = get_a(kk);
        c0 += a0 * v;
        c1 += a1 * v;
        c2 += a2 * v;
        c3 += a3 * v;
    }
    o0[j] = c0;
    o1[j] = c1;
    o2[j] = c2;
    o3[j] = c3;
}

/// Single-row remainder: ascending-kk accumulation into the (zeroed) row.
#[inline(always)]
fn row1<Fa: Fn(usize) -> f32>(b: &[f32], k: usize, n: usize, get_a: &Fa, o_row: &mut [f32]) {
    for kk in 0..k {
        let av = get_a(kk);
        let bb = &b[kk * n..][..n];
        for j in 0..n {
            o_row[j] += av * bb[j];
        }
    }
}

/// Splits a 4-row output panel into its row slices.
#[inline(always)]
fn split4(panel: &mut [f32], n: usize) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
    let (o0, rest) = panel.split_at_mut(n);
    let (o1, rest) = rest.split_at_mut(n);
    let (o2, o3) = rest.split_at_mut(n);
    (o0, o1, o2, o3)
}

/// Computes `out_rows = a_rows · b` where `a_rows: [rows, k]` is the slice
/// of the LHS for this row block, `b: [k, n]` is the full RHS and
/// `out_rows: [rows, n]` is this block's slice of the output (zeroed by
/// the caller).
pub(crate) fn matmul_block(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out_rows.len() / n;
    debug_assert_eq!(out_rows.len(), rows * n);
    debug_assert_eq!(a_rows.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);

    let mut i = 0;
    while i + MR <= rows {
        let (o0, o1, o2, o3) = split4(&mut out_rows[i * n..(i + MR) * n], n);
        let a0 = &a_rows[i * k..][..k];
        let a1 = &a_rows[(i + 1) * k..][..k];
        let a2 = &a_rows[(i + 2) * k..][..k];
        let a3 = &a_rows[(i + 3) * k..][..k];
        let get_a = |kk: usize| [a0[kk], a1[kk], a2[kk], a3[kk]];

        sweep4(b, k, n, &get_a, o0, o1, o2, o3);
        i += MR;
    }
    // Remainder rows: one row at a time, same ascending-kk chain.
    while i < rows {
        let a_row = &a_rows[i * k..][..k];
        row1(b, k, n, &|kk| a_row[kk], &mut out_rows[i * n..][..n]);
        i += 1;
    }
}

/// Computes rows `[i0, i0 + rows)` of `out = aᵀ · b` for `a: [k, m]`,
/// `b: [k, n]`. `out_rows` is this block's `[rows, n]` output slice
/// (zeroed by the caller); row `i` of the block is output row `i0 + i`,
/// i.e. column `i0 + i` of `a`.
pub(crate) fn matmul_at_b_block(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let rows = out_rows.len() / n;
    debug_assert_eq!(out_rows.len(), rows * n);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);

    let mut i = 0;
    while i + MR <= rows {
        let gi = i0 + i;
        let (o0, o1, o2, o3) = split4(&mut out_rows[i * n..(i + MR) * n], n);
        // LHS is accessed down a column: a[kk][gi + r] at stride m.
        let get_a = |kk: usize| {
            let base = kk * m + gi;
            [a[base], a[base + 1], a[base + 2], a[base + 3]]
        };

        sweep4(b, k, n, &get_a, o0, o1, o2, o3);
        i += MR;
    }
    while i < rows {
        let gi = i0 + i;
        row1(b, k, n, &|kk| a[kk * m + gi], &mut out_rows[i * n..][..n]);
        i += 1;
    }
}
