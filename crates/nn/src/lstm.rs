//! Long short-term memory layer with full backpropagation through time.
//!
//! Follows the classic formulation of Hochreiter & Schmidhuber (the paper's
//! reference \[45\]): gates `i, f, o` are sigmoids, the cell candidate `g` is
//! a tanh, `c_t = f⊙c_{t−1} + i⊙g`, `h_t = o⊙tanh(c_t)`. The forget-gate
//! bias is initialised to 1 (the standard trick to ease early training).
//!
//! Inputs are rank-3 `[batch, time, features]`; the layer either returns
//! the full hidden sequence `[batch, time, hidden]` (for stacking) or only
//! the final hidden state `[batch, hidden]`.

use apots_tensor::rng::Rng;
use apots_tensor::{InferenceMode, Tensor};

use crate::activation::sigmoid_scalar;
use crate::init::xavier_uniform;
use crate::layer::{Layer, Param};
use crate::weight::Weight;

/// Per-timestep forward cache used by BPTT. The input rows live once in
/// [`Lstm::x_seq`] (the whole `[B, T, I]` tensor), not per step.
struct StepCache {
    h_prev: Tensor, // [B, H]
    c_prev: Tensor, // [B, H]
    i: Tensor,      // [B, H]
    f: Tensor,      // [B, H]
    g: Tensor,      // [B, H]
    o: Tensor,      // [B, H]
    tanh_c: Tensor, // [B, H]
}

/// Minimum gate pre-activations (`4H` per batch row) each block of the
/// fused gate loop must own before the loop is split across the pool. A
/// hidden unit (four pre-activations) costs three `exp` and two `tanh`,
/// ~50 ns, so a 2048-element block (~25 µs) outweighs one dispatch;
/// smaller batches stay on the serial loop.
const GATE_GRAIN: usize = 2048;

/// One timestep's outputs of the fused gate loop for a block of batch
/// rows: the block's rows of each `[B, H]` step tensor and, in sequence
/// mode, of the `[B, T, H]` output.
struct StepOut<'a> {
    i: &'a mut [f32],
    f: &'a mut [f32],
    g: &'a mut [f32],
    o: &'a mut [f32],
    c: &'a mut [f32],
    tanh_c: &'a mut [f32],
    h: &'a mut [f32],
    seq: Option<&'a mut [f32]>,
}

impl<'a> StepOut<'a> {
    /// Splits off the first `rows` batch rows.
    fn split_rows(&mut self, rows: usize, hsz: usize, steps: usize) -> StepOut<'a> {
        fn front<'a>(s: &mut &'a mut [f32], n: usize) -> &'a mut [f32] {
            let (head, tail) = std::mem::take(s).split_at_mut(n);
            *s = tail;
            head
        }
        let n = rows * hsz;
        StepOut {
            i: front(&mut self.i, n),
            f: front(&mut self.f, n),
            g: front(&mut self.g, n),
            o: front(&mut self.o, n),
            c: front(&mut self.c, n),
            tanh_c: front(&mut self.tanh_c, n),
            h: front(&mut self.h, n),
            seq: self.seq.as_mut().map(|s| front(s, n * steps)),
        }
    }
}

/// Fused gate split + cell update over the batch rows of `out`: one pass
/// over their `[rows, 4H]` pre-activations `z` computes every gate and
/// the new cell / hidden state. Each output element depends only on its
/// own inputs via the exact expressions of the unfused version (`f·c +
/// i·g` is evaluated `(f·c) + (i·g)`, no FMA), so the results are
/// bit-identical however the rows are split (DESIGN.md §9/§10).
fn gate_rows(z: &[f32], c_prev: &[f32], mut out: StepOut<'_>, hsz: usize, steps: usize, t: usize) {
    for bi in 0..c_prev.len() / hsz {
        let zr = &z[bi * 4 * hsz..(bi + 1) * 4 * hsz];
        for j in 0..hsz {
            let e = bi * hsz + j;
            let iv = sigmoid_scalar(zr[j]);
            let fv = sigmoid_scalar(zr[hsz + j]);
            let gv = zr[2 * hsz + j].tanh();
            let ov = sigmoid_scalar(zr[3 * hsz + j]);
            let cn = fv * c_prev[e] + iv * gv;
            let tc = cn.tanh();
            let hn = ov * tc;
            out.i[e] = iv;
            out.f[e] = fv;
            out.g[e] = gv;
            out.o[e] = ov;
            out.c[e] = cn;
            out.tanh_c[e] = tc;
            out.h[e] = hn;
            if let Some(sd) = out.seq.as_deref_mut() {
                sd[(bi * steps + t) * hsz + j] = hn;
            }
        }
    }
}

/// Batch rows per block when the gate loop of a `[b, 4·hsz]` step is split
/// across `threads` runners: about two blocks per runner (as
/// `apots_par::rows_per_chunk`), each owning at least [`GATE_GRAIN`]
/// pre-activations. `None` means the serial loop.
fn gate_block_rows(b: usize, hsz: usize, threads: usize) -> Option<usize> {
    let rows = b.div_ceil(2 * threads).max(GATE_GRAIN.div_ceil(4 * hsz));
    (threads > 1 && rows < b).then_some(rows)
}

/// One timestep's gate loop over all `B` rows. With one thread, inside a
/// nested parallel region, or for a batch too small to split, it is the
/// serial loop (no allocation). Otherwise the rows are cut into blocks that
/// each own disjoint rows of every output, and the pool runs the blocks.
fn gate_step(z: &[f32], c_prev: &[f32], mut out: StepOut<'_>, hsz: usize, steps: usize, t: usize) {
    let b = c_prev.len() / hsz;
    let Some(rows) = gate_block_rows(b, hsz, apots_par::current_threads())
        .filter(|_| !apots_par::in_parallel_region())
    else {
        gate_rows(z, c_prev, out, hsz, steps, t);
        return;
    };
    let blocks: Vec<_> = (0..b)
        .step_by(rows)
        .map(|r0| (r0, out.split_rows(rows.min(b - r0), hsz, steps)))
        .collect();
    apots_par::parallel_items(blocks, |(r0, block)| {
        let r1 = r0 + block.h.len() / hsz;
        let (z, c_prev) = (&z[r0 * 4 * hsz..r1 * 4 * hsz], &c_prev[r0 * hsz..r1 * hsz]);
        gate_rows(z, c_prev, block, hsz, steps, t);
    });
}

/// An LSTM layer.
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    return_sequences: bool,
    wx: Weight, // [I, 4H], gate order i|f|g|o
    wh: Weight, // [H, 4H]
    b: Tensor,  // [4H]
    db: Tensor, // [4H]
    cache: Vec<StepCache>,
    /// The forward input `[B, T, I]`, cached whole for BPTT's per-step
    /// `xᵀ·dz` weight gradients (one clone instead of `T` row-block
    /// copies).
    x_seq: Option<Tensor>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialised weights.
    ///
    /// `return_sequences` selects whether `forward` yields the whole hidden
    /// sequence (needed when stacking LSTMs) or only the final hidden state.
    pub fn new<R: Rng>(
        input_size: usize,
        hidden_size: usize,
        return_sequences: bool,
        rng: &mut R,
    ) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "Lstm: zero-sized layer");
        let mut b = Tensor::zeros(&[4 * hidden_size]);
        // Forget-gate bias = 1.
        for v in &mut b.data_mut()[hidden_size..2 * hidden_size] {
            *v = 1.0;
        }
        Self {
            input_size,
            hidden_size,
            return_sequences,
            wx: Weight::new(xavier_uniform(
                &[input_size, 4 * hidden_size],
                input_size,
                hidden_size,
                rng,
            )),
            wh: Weight::new(xavier_uniform(
                &[hidden_size, 4 * hidden_size],
                hidden_size,
                hidden_size,
                rng,
            )),
            b,
            db: Tensor::zeros(&[4 * hidden_size]),
            cache: Vec::new(),
            x_seq: None,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Expected per-timestep input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Whether forward returns the full sequence of hidden states.
    pub fn returns_sequences(&self) -> bool {
        self.return_sequences
    }

    /// Checks a `[batch, time, features]` input and returns `(batch,
    /// time)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize) {
        assert_eq!(input.rank(), 3, "Lstm expects [batch, time, features]");
        let s = input.shape();
        let (b, steps, feat) = (s[0], s[1], s[2]);
        assert_eq!(
            feat, self.input_size,
            "Lstm: input has {feat} features, layer expects {}",
            self.input_size
        );
        assert!(steps > 0, "Lstm: empty time axis");
        (b, steps)
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (b, steps) = self.check_input(input);
        let hsz = self.hidden_size;
        self.cache.clear();

        let mut h = Tensor::zeros(&[b, hsz]);
        let mut c = Tensor::zeros(&[b, hsz]);
        // All timesteps' input projections in one dispatch: `[B·T, I] ·
        // [I, 4H]`, reshaped to `[B, T, 4H]` so the per-step gather is the
        // usual strided time slice. Each element's ascending-kk chain is
        // identical to the per-step `x_t·wx`, so bits are unchanged — but
        // the matmul is `T`× wider (better panel utilisation, one launch,
        // and large enough for the pool to engage).
        let mut xz = Tensor::zeros(&[b * steps, 4 * hsz]);
        input.matmul_flat_into(self.wx.value(), &mut xz);
        xz.reshape_in_place(&[b, steps, 4 * hsz]);
        // Preallocated per-step workspaces, reused across all timesteps:
        // the [B, 4H] gate pre-activation buffer and the h·wh scratch.
        let mut z = Tensor::zeros(&[b, 4 * hsz]);
        let mut zh = Tensor::zeros(&[b, 4 * hsz]);
        // In sequence mode, hidden states are written straight into the
        // row-major [B, T, H] output (no per-step h clones).
        let mut seq = self
            .return_sequences
            .then(|| Tensor::zeros(&[b, steps, hsz]));

        for t in 0..steps {
            xz.time_slice_into(t, &mut z);
            h.matmul_into(self.wh.value(), &mut zh);
            z.add_assign_t(&zh);
            z.add_row_broadcast(&self.b);

            let mut i_g = Tensor::zeros(&[b, hsz]);
            let mut f_g = Tensor::zeros(&[b, hsz]);
            let mut g_g = Tensor::zeros(&[b, hsz]);
            let mut o_g = Tensor::zeros(&[b, hsz]);
            let mut c_new = Tensor::zeros(&[b, hsz]);
            let mut tanh_c = Tensor::zeros(&[b, hsz]);
            let mut h_new = Tensor::zeros(&[b, hsz]);
            let out = StepOut {
                i: i_g.data_mut(),
                f: f_g.data_mut(),
                g: g_g.data_mut(),
                o: o_g.data_mut(),
                c: c_new.data_mut(),
                tanh_c: tanh_c.data_mut(),
                h: h_new.data_mut(),
                seq: seq.as_mut().map(|s| s.data_mut()),
            };
            gate_step(z.data(), c.data(), out, hsz, steps, t);

            self.cache.push(StepCache {
                h_prev: h,
                c_prev: c,
                i: i_g,
                f: f_g,
                g: g_g,
                o: o_g,
                tanh_c,
            });
            h = h_new;
            c = c_new;
        }
        self.x_seq = Some(input.clone());

        match seq {
            Some(out) => out,
            None => h,
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cache.is_empty(),
            "Lstm::backward called before a train-mode forward"
        );
        let steps = self.cache.len();
        let x_seq = self
            .x_seq
            .take()
            .expect("Lstm::backward called before a train-mode forward");
        let b = x_seq.shape()[0];
        let hsz = self.hidden_size;
        let isz = self.input_size;
        if self.return_sequences {
            assert_eq!(grad_out.shape(), &[b, steps, hsz], "Lstm grad shape");
        } else {
            assert_eq!(grad_out.shape(), &[b, hsz], "Lstm grad shape");
        }

        self.wx.grad.fill_zero();
        self.wh.grad.fill_zero();
        self.db.fill_zero();

        let mut dh_next = Tensor::zeros(&[b, hsz]);
        let mut dc_next = Tensor::zeros(&[b, hsz]);
        // Step-reused scratch: the upstream-gradient gather, the fused
        // [B, 4H] pre-activation gradient, per-step weight-gradient
        // accumulands and the input-gradient row block.
        let mut dh = Tensor::zeros(&[b, hsz]);
        let mut dz = Tensor::zeros(&[b, 4 * hsz]);
        let mut dwx_t = Tensor::zeros(&[isz, 4 * hsz]);
        let mut dwh_t = Tensor::zeros(&[hsz, 4 * hsz]);
        let mut db_t = Tensor::zeros(&[4 * hsz]);
        let mut dx_t = Tensor::zeros(&[b, isz]);
        let mut dx_all = Tensor::zeros(&[b, steps, isz]);
        // Per-step gather of the cached input rows out of the whole-sequence
        // tensor (reused scratch, same rows the unbatched version cached).
        let mut x_t = Tensor::zeros(&[b, isz]);

        for t in (0..steps).rev() {
            let sc = &self.cache[t];
            // Upstream gradient on h_t into the reused scratch row buffer
            // (one gather per step — no fresh Vec per (step × call)).
            if self.return_sequences {
                grad_out.time_slice_into(t, &mut dh);
            } else if t == steps - 1 {
                dh.data_mut().copy_from_slice(grad_out.data());
            } else {
                dh.fill_zero();
            }
            dh.add_assign_t(&dh_next);

            {
                // Fused gate-gradient kernel: one pass computes, per
                // element, the exact chains of the unfused version —
                //   dc   = dc_next + (dh·o)·(1 − tc²)
                //   dzi  = (dc·g)·i·(1 − i)      [as ((d·y)·(1−y))]
                //   dzf  = (dc·c_prev)·f·(1 − f)
                //   dzg  = (dc·i)·(1 − g²)
                //   dzo  = (dh·tc)·o·(1 − o)
                //   dc_next' = dc·f
                // writing dz straight into its [B, 4H] column layout
                // (identical to concat_cols([dzi, dzf, dzg, dzo])).
                let dhd = dh.data();
                let od = sc.o.data();
                let td = sc.tanh_c.data();
                let gd = sc.g.data();
                let idt = sc.i.data();
                let fd = sc.f.data();
                let cpd = sc.c_prev.data();
                let dcn = dc_next.data_mut();
                let dzd = dz.data_mut();
                for bi in 0..b {
                    let zr = &mut dzd[bi * 4 * hsz..(bi + 1) * 4 * hsz];
                    for j in 0..hsz {
                        let e = bi * hsz + j;
                        let tc = td[e];
                        let dcv = dcn[e] + (dhd[e] * od[e]) * (1.0 - tc * tc);
                        let dov = dhd[e] * tc;
                        let div = dcv * gd[e];
                        let dfv = dcv * cpd[e];
                        let dgv = dcv * idt[e];
                        dcn[e] = dcv * fd[e];
                        zr[j] = div * idt[e] * (1.0 - idt[e]);
                        zr[hsz + j] = dfv * fd[e] * (1.0 - fd[e]);
                        zr[2 * hsz + j] = dgv * (1.0 - gd[e] * gd[e]);
                        zr[3 * hsz + j] = dov * od[e] * (1.0 - od[e]);
                    }
                }
            }

            x_seq.time_slice_into(t, &mut x_t);
            x_t.matmul_at_b_into(&dz, &mut dwx_t);
            self.wx.grad.add_assign_t(&dwx_t);
            sc.h_prev.matmul_at_b_into(&dz, &mut dwh_t);
            self.wh.grad.add_assign_t(&dwh_t);
            dz.sum_axis0_into(&mut db_t);
            self.db.add_assign_t(&db_t);

            dz.matmul_a_bt_into(self.wx.value(), &mut dx_t); // [B, I]
            for bi in 0..b {
                let dst = (bi * steps + t) * isz;
                dx_all.data_mut()[dst..dst + isz].copy_from_slice(dx_t.row(bi));
            }
            dz.matmul_a_bt_into(self.wh.value(), &mut dh_next); // [B, H]
        }
        // Like `x_seq` above, the step caches serve exactly one backward.
        self.cache.clear();

        dx_all
    }

    /// The recurrence of `forward` without its BPTT caches, on `mode`'s
    /// lane: the same whole-sequence input projection, per-step
    /// recurrent product and [`gate_step`] (row split included), so
    /// `Exact` equals `forward` bit for bit. The gate activations BPTT
    /// would keep go to step-reused scratch, and `h` / `c` double-buffer.
    fn infer(&self, input: &Tensor, mode: InferenceMode) -> Tensor {
        let (b, steps) = self.check_input(input);
        let hsz = self.hidden_size;
        let mut xz = self.wx.matmul(input, mode);
        xz.reshape_in_place(&[b, steps, 4 * hsz]);
        let mut z = Tensor::zeros(&[b, 4 * hsz]);
        let [mut h, mut c, mut h_new, mut c_new, mut i_g, mut f_g, mut g_g, mut o_g, mut tanh_c] =
            std::array::from_fn(|_| Tensor::zeros(&[b, hsz]));
        let mut seq = self
            .return_sequences
            .then(|| Tensor::zeros(&[b, steps, hsz]));

        for t in 0..steps {
            xz.time_slice_into(t, &mut z);
            z.add_assign_t(&self.wh.matmul(&h, mode));
            z.add_row_broadcast(&self.b);
            let out = StepOut {
                i: i_g.data_mut(),
                f: f_g.data_mut(),
                g: g_g.data_mut(),
                o: o_g.data_mut(),
                c: c_new.data_mut(),
                tanh_c: tanh_c.data_mut(),
                h: h_new.data_mut(),
                seq: seq.as_mut().map(|s| s.data_mut()),
            };
            gate_step(z.data(), c.data(), out, hsz, steps, t);
            std::mem::swap(&mut h, &mut h_new);
            std::mem::swap(&mut c, &mut c_new);
        }
        seq.unwrap_or(h)
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        vec![
            self.wx.param(),
            self.wh.param(),
            Param {
                value: &mut self.b,
                grad: &mut self.db,
            },
        ]
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.wx.prepare(mode);
        self.wh.prepare(mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_tensor::rng::seeded;

    #[test]
    fn output_shapes() {
        let mut rng = seeded(1);
        let mut last = Lstm::new(3, 5, false, &mut rng);
        let x = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
        assert_eq!(last.forward(&x).shape(), &[2, 5]);

        let mut seq = Lstm::new(3, 5, true, &mut rng);
        assert_eq!(seq.forward(&x).shape(), &[2, 4, 5]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = seeded(2);
        let mut lstm = Lstm::new(3, 4, false, &mut rng);
        let x = Tensor::randn(&[2, 6, 3], 0.0, 1.0, &mut rng);
        let _ = lstm.forward(&x);
        let dx = lstm.backward(&Tensor::ones(&[2, 4]));
        assert_eq!(dx.shape(), &[2, 6, 3]);
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // h = o ⊙ tanh(c) so |h| < 1 elementwise.
        let mut rng = seeded(3);
        let mut lstm = Lstm::new(2, 8, true, &mut rng);
        let x = Tensor::randn(&[4, 10, 2], 0.0, 5.0, &mut rng);
        let y = lstm.forward(&x);
        assert!(y.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn sequence_mode_last_step_equals_last_mode() {
        let mut rng_a = seeded(4);
        let mut rng_b = seeded(4);
        let mut seq = Lstm::new(3, 4, true, &mut rng_a);
        let mut last = Lstm::new(3, 4, false, &mut rng_b);
        let x = Tensor::randn(&[2, 5, 3], 0.0, 1.0, &mut seeded(9));
        let ys = seq.forward(&x);
        let yl = last.forward(&x);
        for bi in 0..2 {
            for j in 0..4 {
                let from_seq = ys.data()[(bi * 5 + 4) * 4 + j];
                assert!((from_seq - yl.at2(bi, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = seeded(5);
        let lstm = Lstm::new(2, 3, false, &mut rng);
        assert_eq!(&lstm.b.data()[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(lstm.b.data()[0], 0.0);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = seeded(6);
        let mut lstm = Lstm::new(7, 11, false, &mut rng);
        let expected = 7 * 44 + 11 * 44 + 44;
        assert_eq!(lstm.param_count(), expected);
        assert_eq!(lstm.hidden_size(), 11);
        assert_eq!(lstm.input_size(), 7);
        assert!(!lstm.returns_sequences());
    }

    /// The gate loop splits only when every block gets `GATE_GRAIN`
    /// pre-activations: the trainer's Fast-H step (B=64, H=32) runs as four
    /// 16-row blocks on two threads, small batches stay serial, and the last
    /// block of a ragged split is short.
    #[test]
    fn gate_split_plan() {
        assert_eq!(gate_block_rows(64, 32, 1), None);
        assert_eq!(gate_block_rows(64, 32, 2), Some(16));
        assert_eq!(gate_block_rows(64, 32, 4), Some(16));
        assert_eq!(gate_block_rows(16, 32, 2), None);
        assert_eq!(gate_block_rows(1, 256, 4), None);
        assert_eq!(gate_block_rows(7, 256, 2), Some(2));
        assert_eq!(gate_block_rows(7, 256, 4), Some(2));
    }

    /// The BPTT caches (`x_seq` plus seven tensors per step) exist only
    /// between a training forward and its backward; `infer` builds none.
    #[test]
    fn bptt_cache_released_after_backward_and_absent_in_eval() {
        let mut rng = seeded(11);
        let mut lstm = Lstm::new(3, 4, true, &mut rng);
        let x = Tensor::randn(&[2, 5, 3], 0.0, 1.0, &mut rng);
        let holds_cache = |l: &Lstm| !l.cache.is_empty() || l.x_seq.is_some();

        // Training forward caches; backward takes the cache with it.
        let _ = lstm.forward(&x);
        assert!(holds_cache(&lstm), "train forward should cache");
        let _ = lstm.backward(&Tensor::ones(&[2, 5, 4]));
        assert!(!holds_cache(&lstm), "backward must release the BPTT caches");
        let _ = lstm.infer(&x, InferenceMode::Exact);
        assert!(!holds_cache(&lstm), "infer must not cache");
    }

    /// The training forward and the `Exact` inference lane compute
    /// identical outputs (caching is the only difference), with and
    /// without a row split of the gate loop.
    #[test]
    fn eval_forward_matches_train_forward() {
        for (seq_mode, b) in [(false, 3), (true, 3), (false, 96), (true, 96)] {
            let mut rng = seeded(12);
            let mut lstm = Lstm::new(4, 24, seq_mode, &mut rng);
            let x = Tensor::randn(&[b, 7, 4], 0.0, 1.0, &mut rng);
            let y_train = lstm.forward(&x);
            for threads in [1, 2] {
                apots_par::set_threads(threads);
                assert_eq!(
                    y_train,
                    lstm.infer(&x, InferenceMode::Exact),
                    "b{b} t{threads}"
                );
            }
            apots_par::reset_threads();
        }
    }

    #[test]
    #[should_panic(expected = "before a train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = seeded(13);
        let mut lstm = Lstm::new(2, 3, false, &mut rng);
        let _ = lstm.infer(&Tensor::zeros(&[1, 4, 2]), InferenceMode::Exact);
        let _ = lstm.backward(&Tensor::ones(&[1, 3]));
    }

    #[test]
    fn infer_lanes_track_exact() {
        for &seq_mode in &[false, true] {
            let mut rng = seeded(7);
            let mut lstm = Lstm::new(5, 9, seq_mode, &mut rng);
            let x = Tensor::randn(&[3, 6, 5], 0.0, 1.0, &mut rng);
            let exact = lstm.infer(&x, InferenceMode::Exact);
            assert_eq!(exact, lstm.forward(&x), "Exact lane must be bitwise");
            lstm.prepare(InferenceMode::Int8);
            let q = lstm.infer(&x, InferenceMode::Int8);
            assert_eq!(q.shape(), exact.shape());
            // Recurrent quantization error compounds over timesteps, but
            // the saturating gates keep it small on tame inputs.
            for (a, b) in exact.data().iter().zip(q.data()) {
                assert!((a - b).abs() < 0.15, "int8: {a} vs {b}");
            }
        }
    }
}
