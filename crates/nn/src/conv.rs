//! 2-D convolution with "same" padding, stride 1, implemented via im2col so
//! the heavy lifting reduces to one matrix product per pass.
//!
//! The APOTS predictors C and H run small conv towers (3×3, 1×1, 3×3 — see
//! Table I of the paper) over the road×time speed image of Eq 6, so "same"
//! padding with odd kernels and stride 1 is all we need.

use apots_tensor::rng::Rng;
use apots_tensor::{workspace, InferenceMode, Tensor};

use crate::init::he_uniform;
use crate::layer::{Layer, Param};
use crate::weight::Weight;

/// A same-padding, stride-1 2-D convolution over `[batch, in_ch, h, w]`
/// inputs producing `[batch, out_ch, h, w]` outputs.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    w: Weight,  // [in_ch*kh*kw, out_ch]
    b: Tensor,  // [out_ch]
    db: Tensor, // [out_ch]
    cached_cols: Option<Tensor>,
    cached_input_shape: Option<[usize; 4]>,
}

impl Conv2d {
    /// Creates a conv layer with He-uniform weights and zero biases.
    ///
    /// # Panics
    /// Panics if a kernel dimension is even (exact "same" padding needs odd
    /// kernels) or any size is zero.
    pub fn new<R: Rng>(in_ch: usize, out_ch: usize, kh: usize, kw: usize, rng: &mut R) -> Self {
        assert!(in_ch > 0 && out_ch > 0, "Conv2d: zero channels");
        assert!(
            kh % 2 == 1 && kw % 2 == 1,
            "Conv2d: kernel dims must be odd for same padding, got {kh}x{kw}"
        );
        let fan_in = in_ch * kh * kw;
        Self {
            in_ch,
            out_ch,
            kh,
            kw,
            w: Weight::new(he_uniform(&[fan_in, out_ch], fan_in, rng)),
            b: Tensor::zeros(&[out_ch]),
            db: Tensor::zeros(&[out_ch]),
            cached_cols: None,
            cached_input_shape: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Lowers `[b, c, h, w]` input into the `[b*h*w, c*kh*kw]` patch matrix.
    ///
    /// Parallelised over patch rows: each `(bi, y, xw)` row of the output
    /// is written by exactly one task, so the result is bit-identical to
    /// the serial loop for any thread count.
    fn im2col(&self, input: &Tensor) -> Tensor {
        let s = input.shape();
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let (kh, kw) = (self.kh, self.kw);
        let patch = c * kh * kw;
        let n_rows = b * h * w;
        let mut cols = workspace::checkout(n_rows * patch);
        let x = input.data();
        let chunk_rows = apots_par::rows_per_chunk(n_rows, 64);
        apots_par::parallel_chunks_mut(&mut cols, chunk_rows * patch, |ci_chunk, chunk| {
            let row0 = ci_chunk * chunk_rows;
            for (local, out_row) in chunk.chunks_exact_mut(patch).enumerate() {
                let r = row0 + local;
                let bi = r / (h * w);
                let rem = r % (h * w);
                let (y, xw) = (rem / w, rem % w);
                let mut p = 0;
                for ci in 0..c {
                    let chan_base = (bi * c + ci) * h * w;
                    for ky in 0..kh {
                        let sy = y as isize + ky as isize - ph as isize;
                        if sy < 0 || sy >= h as isize {
                            p += kw;
                            continue;
                        }
                        let src_row = chan_base + sy as usize * w;
                        for kx in 0..kw {
                            let sx = xw as isize + kx as isize - pw as isize;
                            if sx >= 0 && sx < w as isize {
                                out_row[p] = x[src_row + sx as usize];
                            }
                            p += 1;
                        }
                    }
                }
            }
        });
        Tensor::new(&[n_rows, patch], cols)
    }

    /// Scatters patch-matrix gradients back into input-image gradients.
    ///
    /// Parallelised per `(bi, ci)` image plane: every target element
    /// `dx[bi][ci][sy][sx]` receives its contributions in the same
    /// lexicographic `(y, xw, ky, kx)` order as the serial triple loop
    /// (for a fixed target, the channel loop position is irrelevant), so
    /// the accumulated f32 values are bit-identical for any thread count.
    fn col2im(&self, dcols: &Tensor, input_shape: &[usize]) -> Tensor {
        let (b, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let (kh, kw) = (self.kh, self.kw);
        let patch = c * kh * kw;
        let plane = h * w;
        let mut dx = workspace::checkout(b * c * plane);
        let dc = dcols.data();
        let planes_per_chunk = apots_par::rows_per_chunk(b * c, 1);
        apots_par::parallel_chunks_mut(&mut dx, planes_per_chunk * plane, |chunk_i, chunk| {
            let plane0 = chunk_i * planes_per_chunk;
            for (local, dplane) in chunk.chunks_exact_mut(plane).enumerate() {
                let (bi, ci) = ((plane0 + local) / c, (plane0 + local) % c);
                for y in 0..h {
                    for xw in 0..w {
                        let p0 = ((bi * h + y) * w + xw) * patch + ci * kh * kw;
                        for ky in 0..kh {
                            let sy = y as isize + ky as isize - ph as isize;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            let dst_row = sy as usize * w;
                            let src = p0 + ky * kw;
                            for kx in 0..kw {
                                let sx = xw as isize + kx as isize - pw as isize;
                                if sx >= 0 && sx < w as isize {
                                    dplane[dst_row + sx as usize] += dc[src + kx];
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::new(input_shape, dx)
    }

    /// Checks a `[batch, in_ch, h, w]` input and returns its shape.
    fn check_input(&self, input: &Tensor) -> [usize; 4] {
        assert_eq!(input.rank(), 4, "Conv2d expects [batch, ch, h, w] input");
        let s = input.shape();
        assert_eq!(
            s[1], self.in_ch,
            "Conv2d: input has {} channels, layer expects {}",
            s[1], self.in_ch
        );
        [s[0], s[1], s[2], s[3]]
    }

    /// Adds the bias to the patch product `m: [b*h*w, out_ch]` and
    /// rearranges it to `[b, out_ch, h, w]`; each task owns one batch
    /// image (a contiguous out_ch*h*w slab of the output).
    fn to_image(&self, mut m: Tensor, [b, _, h, w]: [usize; 4]) -> Tensor {
        m.add_row_broadcast(&self.b);
        let f_ch = self.out_ch;
        let mut out = workspace::checkout(b * f_ch * h * w);
        let md = m.data();
        apots_par::parallel_chunks_mut(&mut out, f_ch * h * w, |bi, slab| {
            for y in 0..h {
                for xw in 0..w {
                    let row = ((bi * h + y) * w + xw) * f_ch;
                    for f in 0..f_ch {
                        slab[(f * h + y) * w + xw] = md[row + f];
                    }
                }
            }
        });
        Tensor::new(&[b, f_ch, h, w], out)
    }

    /// True when an im2col patch matrix is currently held (used by tests
    /// to assert the cache is released after `backward` — it is the
    /// layer's largest allocation).
    pub fn holds_cached_cols(&self) -> bool {
        self.cached_cols.is_some()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let s = self.check_input(input);
        let cols = self.im2col(input);
        let out = self.to_image(cols.matmul(self.w.value()), s);
        // The im2col patch matrix is the layer's largest allocation
        // ([b*h*w, in_ch*kh*kw]); it is kept only for the next backward.
        self.cached_cols = Some(cols);
        self.cached_input_shape = Some(s);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // `take()` releases the patch matrix once this pass is done with
        // it instead of pinning it until the next forward.
        let cols = self
            .cached_cols
            .take()
            .expect("Conv2d::backward called before a train-mode forward");
        let in_shape = self
            .cached_input_shape
            .take()
            .expect("Conv2d::backward called before a train-mode forward");
        let (b, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
        assert_eq!(
            grad_out.shape(),
            &[b, self.out_ch, h, w],
            "Conv2d grad shape mismatch"
        );
        // Rearrange grad [b, f, h, w] -> [b*h*w, f]; each task owns the
        // h*w*out_ch slab of rows belonging to one batch image.
        let f_ch = self.out_ch;
        let mut dm = workspace::checkout(b * h * w * f_ch);
        let gd = grad_out.data();
        apots_par::parallel_chunks_mut(&mut dm, h * w * f_ch, |bi, slab| {
            for f in 0..f_ch {
                for y in 0..h {
                    for xw in 0..w {
                        slab[(y * w + xw) * f_ch + f] = gd[((bi * f_ch + f) * h + y) * w + xw];
                    }
                }
            }
        });
        let dm = Tensor::new(&[b * h * w, f_ch], dm);
        // `_into` accumulation into the persistent grad tensors: no
        // gradient allocation in steady state (bit-identical to the
        // allocating kernels; DESIGN.md §10).
        cols.matmul_at_b_into(&dm, &mut self.w.grad);
        dm.sum_axis0_into(&mut self.db);
        let dcols = dm.matmul_a_bt(self.w.value());
        self.col2im(&dcols, &in_shape)
    }

    fn infer(&self, input: &Tensor, mode: InferenceMode) -> Tensor {
        let s = self.check_input(input);
        self.to_image(self.w.matmul(&self.im2col(input), mode), s)
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        vec![
            self.w.param(),
            Param {
                value: &mut self.b,
                grad: &mut self.db,
            },
        ]
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.w.prepare(mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_tensor::rng::seeded;

    #[test]
    fn identity_1x1_kernel() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(1, 1, 1, 1, &mut rng);
        conv.w.value_mut().data_mut()[0] = 1.0;
        let x = Tensor::new(&[1, 1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn averaging_3x3_kernel_on_constant_image() {
        let mut rng = seeded(2);
        let mut conv = Conv2d::new(1, 1, 3, 3, &mut rng);
        for v in conv.w.value_mut().data_mut() {
            *v = 1.0;
        }
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x);
        // Centre sees 9 ones, edges 6, corners 4 (zero padding).
        assert_eq!(y.data()[4], 9.0);
        assert_eq!(y.data()[1], 6.0);
        assert_eq!(y.data()[0], 4.0);
    }

    #[test]
    fn preserves_spatial_shape_multi_channel() {
        let mut rng = seeded(3);
        let mut conv = Conv2d::new(3, 8, 3, 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 5, 12], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 8, 5, 12]);
        let dx = conv.backward(&Tensor::ones(&[2, 8, 5, 12]));
        assert_eq!(dx.shape(), &[2, 3, 5, 12]);
    }

    #[test]
    fn bias_is_added_per_filter() {
        let mut rng = seeded(4);
        let mut conv = Conv2d::new(1, 2, 1, 1, &mut rng);
        conv.w.value_mut().fill_zero();
        conv.b.data_mut().copy_from_slice(&[1.5, -2.5]);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y = conv.forward(&x);
        assert!(y.data()[..4].iter().all(|&v| v == 1.5));
        assert!(y.data()[4..].iter().all(|&v| v == -2.5));
    }

    /// Regression: the im2col patch matrix must not be retained after
    /// `backward` consumes it, and `infer` never builds one (it is the
    /// layer's largest allocation).
    #[test]
    fn patch_cache_released_after_backward_and_absent_in_eval() {
        let mut rng = seeded(11);
        let mut conv = Conv2d::new(2, 4, 3, 3, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 5], 0.0, 1.0, &mut rng);

        // Training forward caches; backward takes the cache with it.
        let _ = conv.forward(&x);
        assert!(conv.holds_cached_cols(), "train forward should cache cols");
        let _ = conv.backward(&Tensor::ones(&[2, 4, 4, 5]));
        assert!(
            !conv.holds_cached_cols(),
            "backward must release the im2col cache"
        );
        let _ = conv.infer(&x, InferenceMode::Exact);
        assert!(!conv.holds_cached_cols(), "infer must not cache");
    }

    /// The training forward and the `Exact` inference lane compute
    /// identical outputs (caching is the only difference), and the
    /// `Int8` lane stays close to them.
    #[test]
    fn eval_forward_matches_train_forward() {
        let mut rng = seeded(12);
        let mut conv = Conv2d::new(3, 2, 3, 3, &mut rng);
        let x = Tensor::randn(&[1, 3, 6, 4], 0.0, 1.0, &mut rng);
        let y_train = conv.forward(&x);
        assert_eq!(y_train, conv.infer(&x, InferenceMode::Exact));
        let q = conv.infer(&x, InferenceMode::Int8);
        for (a, b) in y_train.data().iter().zip(q.data()) {
            assert!((a - b).abs() < 0.1, "int8: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "before a train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = seeded(13);
        let mut conv = Conv2d::new(1, 1, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = conv.infer(&x, InferenceMode::Exact);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn rejects_even_kernel() {
        let mut rng = seeded(5);
        let _ = Conv2d::new(1, 1, 2, 2, &mut rng);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = seeded(6);
        let mut conv = Conv2d::new(4, 16, 3, 3, &mut rng);
        assert_eq!(conv.param_count(), 4 * 16 * 9 + 16);
        assert_eq!(conv.in_channels(), 4);
        assert_eq!(conv.out_channels(), 16);
    }
}
