//! The four predictors of the paper (§III-A "any existing deep-learning
//! based traffic speed prediction model" + §IV-B refinements).
//!
//! All predictors output one normalized speed `ŝ_{t+β}` per sample
//! (`[batch, 1]`). Their backward passes accept ∂loss/∂output and
//! accumulate parameter gradients; input gradients are discarded (inputs
//! are data, not parameters).

use apots_nn::layer::{Layer, Param};
use apots_nn::{Conv2d, Dense, InferenceMode, Lstm, Relu, Sequential};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;
use apots_traffic::{SampleFeatures, TrafficDataset};

use crate::config::{HyperPreset, PredictorKind};
use crate::encode::{PredictorInput, IMAGE_CHANNELS, SCALAR_CHANNELS};

/// A trainable speed predictor `P`.
///
/// Training goes through [`Predictor::forward_train`] and
/// [`Predictor::backward`] on an exclusively owned model. Inference goes
/// through [`Predictor::forward_infer`], which takes `&self` and keeps
/// nothing, so one prepared model can be shared (`Arc<dyn Predictor>`)
/// and queried from many threads at once.
pub trait Predictor: Send + Sync {
    /// Which architecture this is.
    fn kind(&self) -> PredictorKind;

    /// Predicts `[batch, 1]` normalized speeds: the training forward when
    /// `train` is set, else the `Exact` inference lane.
    fn forward(&mut self, input: &PredictorInput, train: bool) -> Tensor {
        if train {
            self.forward_train(input)
        } else {
            self.forward_infer(input, InferenceMode::Exact)
        }
    }

    /// Training forward: predicts `[batch, 1]` normalized speeds and keeps
    /// what [`Predictor::backward`] needs.
    fn forward_train(&mut self, input: &PredictorInput) -> Tensor;

    /// Backpropagates ∂loss/∂output (`[batch, 1]`), storing parameter
    /// gradients.
    fn backward(&mut self, grad: &Tensor);

    /// All trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<Param<'_>>;

    /// Number of scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Pre-builds whatever `mode` needs (the int8 weight copies) before
    /// the model is shared. Training never calls this — see
    /// [`Layer::prepare`].
    fn prepare(&mut self, mode: InferenceMode);

    /// Predicts `[batch, 1]` normalized speeds on `mode`'s lane through
    /// each layer's [`Layer::infer`]. `Exact` is bit-identical to the
    /// training forward; `Int8` is tolerance-gated (DESIGN.md §15).
    fn forward_infer(&self, input: &PredictorInput, mode: InferenceMode) -> Tensor;
}

/// Builds a predictor of the given kind, sized for `data`'s dimensions.
pub fn build_predictor(
    kind: PredictorKind,
    preset: HyperPreset,
    data: &TrafficDataset,
    seed: u64,
) -> Box<dyn Predictor> {
    let n_roads = data.corridor().n_roads();
    let alpha = data.config().alpha;
    let hyper = preset.resolve();
    let mut rng = seeded(seed);
    match kind {
        PredictorKind::Fc => Box::new(FcPredictor::new(
            SampleFeatures::flat_width(n_roads, alpha),
            &hyper.fc_hidden,
            &mut rng,
        )),
        PredictorKind::Cnn => Box::new(CnnPredictor::new(
            n_roads,
            alpha,
            hyper.conv_filters,
            hyper.conv_head,
            &mut rng,
        )),
        PredictorKind::Lstm => Box::new(LstmPredictor::new(
            2 * n_roads + SCALAR_CHANNELS,
            hyper.lstm_hidden,
            &mut rng,
        )),
        PredictorKind::Hybrid => Box::new(HybridPredictor::new(
            n_roads,
            alpha,
            hyper.conv_filters,
            hyper.lstm_hidden,
            &mut rng,
        )),
    }
}

// ---------------------------------------------------------------------------
// F: fully connected
// ---------------------------------------------------------------------------

/// The FC predictor (`F`): dense layers over the flat feature vector.
pub struct FcPredictor {
    net: Sequential,
}

impl FcPredictor {
    /// Builds the Table I stack: `hidden` dense+ReLU layers then a linear
    /// output.
    pub fn new<R: apots_tensor::rng::Rng>(
        input_width: usize,
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(!hidden.is_empty(), "FcPredictor: need hidden layers");
        let mut net = Sequential::new();
        let mut prev = input_width;
        for &width in hidden {
            net.add(Box::new(Dense::new(prev, width, rng)));
            net.add(Box::new(Relu::new()));
            prev = width;
        }
        net.add(Box::new(Dense::new(prev, 1, rng)));
        Self { net }
    }

    fn flat(input: &PredictorInput) -> &Tensor {
        match input {
            PredictorInput::Flat(x) => x,
            _ => panic!("FcPredictor expects flat input"),
        }
    }
}

impl Predictor for FcPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Fc
    }

    fn forward_train(&mut self, input: &PredictorInput) -> Tensor {
        self.net.forward(Self::flat(input))
    }

    fn backward(&mut self, grad: &Tensor) {
        let _ = self.net.backward(grad);
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.net.params_mut()
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.net.prepare(mode);
    }

    fn forward_infer(&self, input: &PredictorInput, mode: InferenceMode) -> Tensor {
        self.net.infer(Self::flat(input), mode)
    }
}

/// The speed image and day-type flags of an image input; any other input
/// is a bug in `who`'s caller.
fn image_input<'a>(input: &'a PredictorInput, who: &str) -> (&'a Tensor, &'a Tensor) {
    match input {
        PredictorInput::Image { image, day_type } => (image, day_type),
        _ => panic!("{who} expects image input"),
    }
}

// ---------------------------------------------------------------------------
// C: convolutional
// ---------------------------------------------------------------------------

/// The CNN predictor (`C`): a 3-layer conv tower (3×3, 1×1, 3×3 — Table I)
/// over the 6-channel road×time image, then a dense head that also sees the
/// day-type flags.
pub struct CnnPredictor {
    conv: Sequential,
    head: Sequential,
    conv_out_shape: [usize; 3], // [filters, roads, alpha]
}

impl CnnPredictor {
    /// Builds the conv tower and head.
    pub fn new<R: apots_tensor::rng::Rng>(
        n_roads: usize,
        alpha: usize,
        filters: [usize; 3],
        head_width: usize,
        rng: &mut R,
    ) -> Self {
        let channels = IMAGE_CHANNELS;
        let mut conv = Sequential::new();
        conv.add(Box::new(Conv2d::new(channels, filters[0], 3, 3, rng)));
        conv.add(Box::new(Relu::new()));
        conv.add(Box::new(Conv2d::new(filters[0], filters[1], 1, 1, rng)));
        conv.add(Box::new(Relu::new()));
        conv.add(Box::new(Conv2d::new(filters[1], filters[2], 3, 3, rng)));
        conv.add(Box::new(Relu::new()));
        let flat = filters[2] * n_roads * alpha;
        let mut head = Sequential::new();
        head.add(Box::new(Dense::new(flat + 4, head_width, rng)));
        head.add(Box::new(Relu::new()));
        head.add(Box::new(Dense::new(head_width, 1, rng)));
        Self {
            conv,
            head,
            conv_out_shape: [filters[2], n_roads, alpha],
        }
    }

    /// The flattened feature maps next to the day-type flags.
    fn head_input(fmap: &Tensor, day_type: &Tensor) -> Tensor {
        let b = fmap.shape()[0];
        let flat = fmap.reshape(&[b, fmap.len() / b]);
        Tensor::concat_cols(&[&flat, day_type])
    }
}

impl Predictor for CnnPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Cnn
    }

    fn forward_train(&mut self, input: &PredictorInput) -> Tensor {
        let (image, day_type) = image_input(input, "CnnPredictor");
        let x = Self::head_input(&self.conv.forward(image), day_type);
        self.head.forward(&x)
    }

    fn backward(&mut self, grad: &Tensor) {
        let dx = self.head.backward(grad);
        let b = dx.shape()[0];
        let [f, r, a] = self.conv_out_shape;
        let dflat = dx.slice_cols(0, f * r * a);
        let dmap = dflat.reshape(&[b, f, r, a]);
        let _ = self.conv.backward(&dmap);
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut p = self.conv.params_mut();
        p.extend(self.head.params_mut());
        p
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.conv.prepare(mode);
        self.head.prepare(mode);
    }

    fn forward_infer(&self, input: &PredictorInput, mode: InferenceMode) -> Tensor {
        let (image, day_type) = image_input(input, "CnnPredictor");
        let x = Self::head_input(&self.conv.infer(image, mode), day_type);
        self.head.infer(&x, mode)
    }
}

// ---------------------------------------------------------------------------
// L: LSTM
// ---------------------------------------------------------------------------

/// The LSTM predictor (`L`): two stacked LSTMs over the per-time-step
/// feature sequence, then a linear readout that also sees day-type flags.
pub struct LstmPredictor {
    lstm: Sequential,
    head: Dense,
    hidden: usize,
}

impl LstmPredictor {
    /// Builds the Table I stack of two LSTM layers plus readout.
    pub fn new<R: apots_tensor::rng::Rng>(
        input_width: usize,
        hidden: [usize; 2],
        rng: &mut R,
    ) -> Self {
        let mut lstm = Sequential::new();
        lstm.add(Box::new(Lstm::new(input_width, hidden[0], true, rng)));
        lstm.add(Box::new(Lstm::new(hidden[0], hidden[1], false, rng)));
        Self {
            lstm,
            head: Dense::new(hidden[1] + 4, 1, rng),
            hidden: hidden[1],
        }
    }

    fn seq(input: &PredictorInput) -> (&Tensor, &Tensor) {
        match input {
            PredictorInput::Seq { seq, day_type } => (seq, day_type),
            _ => panic!("LstmPredictor expects sequence input"),
        }
    }
}

impl Predictor for LstmPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Lstm
    }

    fn forward_train(&mut self, input: &PredictorInput) -> Tensor {
        let (seq, day_type) = Self::seq(input);
        let x = Tensor::concat_cols(&[&self.lstm.forward(seq), day_type]);
        self.head.forward(&x)
    }

    fn backward(&mut self, grad: &Tensor) {
        let dx = self.head.backward(grad);
        let dh = dx.slice_cols(0, self.hidden);
        let _ = self.lstm.backward(&dh);
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut p = self.lstm.params_mut();
        p.extend(self.head.params_mut());
        p
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.lstm.prepare(mode);
        Layer::prepare(&mut self.head, mode);
    }

    fn forward_infer(&self, input: &PredictorInput, mode: InferenceMode) -> Tensor {
        let (seq, day_type) = Self::seq(input);
        let x = Tensor::concat_cols(&[&self.lstm.infer(seq, mode), day_type]);
        self.head.infer(&x, mode)
    }
}

// ---------------------------------------------------------------------------
// H: hybrid CNN + LSTM
// ---------------------------------------------------------------------------

/// The hybrid predictor (`H`, §IV-B): the CNN tower extracts
/// spatio-temporal features from the speed image of Eq 6 while preserving
/// the time axis; each time column then feeds a stacked LSTM capturing the
/// sequential correlation; a linear readout sees the final hidden state and
/// the day-type flags.
pub struct HybridPredictor {
    conv: Sequential,
    lstm: Sequential,
    head: Dense,
    conv_out_shape: [usize; 3], // [filters, roads, alpha]
    hidden: usize,
}

impl HybridPredictor {
    /// Builds conv tower + LSTM stack + readout.
    pub fn new<R: apots_tensor::rng::Rng>(
        n_roads: usize,
        alpha: usize,
        filters: [usize; 3],
        hidden: [usize; 2],
        rng: &mut R,
    ) -> Self {
        let channels = IMAGE_CHANNELS;
        let mut conv = Sequential::new();
        conv.add(Box::new(Conv2d::new(channels, filters[0], 3, 3, rng)));
        conv.add(Box::new(Relu::new()));
        conv.add(Box::new(Conv2d::new(filters[0], filters[1], 1, 1, rng)));
        conv.add(Box::new(Relu::new()));
        conv.add(Box::new(Conv2d::new(filters[1], filters[2], 3, 3, rng)));
        conv.add(Box::new(Relu::new()));
        let step_width = filters[2] * n_roads;
        let mut lstm = Sequential::new();
        lstm.add(Box::new(Lstm::new(step_width, hidden[0], true, rng)));
        lstm.add(Box::new(Lstm::new(hidden[0], hidden[1], false, rng)));
        Self {
            conv,
            lstm,
            head: Dense::new(hidden[1] + 4, 1, rng),
            conv_out_shape: [filters[2], n_roads, alpha],
            hidden: hidden[1],
        }
    }

    /// `[b, c, r, a] → [b, a, c·r]`: feature maps to per-time-step vectors.
    fn map_to_seq(fmap: &Tensor, shape: [usize; 3]) -> Tensor {
        let [c, r, a] = shape;
        let b = fmap.shape()[0];
        let d = fmap.data();
        let mut out = apots_tensor::workspace::checkout(b * a * c * r);
        for bi in 0..b {
            for ci in 0..c {
                for ri in 0..r {
                    let src = ((bi * c + ci) * r + ri) * a;
                    for t in 0..a {
                        out[(bi * a + t) * (c * r) + ci * r + ri] = d[src + t];
                    }
                }
            }
        }
        Tensor::new(&[b, a, c * r], out)
    }

    /// Inverse of [`Self::map_to_seq`] for gradients.
    fn seq_to_map(dseq: &Tensor, shape: [usize; 3]) -> Tensor {
        let [c, r, a] = shape;
        let b = dseq.shape()[0];
        let d = dseq.data();
        let mut out = apots_tensor::workspace::checkout(b * c * r * a);
        for bi in 0..b {
            for ci in 0..c {
                for ri in 0..r {
                    let dst = ((bi * c + ci) * r + ri) * a;
                    for t in 0..a {
                        out[dst + t] = d[(bi * a + t) * (c * r) + ci * r + ri];
                    }
                }
            }
        }
        Tensor::new(&[b, c, r, a], out)
    }
}

impl Predictor for HybridPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Hybrid
    }

    fn forward_train(&mut self, input: &PredictorInput) -> Tensor {
        let (image, day_type) = image_input(input, "HybridPredictor");
        let seq = Self::map_to_seq(&self.conv.forward(image), self.conv_out_shape);
        let x = Tensor::concat_cols(&[&self.lstm.forward(&seq), day_type]);
        self.head.forward(&x)
    }

    fn backward(&mut self, grad: &Tensor) {
        let dx = self.head.backward(grad);
        let dh = dx.slice_cols(0, self.hidden);
        let dseq = self.lstm.backward(&dh);
        let dmap = Self::seq_to_map(&dseq, self.conv_out_shape);
        let _ = self.conv.backward(&dmap);
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        let mut p = self.conv.params_mut();
        p.extend(self.lstm.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.conv.prepare(mode);
        self.lstm.prepare(mode);
        Layer::prepare(&mut self.head, mode);
    }

    fn forward_infer(&self, input: &PredictorInput, mode: InferenceMode) -> Tensor {
        let (image, day_type) = image_input(input, "HybridPredictor");
        let seq = Self::map_to_seq(&self.conv.infer(image, mode), self.conv_out_shape);
        let x = Tensor::concat_cols(&[&self.lstm.infer(&seq, mode), day_type]);
        self.head.infer(&x, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_nn::loss::mse;
    use apots_nn::optim::{Adam, Optimizer};
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig};

    use crate::encode::encode_inputs;

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(10, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    #[test]
    fn all_predictors_produce_batch_of_scalars() {
        let ds = dataset();
        let ts = &ds.train_samples()[..6];
        for kind in PredictorKind::all() {
            let mut p = build_predictor(kind, HyperPreset::Fast, &ds, 3);
            let (input, _) = encode_inputs(kind, &ds, ts, FeatureMask::BOTH);
            let out = p.forward(&input, true);
            assert_eq!(out.shape(), &[6, 1], "{kind:?}");
            assert!(out.data().iter().all(|v| v.is_finite()), "{kind:?}");
            // Backward runs without panicking and fills gradients.
            p.backward(&Tensor::ones(&[6, 1]));
            let any_grad = p
                .params_mut()
                .iter()
                .any(|pr| pr.grad.data().iter().any(|&g| g != 0.0));
            assert!(any_grad, "{kind:?} produced all-zero gradients");
        }
    }

    #[test]
    fn predictors_have_expected_relative_sizes() {
        let ds = dataset();
        let mut sizes = std::collections::HashMap::new();
        for kind in PredictorKind::all() {
            let mut p = build_predictor(kind, HyperPreset::Paper, &ds, 3);
            sizes.insert(kind.label(), p.param_count());
        }
        // The hybrid model contains both a conv tower and the LSTM stack.
        assert!(sizes["H"] > sizes["C"]);
        // All models are non-trivial.
        for (k, s) in &sizes {
            assert!(*s > 1_000, "{k} only {s} params");
        }
    }

    #[test]
    fn each_predictor_learns_on_small_data() {
        // A few Adam steps on one batch should reduce MSE for every
        // architecture — a cheap end-to-end differentiability check.
        let ds = dataset();
        let ts = &ds.train_samples()[..32];
        for kind in PredictorKind::all() {
            let mut p = build_predictor(kind, HyperPreset::Fast, &ds, 11);
            let (input, targets) = encode_inputs(kind, &ds, ts, FeatureMask::BOTH);
            let mut opt = Adam::new(5e-3);
            let first = {
                let out = p.forward(&input, true);
                mse(&out, &targets).0
            };
            let mut last = first;
            for _ in 0..30 {
                let out = p.forward(&input, true);
                let (loss, grad) = mse(&out, &targets);
                p.backward(&grad);
                opt.step(p.params_mut());
                last = loss;
            }
            assert!(
                last < first * 0.7,
                "{kind:?}: loss {first} → {last} did not drop"
            );
        }
    }

    #[test]
    fn paper_preset_forward_smoke() {
        // Table I widths must wire up end to end (one small batch each).
        let ds = dataset();
        let ts = &ds.train_samples()[..2];
        for kind in PredictorKind::all() {
            let mut p = build_predictor(kind, HyperPreset::Paper, &ds, 5);
            let (input, _) = encode_inputs(kind, &ds, ts, FeatureMask::BOTH);
            let out = p.forward(&input, false);
            assert_eq!(out.shape(), &[2, 1], "{kind:?}");
            assert!(out.data().iter().all(|v| v.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn hybrid_permutation_roundtrip() {
        let shape = [3usize, 2, 4];
        let fmap = Tensor::new(&[2, 3, 2, 4], (0..48).map(|v| v as f32).collect());
        let seq = HybridPredictor::map_to_seq(&fmap, shape);
        assert_eq!(seq.shape(), &[2, 4, 6]);
        let back = HybridPredictor::seq_to_map(&seq, shape);
        assert_eq!(back, fmap);
    }

    #[test]
    #[should_panic(expected = "expects image input")]
    fn cnn_rejects_flat_input() {
        let ds = dataset();
        let ts = &ds.train_samples()[..2];
        let mut p = build_predictor(PredictorKind::Cnn, HyperPreset::Fast, &ds, 3);
        let (input, _) = encode_inputs(PredictorKind::Fc, &ds, ts, FeatureMask::BOTH);
        let _ = p.forward(&input, true);
    }
}
