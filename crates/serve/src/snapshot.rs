//! Hot-swappable model snapshots.
//!
//! The serving path must never observe a half-loaded model: a snapshot
//! is fully parsed, validated, restored and prepared *before* it is
//! published, and publication is one atomic [`Arc`] pointer swap. Each
//! request clones the `Arc` once, so an in-flight request keeps the model
//! it started with while the next one picks up the new generation.

use std::sync::{Arc, RwLock};

use apots::checkpoint::Checkpoint;
use apots::config::HyperPreset;
use apots::predictor::Predictor;
use apots::InferenceMode;
use apots_serde::atomic::Fnv1a;
use apots_traffic::TrafficDataset;

/// One published model generation.
pub struct ModelSnapshot {
    /// The validated checkpoint (kind + parameters).
    pub checkpoint: Checkpoint,
    /// Monotonic generation counter (1 = the snapshot the server booted
    /// with).
    pub version: u64,
    /// FNV-1a over the checkpoint's kind, shapes and parameter bits (see
    /// [`ModelSnapshot::new`]) — two checkpoints share a fingerprint
    /// exactly when their canonical JSON texts are equal, which lets the
    /// watcher skip no-op swaps.
    pub fingerprint: u64,
}

impl ModelSnapshot {
    /// Builds generation `version` from a checkpoint, fingerprinting it in
    /// one pass over its contents: the kind label, the tensor count, then
    /// each tensor's shape and the `f32` bits of its values, with `-0.0`
    /// hashed as `+0.0` (the one pair of values the JSON text writes
    /// alike). Integers are hashed as little-endian `u64`s and the label
    /// is length-prefixed, so the byte stream is unambiguous. A finite
    /// checkpoint is fingerprinted without allocating.
    ///
    /// # Errors
    /// Returns an error naming the tensor and index of the first NaN or
    /// ±inf: such a checkpoint cannot serve and cannot be saved.
    pub fn new(checkpoint: Checkpoint, version: u64) -> Result<Self, String> {
        let fingerprint = fingerprint(&checkpoint)?;
        Ok(ModelSnapshot {
            checkpoint,
            version,
            fingerprint,
        })
    }
}

/// The streaming hash behind [`ModelSnapshot::new`].
fn fingerprint(checkpoint: &Checkpoint) -> Result<u64, String> {
    fn write_len(h: &mut Fnv1a, n: usize) {
        h.write(&(n as u64).to_le_bytes());
    }
    let mut h = Fnv1a::new();
    write_len(&mut h, checkpoint.kind.len());
    h.write(checkpoint.kind.as_bytes());
    let tensors = checkpoint.state.tensors();
    write_len(&mut h, tensors.len());
    for (i, t) in tensors.iter().enumerate() {
        write_len(&mut h, t.shape().len());
        for &d in t.shape() {
            write_len(&mut h, d);
        }
        for (j, &v) in t.data().iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("tensor {i}: element {j} is {v}, not finite"));
            }
            // `-0.0 == 0.0`: both hash as `+0.0`.
            let v = if v == 0.0 { 0.0f32 } else { v };
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    Ok(h.finish())
}

/// One published generation: the one predictor restored from a
/// [`ModelSnapshot`] and prepared for the serving [`InferenceMode`]
/// (int8 weight copies built for `Int8`), shared by every worker through
/// `&self`. Building it is the watcher's trial restore, so a snapshot
/// that cannot serve is refused before it is published, and no request
/// ever pays for a restore or a quantization.
pub struct QuantizedSnapshot {
    version: u64,
    fingerprint: u64,
    mode: InferenceMode,
    model: Box<dyn Predictor>,
}

impl QuantizedSnapshot {
    /// Restores `snapshot` under `preset` against `data` and prepares it
    /// for `mode`. The checkpoint is dropped once restored; the snapshot
    /// keeps its generation and fingerprint.
    ///
    /// # Errors
    /// Returns an error if the stored kind or shapes do not match `data`
    /// under `preset` — the caller must keep the old snapshot.
    pub fn new(
        snapshot: ModelSnapshot,
        mode: InferenceMode,
        preset: HyperPreset,
        data: &TrafficDataset,
    ) -> Result<Self, String> {
        let mut model = snapshot.checkpoint.restore(preset, data)?;
        model.prepare(mode);
        Ok(QuantizedSnapshot {
            version: snapshot.version,
            fingerprint: snapshot.fingerprint,
            mode,
            model,
        })
    }

    /// Generation counter (1 = the snapshot the server booted with).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Checkpoint fingerprint (see [`ModelSnapshot::new`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Lane the model serves on.
    pub fn mode(&self) -> InferenceMode {
        self.mode
    }

    /// The prepared model.
    pub fn model(&self) -> &dyn Predictor {
        self.model.as_ref()
    }
}

/// The published-snapshot cell: readers take an `Arc` clone, the watcher
/// swaps the pointer. Write contention is one pointer store per swap, so
/// the read path stays wait-free in practice.
pub struct SnapshotCell {
    slot: RwLock<Arc<QuantizedSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding the boot snapshot.
    pub fn new(initial: QuantizedSnapshot) -> Self {
        SnapshotCell {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot (cheap: one `Arc` clone).
    pub fn load(&self) -> Arc<QuantizedSnapshot> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Publishes a new snapshot.
    pub fn store(&self, snapshot: QuantizedSnapshot) {
        *self.slot.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots::config::PredictorKind;
    use apots::predictor::build_predictor;
    use apots_nn::state::StateDict;
    use apots_tensor::Tensor;
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig};

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(8, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    /// `ck` with its tensor list edited.
    fn edited(ck: &Checkpoint, edit: impl FnOnce(&mut Vec<Tensor>)) -> Checkpoint {
        let mut tensors = ck.state.clone().into_tensors();
        edit(&mut tensors);
        Checkpoint {
            kind: ck.kind.clone(),
            state: StateDict::from_tensors(tensors),
        }
    }

    #[test]
    fn identical_checkpoints_share_a_fingerprint() {
        let data = dataset();
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 11);
        let ck = Checkpoint::capture(p.as_mut());
        let a = fingerprint(&ck).unwrap();
        let mut p2 = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 11);
        let b = fingerprint(&Checkpoint::capture(p2.as_mut())).unwrap();
        assert_eq!(a, b, "same params, same print");
        let mut other = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 12);
        let c = fingerprint(&Checkpoint::capture(other.as_mut())).unwrap();
        assert_ne!(a, c, "different params differ");

        // Equal canonical JSON texts, equal prints: a save/load round
        // trip, and -0.0 against +0.0 (both written `0`).
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(fingerprint(&back), Ok(a), "JSON round trip");
        let pos = edited(&ck, |t| t[0].data_mut()[0] = 0.0);
        let neg = edited(&ck, |t| t[0].data_mut()[0] = -0.0);
        assert_eq!(pos.to_json(), neg.to_json());
        assert_eq!(fingerprint(&pos), fingerprint(&neg), "-0.0 hashes as +0.0");

        // Different texts, different prints.
        let flipped = edited(&ck, |t| {
            let v = &mut t[0].data_mut()[0];
            *v = f32::from_bits(v.to_bits() ^ 1);
        });
        let relabeled = Checkpoint {
            kind: "L".into(),
            state: ck.state.clone(),
        };
        let transposed = edited(&ck, |t| {
            let (rows, cols) = (t[0].shape()[0], t[0].shape()[1]);
            assert_ne!(rows, cols, "a square tensor would not test the shape");
            t[0] = Tensor::new(&[cols, rows], t[0].data().to_vec());
        });
        for (what, changed) in [
            ("one flipped mantissa bit", flipped),
            ("another kind label", relabeled),
            ("a transposed shape", transposed),
        ] {
            assert_ne!(changed.to_json(), ck.to_json(), "{what}");
            assert_ne!(fingerprint(&changed), Ok(a), "{what} kept the print");
        }

        // Non-finite values are refused by name, not hashed.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = fingerprint(&edited(&ck, |t| t[1].data_mut()[2] = bad)).unwrap_err();
            assert!(err.starts_with("tensor 1: element 2 is "), "{err}");
        }
    }

    /// A published generation for `ck` on `mode`.
    fn published(
        ck: Checkpoint,
        version: u64,
        mode: InferenceMode,
        data: &TrafficDataset,
    ) -> QuantizedSnapshot {
        let snap = ModelSnapshot::new(ck, version).unwrap();
        QuantizedSnapshot::new(snap, mode, HyperPreset::Fast, data).unwrap()
    }

    #[test]
    fn cell_swaps_atomically_and_readers_keep_their_generation() {
        let data = dataset();
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 1);
        let ck = Checkpoint::capture(p.as_mut());
        let cell = SnapshotCell::new(published(ck.clone(), 1, InferenceMode::Exact, &data));
        let held = cell.load();
        assert_eq!(held.version(), 1);
        cell.store(published(ck, 2, InferenceMode::Exact, &data));
        assert_eq!(cell.load().version(), 2);
        assert_eq!(held.version(), 1, "existing readers keep their snapshot");
    }

    #[test]
    fn quantized_replica_prepares_and_still_rejects_mismatches() {
        let data = dataset();
        let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Fast, &data, 9);
        let ck = Checkpoint::capture(p.as_mut());
        let snap = published(ck.clone(), 1, InferenceMode::Int8, &data);
        assert_eq!(snap.mode(), InferenceMode::Int8);
        assert_eq!(snap.model().kind(), PredictorKind::Hybrid);
        let wrong = ModelSnapshot::new(ck, 1).unwrap();
        assert!(
            QuantizedSnapshot::new(wrong, InferenceMode::Int8, HyperPreset::Paper, &data).is_err(),
            "trial restore must still catch shape mismatches in int8 mode"
        );
    }

    /// The published model answers exactly as the predictor the
    /// checkpoint was captured from.
    #[test]
    fn replica_restores_and_rejects_mismatched_data() {
        let data = dataset();
        let mut p = build_predictor(PredictorKind::Cnn, HyperPreset::Fast, &data, 5);
        let ck = Checkpoint::capture(p.as_mut());
        let snap = published(ck.clone(), 1, InferenceMode::Exact, &data);
        let (input, _) = apots::encode::encode_inputs(
            p.kind(),
            &data,
            &data.test_samples()[..3],
            FeatureMask::BOTH,
        );
        assert_eq!(
            snap.model().forward_infer(&input, InferenceMode::Exact),
            p.forward_infer(&input, InferenceMode::Exact)
        );
        let wrong = ModelSnapshot::new(ck, 1).unwrap();
        assert!(
            QuantizedSnapshot::new(wrong, InferenceMode::Exact, HyperPreset::Paper, &data).is_err(),
            "wrong preset must be a structured error"
        );
    }
}
