//! Saving and loading trained predictors.
//!
//! A checkpoint records the predictor kind plus its parameter snapshot, so
//! a model trained by one process can be evaluated by another (the
//! experiment binaries use this to avoid retraining shared models).

use apots_nn::StateDict;
use apots_serde::schema::Obj;
use apots_serde::{Json, Map};
use apots_traffic::TrafficDataset;

use crate::config::{HyperPreset, PredictorKind};
use crate::predictor::{build_predictor, Predictor};

/// A serializable trained-predictor snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which architecture the parameters belong to.
    pub kind: String,
    /// Parameter snapshot, in `params_mut` order.
    pub state: StateDict,
}

impl Checkpoint {
    /// Captures the current parameters of `predictor`.
    pub fn capture(predictor: &mut dyn Predictor) -> Self {
        Self {
            kind: predictor.kind().label().to_string(),
            state: StateDict::capture_params(&predictor.params_mut()),
        }
    }

    /// Rebuilds a predictor of the stored kind (sized for `data` under
    /// `preset`) and restores the parameters into it.
    ///
    /// # Errors
    /// Returns a descriptive error if the stored kind label is unknown or
    /// the architecture shapes do not match (e.g. wrong preset) — corrupt
    /// input must never abort a long-running process.
    pub fn restore(
        &self,
        preset: HyperPreset,
        data: &TrafficDataset,
    ) -> Result<Box<dyn Predictor>, String> {
        let kind = PredictorKind::all()
            .into_iter()
            .find(|k| k.label() == self.kind)
            .ok_or_else(|| format!("Checkpoint: unknown predictor kind {:?}", self.kind))?;
        let mut p = build_predictor(kind, preset, data, 0);
        self.state
            .restore_params(&mut p.params_mut())
            .map_err(|e| format!("Checkpoint: {e}"))?;
        Ok(p)
    }

    /// Serializes to JSON text (`{"kind": …, "state": {…}}`).
    ///
    /// # Panics
    /// Panics if any parameter is non-finite — a NaN checkpoint is
    /// corrupt and must not be persisted.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("kind".to_string(), Json::from(self.kind.as_str()));
        root.insert("state".to_string(), self.state.to_json());
        Json::Obj(root).to_string()
    }

    /// Deserializes from JSON text produced by [`Checkpoint::to_json`]
    /// (see [`Checkpoint::from_payload`]).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value = Json::parse(json).map_err(|e| format!("Checkpoint: {e}"))?;
        Self::from_payload(&value)
    }

    /// Reads a bare model checkpoint `{"kind", "state"}` (what `apots
    /// train --out` writes) or a full training checkpoint `{"kind",
    /// "predictor", …}` (the trainer's `--checkpoint-dir` rotation, which a
    /// server hot-follows). Unlike the workspace's other readers it ignores
    /// keys it does not read: a training checkpoint carries many more.
    ///
    /// # Errors
    /// Any other shape is a descriptive error, never a panic.
    pub fn from_payload(payload: &Json) -> Result<Self, String> {
        let doc = Obj::new(payload, "Checkpoint")?;
        let kind = doc.req("kind")?.str()?.to_string();
        let state = doc
            .opt("state")
            .or_else(|| doc.opt("predictor"))
            .ok_or("Checkpoint: missing required key \"state\" (or \"predictor\")")?;
        let state = StateDict::from_json(state.value()).map_err(|e| format!("Checkpoint: {e}"))?;
        Ok(Self { kind, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::eval::evaluate;
    use crate::trainer::train_plain;
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(8, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let data = dataset();
        let mut cfg = TrainConfig::fast_plain(FeatureMask::BOTH);
        cfg.epochs = 2;
        cfg.max_train_samples = Some(256);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 3);
        let _ = train_plain(p.as_mut(), &data, &cfg);
        let original = evaluate(p.as_mut(), &data, cfg.mask, data.test_samples());

        let json = Checkpoint::capture(p.as_mut()).to_json();
        let restored = Checkpoint::from_json(&json).unwrap();
        let mut q = restored.restore(HyperPreset::Fast, &data).unwrap();
        let roundtrip = evaluate(q.as_mut(), &data, cfg.mask, data.test_samples());

        assert_eq!(original.predictions, roundtrip.predictions);
        assert_eq!(q.kind(), PredictorKind::Fc);
    }

    #[test]
    fn checkpoint_works_for_every_kind() {
        let data = dataset();
        for kind in PredictorKind::all() {
            let mut p = build_predictor(kind, HyperPreset::Fast, &data, 4);
            let ck = Checkpoint::capture(p.as_mut());
            let mut q = ck.restore(HyperPreset::Fast, &data).unwrap();
            assert_eq!(q.kind(), kind);
            assert_eq!(q.param_count(), p.param_count());
        }
    }

    #[test]
    fn payload_round_trips_both_shapes() {
        let data = dataset();
        let mut p = build_predictor(PredictorKind::Lstm, HyperPreset::Fast, &data, 3);
        let ck = Checkpoint::capture(p.as_mut());
        // Bare shape.
        let bare = Json::parse(&ck.to_json()).unwrap();
        let got = Checkpoint::from_payload(&bare).unwrap();
        assert_eq!(got.to_json(), ck.to_json());
        // Trainer shape: "predictor" instead of "state".
        let mut m = Map::new();
        m.insert("kind".into(), Json::Str(ck.kind.clone()));
        m.insert("predictor".into(), ck.state.to_json());
        m.insert("epoch".into(), Json::Num(4.0));
        let got = Checkpoint::from_payload(&Json::Obj(m)).unwrap();
        assert_eq!(got.to_json(), ck.to_json());
        // Garbage is an error, not a panic.
        assert!(Checkpoint::from_payload(&Json::parse("{\"kind\":\"F\"}").unwrap()).is_err());
        assert!(Checkpoint::from_payload(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn restore_rejects_unknown_kind_without_panicking() {
        let data = dataset();
        let ck = Checkpoint {
            kind: "Z".into(),
            state: StateDict::capture_params(&[]),
        };
        let err = ck.restore(HyperPreset::Fast, &data).err().unwrap();
        assert!(err.contains("unknown predictor kind"), "{err}");
    }

    #[test]
    fn restore_rejects_mismatched_architecture_without_panicking() {
        let data = dataset();
        let mut fc = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 4);
        // Claim the FC weights belong to the LSTM: shapes cannot match.
        let ck = Checkpoint {
            kind: "L".into(),
            state: StateDict::capture_params(&fc.params_mut()),
        };
        let err = ck.restore(HyperPreset::Fast, &data).err().unwrap();
        assert!(err.contains("mismatch"), "{err}");
    }
}
