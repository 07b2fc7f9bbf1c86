//! Model checkpoints: capturing and restoring the trainable parameters of
//! any [`Layer`] (or anything else exposing `Param`s in a stable order).
//!
//! The format is a plain ordered list of tensors — positional, like the
//! layer containers themselves — and serializes through the in-house
//! `apots-serde` JSON module as `{"tensors": [{"shape": […], "data":
//! […]}, …]}`, so a checkpoint round-trips losslessly (floats are written
//! with Rust's shortest round-trip formatting).

use apots_serde::{Json, Map};
use apots_tensor::Tensor;

use crate::layer::{Layer, Param};

/// An ordered snapshot of parameter tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    tensors: Vec<Tensor>,
}

impl StateDict {
    /// Snapshots the current parameter values of `layer`.
    pub fn capture(layer: &mut dyn Layer) -> Self {
        Self::capture_params(&layer.params_mut())
    }

    /// Snapshots an explicit parameter list (e.g. a whole predictor).
    pub fn capture_params(params: &[Param<'_>]) -> Self {
        Self {
            tensors: params.iter().map(|p| (*p.value).clone()).collect(),
        }
    }

    /// Wraps an explicit tensor list (e.g. optimizer moment buffers).
    pub fn from_tensors(tensors: Vec<Tensor>) -> Self {
        Self { tensors }
    }

    /// The snapshot's tensors, in capture order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Consumes the snapshot, yielding its tensors.
    pub fn into_tensors(self) -> Vec<Tensor> {
        self.tensors
    }

    /// Writes the snapshot back into `layer`.
    ///
    /// # Errors
    /// Returns a descriptive error if the parameter count or any shape
    /// differs — restoring into a different architecture must never abort
    /// a long-running process (the caller decides how to recover).
    pub fn restore(&self, layer: &mut dyn Layer) -> Result<(), String> {
        self.restore_params(&mut layer.params_mut())
    }

    /// Writes the snapshot back into an explicit parameter list.
    ///
    /// # Errors
    /// Returns an error on parameter-count or shape mismatch; on error the
    /// target parameters are left untouched (validation happens before any
    /// write, so a failed restore never yields a half-restored model).
    pub fn restore_params(&self, params: &mut [Param<'_>]) -> Result<(), String> {
        if self.tensors.len() != params.len() {
            return Err(format!(
                "StateDict: parameter count mismatch ({} saved, {} in model)",
                self.tensors.len(),
                params.len()
            ));
        }
        for (i, (saved, p)) in self.tensors.iter().zip(params.iter()).enumerate() {
            if saved.shape() != p.value.shape() {
                return Err(format!(
                    "StateDict: shape mismatch at parameter {i} (saved {:?}, model {:?})",
                    saved.shape(),
                    p.value.shape()
                ));
            }
        }
        for (saved, p) in self.tensors.iter().zip(params.iter_mut()) {
            p.value.data_mut().copy_from_slice(saved.data());
        }
        Ok(())
    }

    /// Number of parameter tensors in the snapshot.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Serializes to a JSON value (`{"tensors": [{"shape", "data"}, …]}`).
    ///
    /// # Panics
    /// Panics if any parameter is NaN/±Inf — such a snapshot is corrupt
    /// and must not be persisted.
    pub fn to_json(&self) -> Json {
        let tensors: Vec<Json> = self.tensors.iter().map(tensor_to_json).collect();
        let mut root = Map::new();
        root.insert("tensors".to_string(), Json::Arr(tensors));
        Json::Obj(root)
    }

    /// Deserializes from a JSON value produced by [`StateDict::to_json`].
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let tensors = value
            .get("tensors")
            .and_then(Json::as_array)
            .ok_or("StateDict: missing \"tensors\" array")?;
        let tensors = tensors
            .iter()
            .enumerate()
            .map(|(i, t)| tensor_from_json(t).map_err(|e| format!("tensor {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { tensors })
    }
}

/// Serializes one tensor as `{"shape": […], "data": […]}`.
fn tensor_to_json(t: &Tensor) -> Json {
    let mut m = Map::new();
    m.insert("shape".to_string(), Json::from(t.shape()));
    m.insert("data".to_string(), Json::from(t.data()));
    Json::Obj(m)
}

/// Parses one tensor, validating shape/data consistency and finiteness:
/// a number outside the `f32` range (e.g. `1e39`) would narrow to ±inf,
/// so it is refused by index.
fn tensor_from_json(value: &Json) -> Result<Tensor, String> {
    let shape = value
        .get("shape")
        .and_then(Json::as_array)
        .ok_or("missing \"shape\"")?
        .iter()
        .map(|v| v.as_usize().ok_or("non-integer dimension"))
        .collect::<Result<Vec<_>, _>>()?;
    let data = value
        .get("data")
        .and_then(Json::as_array)
        .ok_or("missing \"data\"")?
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let x = v.as_f64().ok_or("non-numeric element")?;
            let x32 = x as f32;
            if x32.is_finite() {
                Ok(x32)
            } else {
                Err(format!("element {j} ({x:e}) is not finite as f32"))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let expected: usize = shape.iter().product();
    if data.len() != expected {
        return Err(format!(
            "shape {shape:?} expects {expected} values, found {}",
            data.len()
        ));
    }
    Ok(Tensor::new(&shape, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::loss::mse;
    use crate::optim::{Adam, Optimizer};
    use crate::sequential::Sequential;
    use crate::{InferenceMode, Relu, Sigmoid};
    use apots_tensor::rng::seeded;

    fn net() -> Sequential {
        let mut rng = seeded(3);
        Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng))
            .push(Sigmoid::new())
    }

    #[test]
    fn capture_restore_roundtrip() {
        let mut a = net();
        let snapshot = StateDict::capture(&mut a);
        assert_eq!(snapshot.len(), 4);
        assert_eq!(snapshot.scalar_count(), (4 * 8 + 8) + (8 * 2 + 2));

        // Train a bit, outputs change…
        let mut rng = seeded(4);
        let x = apots_tensor::Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
        let y = apots_tensor::Tensor::rand_uniform(&[8, 2], 0.0, 1.0, &mut rng);
        let before = a.infer(&x, InferenceMode::Exact);
        let mut opt = Adam::new(0.05);
        for _ in 0..20 {
            let out = a.forward(&x);
            let (_, grad) = mse(&out, &y);
            let _ = a.backward(&grad);
            opt.step(a.params_mut());
        }
        let trained = a.infer(&x, InferenceMode::Exact);
        assert_ne!(before, trained);

        // …and restoring brings the original outputs back exactly.
        snapshot.restore(&mut a).unwrap();
        let restored = a.infer(&x, InferenceMode::Exact);
        assert_eq!(before, restored);
    }

    #[test]
    fn restore_into_fresh_instance_transfers_the_model() {
        let mut a = net();
        let mut rng = seeded(5);
        let x = apots_tensor::Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let expected = a.infer(&x, InferenceMode::Exact);

        let mut b = {
            let mut rng = seeded(999); // different init
            Sequential::new()
                .push(Dense::new(4, 8, &mut rng))
                .push(Relu::new())
                .push(Dense::new(8, 2, &mut rng))
                .push(Sigmoid::new())
        };
        assert_ne!(b.infer(&x, InferenceMode::Exact), expected);
        StateDict::capture(&mut a).restore(&mut b).unwrap();
        assert_eq!(b.infer(&x, InferenceMode::Exact), expected);
    }

    #[test]
    fn json_roundtrip_is_lossless_and_byte_stable() {
        let mut a = net();
        let snapshot = StateDict::capture(&mut a);
        let json = snapshot.to_json().to_string();
        let back = StateDict::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(snapshot, back);
        // save → load → save must be byte-identical.
        assert_eq!(back.to_json().to_string(), json);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            r#"{}"#,
            r#"{"tensors": 3}"#,
            r#"{"tensors": [{"shape": [2], "data": [1.0]}]}"#,
            r#"{"tensors": [{"shape": [1], "data": ["x"]}]}"#,
            r#"{"tensors": [{"data": [1.0]}]}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(StateDict::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn from_json_rejects_numbers_that_overflow_f32() {
        for big in ["1e39", "-3.5e38"] {
            let doc = format!(
                r#"{{"tensors": [{{"shape": [1], "data": [0.5]}},
                                {{"shape": [3], "data": [1.0, 2.0, {big}]}}]}}"#
            );
            let err = StateDict::from_json(&Json::parse(&doc).unwrap()).unwrap_err();
            assert_eq!(
                err,
                format!("tensor 1: element 2 ({big}) is not finite as f32")
            );
        }
        // The largest finite f32 still loads.
        let doc = format!(
            r#"{{"tensors": [{{"shape": [1], "data": [{}]}}]}}"#,
            f32::MAX
        );
        let sd = StateDict::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(sd.tensors()[0].data(), &[f32::MAX]);
    }

    #[test]
    fn restore_rejects_wrong_architecture_without_panicking() {
        let mut a = net();
        let mut rng = seeded(6);
        let mut small = Sequential::new().push(Dense::new(4, 2, &mut rng));
        let err = StateDict::capture(&mut a).restore(&mut small).unwrap_err();
        assert!(err.contains("parameter count mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_shapes_and_leaves_target_untouched() {
        let mut rng = seeded(7);
        let mut a = Sequential::new().push(Dense::new(4, 8, &mut rng));
        let mut b = Sequential::new().push(Dense::new(8, 4, &mut rng));
        let before = StateDict::capture(&mut b);
        let err = StateDict::capture(&mut a).restore(&mut b).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
        // Validation precedes any write: b is untouched after the failure.
        assert_eq!(StateDict::capture(&mut b), before);
    }

    #[test]
    fn from_tensors_roundtrips_accessors() {
        let t = vec![
            apots_tensor::Tensor::from_vec(vec![1.0, 2.0]),
            apots_tensor::Tensor::zeros(&[2, 2]),
        ];
        let sd = StateDict::from_tensors(t.clone());
        assert_eq!(sd.tensors(), &t[..]);
        assert_eq!(sd.clone().into_tensors(), t);
    }
}
