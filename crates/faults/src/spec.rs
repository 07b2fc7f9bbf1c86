//! The `APOTS_FAULTS` specification: a seed plus a per-operation
//! probability schedule.
//!
//! Grammar: comma-separated `key=value` pairs. `seed` takes a `u64`;
//! every other key takes a probability in `[0, 1]`:
//!
//! ```text
//! APOTS_FAULTS="seed=42,eio=0.2,torn_write=0.1,enospc=0.05"
//! ```
//!
//! Unknown keys and out-of-range probabilities are hard errors — a typo
//! in a chaos schedule must not silently disable the fault it meant to
//! arm.

use apots_serde::schema;

const CTX: &str = "APOTS_FAULTS";
const KEYS: &str = "seed torn_write short_write enospc eio fsync rename";

/// Per-operation fault probabilities and the PCG seed that drives them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the injection stream; same seed + same operation
    /// sequence ⇒ identical faults.
    pub seed: u64,
    /// Torn write: a random prefix lands on disk and the write errors
    /// (crash-like; the caller sees the failure).
    pub torn_write: f64,
    /// Short write: a random prefix lands on disk and the write reports
    /// *success* (silent corruption; only checksums catch it).
    pub short_write: f64,
    /// `ENOSPC` on file create — the canonical *permanent* error.
    pub enospc: f64,
    /// Transient `EIO` on read or write.
    pub eio: f64,
    /// Failed fsync (file or directory), surfaced as `EIO`.
    pub fsync: f64,
    /// Failed rename, surfaced as `EIO`.
    pub rename: f64,
}

impl FaultSpec {
    /// A spec that never fires — the shim stays installed but every
    /// operation passes through (used by the zero-cost gate).
    pub fn quiescent(seed: u64) -> Self {
        FaultSpec {
            seed,
            torn_write: 0.0,
            short_write: 0.0,
            enospc: 0.0,
            eio: 0.0,
            fsync: 0.0,
            rename: 0.0,
        }
    }

    /// Parses the `APOTS_FAULTS` grammar.
    ///
    /// # Errors
    /// Unknown keys, malformed numbers, and probabilities outside
    /// `[0, 1]` are all rejected with a descriptive message.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::quiescent(0);
        for pair in text.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("{CTX}: expected key=value, got {pair:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let slot = match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|e| format!("{CTX}: bad seed {value:?}: {e}"))?;
                    continue;
                }
                "torn_write" => &mut spec.torn_write,
                "short_write" => &mut spec.short_write,
                "enospc" => &mut spec.enospc,
                "eio" => &mut spec.eio,
                "fsync" => &mut spec.fsync,
                "rename" => &mut spec.rename,
                other => return Err(schema::unknown_key(CTX, other, KEYS)),
            };
            let p: f64 = value
                .parse()
                .map_err(|e| format!("{CTX}: bad probability for {key}: {e}"))?;
            let valid = 0.0..=1.0;
            if !valid.contains(&p) {
                return Err(schema::out_of_range(CTX, key, p, &valid));
            }
            *slot = p;
        }
        Ok(spec)
    }

    /// Reads `APOTS_FAULTS` from the environment; `Ok(None)` when unset
    /// or empty.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("APOTS_FAULTS") {
            Ok(v) if !v.trim().is_empty() => Self::parse(&v).map(Some),
            _ => Ok(None),
        }
    }

    /// `true` when every probability is zero (no faults can fire).
    pub fn is_quiescent(&self) -> bool {
        self.torn_write == 0.0
            && self.short_write == 0.0
            && self.enospc == 0.0
            && self.eio == 0.0
            && self.fsync == 0.0
            && self.rename == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let s = FaultSpec::parse(
            "seed=42, eio=0.25,torn_write=0.1,short_write=0.05,enospc=1,fsync=0.5,rename=0",
        )
        .unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.eio, 0.25);
        assert_eq!(s.torn_write, 0.1);
        assert_eq!(s.short_write, 0.05);
        assert_eq!(s.enospc, 1.0);
        assert_eq!(s.fsync, 0.5);
        assert_eq!(s.rename, 0.0);
        assert!(!s.is_quiescent());
    }

    #[test]
    fn empty_spec_is_quiescent() {
        let s = FaultSpec::parse("").unwrap();
        assert_eq!(s, FaultSpec::quiescent(0));
        assert!(s.is_quiescent());
    }

    #[test]
    fn rejects_garbage() {
        assert!(FaultSpec::parse("nonsense").is_err());
        assert!(FaultSpec::parse("warp_drive=0.5").is_err());
        assert!(FaultSpec::parse("eio=1.5").is_err());
        assert!(FaultSpec::parse("eio=-0.1").is_err());
        assert!(FaultSpec::parse("seed=banana").is_err());
        assert!(FaultSpec::parse("eio").is_err());
    }

    #[test]
    fn errors_name_the_key_and_the_valid_set() {
        assert_eq!(
            FaultSpec::parse("warp_drive=1.5").unwrap_err(),
            "APOTS_FAULTS: unknown key \"warp_drive\" \
             (valid keys: seed, torn_write, short_write, enospc, eio, fsync, rename)"
        );
        assert_eq!(
            FaultSpec::parse("seed=1,eio=1.5").unwrap_err(),
            "APOTS_FAULTS: eio = 1.5 out of range (valid: 0..=1)"
        );
    }
}
