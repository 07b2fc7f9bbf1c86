//! Mutation properties over the documents APOTS loads, all read through
//! `apots_serde::schema`: a scenario spec, a bench-baseline file, a
//! `TrainCheckpoint` payload and a sealed envelope. This crate is the one
//! that sees all four readers (the baseline reader is its own).
//!
//! Each case takes a seed document — a valid one or an existing
//! rejection vector — and applies one to three byte flips, truncations,
//! key renames, type swaps or key duplications. The reader must not
//! panic, and must either return a value that survives read → write →
//! read unchanged or an error that starts with its own context.

use apots::runtime::TrainCheckpoint;
use apots_check::{check_with, prop_assert, prop_assert_eq, Config, Rng, SeededRng};
use apots_serde::atomic::{seal, unseal};
use apots_serde::Json;
use apots_traffic::ScenarioSpec;

use crate::bench_gate::{parse_baselines, render_baselines};

/// A small `TrainCheckpoint::to_json` payload: adversarial, with a
/// stopper and two epochs of stats.
const TRAIN_CHECKPOINT: &str = r#"{"epoch":3,"stopped":false,"lr_scale":0.5,"rollbacks":1,"fingerprint":"16045690984503098381","rng_state":"18446744073709551608","rng_inc":"305419897","kind":"F","predictor":{"tensors":[{"shape":[2],"data":[0.25,-1.5]}]},"p_opt":{"t":"12","m":{"tensors":[{"shape":[2],"data":[0.1,0.2]}]},"v":{"tensors":[{"shape":[2],"data":[0.01,0.02]}]}},"discriminator":{"tensors":[{"shape":[2,2],"data":[0,0,0,0]}]},"d_opt":{"t":"12","m":{"tensors":[]},"v":{"tensors":[]}},"stopper":{"best_bits":2139095040,"stale":0},"stats":[{"mse":0.5,"p_loss":0.5,"d_loss":0},{"mse":0.25,"p_loss":0.7,"d_loss":0.7}]}"#;

const BASELINES: &str = r#"{
  "schema": "apots-bench-baselines",
  "default_tolerance": 0.15,
  "metrics": [
    {"file": "BENCH_x.json", "name": "a", "field": "median_ns", "value": 100.0, "tolerance": 0.3},
    {"file": "BENCH_x.json", "name": "b", "field": "response_fnv32",
     "value": 3300190956, "exact": true}
  ]
}"#;

/// `doc` with the first `from` replaced by `to`.
fn patched(doc: &str, from: &str, to: &str) -> String {
    assert!(doc.contains(from), "{from:?} not in the seed document");
    doc.replacen(from, to, 1)
}

/// The valid document followed by the rejection vectors of the reader's
/// own tests.
fn seeds(doc: &str, vectors: &[(&str, &str)]) -> Vec<String> {
    let mut all = vec![doc.to_string()];
    all.extend(vectors.iter().map(|(from, to)| patched(doc, from, to)));
    all
}

fn scenario_seeds() -> Vec<String> {
    let demo = ScenarioSpec::demo(64, 3).to_json().to_string_pretty();
    seeds(
        &demo,
        &[
            ("\"days\"", "\"dayz\""),
            ("\"severity\"", "\"sevarity\""),
            ("cascading_accident", "pileup"),
            ("\"severity\": 0.75", "\"severity\": 1.4"),
            ("\"start\": \"08:00\"", "\"start\": \"08:03\""),
            ("\"day\": 1,", "\"day\": 9,"),
            ("\"segment\": 21", "\"segment\": 64"),
            ("\"rate\": 0.08", "\"rate\": 1.0"),
            ("\"end\": \"10:00\"", "\"end\": \"05:00\""),
            ("\"segments\": 64,", ""),
            ("apots-scenario", "apots-scenario-v2"),
            ("\"amp\": 1.5", "\"amp\": 4.0"),
            ("\"duration_min\": 60", "\"duration_min\": 62"),
        ],
    )
}

fn baseline_seeds() -> Vec<String> {
    let mut all = seeds(
        BASELINES,
        &[
            ("0.15", "0.6"),
            ("\"tolerance\"", "\"tolerence\""),
            ("\"exact\"", "\"exakt\""),
        ],
    );
    all.push(include_str!("../../../bench_serve_baselines.json").to_string());
    all
}

fn train_checkpoint_seeds() -> Vec<String> {
    seeds(
        TRAIN_CHECKPOINT,
        &[
            ("\"epoch\":3", "\"epoch\":-1"),
            ("\"rng_inc\":\"305419897\"", "\"rng_inc\":\"2\""),
            ("\"kind\":\"F\"", "\"kindx\":\"F\""),
            ("\"mse\":0.5", "\"msx\":0.5"),
        ],
    )
}

fn envelope_seeds() -> Vec<String> {
    let mut all = vec![seal(Json::parse(TRAIN_CHECKPOINT).unwrap()).to_string()];
    all.extend(
        [
            "{}",
            r#"{"format":"other","version":1,"checksum":"0","payload":null}"#,
            r#"{"format":"apots-envelope","version":99,"checksum":"0","payload":null}"#,
            r#"{"format":"apots-envelope","version":1,"checksum":"zz","payload":null}"#,
        ]
        .map(String::from),
    );
    all
}

/// Byte ranges of the quoted strings that are object keys.
fn keys(text: &[u8]) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if text[i] == b'"' {
            let end = (i + 1..text.len()).find(|&j| text[j] == b'"' && text[j - 1] != b'\\');
            let Some(end) = end else { break };
            let after = text[end + 1..].iter().find(|b| !b.is_ascii_whitespace());
            if after == Some(&b':') {
                found.push((i + 1, end));
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    found
}

/// Scalar values (strings, numbers, literals) that follow a key: where
/// the key's opening quote sits, and the value's byte range.
fn scalars(text: &[u8]) -> Vec<(usize, usize, usize)> {
    keys(text)
        .into_iter()
        .filter_map(|(key, end)| {
            let colon = end + 1 + text[end + 1..].iter().position(|&b| b == b':')?;
            let start = colon
                + 1
                + text[colon + 1..]
                    .iter()
                    .position(|b| !b.is_ascii_whitespace())?;
            let len = if text[start] == b'"' {
                1 + text[start + 1..].iter().position(|&b| b == b'"')? + 1
            } else {
                text[start..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b"+-.".contains(&b)))?
            };
            (len > 0).then_some((key - 1, start, start + len))
        })
        .collect()
}

/// One random edit of `text`.
fn mutate(rng: &mut SeededRng, text: &str) -> String {
    fn pick<T: Copy>(rng: &mut SeededRng, spans: &[T]) -> Option<T> {
        (!spans.is_empty()).then(|| spans[rng.random_range(0..spans.len())])
    }
    let mut bytes = text.as_bytes().to_vec();
    match rng.random_range(0..5u32) {
        // Byte flip: any position, a JSON-significant or random byte.
        0 if !bytes.is_empty() => {
            let at = rng.random_range(0..bytes.len());
            let menu = b"{}[]:,\"-.0123456789eE+ntfx\\ ";
            bytes[at] = if rng.random_bool(0.5) {
                menu[rng.random_range(0..menu.len())]
            } else {
                bytes[at] ^ (1 << rng.random_range(0..7u32))
            };
        }
        // Truncation.
        1 => bytes.truncate(rng.random_range(0..bytes.len() + 1)),
        // Key rename: drop, double or change one character of a key.
        2 => {
            if let Some((start, end)) = pick(rng, &keys(&bytes)) {
                let at = rng.random_range(start..end.max(start + 1));
                match rng.random_range(0..3u32) {
                    0 if at < end => {
                        bytes.remove(at);
                    }
                    1 => bytes.insert(at, b'x'),
                    _ => bytes.insert(at, b'_'),
                }
            }
        }
        // Key duplication: a `"key": scalar` entry is repeated in its
        // object.
        3 => {
            if let Some((key, _, end)) = pick(rng, &scalars(&bytes)) {
                let entry = bytes[key..end].to_vec();
                bytes.splice(end..end, b", ".iter().chain(&entry).copied());
            }
        }
        // Type swap: a scalar value becomes one of another type or range.
        _ => {
            if let Some((_, start, end)) = pick(rng, &scalars(&bytes)) {
                let menu = [
                    "null",
                    "true",
                    "\"x\"",
                    "[]",
                    "{}",
                    "0",
                    "-1",
                    "0.5",
                    "1e39",
                    "1e300",
                    "9007199254740993",
                    "\"18446744073709551616\"",
                    "\"+7\"",
                    "\"08:00\"",
                ];
                let with = menu[rng.random_range(0..menu.len())];
                bytes.splice(start..end, with.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Draws a seed document (the valid one half the time) and applies one
/// edit (half the time) to three.
fn mutated(rng: &mut SeededRng, seeds: &[String]) -> String {
    let pick = if rng.random_bool(0.5) {
        0
    } else {
        rng.random_range(0..seeds.len())
    };
    let edits = if rng.random_bool(0.5) {
        1
    } else {
        rng.random_range(2..4u32)
    };
    let mut text = seeds[pick].clone();
    for _ in 0..edits {
        text = mutate(rng, &text);
    }
    text
}

fn starts_with_any(err: &str, contexts: &[&str]) -> Result<(), String> {
    prop_assert!(
        contexts.iter().any(|c| err.starts_with(c)),
        "error {err:?} does not start with any of {contexts:?}"
    );
    Ok(())
}

fn read_scenario(text: &str) -> Result<(), String> {
    match ScenarioSpec::parse(text) {
        Ok(spec) => {
            let again = ScenarioSpec::parse(&spec.to_json().to_string());
            prop_assert_eq!(again, Ok(spec));
            Ok(())
        }
        Err(e) => starts_with_any(&e, &["scenario: ", "events["]),
    }
}

fn read_baselines(text: &str) -> Result<(), String> {
    match parse_baselines(text, "baselines.json") {
        Ok((tol, metrics)) => {
            let again = parse_baselines(&render_baselines(tol, &metrics), "baselines.json");
            prop_assert_eq!(again, Ok((tol, metrics)));
            Ok(())
        }
        Err(e) => starts_with_any(&e, &["baselines.json: "]),
    }
}

/// Text the JSON parser refuses never reaches this reader.
fn read_train_checkpoint(text: &str) -> Result<(), String> {
    let Ok(payload) = Json::parse(text) else {
        return Ok(());
    };
    match TrainCheckpoint::from_json(&payload) {
        // NaN bit patterns (the stopper's `best_bits`) compare unequal,
        // so the round trip compares the canonical text.
        Ok(ck) => {
            let text = ck.to_json().to_string();
            let again = TrainCheckpoint::from_json(&Json::parse(&text).unwrap())?;
            prop_assert_eq!(again.to_json().to_string(), text);
            Ok(())
        }
        Err(e) => starts_with_any(&e, &["TrainCheckpoint"]),
    }
}

fn read_envelope(text: &str) -> Result<(), String> {
    match unseal(text) {
        Ok(payload) => {
            prop_assert_eq!(unseal(&seal(payload.clone()).to_string()), Ok(payload));
            Ok(())
        }
        Err(e) => starts_with_any(&e, &["envelope: "]),
    }
}

/// Every seed document is read as the readers' own tests expect: the
/// first accepted, the rejection vectors refused.
#[test]
fn seed_documents_read_as_before() {
    let scenario = scenario_seeds();
    assert!(ScenarioSpec::parse(&scenario[0]).is_ok());
    assert!(scenario[1..]
        .iter()
        .all(|t| ScenarioSpec::parse(t).is_err()));
    let baselines = baseline_seeds();
    assert!(parse_baselines(&baselines[0], "b").is_ok());
    assert!(parse_baselines(&baselines[4], "b").is_ok());
    assert!(baselines[1..4]
        .iter()
        .all(|t| parse_baselines(t, "b").is_err()));
    let train = |t: &String| TrainCheckpoint::from_json(&Json::parse(t).unwrap());
    let checkpoints = train_checkpoint_seeds();
    assert!(train(&checkpoints[0]).is_ok());
    assert!(checkpoints[1..].iter().all(|t| train(t).is_err()));
    let envelopes = envelope_seeds();
    assert!(unseal(&envelopes[0]).is_ok());
    assert!(envelopes[1..].iter().all(|t| unseal(t).is_err()));
}

/// Most edits break a document, so each reader gets 512 cases: enough
/// for some edited documents to be accepted and round-trip.
fn fuzz(name: &str, seeds: &[String], read: fn(&str) -> Result<(), String>) {
    let cfg = Config {
        cases: 512,
        ..Config::default()
    };
    check_with(&cfg, name, |rng| mutated(rng, seeds), |t| read(t));
}

#[test]
fn mutated_scenario_specs_are_read_or_refused_in_context() {
    fuzz("scenario", &scenario_seeds(), read_scenario);
}

#[test]
fn mutated_baselines_are_read_or_refused_in_context() {
    fuzz("baselines", &baseline_seeds(), read_baselines);
}

#[test]
fn mutated_train_checkpoints_are_read_or_refused_in_context() {
    fuzz(
        "train checkpoint",
        &train_checkpoint_seeds(),
        read_train_checkpoint,
    );
}

#[test]
fn mutated_envelopes_are_read_or_refused_in_context() {
    fuzz("envelope", &envelope_seeds(), read_envelope);
}
