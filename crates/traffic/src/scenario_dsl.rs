//! The strict-JSON scenario DSL and corpus generator.
//!
//! A scenario document describes a seeded road-network workload:
//! cascading accidents (a crash whose queue spawns secondary crashes
//! upstream), city-wide events (a venue surge flooding a graph
//! neighbourhood), sensor outages (stochastic schedules and deterministic
//! windows, both landing in the PR-7 [`OutagePlan`]) and holiday
//! super-peaks (a day marked as a holiday whose demand is multiplied).
//!
//! Parsing is strict: unknown keys are rejected *naming the key and the
//! valid key set*, and out-of-range values are rejected *naming the key
//! and the valid range*, following the `parse_hhmm` precedent in
//! `apots-cli`. Times are `"HH:MM"` strings on the 5-minute interval
//! grid.
//!
//! [`ScenarioCorpus::generate`] resolves a spec against the seeded
//! topology ([`NetworkTopology`]) and runs the network dynamics; the
//! whole corpus rides the in-house PCG, so a spec is a byte-reproducible,
//! thread-invariant name for gigabytes of traffic.

use apots_serde::{json, Json, Map};

use crate::calendar::Calendar;
use crate::dataset::{DataConfig, TrafficDataset};
use crate::incidents::{Incident, IncidentKind};
use crate::network::{NetworkConfig, NetworkForcing, NetworkTopology, RoadNetwork};
use crate::outage::{OutageConfig, OutagePlan, OutageView};
use crate::INTERVALS_PER_DAY;

/// One event of a scenario. Times are interval indices within the day.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A crash whose queue spawns delayed, decayed secondary crashes on
    /// upstream segments.
    CascadingAccident {
        /// Segment of the primary crash.
        segment: usize,
        /// Day index of the crash.
        day: usize,
        /// Interval-of-day of the crash.
        start: usize,
        /// Peak congestion contribution of the primary crash.
        severity: f32,
        /// Fully-affected intervals per crash.
        duration: usize,
        /// Number of secondary crashes walking upstream.
        cascade: usize,
        /// Delay between successive crashes, in intervals.
        cascade_delay: usize,
    },
    /// A venue surge flooding the graph neighbourhood of a segment.
    CityEvent {
        /// Venue segment.
        segment: usize,
        /// Day index.
        day: usize,
        /// First interval-of-day.
        start: usize,
        /// One-past-last interval-of-day.
        end: usize,
        /// Neighbourhood radius in undirected hops.
        radius: usize,
        /// Peak demand contribution at the venue (decays per hop).
        demand: f32,
    },
    /// A stochastic network-wide outage schedule (PR-7 semantics).
    Outage {
        /// Target dropped fraction of readings.
        rate: f64,
        /// Mean outage window length in intervals.
        mean_duration: usize,
        /// Schedule seed (combined with the spec seed).
        seed: u64,
    },
    /// A deterministic single-segment outage window.
    OutageWindow {
        /// Segment whose sensor goes dark.
        segment: usize,
        /// Day index.
        day: usize,
        /// First dark interval-of-day.
        start: usize,
        /// One-past-last dark interval-of-day.
        end: usize,
    },
    /// A holiday super-peak: the day is marked as a holiday and its
    /// demand amplitudes are multiplied by `amp`.
    SuperPeak {
        /// Day index.
        day: usize,
        /// Demand multiplier.
        amp: f32,
    },
}

/// A parsed scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports echo it).
    pub name: String,
    /// Master PCG seed of the corpus.
    pub seed: u64,
    /// Simulated days.
    pub days: usize,
    /// Network segments.
    pub segments: usize,
    /// Segments per arterial corridor.
    pub corridor_len: usize,
    /// The scenario's events.
    pub events: Vec<ScenarioEvent>,
}

/// The document's `schema` tag.
pub const SCENARIO_SCHEMA: &str = "apots-scenario";

const TOP_KEYS: &[&str] = &[
    "schema",
    "name",
    "seed",
    "days",
    "segments",
    "corridor_len",
    "events",
];
const ACCIDENT_KEYS: &[&str] = &[
    "type",
    "segment",
    "day",
    "start",
    "severity",
    "duration_min",
    "cascade",
    "cascade_delay_min",
];
const CITY_KEYS: &[&str] = &["type", "segment", "day", "start", "end", "radius", "demand"];
const OUTAGE_KEYS: &[&str] = &["type", "rate", "mean_duration_min", "seed"];
const WINDOW_KEYS: &[&str] = &["type", "segment", "day", "start", "end"];
const PEAK_KEYS: &[&str] = &["type", "day", "amp"];

fn reject_unknown(map: &Map, valid: &[&str], ctx: &str) -> Result<(), String> {
    for (key, _) in map.iter() {
        if !valid.contains(&key) {
            return Err(format!(
                "{ctx}: unknown key {key:?} (valid keys: {})",
                valid.join(", ")
            ));
        }
    }
    Ok(())
}

fn require<'a>(map: &'a Map, key: &str, ctx: &str) -> Result<&'a Json, String> {
    map.get(key)
        .ok_or_else(|| format!("{ctx}: missing required key {key:?}"))
}

fn usize_in(map: &Map, key: &str, lo: usize, hi: usize, ctx: &str) -> Result<usize, String> {
    let v = require(map, key, ctx)?
        .as_usize()
        .ok_or_else(|| format!("{ctx}: {key} must be a non-negative integer"))?;
    if !(lo..=hi).contains(&v) {
        return Err(format!(
            "{ctx}: {key} = {v} out of range (valid: {lo}..={hi})"
        ));
    }
    Ok(v)
}

fn f64_in(map: &Map, key: &str, lo: f64, hi: f64, ctx: &str) -> Result<f64, String> {
    let v = require(map, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: {key} must be a number"))?;
    if !(v >= lo && v <= hi) {
        return Err(format!(
            "{ctx}: {key} = {v} out of range (valid: {lo}..={hi})"
        ));
    }
    Ok(v)
}

fn u64_of(map: &Map, key: &str, ctx: &str) -> Result<u64, String> {
    let v = require(map, key, ctx)?;
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Ok(n as u64),
        _ => Err(format!("{ctx}: {key} must be a non-negative integer seed")),
    }
}

/// Parses `"HH:MM"` on the 5-minute grid into an interval-of-day,
/// mirroring the `parse_hhmm` contract of `apots-cli`.
fn hhmm_in(map: &Map, key: &str, ctx: &str) -> Result<usize, String> {
    let s = require(map, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: {key} must be an \"HH:MM\" string"))?;
    let (hh, mm) = s
        .split_once(':')
        .ok_or_else(|| format!("{ctx}: {key} = {s:?} is not an \"HH:MM\" time"))?;
    let h: usize = hh
        .parse()
        .map_err(|_| format!("{ctx}: {key} = {s:?} has a bad hour"))?;
    let m: usize = mm
        .parse()
        .map_err(|_| format!("{ctx}: {key} = {s:?} has a bad minute"))?;
    if h > 23 || m > 59 {
        return Err(format!(
            "{ctx}: {key} = {s:?} out of range (valid: 00:00..=23:55)"
        ));
    }
    if !m.is_multiple_of(5) {
        return Err(format!(
            "{ctx}: {key} = {s:?} is not on a 5-minute boundary (intervals are \
             5 minutes; use {h:02}:{:02} or {h:02}:{:02})",
            m - m % 5,
            (m - m % 5 + 5).min(55),
        ));
    }
    Ok(h * 12 + m / 5)
}

fn minutes_in(map: &Map, key: &str, lo: usize, hi: usize, ctx: &str) -> Result<usize, String> {
    let v = usize_in(map, key, lo, hi, ctx)?;
    if !v.is_multiple_of(5) {
        return Err(format!(
            "{ctx}: {key} = {v} is not a multiple of 5 (intervals are 5 minutes)"
        ));
    }
    Ok(v / 5)
}

fn fmt_hhmm(interval: usize) -> String {
    format!("{:02}:{:02}", interval / 12, interval % 12 * 5)
}

impl ScenarioSpec {
    /// Parses a strict-JSON scenario document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("scenario: invalid JSON: {e}"))?;
        let map = doc
            .as_object()
            .ok_or_else(|| "scenario: document must be a JSON object".to_string())?;
        reject_unknown(map, TOP_KEYS, "scenario")?;
        let schema = require(map, "schema", "scenario")?
            .as_str()
            .ok_or_else(|| "scenario: schema must be a string".to_string())?;
        if schema != SCENARIO_SCHEMA {
            return Err(format!(
                "scenario: schema = {schema:?} not supported (valid: {SCENARIO_SCHEMA:?})"
            ));
        }
        let name = require(map, "name", "scenario")?
            .as_str()
            .ok_or_else(|| "scenario: name must be a string".to_string())?
            .to_string();
        let seed = u64_of(map, "seed", "scenario")?;
        let days = usize_in(map, "days", 1, 31, "scenario")?;
        let segments = usize_in(map, "segments", 16, 65_536, "scenario")?;
        let corridor_len = match map.get("corridor_len") {
            Some(_) => usize_in(map, "corridor_len", 4, 64, "scenario")?,
            None => 16,
        };
        let events_json = require(map, "events", "scenario")?
            .as_array()
            .ok_or_else(|| "scenario: events must be an array".to_string())?;

        let mut events = Vec::with_capacity(events_json.len());
        for (i, ev) in events_json.iter().enumerate() {
            events.push(Self::parse_event(ev, i, days, segments)?);
        }
        Ok(Self {
            name,
            seed,
            days,
            segments,
            corridor_len,
            events,
        })
    }

    fn parse_event(
        ev: &Json,
        i: usize,
        days: usize,
        segments: usize,
    ) -> Result<ScenarioEvent, String> {
        let ctx0 = format!("events[{i}]");
        let map = ev
            .as_object()
            .ok_or_else(|| format!("{ctx0}: event must be a JSON object"))?;
        let kind = require(map, "type", &ctx0)?
            .as_str()
            .ok_or_else(|| format!("{ctx0}: type must be a string"))?;
        let ctx = format!("events[{i}] ({kind})");
        let max_day = days - 1;
        let max_seg = segments - 1;
        match kind {
            "cascading_accident" => {
                reject_unknown(map, ACCIDENT_KEYS, &ctx)?;
                let event = ScenarioEvent::CascadingAccident {
                    segment: usize_in(map, "segment", 0, max_seg, &ctx)?,
                    day: usize_in(map, "day", 0, max_day, &ctx)?,
                    start: hhmm_in(map, "start", &ctx)?,
                    severity: f64_in(map, "severity", 0.05, 0.9, &ctx)? as f32,
                    duration: minutes_in(map, "duration_min", 5, 720, &ctx)?,
                    cascade: match map.get("cascade") {
                        Some(_) => usize_in(map, "cascade", 0, 8, &ctx)?,
                        None => 0,
                    },
                    cascade_delay: match map.get("cascade_delay_min") {
                        Some(_) => minutes_in(map, "cascade_delay_min", 5, 120, &ctx)?,
                        None => 3,
                    },
                };
                Ok(event)
            }
            "city_event" => {
                reject_unknown(map, CITY_KEYS, &ctx)?;
                let start = hhmm_in(map, "start", &ctx)?;
                let end = hhmm_in(map, "end", &ctx)?;
                if end <= start {
                    return Err(format!(
                        "{ctx}: end = {:?} must be after start = {:?}",
                        fmt_hhmm(end),
                        fmt_hhmm(start)
                    ));
                }
                Ok(ScenarioEvent::CityEvent {
                    segment: usize_in(map, "segment", 0, max_seg, &ctx)?,
                    day: usize_in(map, "day", 0, max_day, &ctx)?,
                    start,
                    end,
                    radius: usize_in(map, "radius", 0, 6, &ctx)?,
                    demand: f64_in(map, "demand", 0.05, 0.9, &ctx)? as f32,
                })
            }
            "outage" => {
                reject_unknown(map, OUTAGE_KEYS, &ctx)?;
                let rate = require(map, "rate", &ctx)?
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: rate must be a number"))?;
                if !(0.0..1.0).contains(&rate) {
                    return Err(format!(
                        "{ctx}: rate = {rate} out of range (valid: 0 <= rate < 1)"
                    ));
                }
                Ok(ScenarioEvent::Outage {
                    rate,
                    mean_duration: minutes_in(map, "mean_duration_min", 5, 360, &ctx)?,
                    seed: match map.get("seed") {
                        Some(_) => u64_of(map, "seed", &ctx)?,
                        None => 0x5CE4A7,
                    },
                })
            }
            "outage_window" => {
                reject_unknown(map, WINDOW_KEYS, &ctx)?;
                let start = hhmm_in(map, "start", &ctx)?;
                let end = hhmm_in(map, "end", &ctx)?;
                if end <= start {
                    return Err(format!(
                        "{ctx}: end = {:?} must be after start = {:?}",
                        fmt_hhmm(end),
                        fmt_hhmm(start)
                    ));
                }
                Ok(ScenarioEvent::OutageWindow {
                    segment: usize_in(map, "segment", 0, max_seg, &ctx)?,
                    day: usize_in(map, "day", 0, max_day, &ctx)?,
                    start,
                    end,
                })
            }
            "super_peak" => {
                reject_unknown(map, PEAK_KEYS, &ctx)?;
                Ok(ScenarioEvent::SuperPeak {
                    day: usize_in(map, "day", 0, max_day, &ctx)?,
                    amp: f64_in(map, "amp", 1.0, 3.0, &ctx)? as f32,
                })
            }
            other => Err(format!(
                "{ctx0}: type = {other:?} not supported (valid: cascading_accident, \
                 city_event, outage, outage_window, super_peak)"
            )),
        }
    }

    /// Serializes the spec back to its document form (round-trips through
    /// [`ScenarioSpec::parse`]).
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|ev| match *ev {
                ScenarioEvent::CascadingAccident {
                    segment,
                    day,
                    start,
                    severity,
                    duration,
                    cascade,
                    cascade_delay,
                } => json!({
                    "type": "cascading_accident",
                    "segment": segment,
                    "day": day,
                    "start": fmt_hhmm(start),
                    "severity": f64::from(severity),
                    "duration_min": duration * 5,
                    "cascade": cascade,
                    "cascade_delay_min": cascade_delay * 5,
                }),
                ScenarioEvent::CityEvent {
                    segment,
                    day,
                    start,
                    end,
                    radius,
                    demand,
                } => json!({
                    "type": "city_event",
                    "segment": segment,
                    "day": day,
                    "start": fmt_hhmm(start),
                    "end": fmt_hhmm(end),
                    "radius": radius,
                    "demand": f64::from(demand),
                }),
                ScenarioEvent::Outage {
                    rate,
                    mean_duration,
                    seed,
                } => json!({
                    "type": "outage",
                    "rate": rate,
                    "mean_duration_min": mean_duration * 5,
                    "seed": seed,
                }),
                ScenarioEvent::OutageWindow {
                    segment,
                    day,
                    start,
                    end,
                } => json!({
                    "type": "outage_window",
                    "segment": segment,
                    "day": day,
                    "start": fmt_hhmm(start),
                    "end": fmt_hhmm(end),
                }),
                ScenarioEvent::SuperPeak { day, amp } => json!({
                    "type": "super_peak",
                    "day": day,
                    "amp": f64::from(amp),
                }),
            })
            .collect();
        json!({
            "schema": SCENARIO_SCHEMA,
            "name": self.name.as_str(),
            "seed": self.seed,
            "days": self.days,
            "segments": self.segments,
            "corridor_len": self.corridor_len,
            "events": events,
        })
    }

    /// A demonstration spec exercising every event kind: a cascading
    /// accident, a city event, both outage flavours and a holiday
    /// super-peak. Used by the `network_scenarios` bin, the CI golden and
    /// `apots scenario --demo`.
    pub fn demo(segments: usize, days: usize) -> Self {
        assert!(days >= 3, "demo spec needs at least 3 days");
        assert!(segments >= 16, "demo spec needs at least 16 segments");
        Self {
            name: "demo".to_string(),
            seed: 2022,
            days,
            segments,
            corridor_len: 16,
            events: vec![
                ScenarioEvent::CascadingAccident {
                    segment: segments / 3,
                    day: 1,
                    start: 8 * 12, // 08:00
                    severity: 0.75,
                    duration: 12,
                    cascade: 3,
                    cascade_delay: 3,
                },
                ScenarioEvent::CityEvent {
                    segment: (2 * segments) / 3,
                    day: 2,
                    start: 18 * 12,
                    end: 21 * 12,
                    radius: 2,
                    demand: 0.5,
                },
                ScenarioEvent::Outage {
                    rate: 0.08,
                    mean_duration: 6,
                    seed: 0x5CE4A7,
                },
                ScenarioEvent::OutageWindow {
                    segment: segments / 2,
                    day: 1,
                    start: 6 * 12,
                    end: 10 * 12,
                },
                ScenarioEvent::SuperPeak { day: 2, amp: 1.5 },
            ],
        }
    }

    /// The network configuration this spec resolves to.
    pub fn network_config(&self) -> NetworkConfig {
        NetworkConfig {
            segments: self.segments,
            corridor_len: self.corridor_len,
            seed: self.seed,
            ..NetworkConfig::default()
        }
    }

    /// The calendar this spec resolves to: `days` days starting on a
    /// Sunday, with every super-peak day marked as a holiday.
    pub fn calendar(&self) -> Calendar {
        let holidays: Vec<usize> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                ScenarioEvent::SuperPeak { day, .. } => Some(day),
                _ => None,
            })
            .collect();
        Calendar::new(self.days, 6, holidays)
    }

    /// A human-readable summary of the spec.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "scenario {:?}: {} segments ({} corridors of {}), {} days, seed {}\n",
            self.name,
            self.segments,
            self.network_config().n_corridors(),
            self.corridor_len,
            self.days,
            self.seed,
        );
        for (i, ev) in self.events.iter().enumerate() {
            let line = match *ev {
                ScenarioEvent::CascadingAccident {
                    segment,
                    day,
                    start,
                    severity,
                    duration,
                    cascade,
                    cascade_delay,
                } => format!(
                    "cascading_accident @ segment {segment}, day {day} {}: severity {severity}, \
                     {} min, {cascade} upstream cascades every {} min",
                    fmt_hhmm(start),
                    duration * 5,
                    cascade_delay * 5
                ),
                ScenarioEvent::CityEvent {
                    segment,
                    day,
                    start,
                    end,
                    radius,
                    demand,
                } => format!(
                    "city_event @ segment {segment}, day {day} {}-{}: radius {radius}, demand {demand}",
                    fmt_hhmm(start),
                    fmt_hhmm(end)
                ),
                ScenarioEvent::Outage {
                    rate,
                    mean_duration,
                    seed,
                } => format!(
                    "outage: rate {rate}, mean window {} min, seed {seed}",
                    mean_duration * 5
                ),
                ScenarioEvent::OutageWindow {
                    segment,
                    day,
                    start,
                    end,
                } => format!(
                    "outage_window @ segment {segment}, day {day} {}-{}",
                    fmt_hhmm(start),
                    fmt_hhmm(end)
                ),
                ScenarioEvent::SuperPeak { day, amp } => {
                    format!("super_peak @ day {day}: amp {amp}")
                }
            };
            out.push_str(&format!("  [{i}] {line}\n"));
        }
        out
    }
}

/// A generated corpus: the network realization of a spec plus its outage
/// schedule.
pub struct ScenarioCorpus {
    /// The spec that produced the corpus.
    pub spec: ScenarioSpec,
    /// The simulated network.
    pub network: RoadNetwork,
    /// Combined outage schedule over all segments.
    pub outage: OutagePlan,
    /// Incidents applied (primaries plus cascades plus flooded city-event
    /// segments).
    pub incidents_applied: usize,
}

impl ScenarioCorpus {
    /// Resolves `spec` against its seeded topology and runs the network
    /// dynamics. Byte-reproducible: same spec, same corpus.
    pub fn generate(spec: &ScenarioSpec) -> Self {
        let config = spec.network_config();
        let calendar = spec.calendar();
        let topology = NetworkTopology::build(&config);
        let intervals = calendar.intervals();

        let mut incidents: Vec<Incident> = Vec::new();
        let mut day_amp = vec![1.0f32; spec.days];
        let mut out_mask = vec![vec![false; intervals]; spec.segments];

        for ev in &spec.events {
            match *ev {
                ScenarioEvent::CascadingAccident {
                    segment,
                    day,
                    start,
                    severity,
                    duration,
                    cascade,
                    cascade_delay,
                } => {
                    for k in 0..=cascade {
                        let seg = topology.walk_upstream(segment, k);
                        let t0 = day * INTERVALS_PER_DAY + start + k * cascade_delay;
                        if t0 >= intervals {
                            break;
                        }
                        incidents.push(Incident {
                            kind: IncidentKind::Accident,
                            road: seg,
                            start: t0,
                            duration,
                            severity: severity * 0.75f32.powi(k as i32),
                            recovery: (duration / 2).clamp(3, 12),
                        });
                    }
                }
                ScenarioEvent::CityEvent {
                    segment,
                    day,
                    start,
                    end,
                    radius,
                    demand,
                } => {
                    for (seg, hop) in topology.neighborhood(segment, radius) {
                        incidents.push(Incident {
                            kind: IncidentKind::Event,
                            road: seg,
                            start: day * INTERVALS_PER_DAY + start,
                            duration: end - start,
                            severity: demand * 0.6f32.powi(hop as i32),
                            recovery: 6,
                        });
                    }
                }
                ScenarioEvent::Outage {
                    rate,
                    mean_duration,
                    seed,
                } => {
                    let plan = OutagePlan::generate(
                        spec.segments,
                        intervals,
                        &OutageConfig {
                            rate,
                            mean_duration,
                            seed: seed ^ spec.seed,
                        },
                    );
                    for (s, row) in out_mask.iter_mut().enumerate() {
                        for (t, cell) in row.iter_mut().enumerate() {
                            *cell |= plan.is_out(s, t);
                        }
                    }
                }
                ScenarioEvent::OutageWindow {
                    segment,
                    day,
                    start,
                    end,
                } => {
                    let t0 = day * INTERVALS_PER_DAY + start;
                    let t1 = (day * INTERVALS_PER_DAY + end).min(intervals);
                    for cell in &mut out_mask[segment][t0..t1] {
                        *cell = true;
                    }
                }
                ScenarioEvent::SuperPeak { day, amp } => {
                    day_amp[day] = amp;
                }
            }
        }

        let incidents_applied = incidents.len();
        let forcing = NetworkForcing { incidents, day_amp };
        let network = RoadNetwork::generate(config, calendar, topology, &forcing);
        ScenarioCorpus {
            spec: spec.clone(),
            network,
            outage: OutagePlan::from_mask(out_mask),
            incidents_applied,
        }
    }

    /// The `2m + 1` dataset around `segment`, built from a corridor view
    /// so `features_for_road{,_into}` semantics apply bit-identically.
    pub fn dataset_for(&self, segment: usize, m: usize, config: DataConfig) -> TrafficDataset {
        TrafficDataset::new(self.network.corridor_view(segment, m), config)
    }

    /// The outage plan restricted to the chain a `corridor_view(segment,
    /// m)` covers, row-aligned with that view.
    pub fn chain_outage_plan(&self, segment: usize, m: usize) -> OutagePlan {
        let chain = self.network.view_chain(segment, m);
        let intervals = self.network.intervals();
        let mask: Vec<Vec<bool>> = chain
            .iter()
            .map(|&s| (0..intervals).map(|t| self.outage.is_out(s, t)).collect())
            .collect();
        OutagePlan::from_mask(mask)
    }

    /// The imputed sensor view of the chain around `segment`, for
    /// evaluating predictors through the scenario's outages.
    pub fn outage_view_for(&self, segment: usize, m: usize) -> OutageView {
        let view = self.network.corridor_view(segment, m);
        OutageView::new(&view, &self.chain_outage_plan(segment, m))
    }

    /// Checksum over speeds, volumes and the outage mask — the corpus
    /// byte-identity anchor. It continues [`RoadNetwork::checksum`]'s
    /// state with that hash's own multiplier, one step per outage flag.
    pub fn checksum(&self) -> u64 {
        let mut h = self.network.checksum();
        for s in 0..self.outage.n_roads() {
            for t in 0..self.outage.intervals() {
                h ^= u64::from(self.outage.is_out(s, t));
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// A deterministic strict-JSON summary of the corpus.
    pub fn summary_json(&self) -> Json {
        let topo = self.network.topology();
        json!({
            "schema": "apots-scenario-corpus",
            "name": self.spec.name.as_str(),
            "seed": self.spec.seed,
            "segments": self.spec.segments,
            "days": self.spec.days,
            "intervals": self.network.intervals(),
            "edges": topo.n_edges(),
            "junctions": topo.n_junctions(),
            "events": self.spec.events.len(),
            "incidents_applied": self.incidents_applied,
            "outage_fraction": self.outage.outage_fraction(),
            "checksum": format!("{:#018x}", self.checksum()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text() -> String {
        ScenarioSpec::demo(64, 3).to_json().to_string_pretty()
    }

    #[test]
    fn demo_spec_round_trips() {
        let spec = ScenarioSpec::demo(64, 3);
        let parsed = ScenarioSpec::parse(&spec.to_json().to_string_pretty()).unwrap();
        assert_eq!(parsed, spec);
    }

    fn patch(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "patch source {from:?} not found");
        text.replacen(from, to, 1)
    }

    #[test]
    fn unknown_top_level_key_is_rejected_by_name() {
        let text = patch(&demo_text(), "\"days\"", "\"dayz\"");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("unknown key \"dayz\""), "{err}");
        assert!(err.contains("valid keys:"), "{err}");
    }

    #[test]
    fn unknown_event_key_is_rejected_by_name() {
        let text = patch(&demo_text(), "\"severity\"", "\"sevarity\"");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(
            err.contains("events[0] (cascading_accident)") && err.contains("\"sevarity\""),
            "{err}"
        );
    }

    #[test]
    fn unsupported_event_type_lists_valid_types() {
        let text = patch(&demo_text(), "cascading_accident", "pileup");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("type = \"pileup\""), "{err}");
        assert!(err.contains("super_peak"), "{err}");
    }

    #[test]
    fn out_of_range_severity_names_key_and_range() {
        let text = patch(&demo_text(), "\"severity\": 0.75", "\"severity\": 1.4");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("severity = 1.4"), "{err}");
        assert!(err.contains("valid: 0.05..=0.9"), "{err}");
    }

    #[test]
    fn off_grid_time_names_nearest_boundaries() {
        let text = patch(&demo_text(), "\"start\": \"08:00\"", "\"start\": \"08:03\"");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("start = \"08:03\""), "{err}");
        assert!(err.contains("use 08:00 or 08:05"), "{err}");
    }

    #[test]
    fn out_of_range_day_names_key_and_range() {
        let text = patch(&demo_text(), "\"day\": 1,", "\"day\": 9,");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("day = 9"), "{err}");
        assert!(err.contains("valid: 0..=2"), "{err}");
    }

    #[test]
    fn out_of_range_segment_names_key_and_range() {
        let text = patch(&demo_text(), "\"segment\": 21", "\"segment\": 64");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("segment = 64"), "{err}");
        assert!(err.contains("valid: 0..=63"), "{err}");
    }

    #[test]
    fn out_of_range_rate_is_rejected() {
        let text = patch(&demo_text(), "\"rate\": 0.08", "\"rate\": 1.0");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("rate = 1"), "{err}");
        assert!(err.contains("0 <= rate < 1"), "{err}");
    }

    #[test]
    fn inverted_window_is_rejected() {
        let text = patch(&demo_text(), "\"end\": \"10:00\"", "\"end\": \"05:00\"");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("must be after start"), "{err}");
    }

    #[test]
    fn missing_required_key_is_named() {
        let spec = json!({
            "schema": SCENARIO_SCHEMA,
            "name": "x",
            "seed": 1,
            "days": 3,
            "events": Vec::<Json>::new(),
        });
        let err = ScenarioSpec::parse(&spec.to_string_pretty()).unwrap_err();
        assert!(err.contains("missing required key \"segments\""), "{err}");
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let text = patch(&demo_text(), SCENARIO_SCHEMA, "apots-scenario-v2");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("schema = \"apots-scenario-v2\""), "{err}");
    }

    #[test]
    fn out_of_range_amp_names_key_and_range() {
        let text = patch(&demo_text(), "\"amp\": 1.5", "\"amp\": 4.0");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("amp = 4"), "{err}");
        assert!(err.contains("valid: 1..=3"), "{err}");
    }

    #[test]
    fn off_grid_duration_is_rejected() {
        let text = patch(&demo_text(), "\"duration_min\": 60", "\"duration_min\": 62");
        let err = ScenarioSpec::parse(&text).unwrap_err();
        assert!(err.contains("duration_min = 62"), "{err}");
        assert!(err.contains("multiple of 5"), "{err}");
    }

    #[test]
    fn corpus_is_deterministic_and_applies_events() {
        let spec = ScenarioSpec::demo(64, 3);
        let a = ScenarioCorpus::generate(&spec);
        let b = ScenarioCorpus::generate(&spec);
        assert_eq!(a.checksum(), b.checksum());
        // 1 primary + 3 cascades + a radius-2 neighbourhood (>= 3 segments).
        assert!(a.incidents_applied >= 7, "applied {}", a.incidents_applied);
        assert!(a.outage.outage_fraction() > 0.0);
        // The deterministic window is fully dark.
        let t0 = INTERVALS_PER_DAY + 6 * 12;
        assert!(a.outage.is_out(32, t0));
        assert!(a.outage.is_out(32, t0 + 47));
    }

    #[test]
    fn chain_outage_plan_aligns_with_view_rows() {
        let spec = ScenarioSpec::demo(64, 3);
        let corpus = ScenarioCorpus::generate(&spec);
        let m = 2;
        let center = 32;
        let chain = corpus.network.view_chain(center, m);
        let plan = corpus.chain_outage_plan(center, m);
        for (row, &s) in chain.iter().enumerate() {
            for t in 0..corpus.network.intervals() {
                assert_eq!(plan.is_out(row, t), corpus.outage.is_out(s, t));
            }
        }
    }

    #[test]
    fn dataset_for_reuses_feature_semantics() {
        let spec = ScenarioSpec::demo(64, 3);
        let corpus = ScenarioCorpus::generate(&spec);
        let ds = corpus.dataset_for(20, 2, DataConfig::default());
        let h = ds.corridor().target_road();
        // The recentered per-road extraction at the target road must match
        // the plain extraction — the contract serving relies on.
        let a = ds.features(40, crate::FeatureMask::BOTH);
        let b = ds.features_for_road(h, 40, crate::FeatureMask::BOTH);
        assert_eq!(a.speed_matrix, b.speed_matrix);
        assert_eq!(a.event, b.event);
        assert_eq!(a.target, b.target);
    }
}
