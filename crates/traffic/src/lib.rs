//! # apots-traffic
//!
//! The data substrate for the APOTS reproduction: a mechanistic expressway
//! corridor simulator standing in for the proprietary Hyundai Motor Company
//! dataset (Gyeongbu Expressway, July–October 2018), plus the feature
//! pipeline of the paper:
//!
//! * [`calendar`] — the 122-day period, weekday structure and the 7 Korean
//!   holidays in the window, encoded as the paper's 4-flag day type
//!   (weekday / holiday / day-before / day-after);
//! * [`weather`] — synthetic temperature and precipitation series standing
//!   in for the crawled Korea Meteorological Administration logs;
//! * [`incidents`] — Poisson accidents with recovery ramps, construction
//!   zones and scheduled events;
//! * [`sim`] — the corridor speed generator: rush-hour congestion, rain
//!   slowdowns, incident shockwaves that propagate to upstream segments
//!   (the spatio-temporal correlation the paper's adjacent-speed data
//!   exploits), plus autocorrelated and sensor noise;
//! * [`dataset`] — sliding-window samples (one per 5-minute interval),
//!   leakage-safe block train/test splitting with overlap discarding, and
//!   min–max normalization fitted on training data only;
//! * [`features`] — the encodings of §IV-A: speed-only input, the
//!   adjacent-speed matrix of Eq 6, non-speed data (event / weather / time)
//!   and the ablation masks used by Fig 5 and Table II;
//! * [`scenarios`] — locating the Fig 1 / Fig 6 case-study windows (rush
//!   hour, rainy day, accident recovery) inside a simulated corridor;
//! * [`outage`] — deterministic sensor-outage schedules (per-road dropout
//!   windows) and the LOCF + segment-mean imputation that feeds the
//!   degradation curves of `apots::degrade`;
//! * [`network`] — the network-scale generalization (DESIGN.md §16): a
//!   road-network graph of spliced mainline chains with merge/diverge
//!   junctions, congestion propagating upstream via a lagged, per-hop
//!   attenuated shockwave term under exponential relaxation;
//! * [`scenario_dsl`] — the strict-JSON scenario language (cascading
//!   accidents, city-wide events, outage windows, holiday super-peaks)
//!   and the deterministic corpus expansion that turns a spec into a
//!   checksummed [`network::RoadNetwork`] plus per-segment datasets.

pub mod calendar;
pub mod dataset;
pub mod features;
pub mod incidents;
pub mod network;
pub mod outage;
pub mod scenario_dsl;
pub mod scenarios;
pub mod sim;
pub mod weather;

pub use calendar::{Calendar, DayType};
pub use dataset::{DataConfig, Normalizer, TrafficDataset};
pub use features::{FeatureMask, NonSpeedMask, SampleFeatures};
pub use incidents::{Incident, IncidentKind, IncidentLog};
pub use network::{NetworkConfig, NetworkForcing, NetworkTopology, RoadNetwork};
pub use outage::{OutageConfig, OutagePlan, OutageView};
pub use scenario_dsl::{ScenarioCorpus, ScenarioEvent, ScenarioSpec};
pub use sim::{Corridor, SimConfig};
pub use weather::Weather;

/// Number of 5-minute intervals per day.
pub const INTERVALS_PER_DAY: usize = 288;

/// The `"HH:MM"` form of an interval-of-day.
pub fn fmt_hhmm(interval: usize) -> String {
    format!("{:02}:{:02}", interval / 12, interval % 12 * 5)
}

/// Parses an `"HH:MM"` time of day — exactly two ASCII digits either
/// side of the colon — into its interval-of-day. The time must lie on the
/// 5-minute grid: flooring `06:04` to `06:00` would answer a different
/// question than asked, so the error names both neighbours instead.
/// Errors read `{what} = "…" …`.
pub fn interval_of_hhmm(what: &str, s: &str) -> Result<usize, String> {
    let two_digits = |t: &str| match *t.as_bytes() {
        [hi @ b'0'..=b'9', lo @ b'0'..=b'9'] => {
            Some(usize::from(hi - b'0') * 10 + usize::from(lo - b'0'))
        }
        _ => None,
    };
    let parsed = s
        .split_once(':')
        .and_then(|(hh, mm)| Some((two_digits(hh)?, two_digits(mm)?)));
    let Some((h, m)) = parsed else {
        return Err(format!("{what} = {s:?} is not an \"HH:MM\" time"));
    };
    if h > 23 || m > 59 {
        return Err(format!(
            "{what} = {s:?} out of range (valid: 00:00..=23:55)"
        ));
    }
    if !m.is_multiple_of(5) {
        return Err(format!(
            "{what} = {s:?} is not on a 5-minute boundary (intervals are \
             5 minutes; use {h:02}:{:02} or {h:02}:{:02})",
            m - m % 5,
            (m - m % 5 + 5).min(55),
        ));
    }
    Ok(h * 12 + m / 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hhmm_parses_five_minute_boundaries() {
        assert_eq!(interval_of_hhmm("t", "00:00").unwrap(), 0);
        assert_eq!(interval_of_hhmm("t", "06:05").unwrap(), 6 * 12 + 1);
        assert_eq!(interval_of_hhmm("t", "23:55").unwrap(), 287);
        for interval in 0..INTERVALS_PER_DAY {
            assert_eq!(interval_of_hhmm("t", &fmt_hhmm(interval)), Ok(interval));
        }
    }

    #[test]
    fn hhmm_rejects_out_of_range() {
        assert!(interval_of_hhmm("t", "24:00")
            .unwrap_err()
            .contains("out of range"));
        assert!(interval_of_hhmm("t", "12:60")
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn hhmm_rejects_off_grid_minutes_instead_of_flooring() {
        // 06:04 used to silently mean 06:00 — the error must name the
        // nearest valid boundaries, not guess for the user.
        let err = interval_of_hhmm("t", "06:04").unwrap_err();
        assert!(err.contains("5-minute"), "{err}");
        assert!(err.contains("06:00") && err.contains("06:05"), "{err}");
        let err = interval_of_hhmm("t", "23:59").unwrap_err();
        assert!(err.contains("23:55"), "{err}");
    }

    #[test]
    fn hhmm_rejects_malformed_strings() {
        assert!(interval_of_hhmm("t", "0600").is_err());
        assert!(interval_of_hhmm("t", "six:ten").is_err());
        assert!(interval_of_hhmm("t", "06:").is_err());
    }

    /// The grammar is exactly two ASCII digits either side of one colon;
    /// `usize::from_str` used to let a sign, a short field and extra
    /// digits through.
    #[test]
    fn hhmm_grammar_is_two_ascii_digits_each_side() {
        let not_hhmm = |s: &str| format!("--from = {s:?} is not an \"HH:MM\" time");
        for s in [
            "+6:05", "6:05", "6:5", "06:5", "006:05", "06:005", "-1:00", " 06:05", "06:05 ",
            "06:05:00", "06-05", "０6:05", "", ":",
        ] {
            assert_eq!(interval_of_hhmm("--from", s), Err(not_hhmm(s)), "{s:?}");
        }
        for (s, text) in [
            ("24:00", "out of range (valid: 00:00..=23:55)"),
            (
                "08:03",
                "is not on a 5-minute boundary (intervals are 5 minutes; use 08:00 or 08:05)",
            ),
            (
                "06:04",
                "is not on a 5-minute boundary (intervals are 5 minutes; use 06:00 or 06:05)",
            ),
            (
                "23:59",
                "is not on a 5-minute boundary (intervals are 5 minutes; use 23:55 or 23:55)",
            ),
        ] {
            assert_eq!(
                interval_of_hhmm("--from", s),
                Err(format!("--from = {s:?} {text}"))
            );
        }
        assert_eq!(interval_of_hhmm("--from", "08:00"), Ok(96));
    }
}
