//! Road-network graph: thousands of segments, junctions, and congestion
//! that propagates along graph edges.
//!
//! ROADMAP item 3 grows the single `2m + 1` corridor of [`crate::sim`]
//! into a full network. The topology is a set of arterial corridors
//! (chains of segments, traffic flowing towards higher in-corridor
//! indices) stitched together at junctions: every corridor tail merges
//! into the head of the next corridor (a ring, so the graph is strongly
//! connected) and extra seeded cross-links merge mid-corridor segments
//! into neighbouring corridors.
//!
//! Congestion dynamics follow a deterministic shockwave/relaxation rule:
//! per interval, each segment's *driven* congestion (commute peaks,
//! rain, incidents) is combined with a shockwave term — the decayed,
//! lagged congestion of its downstream neighbours, because queues grow
//! backwards — and the segment's state relaxes towards that target by a
//! fixed fraction per step ([`relax_toward`]). Everything is generated
//! serially from the in-house PCG, so a `(config, forcing)` pair yields
//! byte-identical series at any `APOTS_THREADS`.
//!
//! [`RoadNetwork::corridor_view`] cuts a `2m + 1` chain around any
//! segment back out of the network as a [`Corridor`], so the existing
//! dataset/feature pipeline (`features_for_road{,_into}` semantics)
//! applies per-segment without modification.

use apots_tensor::rng::{seeded, Rng};

use crate::calendar::Calendar;
use crate::incidents::{Incident, IncidentLog};
use crate::sim::{Corridor, SimConfig};
use crate::weather::{Weather, WeatherConfig};
use crate::INTERVALS_PER_DAY;

/// Configuration of a road-network simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Total number of road segments in the network.
    pub segments: usize,
    /// Weather generator settings (network-wide series).
    pub weather: WeatherConfig,
    /// Segments per arterial corridor (the last corridor may be shorter).
    pub corridor_len: usize,
    /// Expected extra merge links per corridor (junctions beyond the
    /// tail-to-head ring).
    pub extra_links: f64,
    /// Nominal free-flow speed in km/h (per-segment variation applied).
    pub free_flow: f32,
    /// Morning commute peak congestion amplitude.
    pub morning_peak_amp: f32,
    /// Evening commute peak congestion amplitude.
    pub evening_peak_amp: f32,
    /// Weekend/holiday midday congestion amplitude.
    pub weekend_amp: f32,
    /// Fraction of the gap to the target congestion closed per step.
    pub relax: f32,
    /// Decay applied to a downstream neighbour's congestion when it
    /// propagates one edge upstream.
    pub shockwave_decay: f32,
    /// Lag (in intervals) of the propagated shockwave term.
    pub shockwave_lag: usize,
    /// Innovation std-dev of the per-segment AR(1) congestion noise.
    pub noise_std: f32,
    /// White sensor noise std-dev in km/h.
    pub sensor_noise: f32,
    /// Rate limiter: maximum fractional speed change per step.
    pub max_step_frac: f32,
    /// PCG seed for topology, free-flow variation and noise.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            segments: 1024,
            weather: WeatherConfig::default(),
            corridor_len: 16,
            extra_links: 1.5,
            free_flow: 98.0,
            morning_peak_amp: 0.55,
            evening_peak_amp: 0.60,
            weekend_amp: 0.28,
            relax: 0.35,
            shockwave_decay: 0.55,
            shockwave_lag: 2,
            noise_std: 0.012,
            sensor_noise: 1.0,
            max_step_frac: 0.45,
            seed: 23,
        }
    }
}

impl NetworkConfig {
    /// Number of corridors the segments are grouped into.
    pub fn n_corridors(&self) -> usize {
        self.segments.div_ceil(self.corridor_len)
    }
}

/// The directed graph structure of a network: adjacency plus per-segment
/// free-flow speeds. Built deterministically from a [`NetworkConfig`]
/// before any dynamics run, so scenario events can be resolved against
/// the topology (cascades walk upstream, city events flood a radius).
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    /// `downstream[s]`: segments traffic flows *into* from `s` (sorted).
    downstream: Vec<Vec<u32>>,
    /// `upstream[s]`: segments that flow into `s` (sorted).
    upstream: Vec<Vec<u32>>,
    /// Per-segment free-flow speed in km/h.
    free_flow: Vec<f32>,
}

impl NetworkTopology {
    /// Builds the seeded corridor-ring-plus-merge-links topology.
    ///
    /// # Panics
    /// Panics if `segments == 0` or `corridor_len < 2`.
    pub fn build(config: &NetworkConfig) -> Self {
        assert!(config.segments > 0, "NetworkTopology: zero segments");
        assert!(
            config.corridor_len >= 2,
            "NetworkTopology: corridor_len >= 2"
        );
        let n = config.segments;
        let len = config.corridor_len;
        let n_corridors = config.n_corridors();
        let mut rng = seeded(config.seed ^ 0x7090_10B0);

        let mut downstream: Vec<Vec<u32>> = vec![Vec::new(); n];
        let add_edge = |down: &mut Vec<Vec<u32>>, from: usize, to: usize| {
            if from != to && !down[from].contains(&(to as u32)) {
                down[from].push(to as u32);
            }
        };

        // In-corridor chains plus the tail-to-next-head ring.
        for c in 0..n_corridors {
            let base = c * len;
            let end = ((c + 1) * len).min(n);
            for s in base..end - 1 {
                add_edge(&mut downstream, s, s + 1);
            }
            let next_head = ((c + 1) % n_corridors) * len;
            add_edge(&mut downstream, end - 1, next_head);
        }

        // Extra merge links: a mid-corridor segment flows into a segment
        // of another corridor (a junction where two streams meet).
        for c in 0..n_corridors {
            let expected = config.extra_links;
            let mut links = expected.floor() as usize;
            if rng.random_bool((expected - expected.floor()).clamp(0.0, 1.0)) {
                links += 1;
            }
            let base = c * len;
            let end = ((c + 1) * len).min(n);
            for _ in 0..links {
                let from = rng.random_range(base..end);
                let other = rng.random_range(0..n_corridors);
                let obase = other * len;
                let oend = ((other + 1) * len).min(n);
                let to = rng.random_range(obase..oend);
                add_edge(&mut downstream, from, to);
            }
        }

        let mut upstream: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (s, downs) in downstream.iter_mut().enumerate() {
            downs.sort_unstable();
            for &d in downs.iter() {
                upstream[d as usize].push(s as u32);
            }
        }
        for ups in &mut upstream {
            ups.sort_unstable();
        }

        let free_flow: Vec<f32> = (0..n)
            .map(|_| config.free_flow * (0.92 + 0.16 * rng.random::<f32>()))
            .collect();

        Self {
            downstream,
            upstream,
            free_flow,
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.downstream.len()
    }

    /// Total number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.downstream.iter().map(Vec::len).sum()
    }

    /// Number of junction segments (in-degree or out-degree above 1).
    pub fn n_junctions(&self) -> usize {
        (0..self.n_segments())
            .filter(|&s| self.downstream[s].len() > 1 || self.upstream[s].len() > 1)
            .count()
    }

    /// Downstream neighbours of `s` (sorted segment indices).
    pub fn downstream(&self, s: usize) -> &[u32] {
        &self.downstream[s]
    }

    /// Upstream neighbours of `s` (sorted segment indices).
    pub fn upstream(&self, s: usize) -> &[u32] {
        &self.upstream[s]
    }

    /// Per-segment free-flow speeds.
    pub fn free_flow(&self) -> &[f32] {
        &self.free_flow
    }

    /// Segments within `radius` undirected hops of `center`, with their
    /// hop distance, in deterministic BFS order (neighbours visited in
    /// ascending segment order).
    pub fn neighborhood(&self, center: usize, radius: usize) -> Vec<(usize, usize)> {
        let mut seen = vec![false; self.n_segments()];
        let mut frontier = vec![center];
        seen[center] = true;
        let mut out = vec![(center, 0usize)];
        for hop in 1..=radius {
            let mut next = Vec::new();
            for &s in &frontier {
                let mut adj: Vec<u32> = self.upstream[s]
                    .iter()
                    .chain(&self.downstream[s])
                    .copied()
                    .collect();
                adj.sort_unstable();
                for a in adj {
                    let a = a as usize;
                    if !seen[a] {
                        seen[a] = true;
                        next.push(a);
                        out.push((a, hop));
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Walks `hops` edges upstream from `s`, taking the lowest-index
    /// neighbour at each step and staying put at sources. Deterministic;
    /// used for accident cascades and corridor views.
    pub fn walk_upstream(&self, s: usize, hops: usize) -> usize {
        let mut cur = s;
        for _ in 0..hops {
            match self.upstream[cur].first() {
                Some(&u) => cur = u as usize,
                None => break,
            }
        }
        cur
    }

    /// Walks `hops` edges downstream, mirroring [`Self::walk_upstream`].
    pub fn walk_downstream(&self, s: usize, hops: usize) -> usize {
        let mut cur = s;
        for _ in 0..hops {
            match self.downstream[cur].first() {
                Some(&d) => cur = d as usize,
                None => break,
            }
        }
        cur
    }
}

/// Exogenous forcing applied to a network simulation: scenario incidents
/// (already resolved against the topology) and per-day demand
/// multipliers (holiday super-peaks).
#[derive(Debug, Clone, Default)]
pub struct NetworkForcing {
    /// Incidents with `road` interpreted as a segment index.
    pub incidents: Vec<Incident>,
    /// Per-day multiplier on the commute/weekend amplitudes; missing
    /// days default to 1.0.
    pub day_amp: Vec<f32>,
}

impl NetworkForcing {
    fn amp(&self, day: usize) -> f32 {
        self.day_amp.get(day).copied().unwrap_or(1.0)
    }
}

/// One relaxation step: moves `prev` a fraction `relax` of the way to
/// `target`. The core of the shockwave/relaxation rule, exposed so the
/// property suite can pin its monotonicity in isolation.
pub fn relax_toward(prev: f32, target: f32, relax: f32) -> f32 {
    prev + relax * (target - prev)
}

/// A simulated road network: per-segment speed/volume series plus the
/// topology and exogenous series that produced them.
pub struct RoadNetwork {
    config: NetworkConfig,
    calendar: Calendar,
    weather: Weather,
    incidents: IncidentLog,
    topology: NetworkTopology,
    /// `speeds[segment][t]` in km/h.
    speeds: Vec<Vec<f32>>,
    /// `volumes[segment][t]` in veh/h (Greenshields, as in the corridor).
    volumes: Vec<Vec<f32>>,
}

impl RoadNetwork {
    /// Builds the topology and runs the dynamics with no scenario
    /// forcing (benchmarks and property tests).
    pub fn generate_plain(config: NetworkConfig, calendar: Calendar) -> Self {
        let topology = NetworkTopology::build(&config);
        Self::generate(config, calendar, topology, &NetworkForcing::default())
    }

    /// Runs the network dynamics over `calendar` with the given topology
    /// and forcing. Fully serial and PCG-seeded: byte-reproducible and
    /// invariant under `APOTS_THREADS`.
    ///
    /// # Panics
    /// Panics if `topology` does not match `config.segments`.
    pub fn generate(
        config: NetworkConfig,
        calendar: Calendar,
        topology: NetworkTopology,
        forcing: &NetworkForcing,
    ) -> Self {
        assert_eq!(
            topology.n_segments(),
            config.segments,
            "RoadNetwork: topology/config segment mismatch"
        );
        let n_seg = config.segments;
        let n = calendar.intervals();
        let mut rng = seeded(config.seed);
        let weather = Weather::generate(&calendar, &config.weather, &mut rng);
        let incidents = IncidentLog::from_incidents(n_seg, n, forcing.incidents.clone());

        let len = config.corridor_len;
        let half = len as f32 / 2.0;

        // True (pre-noise) congestion state per segment, with full history
        // so the lagged shockwave term can look back `shockwave_lag` per hop.
        let mut cong = vec![vec![0.0f32; n]; n_seg];
        let mut noise_state = vec![0.0f32; n_seg];
        let mut speeds = vec![vec![0.0f32; n]; n_seg];

        for t in 0..n {
            let day = calendar.day_of(t);
            let dt = calendar.day_type(day);
            let amp = forcing.amp(day);
            let tau = (t % INTERVALS_PER_DAY) as f32;
            let c_rain = (0.45 * weather.precipitation[t]).min(0.35);

            for s in 0..n_seg {
                // Commute peaks with in-corridor phase lag, as in the
                // single-corridor simulator, scaled by the day's
                // super-peak multiplier.
                let pos = (s % len) as f32;
                let shift = (half - pos) * 1.5;
                let mut c_rush = 0.0f32;
                if dt.weekday {
                    c_rush += amp * config.morning_peak_amp * gaussian_bump(tau, 93.0 + shift, 9.0);
                    let evening_amp = if dt.day_before_holiday {
                        config.evening_peak_amp * 1.3
                    } else {
                        config.evening_peak_amp
                    };
                    c_rush += amp * evening_amp * gaussian_bump(tau, 222.0 + shift, 12.0);
                } else {
                    c_rush += amp * config.weekend_amp * gaussian_bump(tau, 170.0 + shift, 30.0);
                    if dt.day_after_holiday {
                        c_rush += amp * 0.35 * gaussian_bump(tau, 228.0 + shift, 18.0);
                    }
                }

                let c_inc = incidents.severity(s, t).min(0.9);
                let driven = 1.0 - (1.0 - c_rush.min(0.9)) * (1.0 - c_rain) * (1.0 - c_inc);

                // Shockwave: the worst downstream queue, decayed by one
                // edge and lagged (queues grow backwards into `s`).
                let mut c_prop = 0.0f32;
                if t >= config.shockwave_lag {
                    let t_lag = t - config.shockwave_lag;
                    for &d in topology.downstream(s) {
                        c_prop = c_prop.max(config.shockwave_decay * cong[d as usize][t_lag]);
                    }
                }

                let target = driven.max(c_prop).min(0.93);
                let prev = if t == 0 { 0.0 } else { cong[s][t - 1] };
                cong[s][t] = relax_toward(prev, target, config.relax);
            }

            // Observation pass: AR(1) congestion noise + sensor noise +
            // rate limiter, drawn in fixed (t, s) order from the one PCG.
            for s in 0..n_seg {
                noise_state[s] = 0.85 * noise_state[s]
                    + apots_tensor::rng::normal(&mut rng, 0.0, config.noise_std);
                let c_obs = (cong[s][t] + noise_state[s]).clamp(0.0, 0.93);
                let ff = topology.free_flow[s];
                let mut v = ff * (1.0 - c_obs)
                    + apots_tensor::rng::normal(&mut rng, 0.0, config.sensor_noise);
                if t > 0 {
                    let prev = speeds[s][t - 1];
                    v = v.clamp(
                        prev * (1.0 - config.max_step_frac),
                        prev * (1.0 + config.max_step_frac),
                    );
                }
                speeds[s][t] = v.clamp(5.0, ff * 1.05);
            }
        }

        // Volumes via the Greenshields fundamental diagram, from an
        // independent stream so a segment's series only depends on its
        // own speeds (identical across any corridor view containing it).
        let k_jam = 120.0f32;
        let mut volumes = vec![vec![0.0f32; n]; n_seg];
        let mut vol_rng = seeded(config.seed ^ 0x0F10_77AA);
        for s in 0..n_seg {
            let vf = topology.free_flow[s];
            for t in 0..n {
                let v = speeds[s][t];
                let q = k_jam * v * (1.0 - (v / vf).min(1.0));
                volumes[s][t] = (q + apots_tensor::rng::normal(&mut vol_rng, 0.0, 25.0)).max(0.0);
            }
        }

        Self {
            config,
            calendar,
            weather,
            incidents,
            topology,
            speeds,
            volumes,
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.speeds.len()
    }

    /// Number of 5-minute intervals simulated.
    pub fn intervals(&self) -> usize {
        self.calendar.intervals()
    }

    /// Speed of `segment` at interval `t` in km/h.
    pub fn speed(&self, segment: usize, t: usize) -> f32 {
        self.speeds[segment][t]
    }

    /// The whole speed series of `segment`.
    pub fn segment_speeds(&self, segment: usize) -> &[f32] {
        &self.speeds[segment]
    }

    /// The whole volume series of `segment`.
    pub fn segment_volumes(&self, segment: usize) -> &[f32] {
        &self.volumes[segment]
    }

    /// The network topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The simulation calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// The scenario incident log (roads = segments).
    pub fn incidents(&self) -> &IncidentLog {
        &self.incidents
    }

    /// The configuration used.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The chain of segments a `2m + 1` corridor view around `center`
    /// covers, upstream first: `[u_m, …, u_1, center, d_1, …, d_m]`.
    /// Walks the lowest-index neighbour per hop and repeats the boundary
    /// segment at sources/sinks (mirroring the feature pipeline's edge
    /// clamping).
    pub fn view_chain(&self, center: usize, m: usize) -> Vec<usize> {
        let mut chain = Vec::with_capacity(2 * m + 1);
        for hop in (1..=m).rev() {
            chain.push(self.topology.walk_upstream(center, hop));
        }
        chain.push(center);
        for hop in 1..=m {
            chain.push(self.topology.walk_downstream(center, hop));
        }
        chain
    }

    /// Cuts the `2m + 1` chain around `center` out of the network as a
    /// [`Corridor`], so [`crate::dataset::TrafficDataset`] — and with it
    /// `features_for_road{,_into}` — applies to network segments with
    /// bit-identical semantics. Speeds, volumes, free-flow and incident
    /// flags are copied row-for-row from the network series.
    pub fn corridor_view(&self, center: usize, m: usize) -> Corridor {
        assert!(center < self.n_segments(), "corridor_view: segment range");
        let chain = self.view_chain(center, m);
        let n = self.intervals();
        let n_roads = 2 * m + 1;

        let speeds: Vec<Vec<f32>> = chain.iter().map(|&s| self.speeds[s].clone()).collect();
        let volumes: Vec<Vec<f32>> = chain.iter().map(|&s| self.volumes[s].clone()).collect();
        let free_flow: Vec<f32> = chain.iter().map(|&s| self.topology.free_flow[s]).collect();

        // Remap network incidents onto chain rows; a segment repeated by
        // boundary clamping contributes to every row it occupies.
        let mut incidents = Vec::new();
        for (row, &s) in chain.iter().enumerate() {
            for inc in self.incidents.incidents() {
                if inc.road == s {
                    incidents.push(Incident {
                        road: row,
                        ..inc.clone()
                    });
                }
            }
        }
        let log = IncidentLog::from_incidents(n_roads, n, incidents);

        let sim_config = SimConfig {
            m,
            free_flow: self.config.free_flow,
            morning_peak_amp: self.config.morning_peak_amp,
            evening_peak_amp: self.config.evening_peak_amp,
            weekend_amp: self.config.weekend_amp,
            propagation_decay: self.config.shockwave_decay,
            propagation_lag: self.config.shockwave_lag,
            noise_std: self.config.noise_std,
            sensor_noise: self.config.sensor_noise,
            max_step_frac: self.config.max_step_frac,
            seed: self.config.seed,
            ..SimConfig::default()
        };

        Corridor::from_parts(
            sim_config,
            self.calendar.clone(),
            self.weather.clone(),
            log,
            speeds,
            volumes,
            free_flow,
        )
    }

    /// FNV-1a-style checksum over the bit patterns of every speed and
    /// volume sample in segment-major order — the corpus byte-identity
    /// anchor. Its multiplier is `0x1000_0000_01b3`, not the FNV prime
    /// of `apots_serde::atomic::Fnv1a`; the network report golden and
    /// every recorded corpus checksum pin that value.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u32| {
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for row in self.speeds.iter().chain(&self.volumes) {
            for v in row {
                eat(v.to_bits());
            }
        }
        h
    }
}

/// Unnormalised Gaussian bump `exp(−(x−mu)²/(2σ²))`.
fn gaussian_bump(x: f32, mu: f32, sigma: f32) -> f32 {
    let z = (x - mu) / sigma;
    (-0.5 * z * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RoadNetwork {
        let config = NetworkConfig {
            segments: 64,
            corridor_len: 8,
            ..NetworkConfig::default()
        };
        RoadNetwork::generate_plain(config, Calendar::new(3, 6, vec![]))
    }

    #[test]
    fn topology_is_connected_and_sized() {
        let net = small();
        let topo = net.topology();
        assert_eq!(topo.n_segments(), 64);
        // Ring + chains alone give one edge per segment; merges add more.
        assert!(topo.n_edges() >= 64, "edges {}", topo.n_edges());
        assert!(topo.n_junctions() > 0, "expected at least one junction");
        // Every segment must have at least one downstream (chain or ring).
        for s in 0..64 {
            assert!(!topo.downstream(s).is_empty(), "sink at {s}");
        }
    }

    #[test]
    fn speeds_within_physical_bounds() {
        let net = small();
        for s in 0..net.n_segments() {
            let ff = net.topology().free_flow()[s];
            for t in 0..net.intervals() {
                let v = net.speed(s, t);
                assert!(v.is_finite() && (5.0..=ff * 1.05 + 1e-3).contains(&v));
            }
        }
    }

    #[test]
    fn corridor_view_rows_match_network_series() {
        let net = small();
        let m = 2;
        let view = net.corridor_view(19, m);
        let chain = net.view_chain(19, m);
        assert_eq!(view.n_roads(), 2 * m + 1);
        assert_eq!(view.target_road(), m);
        for (row, &s) in chain.iter().enumerate() {
            assert_eq!(view.road_speeds(row), net.segment_speeds(s));
            assert_eq!(view.road_volumes(row), net.segment_volumes(s));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.checksum(), b.checksum());
        let other = RoadNetwork::generate_plain(
            NetworkConfig {
                segments: 64,
                corridor_len: 8,
                seed: 24,
                ..NetworkConfig::default()
            },
            Calendar::new(3, 6, vec![]),
        );
        assert_ne!(a.checksum(), other.checksum());
    }

    #[test]
    fn forced_accident_slows_its_segment() {
        let config = NetworkConfig {
            segments: 32,
            corridor_len: 8,
            ..NetworkConfig::default()
        };
        let cal = Calendar::new(2, 0, vec![]);
        let topo = NetworkTopology::build(&config);
        let quiet = RoadNetwork::generate(
            config.clone(),
            cal.clone(),
            topo.clone(),
            &NetworkForcing::default(),
        );
        let forcing = NetworkForcing {
            incidents: vec![Incident {
                kind: crate::incidents::IncidentKind::Accident,
                road: 12,
                start: 130,
                duration: 24,
                severity: 0.8,
                recovery: 12,
            }],
            day_amp: Vec::new(),
        };
        let hit = RoadNetwork::generate(config, cal, topo, &forcing);
        let mean =
            |net: &RoadNetwork| -> f32 { (135..150).map(|t| net.speed(12, t)).sum::<f32>() / 15.0 };
        assert!(
            mean(&hit) < mean(&quiet) - 10.0,
            "accident window {} vs quiet {}",
            mean(&hit),
            mean(&quiet)
        );
    }

    #[test]
    fn super_peak_amplifies_rush_hour() {
        let config = NetworkConfig {
            segments: 32,
            corridor_len: 8,
            noise_std: 0.0,
            sensor_noise: 0.0,
            ..NetworkConfig::default()
        };
        let cal = Calendar::new(2, 0, vec![]); // two weekdays
        let topo = NetworkTopology::build(&config);
        let plain = RoadNetwork::generate(
            config.clone(),
            cal.clone(),
            topo.clone(),
            &NetworkForcing::default(),
        );
        let peak = RoadNetwork::generate(
            config,
            cal,
            topo,
            &NetworkForcing {
                incidents: Vec::new(),
                day_amp: vec![1.0, 1.6],
            },
        );
        // Day 1 at ~07:45 must be slower under the super-peak.
        let t = 288 + 93;
        assert!(peak.speed(4, t) < plain.speed(4, t) - 3.0);
        // Day 0 is untouched.
        assert_eq!(peak.speed(4, 93), plain.speed(4, 93));
    }
}
