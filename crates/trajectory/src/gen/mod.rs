//! Synthetic trajectory dataset generators.
//!
//! The paper evaluates on Geolife, T-Drive, Chengdu, and OSM (Table I).
//! Those datasets are public but not available offline, so this module
//! provides generators that reproduce their *statistical shape* — number of
//! trajectories, points per trajectory, sampling interval, mean step length
//! — and, crucially, the cross-trajectory heterogeneity in sampling rate and
//! movement complexity that motivates collective simplification. Query
//! accuracy after simplification depends on those statistics, so
//! generators that match them stand in for the real data.

pub mod grid;
pub mod walk;

use crate::db::TrajectoryDb;
use crate::point::Point;
use crate::traj::Trajectory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grid::GridParams;
use walk::{sample_gaussian, WalkParams};

/// How large a dataset to generate. The paper's sizes (Table I) are server
/// scale; these presets keep the same *ratios* between datasets while
/// staying laptop-friendly. Spatial regions shrink super-linearly
/// (factor^0.75) so the point density a query box sees stays comparable
/// to the paper's — otherwise distribution-shifted (Gaussian/Zipf)
/// workloads would mostly land in empty space and score a vacuous 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: unit/integration tests (seconds).
    Smoke,
    /// Small: experiment defaults (tens of seconds per experiment).
    Small,
    /// Paper-shaped: as close to Table I proportions as a laptop allows.
    Paper,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.02,
            Scale::Small => 0.2,
            Scale::Paper => 1.0,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown scale: {other} (expected smoke|small|paper)"
            )),
        }
    }
}

/// The movement model a dataset draws its trajectories from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovementModel {
    /// Mixed-mode correlated random walk (pedestrian/bike/car), Geolife-like.
    MixedWalk,
    /// Sparse long-hop taxi movement, T-Drive-like.
    SparseTaxi,
    /// Road-grid-constrained short trips, Chengdu-like.
    GridTaxi,
    /// Long-haul smooth tracks, OSM-GPS-like.
    LongHaul,
}

/// Specification of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Human-readable name (matches the paper's dataset it imitates).
    pub name: &'static str,
    /// Number of trajectories `M`.
    pub num_trajectories: usize,
    /// Mean points per trajectory.
    pub mean_len: usize,
    /// Relative std-dev of trajectory length (length heterogeneity).
    pub len_jitter: f64,
    /// Sampling interval range in seconds (rate heterogeneity across the
    /// database comes from drawing a sub-range per trajectory).
    pub interval: (f64, f64),
    /// Cruise speed range (m/s) drawn per trajectory.
    pub speed: (f64, f64),
    /// Side length of the square spatial region (meters).
    pub region: f64,
    /// Temporal horizon over which trips start (seconds).
    pub horizon: f64,
    /// Movement model.
    pub model: MovementModel,
    /// Number of "hub" locations trips start/end near (taxi datasets);
    /// 0 means uniform starts.
    pub hubs: usize,
}

impl DatasetSpec {
    /// Geolife-like: dense 1–5 s sampling, small steps, long recordings,
    /// highly heterogeneous movement modes.
    pub fn geolife(scale: Scale) -> Self {
        let f = scale.factor();
        Self {
            name: "geolife",
            num_trajectories: (600.0 * f).max(8.0) as usize,
            mean_len: (1400.0 * f.max(0.1)) as usize,
            len_jitter: 0.5,
            interval: (1.0, 5.0),
            speed: (1.0, 15.0),
            region: 20_000.0 * f.powf(0.75),
            horizon: 7.0 * 86_400.0,
            model: MovementModel::MixedWalk,
            hubs: 0,
        }
    }

    /// T-Drive-like: sparse 177 s sampling, ~600 m hops, taxi hubs.
    pub fn tdrive(scale: Scale) -> Self {
        let f = scale.factor();
        Self {
            name: "tdrive",
            num_trajectories: (400.0 * f).max(8.0) as usize,
            mean_len: (1700.0 * f.max(0.1)) as usize,
            len_jitter: 0.3,
            interval: (120.0, 240.0),
            speed: (2.0, 6.0),
            region: 40_000.0 * f.powf(0.75),
            horizon: 7.0 * 86_400.0,
            model: MovementModel::SparseTaxi,
            hubs: 12,
        }
    }

    /// Chengdu-like: short grid-bound trips, 2–4 s sampling, ride-hailing
    /// pickup/dropoff hubs (used by the "real" query distribution).
    pub fn chengdu(scale: Scale) -> Self {
        let f = scale.factor();
        Self {
            name: "chengdu",
            num_trajectories: (4000.0 * f).max(24.0) as usize,
            mean_len: 178,
            len_jitter: 0.35,
            interval: (2.0, 4.0),
            speed: (5.0, 12.0),
            region: 15_000.0 * f.powf(0.75),
            horizon: 7.0 * 86_400.0,
            model: MovementModel::GridTaxi,
            hubs: 20,
        }
    }

    /// OSM-like: very long smooth tracks; used for the scalability study
    /// (Fig. 8), where only `N` matters.
    pub fn osm(scale: Scale) -> Self {
        let f = scale.factor();
        Self {
            name: "osm",
            num_trajectories: (800.0 * f).max(8.0) as usize,
            mean_len: (5600.0 * f.max(0.05)) as usize,
            len_jitter: 0.4,
            interval: (40.0, 70.0),
            speed: (10.0, 30.0),
            region: 200_000.0 * f.powf(0.75),
            horizon: 30.0 * 86_400.0,
            model: MovementModel::LongHaul,
            hubs: 0,
        }
    }

    /// All four presets at the given scale (Table I order).
    pub fn all(scale: Scale) -> [DatasetSpec; 4] {
        [
            Self::geolife(scale),
            Self::tdrive(scale),
            Self::chengdu(scale),
            Self::osm(scale),
        ]
    }

    /// Overrides the trajectory count (scalability sweeps).
    pub fn with_trajectories(mut self, m: usize) -> Self {
        self.num_trajectories = m;
        self
    }
}

/// Generates the dataset described by `spec`, deterministically for a seed.
pub fn generate(spec: &DatasetSpec, seed: u64) -> TrajectoryDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs = sample_hubs(spec, &mut rng);
    let mut trajectories = Vec::with_capacity(spec.num_trajectories);
    for _ in 0..spec.num_trajectories {
        trajectories.push(generate_one(spec, &hubs, &mut rng));
    }
    TrajectoryDb::new(trajectories)
}

/// Hub locations (e.g. taxi stands, popular pickup corners).
fn sample_hubs(spec: &DatasetSpec, rng: &mut StdRng) -> Vec<(f64, f64)> {
    (0..spec.hubs)
        .map(|_| {
            (
                rng.gen_range(0.0..spec.region),
                rng.gen_range(0.0..spec.region),
            )
        })
        .collect()
}

fn start_position(spec: &DatasetSpec, hubs: &[(f64, f64)], rng: &mut StdRng) -> (f64, f64) {
    if hubs.is_empty() || rng.gen_bool(0.25) {
        (
            rng.gen_range(0.0..spec.region),
            rng.gen_range(0.0..spec.region),
        )
    } else {
        // Near a hub, with ~400 m spread.
        let (hx, hy) = hubs[rng.gen_range(0..hubs.len())];
        (
            hx + 400.0 * sample_gaussian(rng),
            hy + 400.0 * sample_gaussian(rng),
        )
    }
}

fn generate_one(spec: &DatasetSpec, hubs: &[(f64, f64)], rng: &mut StdRng) -> Trajectory {
    let len = ((spec.mean_len as f64) * (1.0 + spec.len_jitter * sample_gaussian(rng)))
        .round()
        .max(8.0) as usize;
    let start = start_position(spec, hubs, rng);
    let start_time = rng.gen_range(0.0..spec.horizon);
    // Per-trajectory sampling-rate heterogeneity: a sub-range of the spec's
    // interval window.
    let base = rng.gen_range(spec.interval.0..=spec.interval.1);
    let interval = (base * 0.8, base * 1.2);
    let speed = rng.gen_range(spec.speed.0..=spec.speed.1);

    let traj = match spec.model {
        MovementModel::MixedWalk => {
            // Movement complexity varies per trajectory: walkers twist,
            // vehicles run straight.
            let turn_sigma = rng.gen_range(0.05..0.8);
            walk::simulate(
                &WalkParams {
                    len,
                    start,
                    start_time,
                    interval,
                    speed,
                    turn_sigma,
                    pause_prob: 0.04,
                    pause_len: 6.0,
                    gps_noise: 2.0,
                },
                rng,
            )
        }
        MovementModel::SparseTaxi => walk::simulate(
            &WalkParams {
                len,
                start,
                start_time,
                interval,
                speed,
                turn_sigma: rng.gen_range(0.2..0.6),
                pause_prob: 0.08,
                pause_len: 3.0,
                gps_noise: 10.0,
            },
            rng,
        ),
        MovementModel::GridTaxi => grid::simulate(
            &GridParams {
                len,
                start,
                start_time,
                interval,
                speed,
                block: 250.0,
                turn_prob: 0.35,
                gps_noise: 3.0,
            },
            rng,
        ),
        MovementModel::LongHaul => walk::simulate(
            &WalkParams {
                len,
                start,
                start_time,
                interval,
                speed,
                turn_sigma: rng.gen_range(0.02..0.15),
                pause_prob: 0.01,
                pause_len: 10.0,
                gps_noise: 5.0,
            },
            rng,
        ),
    };
    clamp_into_region(traj, spec.region)
}

/// Keeps coordinates inside a generous multiple of the region so octree
/// bounds stay sane; movement is reflected at the boundary.
fn clamp_into_region(traj: Trajectory, region: f64) -> Trajectory {
    let bound = 1.5 * region;
    let pts = traj
        .into_points()
        .into_iter()
        .map(|p| Point::new(reflect(p.x, bound), reflect(p.y, bound), p.t))
        .collect();
    Trajectory::from_sorted_unchecked(pts)
}

/// Reflects `v` into `[-bound, bound]` (triangle-wave folding).
fn reflect(v: f64, bound: f64) -> f64 {
    if v.abs() <= bound {
        return v;
    }
    let period = 4.0 * bound;
    let mut w = (v + bound).rem_euclid(period);
    if w > 2.0 * bound {
        w = period - w;
    }
    w - bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts() {
        let spec = DatasetSpec::geolife(Scale::Smoke);
        let db = generate(&spec, 1);
        assert_eq!(db.len(), spec.num_trajectories);
        assert!(db.total_points() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = DatasetSpec::chengdu(Scale::Smoke);
        let a = generate(&spec, 9);
        let b = generate(&spec, 9);
        assert_eq!(a.total_points(), b.total_points());
        assert_eq!(a.get(0).points(), b.get(0).points());
        let c = generate(&spec, 10);
        assert_ne!(a.get(0).points(), c.get(0).points());
    }

    #[test]
    fn sampling_intervals_match_spec() {
        let spec = DatasetSpec::tdrive(Scale::Smoke);
        let db = generate(&spec, 4);
        for (_, t) in db.iter() {
            let mean = t.mean_sampling_interval();
            assert!(
                mean >= spec.interval.0 * 0.7 && mean <= spec.interval.1 * 1.3,
                "interval {mean} outside spec {:?}",
                spec.interval
            );
        }
    }

    #[test]
    fn trajectory_lengths_are_heterogeneous() {
        let spec = DatasetSpec::geolife(Scale::Small);
        let db = generate(&spec, 2);
        let lens: Vec<usize> = db.trajectories().iter().map(Trajectory::len).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(max > min + min / 2, "lengths too uniform: {min}..{max}");
    }

    #[test]
    fn all_presets_generate_valid_databases() {
        for spec in DatasetSpec::all(Scale::Smoke) {
            let db = generate(&spec, 3);
            assert!(!db.is_empty(), "{}", spec.name);
            for (_, t) in db.iter() {
                assert!(t.len() >= 2);
                assert!(t.points().iter().all(Point::is_finite));
                assert!(t.points().windows(2).all(|w| w[1].t >= w[0].t));
            }
        }
    }

    #[test]
    fn reflect_folds_into_bounds() {
        assert_eq!(reflect(5.0, 10.0), 5.0);
        assert_eq!(reflect(12.0, 10.0), 8.0);
        assert_eq!(reflect(-12.0, 10.0), -8.0);
        for v in [-100.0, -37.5, 0.0, 19.0, 55.0, 1234.5] {
            let r = reflect(v, 10.0);
            assert!((-10.0..=10.0).contains(&r), "{v} -> {r}");
        }
    }

    #[test]
    fn scale_parses() {
        assert_eq!("smoke".parse::<Scale>().unwrap(), Scale::Smoke);
        assert_eq!("Paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert!("huge".parse::<Scale>().is_err());
    }
}
