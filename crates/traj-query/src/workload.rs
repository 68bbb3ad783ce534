//! Query workload generators.
//!
//! The paper trains RL4QDTS on synthetic range-query workloads drawn from
//! one of three distributions — the data distribution, a Gaussian, or a
//! "real" ride-hailing distribution concentrated near pickup/dropoff
//! locations — and additionally evaluates transferability against Zipf
//! workloads (Fig. 9). This module generates all of them, plus the query
//! trajectories / time windows used by kNN and similarity queries.

use rand::rngs::StdRng;
use rand::Rng;
use trajectory::{AsColumns, Cube, TrajId, TrajectoryDb};

/// Where query centers come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryDistribution {
    /// Query centers are sampled points of the database itself.
    Data,
    /// Per-axis Gaussian over the normalized bounding cube
    /// (paper default: μ = 0.5, σ = 0.25).
    Gaussian {
        /// Mean in normalized `[0,1]` coordinates.
        mu: f64,
        /// Standard deviation in normalized coordinates.
        sigma: f64,
    },
    /// Per-axis Zipf over a discretized normalized axis (Fig. 9(c)).
    Zipf {
        /// Zipf exponent `a`; larger concentrates mass near the low corner.
        a: f64,
    },
    /// Ride-hailing-like: centers near trajectory start/end points
    /// (pickup/dropoff locations), with Gaussian jitter.
    Real,
}

impl std::fmt::Display for QueryDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryDistribution::Data => write!(f, "data"),
            QueryDistribution::Gaussian { mu, sigma } => write!(f, "gaussian(μ={mu},σ={sigma})"),
            QueryDistribution::Zipf { a } => write!(f, "zipf(a={a})"),
            QueryDistribution::Real => write!(f, "real"),
        }
    }
}

/// Shape of a range-query workload.
#[derive(Debug, Clone, Copy)]
pub struct RangeWorkloadSpec {
    /// Number of queries.
    pub count: usize,
    /// Side length of the square spatial region (paper: 2 km).
    pub spatial_extent: f64,
    /// Length of the temporal window (paper: 7 days).
    pub temporal_extent: f64,
    /// Distribution of query centers.
    pub dist: QueryDistribution,
}

impl RangeWorkloadSpec {
    /// The paper's default query shape: 2 km × 2 km × 7 days.
    pub fn paper_default(count: usize, dist: QueryDistribution) -> Self {
        Self {
            count,
            spatial_extent: 2_000.0,
            temporal_extent: 7.0 * 86_400.0,
            dist,
        }
    }
}

/// Row-form forward of [`range_workload_store`] for callers that hold a
/// [`TrajectoryDb`] builder: same cubes, same RNG draws.
#[must_use]
pub fn range_workload(db: &TrajectoryDb, spec: &RangeWorkloadSpec, rng: &mut StdRng) -> Vec<Cube> {
    range_workload_store(&db.to_store(), spec, rng)
}

/// Generates a range-query workload over columnar storage (owned or
/// mapped). Point-anchored distributions (`Data`, `Real`) sample their
/// anchor in O(1) straight from the columns; cube-only distributions
/// (Gaussian, Zipf) read nothing but the bounding cube.
#[must_use]
pub fn range_workload_store<S: AsColumns + ?Sized>(
    store: &S,
    spec: &RangeWorkloadSpec,
    rng: &mut StdRng,
) -> Vec<Cube> {
    let bc = store.bounding_cube();
    if bc.is_empty() {
        return Vec::new();
    }
    let zipf = match spec.dist {
        QueryDistribution::Zipf { a } => Some(ZipfSampler::new(a)),
        _ => None,
    };
    (0..spec.count)
        .map(|_| {
            let (cx, cy, ct) = sample_center(store, &bc, spec.dist, zipf.as_ref(), rng);
            Cube::centered(
                cx,
                cy,
                ct,
                spec.spatial_extent / 2.0,
                spec.spatial_extent / 2.0,
                spec.temporal_extent / 2.0,
            )
        })
        .collect()
}

fn sample_center<S: AsColumns + ?Sized>(
    store: &S,
    bc: &Cube,
    dist: QueryDistribution,
    zipf: Option<&ZipfSampler>,
    rng: &mut StdRng,
) -> (f64, f64, f64) {
    match dist {
        QueryDistribution::Data => {
            // Uniform over points (trajectories weighted by length).
            let p = store.point(rng.gen_range(0..store.total_points()) as u32);
            (p.x, p.y, p.t)
        }
        QueryDistribution::Gaussian { mu, sigma } => {
            let (ex, ey, et) = bc.extents();
            let g = |rng: &mut StdRng| (mu + sigma * gaussian(rng)).clamp(0.0, 1.0);
            (
                bc.x_min + g(rng) * ex,
                bc.y_min + g(rng) * ey,
                bc.t_min + g(rng) * et,
            )
        }
        QueryDistribution::Zipf { .. } => {
            let (ex, ey, et) = bc.extents();
            let sampler = zipf.expect("sampler prepared for zipf workloads");
            let z = |rng: &mut StdRng| sampler.sample_unit(rng);
            (
                bc.x_min + z(rng) * ex,
                bc.y_min + z(rng) * ey,
                bc.t_min + z(rng) * et,
            )
        }
        QueryDistribution::Real => {
            let v = store.view(rng.gen_range(0..store.len()));
            let p = if rng.gen_bool(0.5) {
                v.first()
            } else {
                v.last()
            };
            (
                p.x + 500.0 * gaussian(rng),
                p.y + 500.0 * gaussian(rng),
                p.t,
            )
        }
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Zipf sampler over `K = 100` buckets mapped to `[0, 1)`: rank `k` is
/// drawn from `P(k) ∝ k^-a` by inverse-CDF binary search, then jittered
/// uniformly within the bucket. The cumulative weights are computed once
/// per workload generation, not per sample.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    const K: usize = 100;

    fn new(a: f64) -> Self {
        let mut cumulative = Vec::with_capacity(Self::K);
        let mut total = 0.0;
        for k in 1..=Self::K {
            total += (k as f64).powf(-a);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    fn sample_unit(&self, rng: &mut StdRng) -> f64 {
        let total = *self.cumulative.last().expect("non-empty buckets");
        let pick = rng.gen_range(0.0..total);
        let bucket = self
            .cumulative
            .partition_point(|&c| c < pick)
            .min(Self::K - 1);
        (bucket as f64 + rng.gen_range(0.0..1.0)) / Self::K as f64
    }
}

/// A kNN or similarity query instance: a query trajectory (by id, taken
/// from the database) plus a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajQuerySpec {
    /// The query trajectory's id in the originating database.
    pub query: TrajId,
    /// Window start.
    pub ts: f64,
    /// Window end.
    pub te: f64,
}

/// Samples `count` query-trajectory specs: a random trajectory and a window
/// of `window_len` seconds positioned to overlap it (paper: 7 days, which
/// typically covers whole trajectories).
pub fn traj_query_workload<S: AsColumns + ?Sized>(
    store: &S,
    count: usize,
    window_len: f64,
    rng: &mut StdRng,
) -> Vec<TrajQuerySpec> {
    if store.is_empty() {
        return Vec::new();
    }
    (0..count)
        .map(|_| {
            let query = rng.gen_range(0..store.len());
            let (t0, t1) = store.view(query).time_span();
            // Center the window at a random instant of the trajectory.
            let c = rng.gen_range(t0..=t1.max(t0 + f64::EPSILON));
            TrajQuerySpec {
                query,
                ts: c - window_len / 2.0,
                te: c + window_len / 2.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn db() -> TrajectoryDb {
        generate(&DatasetSpec::geolife(Scale::Smoke), 5)
    }

    #[test]
    fn workload_has_requested_count_and_shape() {
        let db = db();
        let spec = RangeWorkloadSpec {
            count: 25,
            spatial_extent: 2_000.0,
            temporal_extent: 7.0 * 86_400.0,
            dist: QueryDistribution::Data,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let qs = range_workload(&db, &spec, &mut rng);
        assert_eq!(qs.len(), 25);
        for q in &qs {
            let (ex, ey, et) = q.extents();
            assert!((ex - 2_000.0).abs() < 1e-9);
            assert!((ey - 2_000.0).abs() < 1e-9);
            assert!((et - 7.0 * 86_400.0).abs() < 1e-6);
        }
    }

    #[test]
    fn data_distribution_queries_hit_data() {
        let db = db();
        let store = db.to_store();
        let spec = RangeWorkloadSpec::paper_default(50, QueryDistribution::Data);
        let mut rng = StdRng::seed_from_u64(2);
        let qs = range_workload(&db, &spec, &mut rng);
        // Every data-centered query contains at least the point it was
        // centered on.
        let hits = qs
            .iter()
            .filter(|q| !crate::range::range_query_store(&store, q).is_empty())
            .count();
        assert_eq!(hits, qs.len());
    }

    #[test]
    fn gaussian_centers_cluster_around_mu() {
        let db = db();
        let bc = db.bounding_cube();
        let spec = RangeWorkloadSpec {
            count: 300,
            spatial_extent: 10.0,
            temporal_extent: 10.0,
            dist: QueryDistribution::Gaussian {
                mu: 0.5,
                sigma: 0.1,
            },
        };
        let mut rng = StdRng::seed_from_u64(3);
        let qs = range_workload(&db, &spec, &mut rng);
        let mean_x: f64 = qs.iter().map(|q| q.center().0).sum::<f64>() / qs.len() as f64;
        let mid_x = bc.center().0;
        let (ex, _, _) = bc.extents();
        assert!(
            (mean_x - mid_x).abs() < 0.05 * ex,
            "mean {mean_x} vs mid {mid_x}"
        );
    }

    #[test]
    fn zipf_concentrates_near_origin_for_large_a() {
        let db = db();
        let bc = db.bounding_cube();
        let spec = RangeWorkloadSpec {
            count: 200,
            spatial_extent: 10.0,
            temporal_extent: 10.0,
            dist: QueryDistribution::Zipf { a: 6.0 },
        };
        let mut rng = StdRng::seed_from_u64(4);
        let qs = range_workload(&db, &spec, &mut rng);
        let (ex, _, _) = bc.extents();
        let near_min = qs
            .iter()
            .filter(|q| q.center().0 < bc.x_min + 0.1 * ex)
            .count();
        assert!(
            near_min > qs.len() / 2,
            "only {near_min}/{} near min",
            qs.len()
        );
    }

    #[test]
    fn real_distribution_is_endpoint_biased() {
        let db = db();
        let spec = RangeWorkloadSpec {
            count: 100,
            spatial_extent: 10.0,
            temporal_extent: 10.0,
            dist: QueryDistribution::Real,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let qs = range_workload(&db, &spec, &mut rng);
        // Centers should be within jitter distance of *some* endpoint.
        let endpoints: Vec<(f64, f64)> = db
            .iter()
            .flat_map(|(_, t)| [(t.first().x, t.first().y), (t.last().x, t.last().y)])
            .collect();
        for q in &qs {
            let (cx, cy, _) = q.center();
            let near = endpoints
                .iter()
                .any(|(ex, ey)| ((cx - ex).powi(2) + (cy - ey).powi(2)).sqrt() < 3_000.0);
            assert!(near, "query center ({cx},{cy}) not near any endpoint");
        }
    }

    #[test]
    fn db_and_store_workloads_are_identical() {
        // The row-form forward must draw the cubes the columnar generator
        // draws — and, for the point-anchored distributions, the cubes the
        // row-walking generator it replaced drew (fingerprints recorded at
        // the parent commit): the benchmark's `f1_range` depends on them.
        let db = db();
        let store = db.to_store();
        let fingerprint = |cubes: &[Cube]| {
            let bytes: Vec<u8> = cubes
                .iter()
                .flat_map(|c| [c.x_min, c.x_max, c.y_min, c.y_max, c.t_min, c.t_max])
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            trajectory::snapshot::fnv1a64(&bytes)
        };
        for (dist, recorded) in [
            (QueryDistribution::Data, Some(0x77bf_ceaa_8ebc_9d52)),
            (QueryDistribution::Real, Some(0x2255_4bcd_32a5_e84f)),
            (
                QueryDistribution::Gaussian {
                    mu: 0.5,
                    sigma: 0.25,
                },
                None,
            ),
            (QueryDistribution::Zipf { a: 2.0 }, None),
        ] {
            let spec = RangeWorkloadSpec {
                count: 20,
                spatial_extent: 500.0,
                temporal_extent: 500.0,
                dist,
            };
            let a = range_workload(&db, &spec, &mut StdRng::seed_from_u64(17));
            let b = range_workload_store(&store, &spec, &mut StdRng::seed_from_u64(17));
            assert_eq!(a, b, "{dist}");
            if let Some(recorded) = recorded {
                assert_eq!(fingerprint(&a), recorded, "{dist}");
            }
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let db = db();
        let spec = RangeWorkloadSpec::paper_default(10, QueryDistribution::Data);
        let a = range_workload(&db, &spec, &mut StdRng::seed_from_u64(7));
        let b = range_workload(&db, &spec, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn traj_query_workload_windows_overlap_their_trajectory() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(8);
        let specs = traj_query_workload(&db.to_store(), 20, 3_600.0, &mut rng);
        assert_eq!(specs.len(), 20);
        for s in specs {
            let (t0, t1) = db.get(s.query).time_span();
            assert!(s.ts <= t1 && s.te >= t0, "window misses its trajectory");
        }
    }

    #[test]
    fn empty_db_yields_empty_workloads() {
        let db = TrajectoryDb::default();
        let spec = RangeWorkloadSpec::paper_default(5, QueryDistribution::Data);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(range_workload(&db, &spec, &mut rng).is_empty());
        assert!(traj_query_workload(&db.to_store(), 5, 10.0, &mut rng).is_empty());
    }
}
