//! Outputs of the ten operators that existed only in row form before the
//! one-layout port (PR 17), **recorded at the parent commit** (`6b325e0`, where
//! each walked a `Vec<Trajectory>`) on fixed-seed `geolife`/`tdrive`
//! `Scale::Smoke` databases, and asserted here against the columnar code.
//!
//! The port reads the same `f64`s in the same order, so equality is exact:
//! kept sets, pairs and labels are compared through an FNV-1a fingerprint,
//! floats through `f64::to_bits`. "Equal to the implementation it
//! replaced" is thereby checked by something other than the port itself.
//! Every operator runs over the owned `PointStore` and — where it only
//! reads — over the same columns behind a `MappedStore`.

use qdts::query::join::{similarity_join, JoinParams};
use qdts::query::traclus::{traclus, Label, TraclusParams};
use qdts::query::{
    range_workload_store, traj_query_workload, QueryDistribution, RangeWorkloadSpec,
};
use qdts::rl4qdts::range_query_simplified;
use qdts::simp::rlts::RltsTrainConfig;
use qdts::simp::{bounded_db, min_eps_for_budget, Adaptation, RltsPlus, Simplifier, SpanSearch};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::snapshot::{fnv1a64, write_snapshot, MappedStore};
use qdts::trajectory::{AsColumns, DatasetStats, ErrorMeasure, PointStore, Simplification};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the parent commit computed for one dataset.
struct Recorded {
    name: &'static str,
    store: fn() -> PointStore,
    /// `(db_error, mean_db_error)` bits for SED, PED, DAD, SAD against the
    /// every-fifth-point simplification.
    errors: [(u64, u64); 4],
    /// `mean_points_per_traj`, `mean_sampling_interval`,
    /// `mean_segment_length` bits.
    stats: [u64; 3],
    compression_ratios: u64,
    /// `(total, fingerprint)` of RLTS+ trained on the dataset (SED, K = 3,
    /// 10 episodes, seed 42) at a 10 % budget: "E", then "W".
    rlts: [(usize, u64); 2],
    spansearch: (usize, u64),
    /// `bounded_db` at ε = 25 m (SED, PED), 0.5 rad (DAD), 2 m/s (SAD).
    bounded: [(usize, u64); 4],
    /// `min_eps_for_budget` at a 10 % budget for SED, DAD: ε bits, total,
    /// fingerprint.
    min_eps: [(u64, usize, u64); 2],
    /// `similarity_join` at (δ, min overlap) = (2 km, 60 s), (5 km, 60 s),
    /// (20 km, 600 s), step 60 s.
    joins: [&'static [(usize, usize)]; 3],
    /// TRACLUS at ε = 30 m: segments, clusters, label fingerprint,
    /// co-clustered pairs, pair fingerprint.
    traclus: (usize, usize, u64, usize, u64),
    traj_query_workload: u64,
    /// `range_query_simplified` over a 30-cube workload: total hits,
    /// fingerprint.
    range_simplified: (usize, u64),
}

const RECORDED: [Recorded; 2] = [
    Recorded {
        name: "geolife",
        store: || generate(&DatasetSpec::geolife(Scale::Smoke), 7).to_store(),
        errors: [
            (0x4057411c0053e233, 0x4044cfaa84909ead),
            (0x4054bbf7cccd474c, 0x4041d56c8930357d),
            (0x4008d6ecc68d7786, 0x40075fc4407defad),
            (0x402a0b3ff39dca56, 0x4020d354aa27b279),
        ],
        stats: [0x4062380000000000, 0x400806a715290973, 0x403246ad45f7180f],
        compression_ratios: 0xcf9b319164c91223,
        rlts: [(174, 0xf829b9ff811f8ea0), (174, 0xd40d33110e11c41a)],
        spansearch: (167, 0x93ccafa4e394d4c6),
        bounded: [
            (231, 0x12f050c54eec9736),
            (174, 0xa9ddeea5b8cd2ec1),
            (796, 0xd100d7745fcfde56),
            (425, 0x623b8820d4bbefaa),
        ],
        min_eps: [
            (0x4041e667d1a12000, 174, 0x349ab16e1d4f3af7),
            (0x4003eb118b53c000, 174, 0x56a003b5a0af70c6),
        ],
        // Geolife trips are minutes long inside a week: none overlap.
        joins: [&[], &[], &[]],
        traclus: (1096, 49, 0xb14f4b86251688f9, 37, 0xd52b9390c3897328),
        traj_query_workload: 0xe04886630ded737f,
        range_simplified: (70, 0x96e1d4d9526fc38b),
    },
    Recorded {
        name: "tdrive",
        store: || generate(&DatasetSpec::tdrive(Scale::Smoke), 7).to_store(),
        errors: [
            (0x40ad079f493d53f6, 0x40a1e619c1bdde71),
            (0x40a8186df646e6b4, 0x40a0651acaf5c378),
            (0x400919c8574cee01, 0x40087d770bf5d70e),
            (0x401e1275368095db, 0x4015247094a21904),
        ],
        stats: [0x4064f40000000000, 0x40673b776eabb622, 0x40817db68582f808],
        compression_ratios: 0xc0f0a49522113497,
        rlts: [(134, 0x54ec6c922fbec3a4), (134, 0x2eb732c4b5589480)],
        spansearch: (106, 0x3586ff6795fa5412),
        bounded: [
            (1072, 0x11d98e507e30e122),
            (921, 0x60285b870348a74d),
            (681, 0x6260382018738175),
            (273, 0xa40ff2fe3e02aa4d),
        ],
        min_eps: [
            (0x409fc251912a2000, 134, 0xed3844dfee58f119),
            (0x40071274395fa000, 134, 0x39f86e1c4b813cda),
        ],
        joins: [&[], &[(0, 1)], &[(0, 1), (2, 7), (4, 6)]],
        traclus: (1247, 51, 0x5a677ff2a452387b, 28, 0x8d4da6e557ee24a5),
        traj_query_workload: 0x1f7fd6f6b599f093,
        range_simplified: (53, 0x289c51b6a2c24150),
    },
];

fn words_fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// `(total points, fingerprint of the kept lists)`.
fn kept(simp: &Simplification) -> (usize, u64) {
    let mut bytes = Vec::new();
    for id in 0..simp.len() {
        for &i in simp.kept(id) {
            bytes.extend(i.to_le_bytes());
        }
        bytes.extend(u32::MAX.to_le_bytes());
    }
    (simp.total_points(), fnv1a64(&bytes))
}

/// Endpoints plus every fifth point of every trajectory.
fn every_fifth(store: &PointStore) -> Simplification {
    let mut simp = Simplification::most_simplified_store(store);
    for (id, v) in store.iter() {
        for idx in (0..v.len() as u32).step_by(5) {
            simp.insert(id, idx);
        }
    }
    simp
}

/// The same columns served from a snapshot file.
fn mapped(store: &PointStore, name: &str, tag: &str) -> MappedStore {
    let path = std::env::temp_dir().join(format!(
        "qdts_parent_fixtures_{}_{name}_{tag}.snap",
        std::process::id()
    ));
    write_snapshot(store, &path).unwrap();
    let mapped = MappedStore::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    mapped
}

/// Runs `check` over the owned store and over the same columns mapped.
macro_rules! on_both_backends {
    ($r:expr, $check:ident) => {{
        let store = ($r.store)();
        $check($r, &store, "owned");
        $check($r, &mapped(&store, $r.name, stringify!($check)), "mapped");
    }};
}

fn check_errors_stats_and_ratios<S: AsColumns>(r: &Recorded, db: &S, backend: &str) {
    let simp = every_fifth(&(r.store)());
    let errors = ErrorMeasure::ALL.map(|m| {
        (
            m.db_error(db, &simp).to_bits(),
            m.mean_db_error(db, &simp).to_bits(),
        )
    });
    assert_eq!(errors, r.errors, "{} ({backend})", r.name);
    let s = DatasetStats::compute(db);
    assert_eq!(
        [
            s.mean_points_per_traj.to_bits(),
            s.mean_sampling_interval.to_bits(),
            s.mean_segment_length.to_bits(),
        ],
        r.stats,
        "{} ({backend})",
        r.name
    );
    let ratios = simp.compression_ratios(db);
    assert_eq!(
        words_fingerprint(ratios.iter().map(|x| x.to_bits())),
        r.compression_ratios,
        "{} ({backend})",
        r.name
    );
}

#[test]
fn error_measures_stats_and_ratios_match_the_parent() {
    for r in &RECORDED {
        on_both_backends!(r, check_errors_stats_and_ratios);
    }
}

fn train_rlts<S: AsColumns>(db: &S) -> RltsPlus {
    let cfg = RltsTrainConfig {
        episodes: 10,
        ..RltsTrainConfig::default()
    };
    RltsPlus::train(ErrorMeasure::Sed, Adaptation::Each, 3, db, &cfg, 42)
}

#[test]
fn rlts_plus_and_span_search_match_the_parent() {
    for r in &RECORDED {
        let store = (r.store)();
        let budget = store.total_points() / 10;
        // Training only reads: a policy trained off the mapped columns is
        // the policy trained off the owned ones.
        for (backend, rlts) in [
            ("owned", train_rlts(&store)),
            ("mapped", train_rlts(&mapped(&store, r.name, "rlts"))),
        ] {
            let each = rlts.simplify_store(&store, budget);
            let whole = rlts
                .with_adaptation(Adaptation::Whole)
                .simplify_store(&store, budget);
            assert_eq!(
                [kept(&each), kept(&whole)],
                r.rlts,
                "{} ({backend})",
                r.name
            );
        }
        assert_eq!(
            kept(&SpanSearch.simplify_store(&store, budget)),
            r.spansearch,
            "{}",
            r.name
        );
    }
}

fn check_bounded<S: AsColumns>(r: &Recorded, db: &S, backend: &str) {
    let bounded = [
        (ErrorMeasure::Sed, 25.0),
        (ErrorMeasure::Ped, 25.0),
        (ErrorMeasure::Dad, 0.5),
        (ErrorMeasure::Sad, 2.0),
    ]
    .map(|(m, eps)| kept(&bounded_db(db, m, eps)));
    assert_eq!(bounded, r.bounded, "{} ({backend})", r.name);
    let budget = db.total_points() / 10;
    let min_eps = [ErrorMeasure::Sed, ErrorMeasure::Dad].map(|m| {
        let (eps, simp) = min_eps_for_budget(db, m, budget);
        let (total, fingerprint) = kept(&simp);
        (eps.to_bits(), total, fingerprint)
    });
    assert_eq!(min_eps, r.min_eps, "{} ({backend})", r.name);
}

#[test]
fn bounded_simplification_matches_the_parent() {
    for r in &RECORDED {
        on_both_backends!(r, check_bounded);
    }
}

fn check_join_and_clustering<S: AsColumns>(r: &Recorded, db: &S, backend: &str) {
    let params = [(2_000.0, 60.0), (5_000.0, 60.0), (20_000.0, 600.0)];
    for ((delta, min_overlap), want) in params.into_iter().zip(r.joins) {
        let params = JoinParams {
            delta,
            min_overlap,
            step: 60.0,
        };
        assert_eq!(
            similarity_join(db, &params),
            want,
            "{} ({backend}) δ = {delta}",
            r.name
        );
    }

    let params = TraclusParams {
        eps: 30.0,
        ..TraclusParams::default()
    };
    let clustered = traclus(db, &params);
    let labels = words_fingerprint(clustered.labels.iter().map(|l| match l {
        Label::Cluster(c) => *c as u64,
        Label::Noise => u64::MAX,
        Label::Unvisited => u64::MAX - 1,
    }));
    let pairs = clustered.co_clustered_pairs();
    assert_eq!(
        (
            clustered.segments.len(),
            clustered.num_clusters,
            labels,
            pairs.len(),
            words_fingerprint(pairs.iter().flat_map(|&(a, b)| [a as u64, b as u64])),
        ),
        r.traclus,
        "{} ({backend})",
        r.name
    );
}

#[test]
fn join_and_clustering_match_the_parent() {
    for r in &RECORDED {
        on_both_backends!(r, check_join_and_clustering);
    }
}

fn check_workloads_and_in_place_scan<S: AsColumns>(r: &Recorded, db: &S, backend: &str) {
    let specs = traj_query_workload(db, 20, 3_600.0, &mut StdRng::seed_from_u64(11));
    assert_eq!(
        words_fingerprint(specs.iter().flat_map(|s| [
            s.query as u64,
            s.ts.to_bits(),
            s.te.to_bits()
        ])),
        r.traj_query_workload,
        "{} ({backend})",
        r.name
    );

    let simp = every_fifth(&(r.store)());
    let spec = RangeWorkloadSpec {
        count: 30,
        spatial_extent: 2_000.0,
        temporal_extent: 86_400.0,
        dist: QueryDistribution::Data,
    };
    let cubes = range_workload_store(db, &spec, &mut StdRng::seed_from_u64(23));
    let results: Vec<Vec<usize>> = cubes
        .iter()
        .map(|q| range_query_simplified(db, &simp, q))
        .collect();
    let hits: usize = results.iter().map(Vec::len).sum();
    let fingerprint = words_fingerprint(results.iter().flat_map(|ids| {
        ids.iter()
            .map(|&id| id as u64)
            .chain(std::iter::once(u64::MAX))
    }));
    assert_eq!(
        (hits, fingerprint),
        r.range_simplified,
        "{} ({backend})",
        r.name
    );
}

#[test]
fn workloads_and_the_in_place_range_scan_match_the_parent() {
    for r in &RECORDED {
        on_both_backends!(r, check_workloads_and_in_place_scan);
    }
}
