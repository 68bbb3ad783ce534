//! What RL4QDTS's insertion loop decided at the parent commit (`7d4cb9e`),
//! **recorded there** — where every insertion re-walked the tree for its
//! start candidates, grouped the cube's points into nested `Vec`s,
//! binary-searched every point's anchor and ran on cloned agents — and
//! asserted here against the loop that computes the start distribution
//! once per job and Agent-Point's state over reused buffers.
//!
//! The rewrite keeps the selection rule and the rng consumption, so
//! equality is exact: kept sets are compared through an FNV-1a fingerprint
//! of every trajectory's kept indices, trained models through the
//! fingerprint of their serialized networks and whiteners (which pins the
//! trainer's random stream: one draw more or less and every later weight
//! differs). The benchmark's own `correct` flag compares a job with a
//! reference made by the same build; these constants are the check made by
//! something other than the build under test.

use qdts::query::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
use qdts::rl::nn::serialize::{mlp_to_string, whitener_to_string};
use qdts::rl4qdts::{train_store, IndexKind};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::snapshot::fnv1a64;
use qdts::trajectory::{PointStore, Simplification};
use qdts::{PolicyVariant, Rl4Qdts, Rl4QdtsConfig, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DATABASES: usize = 8;
const VARIANTS: [PolicyVariant; 4] = [
    PolicyVariant::FULL,
    PolicyVariant::NO_CUBE,
    PolicyVariant::NO_POINT,
    PolicyVariant::NEITHER,
];
const JOB_SEED: u64 = 1;

/// `(total, fingerprint)` per database × variant × budget (N/10, N/3)
/// under the model of [`trained`].
const KEPT: [[[(usize, u64); 2]; 4]; DATABASES] = [
    [
        [(956, 0xdb89afa1fd60fdd3), (3188, 0x9bc9d6425e389c3e)],
        [(956, 0xa2ae95e335cfcc7d), (3188, 0xffe0895e4867ceed)],
        [(956, 0x8e22c6354681ae73), (3188, 0x3b3907778fad45f8)],
        [(956, 0x2d39960a28720bc6), (3188, 0xeba71f93a503b76c)],
    ],
    [
        [(897, 0x170a90c4f2b669c1), (2993, 0xc1b2475f6557bd46)],
        [(897, 0xeab2e0e2fe57f68), (2993, 0xcbad77f2ceeff575)],
        [(897, 0xf6daad3465321c53), (2993, 0xd3dfa7b3c47769aa)],
        [(897, 0xfc0bdf7bcaf7cfd2), (2993, 0x61db55bbd5830381)],
    ],
    [
        [(847, 0x4e065a223a197988), (2824, 0x849c16c0838b1e10)],
        [(847, 0x42392b7d0bcbe831), (2824, 0x64a713809a48b6f7)],
        [(847, 0xa2ee620e3446dc66), (2824, 0xbc0b4bce00b45ac5)],
        [(847, 0xb23553c658ed6261), (2824, 0xee1548fa2c75a0d6)],
    ],
    [
        [(786, 0x5ef26e00649f645e), (2622, 0x75308ed3dcabcc86)],
        [(786, 0xe63efdd75cf7420d), (2622, 0x5cdff863f9ca42e5)],
        [(786, 0xa26c2269cbdaebce), (2622, 0x19e32423f2cb890b)],
        [(786, 0x6f3b0454a16f442f), (2622, 0xd18ca6c5282f287c)],
    ],
    [
        [(839, 0xe9d7c14660533cb3), (2799, 0xc6bdcd2366392a89)],
        [(839, 0xa1bd7cad4d88621b), (2799, 0x1dc0a2485b461568)],
        [(839, 0xac44a4f0aca246dd), (2799, 0xba772bfdfacbc0fb)],
        [(839, 0xe2e4633f44bd4d99), (2799, 0xb10f9aef7b09035d)],
    ],
    [
        [(828, 0x48e59e76970b1ffb), (2762, 0xc8b79b351246f622)],
        [(828, 0xb71756308e590577), (2762, 0x237ca8561bf07d18)],
        [(828, 0xf6c511129ff2c2b3), (2762, 0xac926ca1d1717ae5)],
        [(828, 0xacce8cc3d108c285), (2762, 0x84e9783c8861bd63)],
    ],
    [
        [(809, 0x222da12f8ae28bba), (2697, 0xdf00716f9530e261)],
        [(809, 0x772f9031fad8448d), (2697, 0x7478d17296608b40)],
        [(809, 0xe02f2ac412f6bcb), (2697, 0x236c0d479d9595d)],
        [(809, 0x3beef25fc04e85b6), (2697, 0x91386d01e7358dbd)],
    ],
    [
        [(840, 0x44479b39c2ea0d04), (2801, 0xe54cfd9a86526235)],
        [(840, 0xc5a3952aba519d19), (2801, 0x4bd07b516b33e241)],
        [(840, 0xb6676f6a5e0d11ac), (2801, 0xd0a4c61a316ccace)],
        [(840, 0x7e9590b830b75817), (2801, 0xb6c8c209fd11b644)],
    ],
];

/// Cube network, cube whitener, point network, point whitener of
/// [`trained`].
const MODEL: [u64; 4] = [
    0x4b093f187d563344,
    0xe5546ed00d87a7b9,
    0xea8fe35dad93ba5c,
    0x4398f40855c4ed13,
];

/// The same database (0) and model over the median kd-tree, with an empty
/// workload (the data-distribution fallback), and — FULL then NO_POINT —
/// from start levels 2 and 3, where the start candidates are interior
/// nodes and Agent-Cube's network decides the descent.
const KD_TREE: (usize, u64) = (956, 0xec9a6a15871aa112);
const EMPTY_WORKLOAD: (usize, u64) = (956, 0xa2ae95e335cfcc7d);
const INTERIOR_START: [[(usize, u64); 2]; 2] = [
    [(956, 0x984f5d52488c6c08), (956, 0x984f5d52488c6c08)],
    [(956, 0x55def7d934032fee), (956, 0x9bdaf7fd7e120c68)],
];

/// A model *trained* from start level 2 (Agent-Cube explores and learns),
/// and database 0 under it.
const MODEL_INTERIOR: [u64; 4] = [
    0xef70d21405bc85c4,
    0x47d8d48c8ea5e61f,
    0x7cd54d8eeda3e8ed,
    0x9920636a30caaf27,
];
const KEPT_INTERIOR: (usize, u64) = (956, 0xec787ab2f05d7f1b);

fn tdrive(trajectories: usize, seed: u64) -> PointStore {
    generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(trajectories),
        seed,
    )
    .to_store()
}

fn workload() -> RangeWorkloadSpec {
    RangeWorkloadSpec::paper_default(100, QueryDistribution::Data)
}

fn database(i: usize) -> PointStore {
    tdrive(25, 1_000 + i as u64)
}

fn state_queries(db: &PointStore, i: usize) -> Vec<qdts::trajectory::Cube> {
    range_workload_store(
        db,
        &workload(),
        &mut StdRng::seed_from_u64(2_000 + i as u64),
    )
}

fn config() -> Rl4QdtsConfig {
    Rl4QdtsConfig::scaled_to_points(database(0).total_points())
}

/// The benchmark's training run: `TrainerConfig::small` at the jobs'
/// budget ratio over a 60-trajectory pool.
fn trained(config: Rl4QdtsConfig) -> Rl4Qdts {
    let trainer = TrainerConfig {
        ratio: 0.1,
        ..TrainerConfig::small(workload())
    };
    train_store(&tdrive(60, 9), config, &trainer, 2024).0
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

fn model_bytes(model: &Rl4Qdts) -> [u64; 4] {
    let (cube, point) = model.agents();
    [
        fnv1a64(mlp_to_string(cube.online()).as_bytes()),
        fnv1a64(whitener_to_string(cube.whitener()).as_bytes()),
        fnv1a64(mlp_to_string(point.online()).as_bytes()),
        fnv1a64(whitener_to_string(point.whitener()).as_bytes()),
    ]
}

/// Collects every mismatch of a test before failing, so one run at a new
/// parent prints the whole table to record.
#[derive(Default)]
struct Mismatches(Vec<String>);

impl Mismatches {
    fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, recorded: T) {
        if got != recorded {
            self.0.push(format!("{what}: computed {got:#x?}"));
        }
    }

    fn none(self) {
        assert!(self.0.is_empty(), "{}", self.0.join("\n"));
    }
}

fn with_config(model: &Rl4Qdts, config: Rl4QdtsConfig) -> Rl4Qdts {
    let mut m = model.clone();
    m.config = config;
    m
}

#[test]
fn kept_sets_and_model_bytes_match_the_parent() {
    let config = config();
    assert_eq!(
        (config.start_level, config.max_depth, config.k),
        (5, 6, 2),
        "the benchmark's configuration"
    );
    let model = trained(config);
    let mut diff = Mismatches::default();
    diff.check("trained model", model_bytes(&model), MODEL);

    let mut got = [[[(0usize, 0u64); 2]; 4]; DATABASES];
    for (i, per_db) in got.iter_mut().enumerate() {
        let db = database(i);
        let queries = state_queries(&db, i);
        let n = db.total_points();
        for (per_variant, variant) in per_db.iter_mut().zip(VARIANTS) {
            for (slot, budget) in per_variant.iter_mut().zip([n / 10, n / 3]) {
                let simp = model.simplify_variant(&db, budget, &queries, JOB_SEED, variant);
                assert_eq!(simp.total_points(), budget, "database {i}");
                *slot = kept(&simp);
            }
        }
    }
    diff.check("kept sets", got, KEPT);
    diff.none();
}

#[test]
fn other_backends_workloads_and_start_levels_match_the_parent() {
    let config = config();
    let model = trained(config);
    let db = database(0);
    let queries = state_queries(&db, 0);
    let budget = db.total_points() / 10;
    let mut diff = Mismatches::default();

    let kd = with_config(&model, config.with_index(IndexKind::MedianKdTree));
    let got = kept(&kd.simplify_store(&db, budget, &queries, JOB_SEED));
    diff.check("median kd-tree", got, KD_TREE);

    let got = kept(&model.simplify_store(&db, budget, &[], JOB_SEED));
    diff.check("empty workload", got, EMPTY_WORKLOAD);

    let got = [2, 3].map(|level| {
        let interior = with_config(&model, config.with_start_level(level));
        [PolicyVariant::FULL, PolicyVariant::NO_POINT]
            .map(|v| kept(&interior.simplify_variant(&db, budget, &queries, JOB_SEED, v)))
    });
    diff.check("start levels 2 and 3", got, INTERIOR_START);
    diff.none();
}

#[test]
fn training_through_agent_cube_matches_the_parent() {
    let model = trained(config().with_start_level(2));
    let (cube, _) = model.agents();
    assert!(
        cube.whitener().count() > 0.0,
        "Agent-Cube decided nothing: the start candidates were leaves"
    );
    let mut diff = Mismatches::default();
    diff.check("trained model", model_bytes(&model), MODEL_INTERIOR);
    let db = database(0);
    let got = kept(&model.simplify_store(
        &db,
        db.total_points() / 10,
        &state_queries(&db, 0),
        JOB_SEED,
    ));
    diff.check("database 0", got, KEPT_INTERIOR);
    diff.none();
}
