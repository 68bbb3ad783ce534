//! `simplify-offline`: the paper's job — collective, query-driven
//! simplification of a database to a 10 % budget — in process, on one
//! thread, with no sockets. Ops are input points; a request is one job
//! (`Rl4Qdts::simplify`: octree build, query assignment, insertion loop)
//! over one of a few small databases, cycling, so that each slice of the
//! window holds hundreds of jobs.
//!
//! `rl4qdts`, `tiny-rl` and the `traj-index` build and cube walk do all
//! the work here; the serving stack does none.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{train, PolicyVariant, Rl4Qdts, Rl4QdtsConfig, TrainerConfig};
use traj_query::{
    range_workload, DbOptions, QueryDistribution, QueryEngine, QueryExecutor, RangeWorkloadSpec,
    TrajDb,
};
use traj_simp::write_simplified_snapshot;
use trajectory::{Cube, PointStore, Simplification, TrajId, TrajectoryDb};

use super::{err, file_overhead, file_window, traced_turn, SetupClock};
use crate::inputs::{batches, dataset, probe_cubes, sub_seed, Mix, CORPUS_SEED};
use crate::measure::{closed_loop, peak_rss_mb};
use crate::oracle::{mean_f1_of, Oracle, Tally};
use crate::probes;
use crate::report::{Outcome, RunCfg};
use crate::spans::{self, Recorder, NO_PARENT};
use crate::stats::median;

/// Seed of the start-cube sampling inside a job: fixed, so a job's answer
/// repeats exactly and can be checked.
const JOB_SEED: u64 = 1;

/// Corpus streams of this workload: the training pool, database `i`, and
/// the state queries and probe cubes of the quality probe on database `i`.
const POOL: u64 = 9;
const DATABASE: u64 = 10;
const PROBE_STATE: u64 = 100;
const PROBE_CUBES: u64 = 200;

/// State queries per database (the paper's 100-query windows).
const STATE_QUERIES: usize = 100;

fn workload_spec() -> RangeWorkloadSpec {
    RangeWorkloadSpec::paper_default(STATE_QUERIES, QueryDistribution::Data)
}

/// A small, fixed training run: 4 databases of 40 trajectories, 2
/// episodes each, at the budget the jobs use.
fn trainer() -> TrainerConfig {
    TrainerConfig {
        ratio: 0.1,
        ..TrainerConfig::small(workload_spec())
    }
}

struct Job {
    db: TrajectoryDb,
    store: PointStore,
    budget: usize,
    /// Drawn from `--seed`: what the timed jobs are driven by.
    state_queries: Vec<Cube>,
    /// Drawn from the corpus seed: what the scored D′ is driven by.
    probe_state_queries: Vec<Cube>,
}

/// What a correct answer must satisfy whatever the policy chose: within
/// budget, endpoints kept, kept indices ascending and inside the
/// trajectory.
fn well_formed(job: &Job, simp: &Simplification) -> bool {
    simp.len() == job.db.len()
        && simp.total_points() <= job.budget.max(2 * job.db.len())
        && job.db.iter().all(|(id, t)| {
            let kept = simp.kept(id);
            kept.first() == Some(&0)
                && kept.last() == Some(&(t.len() as u32 - 1))
                && kept.windows(2).all(|w| w[0] < w[1])
        })
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t = Instant::now();
    let pool = dataset(cfg.sizes.pool_trajs, POOL);
    let jobs: Vec<Job> = (0..cfg.sizes.offline_dbs as u64)
        .map(|i| {
            let db = dataset(cfg.sizes.offline_trajs, DATABASE + i);
            let draw =
                |seed| range_workload(&db, &workload_spec(), &mut StdRng::seed_from_u64(seed));
            Job {
                state_queries: draw(sub_seed(cfg.seed, i)),
                probe_state_queries: draw(sub_seed(CORPUS_SEED, PROBE_STATE + i)),
                store: db.to_store(),
                budget: db.total_points() / 10,
                db,
            }
        })
        .collect();
    let config = Rl4QdtsConfig::scaled_to(&jobs[0].db);
    out.set("bench.datagen_s", t.elapsed().as_secs_f64());
    out.note("peak_rss_after_datagen_mb", peak_rss_mb());
    let points: usize = jobs.iter().map(|j| j.db.total_points()).sum();
    out.note("databases", jobs.len());
    out.note("points", points);

    // Set-up: train the model (a fixed run over the corpus, so the model
    // is the same whatever the seed), then the first answer.
    let first_job = &jobs[0];
    let mut train_s = Vec::new();
    let mut set_up = || {
        let (model, stats) = train(&pool, config, &trainer(), CORPUS_SEED);
        train_s.push(stats.wall_seconds);
        let first = model.simplify(
            &first_job.db,
            first_job.budget,
            &first_job.state_queries,
            JOB_SEED,
        );
        Ok((model, first))
    };
    let mut clock = SetupClock::new();
    let (model, first) = clock.time(&mut set_up)?;
    out.note("peak_rss_after_setup_mb", peak_rss_mb());

    // Reference answers: a job is deterministic for a model and a seed.
    let reference: Vec<Simplification> = jobs
        .iter()
        .map(|j| model.simplify(&j.db, j.budget, &j.state_queries, JOB_SEED))
        .collect();
    tally.check(first == reference[0], || {
        "first job differs from its reference".to_owned()
    });
    for (i, (job, simp)) in jobs.iter().zip(&reference).enumerate() {
        tally.check(well_formed(job, simp), || {
            format!("job {i}: malformed simplification")
        });
    }

    // The window. A traced run alternates cycles of whole jobs with cycles
    // of the same jobs taken apart under spans, so drift falls on both alike.
    let mut rec = Recorder::new();
    let mut with_spans = Vec::new();
    let mut insertions = 0usize;
    let window_s = if cfg.trace {
        cfg.seconds * 2.0 / 3.0
    } else {
        cfg.seconds
    };
    let window = closed_loop(
        cfg.sizes.warmup_s,
        window_s,
        |i| {
            let j = &jobs[i % jobs.len()];
            let spans = cfg.trace && traced_turn(i, jobs.len());
            with_spans.push(spans);
            if spans {
                traced_job(&mut rec, &model, j, i as u64)
            } else {
                model.simplify(&j.db, j.budget, &j.state_queries, JOB_SEED)
            }
        },
        |i, simp| {
            let slot = i % jobs.len();
            if cfg.trace && traced_turn(i, jobs.len()) {
                insertions += simp.total_points() - 2 * jobs[slot].db.len();
            }
            tally.check(simp == reference[slot], || {
                format!("job {i}: answer differs from the reference for database {slot}")
            });
            jobs[slot].db.total_points() as f64
        },
    );
    file_window(&mut out, &window);

    // The fixed probe state: one D′ per database, driven by the corpus's
    // own state queries, persisted and scored.
    let probed: Vec<Simplification> = jobs
        .iter()
        .map(|j| model.simplify(&j.db, j.budget, &j.probe_state_queries, JOB_SEED))
        .collect();
    let mut stored = 0u64;
    let mut truth: Vec<Vec<TrajId>> = Vec::new();
    let mut got: Vec<Vec<TrajId>> = Vec::new();
    for (i, (job, simp)) in jobs.iter().zip(&probed).enumerate() {
        tally.check(well_formed(job, simp), || {
            format!("probe job {i}: malformed simplification")
        });
        let snap = cfg.scratch.join(format!("offline-{i}.snap"));
        write_simplified_snapshot(&job.store, simp, &snap).map_err(|e| err("persist D'", e))?;
        stored += std::fs::metadata(&snap)
            .map_err(|e| err("D' size", e))?
            .len();
        let served = TrajDb::open(&snap, DbOptions::new()).map_err(|e| err("open D'", e))?;
        let oracle = Oracle::new(job.store.clone(), None);
        for cube in probe_cubes(&job.db, cfg.sizes.probe_cubes, PROBE_CUBES + i as u64) {
            let answer = served.range_kept(&cube);
            tally.check(answer.is_some(), || {
                format!("database {i}: D' serves no kept bitmap")
            });
            got.push(answer.unwrap_or_default());
            truth.push(oracle.range(&cube));
        }
    }
    out.set("f1_range", mean_f1_of(&truth, &got));
    out.set("stored_bytes_per_point", stored as f64 / points as f64);

    if cfg.trace {
        file_overhead(&mut out, &window.samples, &with_spans);
        layers(cfg, &jobs, &model, &probed, insertions, &mut rec, &mut out)?;
    }
    clock.repeat(&cfg.sizes, &mut out, set_up, drop)?;
    out.set("rl4qdts.train_s", median(&train_s));
    Ok(out.finish(tally))
}

/// One job taken apart into the three public calls `Rl4Qdts::simplify`
/// makes, a span around each.
fn traced_job(rec: &mut Recorder, model: &Rl4Qdts, j: &Job, id: u64) -> Simplification {
    let root = rec.start("job", NO_PARENT, id);
    let mut engine = rec.time("traj-index.build", root, id, || {
        QueryEngine::over(&j.db, model.config.engine_config())
    });
    rec.time("traj-index.assign_queries", root, id, || {
        engine.assign_queries(&j.state_queries)
    });
    let simp = rec.time("rl4qdts.insertion_loop", root, id, || {
        let tree = engine.cube_index().expect("rl4qdts engines are indexed");
        model.simplify_with_index(
            engine.store(),
            j.budget,
            tree,
            JOB_SEED,
            PolicyVariant::FULL,
        )
    });
    rec.end(root);
    simp
}

/// The per-layer numbers of the traced run: where a job's time goes, the
/// paper's other two query kinds over D′, and the layer probes.
fn layers(
    cfg: &RunCfg,
    jobs: &[Job],
    model: &Rl4Qdts,
    probed: &[Simplification],
    insertions: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let total = |name: &str| rec.durations_us(name).iter().sum::<f64>();
    let loop_us = total("rl4qdts.insertion_loop");
    out.set(
        "rl4qdts.insertions_per_s",
        insertions as f64 / (loop_us / 1e6).max(1e-9),
    );
    out.set(
        "rl4qdts.index_build_share",
        (total("traj-index.build") + total("traj-index.assign_queries")) / total("job").max(1e-9),
    );

    // kNN and similarity over D' against D, the paper's other two query
    // kinds, on every database.
    let mut knn = (Vec::new(), Vec::new());
    let mut sim = (Vec::new(), Vec::new());
    for (i, (job, simp)) in jobs.iter().zip(probed).enumerate() {
        let original = TrajDb::from_db(&job.db, DbOptions::new());
        let simplified = TrajDb::from_db(&simp.materialize(&job.db), DbOptions::new());
        let batch = &batches(&job.db, 1, Mix::LIVE, sub_seed(CORPUS_SEED, 300 + i as u64))[0];
        for q in batch.queries() {
            let side = match q {
                traj_query::Query::Knn(_) => &mut knn,
                traj_query::Query::Similarity(_) => &mut sim,
                _ => continue,
            };
            side.0
                .push(original.execute_one(q).into_ids().unwrap_or_default());
            side.1
                .push(simplified.execute_one(q).into_ids().unwrap_or_default());
        }
    }
    out.set("rl4qdts.f1_knn", mean_f1_of(&knn.0, &knn.1));
    out.set("rl4qdts.f1_similarity", mean_f1_of(&sim.0, &sim.1));

    // The layers under a job, on the first database.
    probes::octree_build(rec, &jobs[0].store, out);
    probes::tiny_rl(rec, model, out);
    spans::file(cfg, rec, out)
}
