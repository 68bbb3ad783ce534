//! The paper's §V evidence, one printer per table or figure, run by the
//! `repro` binary.
//!
//! [`EXPERIMENTS`] lists them in paper order; `repro` runs all of them, or
//! the one named by `--only`. Each printer renders what the experiment's
//! library function returns — the rows and series the paper plots.

use crate::experiments::{
    ablation, chengdu_ratio_sweep, comparison, datasets, deformation, efficiency, index_ablation,
    params, ratio_sweep, skyline_sel, training, transferability,
};
use crate::{heatmap, ExpArgs, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_query::{range_workload, QueryDistribution, RangeWorkloadSpec};
use trajectory::gen::{generate, DatasetSpec, Scale};

/// Prints one experiment's tables to stdout.
pub type Printer = fn(&ExpArgs);

/// Every experiment, in paper order: the `--only` name and its printer.
pub const EXPERIMENTS: &[(&str, Printer)] = &[
    ("table1", table1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table2", table2),
    ("index_ablation", index_ablation),
    ("param_study", param_study),
    ("training_time", training_time),
];

/// Runs the experiment `args.only` names, or every one in paper order.
pub fn run(args: &ExpArgs) {
    for (name, print) in EXPERIMENTS {
        if args.only.is_none_or(|only| only == *name) {
            print(args);
        }
    }
}

/// Prints an experiment's title line: scale, seed and, for an experiment
/// that repeats, the run count.
fn banner(a: &ExpArgs, title: &str, runs: Option<usize>) {
    let runs = runs.map(|r| format!(", runs {r}")).unwrap_or_default();
    println!(
        "== {title} (scale: {:?}, seed {}{runs}) ==",
        a.scale, a.seed
    );
}

/// An experiment that yields one table.
type TableRun = fn(Scale, u64) -> Table;

/// Prints one table per `(heading, experiment)`, each heading set off by
/// blank lines.
fn sections(a: &ExpArgs, parts: &[(&str, TableRun)]) {
    for (heading, run) in parts {
        println!("\n{heading}\n");
        println!("{}", run(a.scale, a.seed).render());
    }
}

fn table1(a: &ExpArgs) {
    banner(a, "Table I: dataset statistics", None);
    println!("\n{}", datasets::run(a.scale, a.seed).render());
    println!(
        "Synthetic generators reproduce the paper's per-dataset shape \
         (sampling interval, step length, trajectory length ratios) at laptop scale, \
         standing in for the real datasets, which are not available offline."
    );
}

fn fig3(a: &ExpArgs) {
    banner(a, "Figure 3: skyline selection", None);
    for outcome in skyline_sel::run(a.scale, a.seed) {
        println!("\n-- query distribution: {} --\n", outcome.distribution);
        println!("{}", outcome.table.render());
        println!("skyline: {}", outcome.skyline.join(", "));
    }
}

/// The query distributions of Figs. 4 and 5's sub-figures.
const DATA_AND_GAUSSIAN: [QueryDistribution; 2] = [
    QueryDistribution::Data,
    QueryDistribution::Gaussian {
        mu: 0.5,
        sigma: 0.25,
    },
];

/// Figs. 4–6: RL4QDTS against the skyline baselines on one dataset, one
/// F1-vs-ratio table per (distribution, task).
fn comparison_figure(
    a: &ExpArgs,
    title: &str,
    spec: DatasetSpec,
    dists: &[QueryDistribution],
    ratios: &[f64],
) {
    banner(a, title, Some(a.runs));
    for o in comparison::run(&spec, dists, ratios, a.scale, a.seed, a.runs) {
        println!("\n-- query distribution: {} --", o.distribution);
        for (task, table) in &o.per_task {
            println!("\n[{task}] F1 vs compression ratio");
            println!("{}", table.render());
        }
    }
}

fn fig4(a: &ExpArgs) {
    let title = "Figure 4: comparison with skylines, Geolife-like";
    let spec = DatasetSpec::geolife(a.scale);
    comparison_figure(a, title, spec, &DATA_AND_GAUSSIAN, &ratio_sweep(a.scale));
}

fn fig5(a: &ExpArgs) {
    let title = "Figure 5: comparison with skylines, T-Drive-like";
    let spec = DatasetSpec::tdrive(a.scale);
    comparison_figure(a, title, spec, &DATA_AND_GAUSSIAN, &ratio_sweep(a.scale));
}

fn fig6(a: &ExpArgs) {
    let title = "Figure 6: comparison with skylines, Chengdu-like";
    let spec = DatasetSpec::chengdu(a.scale);
    let ratios = chengdu_ratio_sweep(a.scale);
    comparison_figure(a, title, spec, &[QueryDistribution::Real], &ratios);
}

fn fig7(a: &ExpArgs) {
    banner(a, "Figure 7: deformation study", None);
    for (dist, table) in deformation::run(a.scale, a.seed) {
        println!("\n-- query distribution: {dist} --  (mean SED of query-returned trajectories, lower is better)\n");
        println!("{}", table.render());
    }
}

fn fig8(a: &ExpArgs) {
    banner(a, "Figure 8: efficiency evaluation", None);
    sections(
        a,
        &[
            (
                "(a) running time vs data size (fixed ratio)",
                efficiency::run_varying_size,
            ),
            (
                "(b) running time vs budget (fixed data size)",
                efficiency::run_varying_budget,
            ),
        ],
    );
}

fn fig9(a: &ExpArgs) {
    banner(a, "Figure 9: transferability test", Some(a.runs));
    println!("(trained once with Gaussian(mu=0.5, sigma=0.25) range queries)");
    for outcome in transferability::run(a.scale, a.seed, a.runs) {
        println!("\n-- varying {} --\n", outcome.label);
        println!("{}", outcome.table.render());
    }
    // Fig. 9(d)-(g): density of the drifted workloads vs the training one.
    let db = generate(&DatasetSpec::geolife(a.scale), a.seed);
    let bounds = db.bounding_cube();
    let gaussian = |mu, sigma| QueryDistribution::Gaussian { mu, sigma };
    for (label, dist) in [
        (
            "(d) training distribution GAU(0.5, 0.25)",
            transferability::TRAIN_DIST,
        ),
        ("(d') drifted GAU(mu=0.9)", gaussian(0.9, 0.25)),
        ("(e) drifted GAU(sigma=0.85)", gaussian(0.5, 0.85)),
        ("(f) Zipf(a=4)", QueryDistribution::Zipf { a: 4.0 }),
        ("(g) Zipf(a=8)", QueryDistribution::Zipf { a: 8.0 }),
    ] {
        let spec = RangeWorkloadSpec {
            count: 400,
            spatial_extent: 500.0,
            temporal_extent: 3_600.0,
            dist,
        };
        let mut rng = StdRng::seed_from_u64(a.seed ^ 0x99);
        let queries = range_workload(&db, &spec, &mut rng);
        println!("\n{label}:");
        print!("{}", heatmap::render(&queries, &bounds, 48, 14));
    }
}

fn table2(a: &ExpArgs) {
    banner(a, "Table II: ablation study", Some(a.runs));
    println!("\n{}", ablation::run(a.scale, a.seed, a.runs).render());
    println!(
        "Expected shape (paper, Geolife): full 0.733 > w/o Agent-Point 0.716 \
         > w/o Agent-Cube 0.673 > w/o both 0.641; full method is the slowest."
    );
}

fn index_ablation(a: &ExpArgs) {
    banner(a, "Index ablation: octree vs median-kd", None);
    println!("\n{}", index_ablation::run(a.scale, a.seed).render());
}

fn param_study(a: &ExpArgs) {
    banner(a, "Parameter study", None);
    sections(
        a,
        &[
            ("(5) start level S", params::run_start_level),
            ("(6) end level E", params::run_max_depth),
            ("(7) Agent-Point K", params::run_k),
            ("(8) kNN k", params::run_knn_k),
        ],
    );
}

fn training_time(a: &ExpArgs) {
    banner(a, "Training time study", None);
    sections(
        a,
        &[
            (
                "(a) varying the number of training trajectories",
                training::run_pool_size,
            ),
            ("(b) varying the reward interval Δ", training::run_delta),
        ],
    );
}
