//! Table I: dataset statistics (measured vs. paper reference).

use qdts_eval::experiments::datasets;
use qdts_eval::ExpArgs;

fn main() {
    let args = ExpArgs::parse();
    println!(
        "== Table I: dataset statistics (scale: {:?}, seed {}) ==\n",
        args.scale, args.seed
    );
    println!("{}", datasets::run(args.scale, args.seed).render());
    println!(
        "Synthetic generators reproduce the paper's per-dataset shape \
         (sampling interval, step length, trajectory length ratios) at laptop scale, \
         standing in for the real datasets, which are not available offline."
    );
}
