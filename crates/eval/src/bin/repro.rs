//! `repro [--scale smoke|small|paper] [--seed N] [--runs N] [--only NAME]`:
//! the paper's tables and figures, all in paper order or the one `--only`
//! names (see `qdts_eval::repro`). Bad input prints the usage, exit 2.

fn main() {
    qdts_eval::repro::run(&qdts_eval::ExpArgs::parse());
}
