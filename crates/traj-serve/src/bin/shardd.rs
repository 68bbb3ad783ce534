//! `shardd` — serves one shard's snapshot over the wire protocol.
//!
//! The smallest possible distributed building block: open one store
//! (snapshot, quantized snapshot, CSV — anything `TrajDb::open`
//! auto-detects), serve it, print `READY <addr>` on stdout, and run
//! until stdin reaches EOF (so a parent process that spawned us with a
//! piped stdin shuts us down just by closing the pipe — no signal
//! handling, no PID files). A `Coordinator` pointed at a fleet of
//! these is the distributed twin of opening the shard directory
//! in-process.
//!
//! With `--live <dir>` the shard serves a live, WAL-backed generational
//! database instead of an immutable snapshot: `Ingest` frames append
//! through the online simplifier (`--sed-eps` selects one-pass SED;
//! the default keeps every point), a background compactor folds the
//! delta into a new snapshot generation once it exceeds
//! `--compact-points`, and the directory is created on first launch /
//! recovered from its WALs on relaunch.
//!
//! ```text
//! shardd --snap shard-000.qdts [--addr 127.0.0.1:0] [--backend octree|kd|scan]
//! shardd --live state-dir [--sed-eps 25.0] [--compact-points 500000] [...]
//! ```

use std::io::Write;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use traj_query::generational::GENS_MANIFEST;
use traj_query::{spawn_compactor, BackendKind, DbOptions, GenerationalDb, SimpFactory};
use traj_serve::{ServeOptions, Server};
use traj_simp::OnePassSed;
use trajectory::{KeepAll, PointStore};

/// Every flag `shardd` takes; each is followed by its value.
const FLAGS: [&str; 6] = [
    "--snap",
    "--live",
    "--addr",
    "--backend",
    "--sed-eps",
    "--compact-points",
];

/// Exits with the usage message unless `args` is a run of `FLAG value`
/// pairs: an unknown or misspelt flag, a stray word or a flag without
/// its value is an error, never silently ignored.
fn check_args(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !FLAGS.contains(&arg.as_str()) {
            eprintln!("shardd: unknown argument {arg}");
            usage();
        }
        if rest.next().is_none_or(|value| value.starts_with("--")) {
            eprintln!("shardd: {arg} wants a value");
            usage();
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!(
        "usage: shardd --snap <store> | --live <dir> [--addr host:port] \
         [--backend octree|kd|scan] \
         [--sed-eps <eps>] [--compact-points <n>]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args);
    let snap = flag_value(&args, "--snap");
    let live = flag_value(&args, "--live");
    if snap.is_some() == live.is_some() {
        // Exactly one source: a snapshot to serve or a live directory.
        usage();
    }
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());

    let db_opts = DbOptions::new().backend(match flag_value(&args, "--backend").as_deref() {
        None | Some("octree") => BackendKind::Octree,
        Some("kd") => BackendKind::MedianKd,
        Some("scan") => BackendKind::Scan,
        Some(other) => {
            eprintln!("shardd: unknown --backend {other} (octree|kd|scan)");
            exit(2);
        }
    });
    let serve_opts = ServeOptions::batched();

    // Kept alive for the whole serving run; dropping it (at exit)
    // signals the background compaction thread to stop and joins it.
    let mut compactor = None;

    let server = if let Some(dir) = live {
        let sed_eps = match flag_value(&args, "--sed-eps").map(|s| s.parse::<f64>()) {
            None => None,
            Some(Ok(eps)) if eps > 0.0 && eps.is_finite() => Some(eps),
            Some(_) => {
                eprintln!("shardd: --sed-eps wants a positive finite number");
                exit(2);
            }
        };
        let compact_points = match flag_value(&args, "--compact-points").map(|s| s.parse::<usize>())
        {
            None => 500_000,
            Some(Ok(n)) if n > 0 => n,
            Some(_) => {
                eprintln!("shardd: --compact-points wants a positive integer");
                exit(2);
            }
        };
        let factory: SimpFactory = match sed_eps {
            Some(eps) => Box::new(move || Box::new(OnePassSed::new(eps))),
            None => Box::new(|| Box::new(KeepAll)),
        };
        let opened = if Path::new(&dir).join(GENS_MANIFEST).exists() {
            GenerationalDb::open(&dir, db_opts, factory)
        } else {
            GenerationalDb::create(&dir, &PointStore::new(), db_opts, factory)
        };
        let db = match opened {
            Ok(db) => Arc::new(db),
            Err(e) => {
                eprintln!("shardd: cannot open live directory {dir}: {e}");
                exit(2);
            }
        };
        compactor = Some(spawn_compactor(
            Arc::clone(&db),
            compact_points,
            Duration::from_millis(250),
        ));
        match Server::start(db, addr.as_str(), serve_opts) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("shardd: cannot serve live directory {dir}: {e}");
                exit(2);
            }
        }
    } else {
        let snap = snap.expect("checked: exactly one of --snap/--live");
        match Server::open(&snap, db_opts, addr.as_str(), serve_opts) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("shardd: cannot serve {snap}: {e}");
                exit(2);
            }
        }
    };

    // The parent parses this line to learn the ephemeral port.
    println!("READY {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Serve until the parent closes our stdin (or we were launched
    // interactively and the terminal sends EOF). What the parent writes
    // meanwhile is discarded, never held.
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    server.shutdown();
    if let Some(handle) = compactor.take() {
        handle.shutdown();
    }
}
