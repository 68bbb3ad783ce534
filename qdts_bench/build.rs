//! Records what the benchmark was built with, so every report can name it
//! without starting a process at run time: the compiler, and whether this
//! package's release profile still equals the workspace root's.
//!
//! Cargo reads profiles from the workspace root only, and this package is
//! its own root, so `[profile.release]` is repeated in its `Cargo.toml`.
//! If the root's profile changes and the copy does not follow, the
//! benchmark would measure code built differently from what
//! `cargo build --release` at the root ships: that is warned about here
//! and written into every report's machine block.

use std::process::Command;

/// The `key = value` lines of `[section]` in a manifest, comments and
/// blank lines dropped, in order.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect()
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=QDTS_BENCH_RUSTC={version}");

    let profile = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|text| section(&text, "[profile.release]"))
    };
    let same = match (profile("Cargo.toml"), profile("../Cargo.toml")) {
        (Some(own), Some(root)) => own == root,
        _ => false,
    };
    if !same {
        println!(
            "cargo:warning=qdts_bench/Cargo.toml [profile.release] differs from the workspace \
             root's: the benchmark measures differently built code"
        );
    }
    println!("cargo:rustc-env=QDTS_BENCH_PROFILE_IS_ROOTS={same}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-changed=../Cargo.toml");
}
