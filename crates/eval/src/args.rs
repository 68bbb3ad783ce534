//! Minimal command-line parsing for the `repro` binary.
//!
//! `repro` accepts `--scale smoke|small|paper`, `--seed N`, `--runs N` and
//! `--only NAME`; a tiny hand-rolled parser keeps the workspace free of a
//! CLI dependency.

use crate::repro::EXPERIMENTS;
use trajectory::gen::Scale;

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpArgs {
    /// Dataset/effort scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of repeated runs for mean ± std reporting (the paper uses
    /// 50; the default here is 3).
    pub runs: usize,
    /// The one experiment to run (a name in [`EXPERIMENTS`]); `None` runs
    /// them all.
    pub only: Option<&'static str>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
            runs: 3,
            only: None,
        }
    }
}

/// The usage line, listing every experiment `--only` accepts.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [--scale smoke|small|paper] [--seed N] [--runs N] [--only NAME]\n\
         NAME: {}",
        names.join(" | ")
    )
}

impl ExpArgs {
    /// Parses `std::env::args()`; exits with a usage message on error.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit iterator (testable).
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("flag {flag} expects a value"))
            };
            match flag.as_str() {
                "--scale" => out.scale = value()?.parse::<Scale>()?,
                "--seed" => {
                    out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--runs" => {
                    out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                    if out.runs == 0 {
                        return Err("--runs must be ≥ 1".into());
                    }
                }
                "--only" => {
                    let name = value()?;
                    let found = EXPERIMENTS.iter().find(|(n, _)| *n == name);
                    out.only = Some(found.ok_or(format!("unknown experiment: {name}"))?.0);
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::try_parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seed, 42);
        assert_eq!(a.runs, 3);
        assert_eq!(a.only, None);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--scale", "smoke", "--seed", "7", "--runs", "5", "--only", "fig4",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.seed, 7);
        assert_eq!(a.runs, 5);
        assert_eq!(a.only, Some("fig4"));
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse(&["--scale", "giant"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--only", "fig10"]).is_err());
        assert!(parse(&["--only"]).is_err());
        // The registry names twelve distinct experiments, and the usage
        // message offers each of them.
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        for name in names {
            assert!(usage().contains(name), "usage omits {name}");
        }
    }
}
