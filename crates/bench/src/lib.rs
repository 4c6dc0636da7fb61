#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §3 for the full index). Each
//! experiment is a library function under [`experiments`]; the one
//! `figures` binary replays the whole evaluation, or the experiments
//! named on its command line.
//!
//! Scales are configurable (`--scale tiny|small|medium` or the `SCALE`
//! env var); absolute numbers differ from the paper's 64-worker cluster,
//! but the comparisons — which configuration wins, by roughly what
//! factor, where the crossovers fall — are the reproduction target
//! (EXPERIMENTS.md records both sides).

pub mod experiments;
pub mod report;

use parjoin_datagen::Scale;

/// Experiment-wide settings parsed from argv/env.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Dataset scale.
    pub scale: Scale,
    /// Cluster size (the paper's default: 64).
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            scale: Scale::small(),
            workers: 64,
            seed: 42,
        }
    }
}

impl Settings {
    /// Parses `--scale`, `--workers`, `--seed` from argv (and the `SCALE`
    /// env var as a fallback).
    pub fn from_args() -> Self {
        let mut s = Settings::default();
        if let Ok(scale) = std::env::var("SCALE") {
            s.scale = parse_scale(&scale).unwrap_or(s.scale);
        }
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    s.scale = parse_scale(&args[i + 1])
                        .unwrap_or_else(|| panic!("unknown scale `{}`", args[i + 1])); // xtask: allow(panic)
                    i += 2;
                }
                "--workers" => {
                    s.workers = args[i + 1].parse().expect("numeric --workers"); // xtask: allow(expect): bench driver aborts on failure
                    i += 2;
                }
                "--seed" => {
                    s.seed = args[i + 1].parse().expect("numeric --seed"); // xtask: allow(expect): bench driver aborts on failure
                    i += 2;
                }
                _ => i += 1,
            }
        }
        s
    }
}

fn parse_scale(name: &str) -> Option<Scale> {
    match name {
        "tiny" => Some(Scale::tiny()),
        "small" => Some(Scale::small()),
        "medium" => Some(Scale::medium()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_settings() {
        let s = Settings::default();
        assert_eq!(s.workers, 64);
    }

    #[test]
    fn scale_parser() {
        assert!(parse_scale("tiny").is_some());
        assert!(parse_scale("small").is_some());
        assert!(parse_scale("medium").is_some());
        assert!(parse_scale("paper").is_none());
    }
}
