//! Shared command-line handling for the table binaries.

use crate::results::BenchResults;

/// Parsed command-line options.
#[derive(Clone, Copy, Debug, Default)]
pub struct Args {
    /// Extend the sweep toward the paper's largest instances.
    pub full: bool,
    /// Shrink the sweep to the smallest width (CI smoke runs).
    pub quick: bool,
}

/// Parses `--full` / `--quick` from the process arguments.
pub fn parse_args() -> Args {
    let mut args = Args::default();
    for a in std::env::args() {
        match a.as_str() {
            "--full" => args.full = true,
            "--quick" => args.quick = true,
            _ => {}
        }
    }
    args
}

impl Args {
    /// Picks the sweep ceiling: `quick` when `--quick`, `full` when
    /// `--full`, `default` otherwise (`--quick` wins if both are given).
    pub fn sweep(&self, quick: usize, default: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else if self.full {
            full
        } else {
            default
        }
    }
}

/// SplitMix64 step: deterministic workload/input streams for the bench
/// binaries without extra dependencies.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random permutation over `2^lines` values: a
/// Fisher–Yates shuffle driven by [`splitmix`].
pub fn random_permutation(lines: usize, seed: &mut u64) -> Vec<u64> {
    let size = 1usize << lines;
    let mut perm: Vec<u64> = (0..size as u64).collect();
    for i in (1..size).rev() {
        let j = (splitmix(seed) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Formats a `Duration` in seconds with two decimals (the paper's unit).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Writes the structured results file and reports where it went (or why
/// it could not be written) on stderr.
pub fn emit_results(results: &BenchResults) {
    match results.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
