//! Shared helpers for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They accept a single optional argument:
//!
//! * `--paper` (default) — run the paper's problem sizes and latency sweep;
//! * `--small` — run reduced problem sizes for a quick functional check.
//!
//! The binaries print plain-text tables whose rows mirror the paper's
//! artefacts; where the paper states a headline number, the rendered text
//! quotes it as `(paper: …)` next to the model's value.

#![warn(missing_docs)]

use std::time::Instant;

pub mod par;

/// Problem-size selection for an experiment binary.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunSize {
    /// The paper's sizes and the full 200/600/1000 latency sweep.
    Paper,
    /// Reduced sizes for quick functional runs and CI.
    Small,
}

impl RunSize {
    /// Returns `true` for the paper-sized run.
    pub const fn is_paper(self) -> bool {
        matches!(self, RunSize::Paper)
    }

    /// The DRAM-latency sweep to use.
    pub fn latencies(self) -> Vec<u64> {
        match self {
            RunSize::Paper => vec![200, 600, 1000],
            RunSize::Small => vec![200, 1000],
        }
    }
}

/// Parses the command-line arguments of an experiment binary.
pub fn parse_args() -> RunSize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--small") {
        RunSize::Small
    } else {
        RunSize::Paper
    }
}

/// Runs `f`, printing its banner and wall-clock duration around its output.
/// `f` should run the experiment as well as render it, so the printed time
/// covers the sweep.
pub fn with_banner<F: FnOnce() -> String>(title: &str, f: F) {
    println!("=== {title} ===");
    let start = Instant::now();
    let body = f();
    println!("{body}");
    println!("(generated in {:.3} s)\n", start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweeps() {
        assert_eq!(RunSize::Paper.latencies(), vec![200, 600, 1000]);
        assert_eq!(RunSize::Small.latencies(), vec![200, 1000]);
        assert!(RunSize::Paper.is_paper());
        assert!(!RunSize::Small.is_paper());
    }
}
