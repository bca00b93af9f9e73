//! Shared helpers for the experiment binaries.
//!
//! Two binaries live in `src/bin/`:
//!
//! * `paper` prints every table and figure of the paper's evaluation, in
//!   order: Table I, Table II, Figures 2–5 and the design-choice ablations;
//! * `fabric_sweep` runs the N-cluster fabric sweep and writes its points to
//!   `BENCH_fabric.json` (or to `--out <path>`).
//!
//! Both take the problem size as an optional flag:
//!
//! * `--paper` (default) — run the paper's problem sizes and latency sweep;
//! * `--small` — run reduced problem sizes for a quick functional check.
//!
//! Any other argument is an error. The binaries print plain-text tables
//! whose rows mirror the paper's artefacts; where the paper states a
//! headline number, the rendered text quotes it as `(paper: …)` next to the
//! model's value.

#![warn(missing_docs)]

use std::time::Instant;

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

/// The parsed command line of an experiment binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Problem sizes to run; the last size flag wins.
    pub size: RunSize,
    /// The path given with `--out`, if the binary accepts one.
    pub out: Option<String>,
}

impl Args {
    /// Parses `[--paper|--small]`, plus `[--out <path>]` when `out_allowed`.
    ///
    /// # Errors
    ///
    /// Names the first argument that is not one of these flags, or an
    /// `--out` that is not followed by a path.
    pub fn parse<I>(args: I, out_allowed: bool) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = Args {
            size: RunSize::Paper,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => parsed.size = RunSize::Paper,
                "--small" => parsed.size = RunSize::Small,
                "--out" if out_allowed => {
                    let path = args.next().filter(|path| !path.starts_with("--"));
                    parsed.out = Some(path.ok_or("`--out` needs a path")?);
                }
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        Ok(parsed)
    }

    /// [`Args::parse`] over this process's arguments. On an error it prints
    /// the error and `usage` on stderr and exits with status 2.
    pub fn from_env(usage: &str, out_allowed: bool) -> Self {
        Self::parse(std::env::args().skip(1), out_allowed).unwrap_or_else(|err| {
            eprintln!("error: {err}\nusage: {usage}");
            std::process::exit(2)
        })
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

    fn parse(args: &[&str], out_allowed: bool) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()), out_allowed)
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |size, out: Option<&str>| {
            Ok(Args {
                size,
                out: out.map(str::to_string),
            })
        };
        assert_eq!(parse(&[], false), args(RunSize::Paper, None));
        assert_eq!(parse(&["--small"], false), args(RunSize::Small, None));
        assert_eq!(parse(&["--paper"], false), args(RunSize::Paper, None));
        assert_eq!(
            parse(&["--small", "--out", "x"], true),
            args(RunSize::Small, Some("x"))
        );
        assert_eq!(
            parse(&["--out", "x", "--paper"], true),
            args(RunSize::Paper, Some("x"))
        );

        let missing = Err("`--out` needs a path".to_string());
        assert_eq!(parse(&["--out"], true), missing);
        assert_eq!(parse(&["--out", "--small"], true), missing);
        assert_eq!(
            parse(&["--smal"], true),
            Err("unknown argument `--smal`".to_string())
        );
        assert_eq!(
            parse(&["--out", "x"], false),
            Err("unknown argument `--out`".to_string()),
            "a binary without `--out` rejects it"
        );
    }
}
