//! `rcbench` — the end-to-end and per-layer benchmark of the expert
//! finder. See `README.md` beside this package for what each workload
//! measures and why.
//!
//! ```text
//! rcbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`). Any failed check makes the exit
//! status non-zero.

/// Prints a progress line on stderr, stamped with seconds since start.
macro_rules! note {
    ($($arg:tt)*) => {
        eprintln!("[rcbench {:6.1}s] {}", $crate::report::since_start(), format_args!($($arg)*))
    };
}

mod build;
mod check;
mod client;
mod fixture;
mod report;
mod serve;
mod stats;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use rightcrowd::synth::DatasetConfig;

use crate::fixture::Scratch;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::serve::ServeSpec;
use crate::traffic::Traffic;

/// A corpus scale; both use the synthetic generator's default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~31k resources, a 1.2 MB index that fits in L2.
    Small,
    /// ~313k resources, the paper's corpus size.
    Paper,
}

impl Scale {
    pub fn config(self) -> DatasetConfig {
        match self {
            Scale::Small => DatasetConfig::small(),
            Scale::Paper => DatasetConfig::paper(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmallHot,
    ServePaperNovel,
    BuildPaper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSmallHot,
        Workload::ServePaperNovel,
        Workload::BuildPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmallHot => "serve_small_hot",
            Workload::ServePaperNovel => "serve_paper_novel",
            Workload::BuildPaper => "build_paper",
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::ServeSmallHot => Scale::Small,
            _ => Scale::Paper,
        }
    }

    /// The serve workloads' traffic. Each renders over three times the
    /// replies per second two clients get on a 2-core host (about
    /// 1,300/s small and 120/s paper).
    pub fn serve_spec(self) -> Option<ServeSpec> {
        match self {
            Workload::ServeSmallHot => Some(ServeSpec {
                scale: Scale::Small,
                traffic: Traffic::hot,
                render_rate: 6_000.0,
            }),
            Workload::ServePaperNovel => Some(ServeSpec {
                scale: Scale::Paper,
                traffic: Traffic::novel,
                render_rate: 400.0,
            }),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rcbench --workload NAME --seed N --seconds S --trace 0|1\n\
workloads: serve_small_hot serve_paper_novel build_paper";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `--child KIND --dir DIR --seconds S --seed N` in a fresh process
/// of this binary and reads back its outcome.
fn child(kind: &str, dir: &Path, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", kind, "--dir"])
        .arg(dir)
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {kind} child failed: {}", out.status));
    }
    Outcome::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// The child side: `--child build --dir DIR --seconds S --seed N`.
fn run_child(args: &[String]) -> Result<Outcome, String> {
    match args {
        [kind, dir_flag, dir, seconds_flag, seconds, seed_flag, seed]
            if dir_flag == "--dir" && seconds_flag == "--seconds" && seed_flag == "--seed" =>
        {
            let dir = PathBuf::from(dir);
            let seconds: f64 = seconds
                .parse()
                .map_err(|_| format!("bad --seconds {seconds:?}"))?;
            let seed: u64 = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
            match kind.as_str() {
                "build" => build::run(&Scale::Paper.config(), &dir, seconds, seed),
                other => Err(format!("unknown child {other:?}")),
            }
        }
        _ => Err("usage: rcbench --child build --dir DIR --seconds S --seed N".into()),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return trace::run(args.workload, args.seed, args.seconds);
    }
    if let Some(spec) = args.workload.serve_spec() {
        return serve::run(&spec, args.seed, args.seconds);
    }
    let scratch = Scratch::new(args.workload.name())?;
    child("build", &scratch.dir.join("snapshot"), args)
}

fn main() {
    report::since_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        match run_child(&argv[1..]) {
            Ok(outcome) => print!("{}", outcome.to_lines()),
            Err(e) => {
                eprintln!("rcbench child: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args).and_then(|outcome| Ok((outcome.result_json(table)?, outcome.failed))) {
        Ok((line, failed)) => {
            println!("{line}");
            if failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("rcbench: {e}");
            std::process::exit(1);
        }
    }
}
