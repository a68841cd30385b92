//! What a run stands on: its scratch directory, the corpus snapshot it
//! builds, the `rc` binary and the daemon processes it starts.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use rightcrowd::core::{AnalyzedCorpus, CorpusOptions};
use rightcrowd::synth::{DatasetConfig, SyntheticDataset};

/// Threads for corpus analysis, snapshot coding and the daemon.
pub const THREADS: usize = 2;

/// Postings shards per snapshot.
pub const SHARDS: usize = 4;

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// A per-invocation directory under `.bench_tmp/` in the repository,
/// removed when dropped: fixtures are never shared between runs.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = repo_root()
            .join(".bench_tmp")
            .join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Corpus analysis with the benchmark's fixed thread count.
pub fn analyze(ds: &SyntheticDataset) -> AnalyzedCorpus {
    AnalyzedCorpus::build_with(ds, &CorpusOptions::default().with_worker_threads(THREADS))
}

/// Generates, analyses and saves the corpus of `config` into `dir`.
pub fn build_snapshot(config: &DatasetConfig, dir: &Path) -> Result<(), String> {
    let ds = SyntheticDataset::generate(config);
    let corpus = analyze(&ds);
    save(dir, &ds, &corpus)
}

/// `save_sharded` with the benchmark's layout.
pub fn save(dir: &Path, ds: &SyntheticDataset, corpus: &AnalyzedCorpus) -> Result<(), String> {
    rightcrowd::store::save_sharded(dir, ds, corpus, SHARDS, THREADS)
        .map(drop)
        .map_err(|e| format!("save {}: {e}", dir.display()))
}

/// `load_sharded` of a benchmark snapshot.
pub fn load(dir: &Path) -> Result<(SyntheticDataset, AnalyzedCorpus), String> {
    rightcrowd::store::load_sharded(dir, THREADS)
        .map(|(ds, corpus, _)| (ds, corpus))
        .map_err(|e| format!("load {}: {e}", dir.display()))
}

/// Total size of the files directly inside `dir`, MiB.
pub fn dir_mib(dir: &Path) -> Result<f64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut bytes = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            bytes += meta.len();
        }
    }
    Ok(bytes as f64 / f64::from(1u32 << 20))
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// Resets this process's peak resident set (`VmHWM`) to its current one.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Builds the daemon binary from the repository's own sources and
/// returns its path. Cargo picks the target directory, so the path is
/// read from its artifact messages.
pub fn build_rc() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "rightcrowd-bench",
            "--bin",
            "rc",
        ])
        .arg("--message-format=json")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building rc failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\"") && l.contains("\"name\":\"rc\""))
        .find_map(|l| {
            let rest = &l[l.find("\"executable\":\"")? + "\"executable\":\"".len()..];
            Some(PathBuf::from(rest[..rest.find('"')?].replace("\\\\", "\\")))
        })
        .ok_or_else(|| "cargo reported no rc executable".into())
}

/// A running `rc serve` over one snapshot.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// From spawn to the first `/healthz` 200, seconds.
    pub boot_s: f64,
}

impl Daemon {
    pub fn boot(rc: &Path, snapshot: &Path, scale: &str, out: &Path) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = Command::new(rc)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &THREADS.to_string(),
                "--out",
            ])
            .arg(out)
            .env("RIGHTCROWD_SCALE", scale)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", rc.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                    return Err(format!("rc serve exited before listening ({status})"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("serving on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable listen line {line:?}"));
                    }
                }
            }
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            boot_s: 0.0,
        };
        let health = crate::client::get(addr, "/healthz")?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        daemon.boot_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
