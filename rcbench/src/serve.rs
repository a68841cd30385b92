//! The serve workloads: the real `rc serve` daemon driven over TCP by
//! closed-loop clients.

use std::net::SocketAddr;
use std::time::Instant;

use crate::check::{oracle_checks, served_matches, Ranker};
use crate::client::{closed_loop, Conn, LoopResult};
use crate::fixture::{build_rc, build_snapshot, dir_mib, load, Daemon, Scratch};
use crate::report::Outcome;
use crate::stats::{median, quantile, secs};
use crate::traffic::{Phase, Rng, Traffic};
use crate::Scale;

/// One serve workload.
pub struct ServeSpec {
    pub scale: Scale,
    /// `Traffic::hot` or `Traffic::novel`.
    pub traffic: fn(u64) -> Traffic,
    /// Requests rendered per second of a phase: more than the daemon
    /// answers, so a phase ends on time, not on running out.
    pub render_rate: f64,
}

/// Served responses compared with in-process rankings before timing.
const SERVED_CHECKS: usize = 32;
/// Daemons measured one after another in a run, after the discarded
/// first boot. A daemon's speed depends on where its memory landed, so
/// every metric pools or takes the median over several of them.
const DAEMONS: usize = 3;
/// In-process `load_sharded` reopens behind `open_ms`.
pub const OPENS: usize = 5;
/// How each daemon's share of the run is spent: warming up with one
/// client (discarded), one client alone, then two clients.
const WARM: f64 = 0.1;
const ALONE: f64 = 0.55;
const BUSY: f64 = 0.35;

/// Runs a serve workload for about `seconds` of measured traffic.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rc = build_rc()?;
    let scratch = Scratch::new("serve")?;
    let snapshot = scratch.dir.join("snapshot");
    build_snapshot(&spec.scale.config(), &snapshot)?;
    note!("snapshot built");
    let out_dir = scratch.dir.join("events");
    let mut outcome = Outcome::default();
    outcome.set("snapshot_mb", dir_mib(&snapshot)?);
    let mut traffic = (spec.traffic)(seed);

    // The first boot warms the page cache and is not timed; its daemon
    // answers the checks, on requests no timed phase sends again.
    {
        let daemon = Daemon::boot(&rc, &snapshot, spec.scale.label(), &out_dir)?;
        let mut opens = Vec::new();
        let mut loaded = None;
        for _ in 0..OPENS {
            let started = Instant::now();
            loaded = Some(load(&snapshot)?);
            opens.push(secs(started) * 1e3);
        }
        outcome.set("open_ms", median(&opens));
        let (ds, corpus) = loaded.expect("at least one open");
        let ranker = Ranker::new(&ds, &corpus);
        let checks = traffic.phase(SERVED_CHECKS);
        let mut conn = Conn::open(daemon.addr)?;
        for (bytes, need) in checks.bytes.iter().zip(&checks.needs) {
            outcome.check(
                conn.round_trip(bytes)
                    .and_then(|r| served_matches(&ranker, &need.text, &r)),
            );
        }
        let texts: Vec<&str> = checks.needs.iter().map(|n| n.text.as_str()).collect();
        oracle_checks(
            &mut outcome,
            &ranker,
            &texts,
            &mut Rng::new(seed ^ 0xC0DE_C4EC),
        );
    }
    note!("checks done");

    let share = seconds / DAEMONS as f64;
    let (mut boots, mut peaks, mut alone) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy_done, mut busy_s, mut reconnects) = (0, 0.0, 0);
    for _ in 0..DAEMONS {
        let daemon = Daemon::boot(&rc, &snapshot, spec.scale.label(), &out_dir)?;
        boots.push(daemon.boot_s);
        let mut drive = |clients, seconds: f64| {
            let phase = traffic.phase((spec.render_rate * seconds).ceil() as usize);
            send(daemon.addr, &phase, clients, seconds, &mut outcome)
        };
        drive(1, share * WARM)?;
        let one = drive(1, share * ALONE)?;
        let busy = drive(2, share * BUSY)?;
        alone.extend(one.latencies_ms);
        busy_done += busy.done();
        busy_s += busy.elapsed_s;
        reconnects += one.reconnects + busy.reconnects;
        peaks.push(daemon.peak_rss_mb()?);
    }
    outcome.set("setup_s", median(&boots));
    outcome.set("latency_p50_ms", median(&alone));
    outcome.set("throughput_per_s", busy_done as f64 / busy_s);
    outcome.set("rss_peak_mb", median(&peaks));
    note!(
        "{DAEMONS} daemons: one client {} replies, p50 {:.3} ms, p99 {:.3} ms; \
         two clients {:.1}/s; {reconnects} reconnects",
        alone.len(),
        median(&alone),
        quantile(&alone, 0.99),
        busy_done as f64 / busy_s,
    );
    Ok(outcome)
}

/// Sends `phase` closed-loop from `clients` for `seconds` and counts its
/// requests into `outcome`.
fn send(
    addr: SocketAddr,
    phase: &Phase,
    clients: usize,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<LoopResult, String> {
    let result = closed_loop(addr, phase, clients, seconds)?;
    outcome.attempted += (result.done() + result.failed) as u64;
    outcome.failed += result.failed as u64;
    if let Some(e) = &result.first_error {
        note!("request failed: {e}");
    }
    if result.exhausted {
        note!(
            "{clients} client(s) sent all {} rendered requests early",
            phase.len()
        );
    }
    Ok(result)
}
