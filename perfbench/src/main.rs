//! scd-perfbench: the end-to-end and per-layer benchmark of the simulator
//! and the model checker.
//!
//! ```text
//! scd-perfbench --workload <paper_grid|large_machine|telemetry|modelcheck>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs whole rounds of the workload until `--seconds` have passed, checks
//! every round's outputs, and prints one JSON line: whether every check
//! held, the operations attempted and failed, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod checks;
mod modelcheck;
mod selftest;
mod sim;
mod spans;
mod table1;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use scd_trace::Json;

use crate::sim::Sim;
use crate::spans::Spans;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xD45B;

/// What one round of a workload measured.
#[derive(Default)]
pub struct Round {
    /// Host seconds of set-up: generating reference programs and building
    /// machines.
    pub setup: f64,
    /// Host seconds of the measured phase.
    pub wall: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Shared references, simulated cycles and network messages of the
    /// round's simulation runs.
    pub refs: u64,
    pub cycles: u64,
    pub messages: u64,
    /// Digest of the round's simulated outputs; every round of a run must
    /// produce the same one.
    pub digest: u64,
    /// Failed checks.
    pub errors: Vec<String>,
}

impl Round {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

#[derive(Clone, Copy)]
enum Workload {
    Sim(Sim),
    ModelCheck,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "paper_grid" => Workload::Sim(Sim::PaperGrid),
            "large_machine" => Workload::Sim(Sim::LargeMachine),
            "telemetry" => Workload::Sim(Sim::Telemetry),
            "modelcheck" => Workload::ModelCheck,
            _ => return None,
        })
    }

    fn round(self, seed: u64, spans: &mut Spans) -> Round {
        match self {
            Workload::Sim(sim) => sim.round(seed, spans),
            Workload::ModelCheck => modelcheck::round(seed, spans),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: scd-perfbench --workload <paper_grid|large_machine|telemetry|modelcheck> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = parse_u64(&value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed,
        seconds,
        trace,
    })
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", Json::F64(value))
        .with("unit", Json::Str(unit.into()))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Json {
    let wall = median(rounds.iter().map(|r| r.wall).collect());
    let setup = median(rounds.iter().map(|r| r.setup).collect());
    let first = &rounds[0];
    Json::obj()
        .with("wall_s", metric(wall, "s"))
        .with("setup_s", metric(setup, "s"))
        .with("peak_rss_mb", metric(peak_rss_mb, "MB"))
        .with("refs_per_sec", metric(first.refs as f64 / wall, "1/s"))
        .with("sim_cycles", metric(first.cycles as f64, "cycles"))
        .with(
            "traffic_per_ref",
            metric(first.messages as f64 / first.refs as f64, "msg/ref"),
        )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced round.
fn per_layer(spans: &Spans, round: usize) -> Vec<(&'static str, f64, &'static str)> {
    let secs = |name: &str| spans.seconds(name, round);
    let count = |key: &str| spans.total("machine.run", key, round) as f64;
    let run_s = secs("machine.run");
    let events = count("events");
    let states = spans.total("check.explore", "states", round) as f64;
    let explore_s = secs("check.explore");
    let plain = secs("telemetry.plain");
    let extra = |name: &str, base: f64| if plain > 0.0 { secs(name) - base } else { 0.0 };
    let slowest = spans
        .durations("check.explore", round)
        .into_iter()
        .fold(0.0, f64::max);
    let sweep = secs("bench.sweep");
    let sweep_points = spans.total("bench.sweep", "point_ns", round) as f64 * 1e-9;
    vec![
        ("apps.generate_s", secs("apps.generate"), "s"),
        ("machine.new_s", secs("machine.new"), "s"),
        ("machine.run_s", run_s, "s"),
        ("machine.events", events, "count"),
        ("machine.ns_per_event", ratio(run_s * 1e9, events), "ns"),
        ("protocol.messages", count("messages"), "count"),
        ("protocol.invalidations", count("invalidations"), "count"),
        (
            "protocol.replacement_flushes",
            count("replacement_flushes"),
            "count",
        ),
        ("protocol.forwards", count("forwards"), "count"),
        (
            "protocol.queued_requests",
            count("queued_requests"),
            "count",
        ),
        (
            "core.inval_per_write",
            ratio(count("inval_weight"), count("inval_events")),
            "msg/txn",
        ),
        (
            "core.sparse_hit_ratio",
            ratio(
                count("sparse_hits"),
                count("sparse_hits") + count("sparse_misses"),
            ),
            "ratio",
        ),
        (
            "core.sparse_replacements",
            count("sparse_replacements"),
            "count",
        ),
        ("mem.l2_misses", count("l2_misses"), "count"),
        (
            "noc.mean_hops",
            ratio(count("hops"), count("net_messages")),
            "hops",
        ),
        ("trace.attribution_s", secs("trace.attribution"), "s"),
        ("trace.overhead_x", ratio(run_s, plain), "ratio"),
        ("trace.metrics_s", extra("telemetry.metrics", plain), "s"),
        ("trace.ring_s", extra("telemetry.ring", plain), "s"),
        (
            "trace.stream_s",
            extra("telemetry.stream", secs("telemetry.ring")),
            "s",
        ),
        ("trace.patterns_s", extra("telemetry.patterns", plain), "s"),
        ("trace.stream_mb", count("stream_bytes") / 1e6, "MB"),
        ("trace.export_s", secs("trace.export"), "s"),
        ("check.states", states, "count"),
        ("check.states_per_sec", ratio(states, explore_s), "1/s"),
        ("check.slowest_s", slowest, "s"),
        ("check.mutation_s", secs("check.mutation"), "s"),
        (
            "bench.sweep_overhead_s",
            if sweep > 0.0 {
                sweep - sweep_points
            } else {
                0.0
            },
            "s",
        ),
    ]
}

/// The per-layer metrics of a traced run: the median over its traced
/// rounds, plus the recorder's own cost, taken as the difference between
/// the median traced and untraced round.
fn per_layer_metrics(spans: &Spans, rounds: &[(Round, bool)]) -> Json {
    let per_round: Vec<_> = rounds
        .iter()
        .enumerate()
        .filter(|(_, (_, traced))| *traced)
        .map(|(i, _)| per_layer(spans, i))
        .collect();
    let mut out = Json::obj();
    for (k, &(name, _, unit)) in per_round[0].iter().enumerate() {
        out = out.with(
            name,
            metric(median(per_round.iter().map(|m| m[k].1).collect()), unit),
        );
    }
    let wall = |on: bool| {
        median(
            rounds
                .iter()
                .filter(|(_, traced)| *traced == on)
                .map(|(r, _)| r.wall)
                .collect(),
        )
    };
    out.with(
        "bench.span_overhead_s",
        metric(wall(true) - wall(false), "s"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut errors = selftest::run();
    if matches!(args.workload, Workload::Sim(Sim::LargeMachine)) {
        if let Err(e) = table1::check() {
            errors.push(e);
        }
    }

    // The traced run alternates untraced and traced rounds, so the
    // recorder's own cost can be read off the difference.
    let mut spans = Spans::new(false);
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    let mut peak_rss = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        spans.set_on(traced);
        spans.begin_round(rounds.len());
        let round = args.workload.round(args.seed, &mut spans);
        rounds.push((round, traced));
        // Later rounds repeat the first one's work; reading the peak here
        // keeps allocator drift over a varying number of rounds out of it.
        peak_rss.get_or_insert_with(peak_rss_mb);
        if start.elapsed() >= budget && (!args.trace || rounds.len() >= 2) {
            break;
        }
    }

    let first = rounds[0].0.digest;
    if rounds.iter().any(|(r, _)| r.digest != first) {
        errors.push("rounds of the same inputs produced different outputs".into());
    }
    let attempted: u64 = rounds.iter().map(|(r, _)| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|(r, _)| r.failed).sum();
    for (r, _) in &rounds {
        errors.extend(r.errors.iter().cloned());
    }
    errors.sort();
    errors.dedup();

    let metrics = if args.trace {
        let path =
            Path::new("perfbench/out").join(format!("spans-{}-{}.json", args.name, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
        }
        per_layer_metrics(&spans, &rounds)
    } else {
        let rounds: Vec<Round> = rounds.into_iter().map(|(r, _)| r).collect();
        end_to_end(&rounds, peak_rss.expect("at least one round ran"))
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let result = Json::obj()
        .with("correct", Json::Bool(errors.is_empty()))
        .with("attempted", Json::U64(attempted))
        .with("failed", Json::U64(failed))
        .with("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}
