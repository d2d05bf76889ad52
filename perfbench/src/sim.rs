//! The three simulation workloads: the paper's evaluation grid, Table 1's
//! 1024-processor design point, and every telemetry layer at once.
//!
//! A round generates every reference program and builds every machine
//! (set-up), runs each machine (the measured phase), and checks each
//! run's outputs. Machines are built one at a time and dropped after
//! their run, so peak memory is one machine's, not the round's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::{build_config, SparseVariant, SweepSpec, CANONICAL_SPARSE};
use scd_apps::AppRun;
use scd_core::Scheme;
use scd_machine::{Machine, MachineConfig, ProtocolKind, RunStats};
use scd_stats::MessageClass;
use scd_trace::{Json, PatternTable, TraceConfig, TraceSink};

use crate::checks::{self, OpCounts};
use crate::spans::Spans;
use crate::Round;

/// Problem scale of the `paper_grid` reference programs.
const GRID_SCALE: f64 = 0.25;
/// Problem scale of the `large_machine` reference programs (generated for
/// 1024 processors).
const LARGE_SCALE: f64 = 0.5;
/// Problem scale of the `telemetry` reference programs.
const TELEMETRY_SCALE: f64 = 0.25;
/// Trace-ring capacity per cluster for `telemetry`: large enough that no
/// event is evicted, so the post-hoc export holds the whole history and
/// must equal the stream.
const TELEMETRY_RING: usize = 1 << 16;
/// Interval-snapshot period, cycles (the `scdsim --patterns-out` default).
const TELEMETRY_INTERVAL: u64 = 10_000;

/// Which simulation workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    PaperGrid,
    LargeMachine,
    Telemetry,
}

/// One machine to build and run.
struct Point {
    label: String,
    app: usize,
    cfg: MachineConfig,
    complete: bool,
}

/// The `paper_grid` sweep: §5's four schemes × complete and §6.3 sparse
/// directories × the four applications, 32 clusters of one processor.
fn grid_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        apps: bench::APP_NAMES.iter().map(|s| s.to_string()).collect(),
        schemes: bench::scheme_suite().into_iter().map(|(_, s)| s).collect(),
        sparse: vec![SparseVariant::Full, CANONICAL_SPARSE],
        seeds: vec![seed],
        protocols: vec![ProtocolKind::Dash],
        scale: GRID_SCALE,
        clusters: 32,
        shards: 1,
    }
}

/// Table 1's 1024-processor machine: 256 clusters of 4, Dir8CV4, the
/// paper's cache sizes, a complete directory, telemetry off.
fn large_config() -> MachineConfig {
    let mut cfg = MachineConfig::paper_32().with_scheme(Scheme::dir_cv(8, 4));
    cfg.clusters = 256;
    cfg.procs_per_cluster = 4;
    cfg
}

/// Every layer `scdsim` can turn on.
fn telemetry_all() -> TraceConfig {
    let mut tc = TraceConfig::full(TELEMETRY_RING).with_interval(TELEMETRY_INTERVAL);
    tc.patterns = true;
    tc
}

/// The single-layer configurations timed in the traced run. `stream`
/// attaches a stream to the `ring` configuration (events only flow to a
/// stream when the ring records them).
fn telemetry_layers() -> [(&'static str, TraceConfig, bool); 4] {
    let ring = TraceConfig {
        ring_capacity: TELEMETRY_RING,
        messages: true,
        ..TraceConfig::none()
    };
    [
        (
            "telemetry.metrics",
            TraceConfig {
                metrics: true,
                interval: TELEMETRY_INTERVAL,
                ..TraceConfig::none()
            },
            false,
        ),
        ("telemetry.ring", ring, false),
        ("telemetry.stream", ring, true),
        (
            "telemetry.patterns",
            TraceConfig {
                patterns: true,
                interval: TELEMETRY_INTERVAL,
                ..TraceConfig::none()
            },
            false,
        ),
    ]
}

/// A lossless in-memory stream sink; the text stays readable after the
/// machine drops the sink.
pub struct TextSink(pub Arc<Mutex<String>>);

impl TraceSink for TextSink {
    fn emit(&mut self, line: &str) {
        let mut text = self.0.lock().expect("stream buffer poisoned");
        text.push_str(line);
        text.push('\n');
    }

    fn flush(&mut self) {}
}

impl Sim {
    fn generate(self, seed: u64) -> Vec<AppRun> {
        match self {
            Sim::PaperGrid => grid_spec(seed).generate_apps(),
            Sim::LargeMachine => bench::APP_NAMES
                .iter()
                .map(|a| bench::generate_app(a, 1024, seed, LARGE_SCALE).expect("known app"))
                .collect(),
            Sim::Telemetry => ["locusroute", "mp3d"]
                .iter()
                .map(|a| bench::generate_app(a, 32, seed, TELEMETRY_SCALE).expect("known app"))
                .collect(),
        }
    }

    fn points(self, seed: u64, apps: &[AppRun]) -> Vec<Point> {
        match self {
            Sim::PaperGrid => {
                let spec = grid_spec(seed);
                spec.descriptors()
                    .into_iter()
                    .map(|d| {
                        // Traffic attribution is on, as in every sweep.
                        let cfg = build_config(&d, &apps[d.app_idx], &spec)
                            .with_trace(TraceConfig::none().with_attribution(true));
                        Point {
                            label: d.id.clone(),
                            app: d.app_idx,
                            complete: d.sparse == SparseVariant::Full,
                            cfg,
                        }
                    })
                    .collect()
            }
            Sim::LargeMachine => (0..apps.len())
                .map(|i| Point {
                    label: format!("{}/dir8cv4/1024p", apps[i].name),
                    app: i,
                    cfg: large_config(),
                    complete: true,
                })
                .collect(),
            Sim::Telemetry => (0..apps.len())
                .map(|i| Point {
                    label: format!("{}/dir4cv4/telemetry", apps[i].name),
                    app: i,
                    cfg: MachineConfig::paper_32()
                        .with_scheme(Scheme::dir_cv(4, 4))
                        .with_trace(telemetry_all()),
                    complete: true,
                })
                .collect(),
        }
    }

    /// Runs one round. Host times go into `round`; per-layer figures go
    /// into `spans` when they record.
    pub fn round(self, seed: u64, spans: &mut Spans) -> Round {
        let mut out = Round::default();
        let mut digest = DefaultHasher::new();

        let t = Instant::now();
        let apps = spans.span("apps.generate", |_| self.generate(seed));
        out.setup += t.elapsed().as_secs_f64();
        let expected: Vec<OpCounts> = apps
            .iter()
            .map(|a| OpCounts::of(a.programs.iter().map(|p| &p[..])))
            .collect();
        let traced = spans.on();

        for point in self.points(seed, &apps) {
            out.attempted += 1;
            let app = &apps[point.app];
            let stream = Arc::new(Mutex::new(String::new()));
            let t = Instant::now();
            let mut machine = spans.span("machine.new", |_| {
                let mut m = Machine::new(point.cfg.clone(), app.boxed_programs());
                if self == Sim::Telemetry {
                    m.attach_stream(
                        Box::new(TextSink(Arc::clone(&stream))),
                        Some(run_meta(&point.label)),
                    );
                }
                m
            });
            out.setup += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let result = spans.span("machine.run", |s| {
                let r = machine.try_run();
                if let Ok(stats) = &r {
                    s.count(&layer_counts(stats));
                    s.count(&[(
                        "stream_bytes",
                        stream.lock().expect("stream buffer").len() as u64,
                    )]);
                }
                r
            });
            let stats = match result {
                Ok(stats) => stats,
                Err(e) => {
                    out.wall += t.elapsed().as_secs_f64();
                    out.fail(format!("{}: simulation failed: {}", point.label, e.kind()));
                    continue;
                }
            };
            let exports = match self {
                Sim::PaperGrid => {
                    let doc = spans.span("trace.attribution", |_| {
                        stats_document(&machine, &stats, &point.label)
                    });
                    std::hint::black_box(doc);
                    None
                }
                Sim::Telemetry => {
                    Some(spans.span("trace.export", |_| export(&machine, &stats, &point.label)))
                }
                Sim::LargeMachine => None,
            };
            out.wall += t.elapsed().as_secs_f64();
            out.refs += stats.shared_refs();
            out.cycles += stats.cycles;
            out.messages += stats.traffic.total();
            stats.to_json().to_string().hash(&mut digest);

            let attributed = machine.attribution().map(|a| a.totals().messages);
            let mut verdict =
                checks::run_counts(&stats, expected[point.app], point.complete, attributed)
                    .and_then(|()| checks::quiescent(&machine));
            if let Some(exports) = exports {
                let text = std::mem::take(&mut *stream.lock().expect("stream buffer"));
                verdict = verdict.and_then(|()| {
                    self.check_telemetry(&point, app, &stats, &text, &exports, spans)
                });
            }
            if let Err(e) = verdict {
                out.fail(format!("{}: {e}", point.label));
            }
            drop(machine);
            if traced && self == Sim::Telemetry {
                if let Err(e) = telemetry_layer_runs(&point, app, spans) {
                    out.errors.push(format!("{}: {e}", point.label));
                }
            }
        }
        out.digest = digest.finish();
        if traced && self == Sim::PaperGrid && sweep_engine_run(seed, spans) != out.digest {
            out.errors
                .push("the sweep engine's statistics differ from the direct runs'".into());
        }
        out
    }

    /// The telemetry checks: the same point run with telemetry off gives
    /// the same statistics; the stream validates and its events equal the
    /// post-hoc export; the patterns replay equals the online document.
    fn check_telemetry(
        self,
        point: &Point,
        app: &AppRun,
        stats: &RunStats,
        stream: &str,
        exports: &Exports,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let mut plain_cfg = point.cfg.clone();
        plain_cfg.trace = None;
        let mut plain = Machine::new(plain_cfg, app.boxed_programs());
        let plain = spans.span("telemetry.plain", |_| plain.try_run());
        let plain = plain.map_err(|e| format!("plain run failed: {}", e.kind()))?;
        checks::same_stats(stats, &plain)?;
        if exports.dropped > 0 {
            return Err(format!(
                "{} events evicted from the trace rings",
                exports.dropped
            ));
        }
        checks::stream(stream, &exports.trace)?;
        // The occupancy section comes from the machine, not the event
        // history, so the replay is compared without it.
        let online = exports.table.document(None, None).to_string();
        let replayed = PatternTable::from_trace(&exports.trace)
            .map_err(|e| format!("patterns replay: {e}"))?
            .document(None, None)
            .to_string();
        checks::patterns(&online, &replayed)
    }
}

/// The counts read at the `machine.run` boundary.
pub fn layer_counts(s: &RunStats) -> Vec<(&'static str, u64)> {
    let sparse = s.sparse.unwrap_or_default();
    vec![
        ("refs", s.shared_refs()),
        ("cycles", s.cycles),
        ("events", s.events_delivered),
        ("messages", s.traffic.total()),
        ("invalidations", s.traffic.get(MessageClass::Invalidation)),
        ("replacement_flushes", s.protocol.replacement_flushes),
        ("forwards", s.protocol.forwards),
        ("queued_requests", s.queue_metrics.1),
        ("inval_events", s.invalidations.events()),
        ("inval_weight", s.invalidations.weight()),
        ("sparse_hits", sparse.hits),
        ("sparse_misses", sparse.misses),
        ("sparse_replacements", sparse.replacements),
        ("l2_misses", s.l2_misses),
        ("net_messages", s.network.messages),
        ("hops", s.network.hops),
    ]
}

fn run_meta(label: &str) -> Json {
    Json::obj().with("point", Json::Str(label.into()))
}

/// The per-point documents a sweep emits: the attribution section inside
/// the `scd-run-stats/v1` stats document.
fn stats_document(machine: &Machine, stats: &RunStats, label: &str) -> String {
    stats
        .to_json_document(
            Some(run_meta(label)),
            None,
            machine.attribution_json(stats.cycles),
            machine.trace_json(),
            None,
        )
        .to_string()
}

/// What the telemetry workload writes after each run.
struct Exports {
    trace: String,
    table: PatternTable,
    dropped: u64,
}

/// The post-run documents: the JSONL trace export, the stats document
/// with metrics, attribution and patterns sections, and the patterns
/// document of the online classifier.
fn export(machine: &Machine, stats: &RunStats, label: &str) -> Exports {
    let events = machine.trace_events();
    let mut trace = String::new();
    let mut table = PatternTable::new();
    for ev in &events {
        let j = ev.to_json();
        table.observe_event(&j);
        trace.push_str(&j.to_string());
        trace.push('\n');
    }
    let stats_doc = stats.to_json_document(
        Some(run_meta(label)),
        Some(machine.metrics()),
        machine.attribution_json(stats.cycles),
        machine.trace_json(),
        Some(table.section_json()),
    );
    std::hint::black_box(stats_doc.to_string());
    let patterns = table.document(Some(run_meta(label)), machine.occupancy_json());
    std::hint::black_box(patterns.to_string());
    Exports {
        trace,
        table,
        dropped: machine.trace_counts().1,
    }
}

/// Traced run only: the same point with one telemetry layer on at a time.
fn telemetry_layer_runs(point: &Point, app: &AppRun, spans: &mut Spans) -> Result<(), String> {
    for (name, tc, stream) in telemetry_layers() {
        let cfg = point.cfg.clone().with_trace(tc);
        let mut m = Machine::new(cfg, app.boxed_programs());
        if stream {
            let text = Arc::new(Mutex::new(String::new()));
            m.attach_stream(Box::new(TextSink(text)), Some(run_meta(&point.label)));
        }
        spans
            .span(name, |_| m.try_run())
            .map_err(|e| format!("{name} run failed: {}", e.kind()))?;
    }
    Ok(())
}

/// Traced run only: the grid through the sweep engine, to separate the
/// engine's own cost from the per-point runs it times. Returns the digest
/// of the engine's statistics, which must equal the direct runs'.
fn sweep_engine_run(seed: u64, spans: &mut Spans) -> u64 {
    let spec = grid_spec(seed);
    spans.span("bench.sweep", |s| {
        let outcome = bench::run_sweep(&spec, 1);
        std::hint::black_box(bench::sweep_document(&outcome, &spec, false).to_string());
        let point_ns: f64 = outcome.runs.iter().map(|r| r.wall_seconds * 1e9).sum();
        s.count(&[("point_ns", point_ns as u64)]);
        let mut digest = DefaultHasher::new();
        for run in &outcome.runs {
            run.stats.to_json().to_string().hash(&mut digest);
        }
        digest.finish()
    })
}
