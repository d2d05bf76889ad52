//! Tests of the benchmark's own checks, run at the start of every run:
//! each check must accept a good input and reject a deliberately broken
//! one, so none of them can pass vacuously.

use std::sync::{Arc, Mutex};

use scd_check::{corpus, explore, scenarios, Counterexample, ExploreConfig};
use scd_machine::machine::testing;
use scd_machine::{Machine, MachineConfig, Mutation, ProtocolKind, RunStats};
use scd_stats::MessageClass;
use scd_tango::{Op, ScriptProgram, ThreadProgram};
use scd_trace::{Json, PatternTable, TraceConfig};

use crate::checks::{self, OpCounts};
use crate::modelcheck;
use crate::sim::TextSink;
use crate::table1;

/// Four processors: one writes two blocks, three read them, then the
/// writer writes them again, invalidating the readers.
fn programs() -> Vec<Vec<Op>> {
    let (a, b) = (0x30, 0x70);
    let mut progs = vec![vec![
        Op::Write(a),
        Op::Write(b),
        Op::Barrier(0),
        Op::Barrier(1),
        Op::Write(a),
        Op::Write(b),
        Op::Barrier(2),
    ]];
    for _ in 0..3 {
        progs.push(vec![
            Op::Barrier(0),
            Op::Read(a),
            Op::Read(b),
            Op::Barrier(1),
            Op::Barrier(2),
            Op::Read(a),
        ]);
    }
    progs
}

fn machine(trace: Option<TraceConfig>) -> Machine {
    let mut cfg = MachineConfig::tiny(4);
    cfg.trace = trace;
    let boxed = programs()
        .into_iter()
        .map(|ops| Box::new(ScriptProgram::new(ops)) as Box<dyn ThreadProgram>)
        .collect();
    Machine::new(cfg, boxed)
}

/// Passes when `good` passes and `bad` fails with a message containing
/// `needle`.
fn expect(
    name: &str,
    good: Result<(), String>,
    bad: Result<(), String>,
    needle: &str,
) -> Result<(), String> {
    good.map_err(|e| format!("self-test {name}: good input rejected: {e}"))?;
    match bad {
        Ok(()) => Err(format!("self-test {name}: broken input accepted")),
        Err(e) if e.contains(needle) => Ok(()),
        Err(e) => Err(format!(
            "self-test {name}: broken input failed the wrong check: {e}"
        )),
    }
}

fn run_checks(stats: &RunStats, ops: OpCounts) -> Result<(), String> {
    let good = || checks::run_counts(stats, ops, true, Some(stats.traffic.total()));
    if stats.traffic.get(MessageClass::Invalidation) == 0 {
        return Err("self-test programs sent no invalidation".into());
    }
    let more_reads = OpCounts {
        reads: ops.reads + 1,
        ..ops
    };
    expect(
        "op counts",
        good(),
        checks::run_counts(stats, more_reads, true, None),
        "op streams",
    )?;

    let mut extra_ack = stats.clone();
    extra_ack.traffic.record(MessageClass::Acknowledgement);
    extra_ack.network.messages += 1;
    expect(
        "acks",
        good(),
        checks::run_counts(&extra_ack, ops, true, None),
        "acknowledgements",
    )?;

    let mut lost = stats.clone();
    lost.network.messages -= 1;
    expect(
        "network total",
        good(),
        checks::run_counts(&lost, ops, true, None),
        "network messages",
    )?;

    let total = stats.traffic.total();
    expect(
        "attribution total",
        good(),
        checks::run_counts(stats, ops, true, Some(total + 1)),
        "attribution total",
    )?;

    let mut heavier = stats.clone();
    heavier.invalidations.record(2);
    expect(
        "histogram weight",
        good(),
        checks::run_counts(&heavier, ops, true, None),
        "histogram weight",
    )?;

    let mut slower = stats.clone();
    slower.cycles += 1;
    expect(
        "same stats",
        checks::same_stats(stats, stats),
        checks::same_stats(&slower, stats),
        "differ",
    )
}

fn quiescent_check() -> Result<(), String> {
    let mut m = machine(None);
    m.try_run()
        .map_err(|e| format!("self-test run failed: {}", e.kind()))?;
    let good = checks::quiescent(&m);
    testing::mark_busy(&mut m, 0, 3);
    expect(
        "quiescent",
        good,
        checks::quiescent(&m),
        "quiescent invariant",
    )
}

fn telemetry_checks() -> Result<(), String> {
    let mut tc = TraceConfig::full(1 << 12).with_interval(50);
    tc.patterns = true;
    let mut m = machine(Some(tc));
    let text = Arc::new(Mutex::new(String::new()));
    m.attach_stream(Box::new(TextSink(Arc::clone(&text))), Some(Json::obj()));
    m.try_run()
        .map_err(|e| format!("self-test run failed: {}", e.kind()))?;
    let stream = text.lock().expect("self-test stream").clone();
    let mut post_hoc = String::new();
    let mut online = PatternTable::new();
    for ev in m.trace_events() {
        let j = ev.to_json();
        online.observe_event(&j);
        post_hoc.push_str(&j.to_string());
        post_hoc.push('\n');
    }
    // Drop one event line from the middle of the stream.
    let lines: Vec<&str> = stream.lines().collect();
    let victim = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"seq\""))
        .map(|(i, _)| i)
        .nth(5)
        .ok_or("self-test stream holds too few events")?;
    let dropped: String = lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    expect(
        "stream",
        checks::stream(&stream, &post_hoc),
        checks::stream(&dropped, &post_hoc),
        "stream",
    )?;
    let unclosed: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    expect(
        "stream run_end",
        checks::stream(&stream, &post_hoc),
        checks::stream(&unclosed, &post_hoc),
        "run_end",
    )?;

    let replay = |text: &str| -> Result<String, String> {
        Ok(PatternTable::from_trace(text)?
            .document(None, None)
            .to_string())
    };
    let online = online.document(None, None).to_string();
    let half: String = post_hoc
        .lines()
        .take(post_hoc.lines().count() / 2)
        .map(|l| format!("{l}\n"))
        .collect();
    expect(
        "patterns",
        checks::patterns(&online, &replay(&post_hoc)?),
        checks::patterns(&online, &replay(&half)?),
        "patterns replay",
    )
}

fn explorer_checks() -> Result<(), String> {
    let corpus = corpus();
    let litmus = corpus
        .iter()
        .find(|l| l.name == "message-passing")
        .ok_or("litmus missing")?;
    let dash = scenarios()
        .into_iter()
        .find(|s| s.protocol == ProtocolKind::Dash)
        .ok_or("no DASH scenario")?;
    let build = || litmus.build(&dash, None, false);
    let full = explore(&build, &ExploreConfig::default());
    let cut = explore(
        &build,
        &ExploreConfig {
            max_states: 5,
            ..ExploreConfig::default()
        },
    );
    expect(
        "untruncated",
        checks::untruncated("full", &full),
        checks::untruncated("cut", &cut),
        "truncated",
    )?;

    // A gate whose mutation cannot fire on this backend finds nothing.
    let inert = || litmus.build(&dash, Some(Mutation::DlsSkipWriteback), false);
    let found = usize::from(
        explore(&inert, &ExploreConfig::default())
            .violation
            .is_some(),
    );
    let mutant = || litmus.build(&dash, Some(Mutation::SkipInval), false);
    let real = explore(&mutant, &ExploreConfig::default());
    let caught = usize::from(real.violation.is_some());
    expect(
        "mutation gate",
        checks::mutation_caught("skip-inval", caught),
        checks::mutation_caught("inert", found),
        "not caught",
    )?;

    // A replay that stops short of the violation does not confirm it.
    let cex = real.violation.ok_or("skip-inval mutation not caught")?;
    let short = Counterexample {
        choices: cex.choices[..cex.choices.len() / 2].to_vec(),
        ..cex.clone()
    };
    let cfg = ExploreConfig::default();
    let confirms = |c: &Counterexample| {
        if modelcheck::replay_confirms(&mutant, &cfg, c) {
            Ok(())
        } else {
            Err("violation does not replay".to_string())
        }
    };
    expect(
        "replay",
        confirms(&cex),
        confirms(&short),
        "does not replay",
    )?;

    let expected = modelcheck::expected_failures();
    let missing = &expected[1..];
    let mut extra = expected.clone();
    extra.push("store-buffering dense/complete".into());
    expect(
        "failure set",
        checks::failure_set(&expected, &expected),
        checks::failure_set(missing, &expected),
        "failing checks",
    )?;
    expect(
        "failure set",
        checks::failure_set(&expected, &expected),
        checks::failure_set(&extra, &expected),
        "failing checks",
    )
}

/// Runs every self-test; returns the failures.
pub fn run() -> Vec<String> {
    let mut m = machine(None);
    let results = [
        match m.try_run() {
            Ok(stats) => run_checks(
                &stats,
                OpCounts::of(programs().iter().map(|p| p.as_slice())),
            ),
            Err(e) => Err(format!("self-test run failed: {}", e.kind())),
        },
        quiescent_check(),
        telemetry_checks(),
        explorer_checks(),
        // The good path runs on `large_machine`; here only the broken
        // formula must be rejected.
        expect(
            "table 1",
            Ok(()),
            table1::check_with(table1::broken_formula),
            "Table 1 gives",
        ),
    ];
    results.into_iter().filter_map(Result::err).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_rejects_its_broken_input() {
        assert_eq!(super::run(), Vec::<String>::new());
        assert_eq!(crate::table1::check(), Ok(()));
    }
}
