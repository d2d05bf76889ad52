//! The `modelcheck` workload: `scd-check`'s exhaustive exploration of the
//! whole litmus corpus under every scenario with NACK, delay and duplicate
//! fault edges at a fault budget of 3, plus the three seeded-mutation
//! gates, with every reported violation replayed from its choice sequence.
//!
//! The corpus is fixed; the seed only sets the order the checks run in.
//! `renew-write-race` fails under all 11 DASH scenarios once NACK and
//! delay edges combine (see the README's "Known fault"): those 11 checks
//! are counted as failed operations, and the run is only correct if
//! exactly they fail.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use scd_check::{corpus, explore, scenarios, Counterexample, ExploreConfig, Litmus, Scenario};
use scd_core::Organization;
use scd_machine::{FaultEdges, Machine, Mutation, ProtocolKind};

use crate::checks::{self, OpCounts};
use crate::spans::Spans;
use crate::Round;

/// Injected faults allowed along one explored path.
const FAULT_BUDGET: u32 = 3;
/// Fault edges added to every litmus test (the CI fault sweep's delay and
/// duplicate latencies).
const FAULTS: FaultEdges = FaultEdges {
    nack: true,
    delay: Some(7),
    dup: Some(9),
};
/// Repetitions of the set-up per round; the round reports their median.
const SETUP_REPS: usize = 15;

/// The litmus test whose checks fail because of the known DASH fault.
pub const FAULTY_LITMUS: &str = "renew-write-race";
/// The invariant the known fault breaks.
const FAULT_SIGNATURE: &str = "dirty implies exclusive";

/// The seeded-mutation gates: each bug must be caught on its litmus test
/// under its backend's scenarios.
const GATES: [(&str, Mutation, &str, ProtocolKind); 3] = [
    (
        "skip-inval",
        Mutation::SkipInval,
        "message-passing",
        ProtocolKind::Dash,
    ),
    (
        "tardis-skip-wts-bump",
        Mutation::TardisSkipWtsBump,
        "message-passing",
        ProtocolKind::Tardis,
    ),
    (
        "dls-skip-writeback",
        Mutation::DlsSkipWriteback,
        "write-after-shared-llc-hit",
        ProtocolKind::Dls,
    ),
];

/// The exploration settings of one check.
fn check_config(litmus: &Litmus) -> ExploreConfig {
    ExploreConfig {
        faults: FaultEdges {
            nack: litmus.faults.nack || FAULTS.nack,
            delay: FAULTS.delay.or(litmus.faults.delay),
            dup: FAULTS.dup.or(litmus.faults.dup),
        },
        fault_budget: FAULT_BUDGET,
        ..ExploreConfig::default()
    }
}

/// The exploration settings of a mutation gate: the litmus test's own
/// fault edges and budget, as the CI gate runs it.
fn gate_config(litmus: &Litmus) -> ExploreConfig {
    ExploreConfig {
        faults: litmus.faults,
        fault_budget: litmus.fault_budget,
        ..ExploreConfig::default()
    }
}

/// Every (litmus, scenario) check, in an order drawn from `seed`.
fn checks_in_order(seed: u64) -> Vec<(Litmus, Scenario)> {
    let mut all: Vec<(Litmus, Scenario)> = corpus()
        .into_iter()
        .flat_map(|l| scenarios().into_iter().map(move |s| (l.clone(), s)))
        .collect();
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..all.len()).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        all.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
    }
    all
}

/// The labels of the checks the known fault makes fail.
pub fn expected_failures() -> Vec<String> {
    scenarios()
        .into_iter()
        .filter(|s| s.protocol == ProtocolKind::Dash)
        .map(|s| format!("{FAULTY_LITMUS} {}", s.label))
        .collect()
}

/// Replays a counterexample's choices on a fresh machine and reports
/// whether the violation recurs: a step fails, or the state reached breaks
/// the per-state invariants, or (at a leaf) the quiescent validation.
pub fn replay_confirms(
    build: &dyn Fn() -> Machine,
    cfg: &ExploreConfig,
    cex: &Counterexample,
) -> bool {
    let mut m = build();
    if cfg.faults.any() {
        m.tolerate_faults();
    }
    m.begin_exploration();
    for &choice in &cex.choices {
        match catch_unwind(AssertUnwindSafe(|| m.step_explore(choice))) {
            Ok(Ok(())) => {}
            Ok(Err(_)) | Err(_) => return true,
        }
    }
    if m.check_step_invariants().is_err() {
        return true;
    }
    m.exploration_choices(&cfg.faults).is_empty()
        && !matches!(
            catch_unwind(AssertUnwindSafe(|| m.finalize_exploration())),
            Ok(Ok(_))
        )
}

/// Builds every machine the workload explores (one per check and one per
/// gate scenario) and returns how many.
fn build_all(checks: &[(Litmus, Scenario)]) -> usize {
    let mut built = 0;
    for (l, s) in checks {
        std::hint::black_box(l.build(s, None, false));
        built += 1;
    }
    let corpus = corpus();
    for (_, mutation, name, protocol) in GATES {
        let l = corpus
            .iter()
            .find(|l| l.name == name)
            .expect("gate litmus in corpus");
        for s in scenarios().iter().filter(|s| s.protocol == protocol) {
            std::hint::black_box(l.build(s, Some(mutation), false));
            built += 1;
        }
    }
    built
}

/// Runs one round of the workload.
pub fn round(seed: u64, spans: &mut Spans) -> Round {
    let mut out = Round::default();

    let checks = spans.span("apps.generate", |_| checks_in_order(seed));
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            spans.span("machine.new", |_| std::hint::black_box(build_all(&checks)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    setups.sort_by(f64::total_cmp);
    out.setup = setups[SETUP_REPS / 2];

    let mut failed_labels = Vec::new();
    let mut errors = Vec::new();
    for (litmus, scenario) in &checks {
        let t = Instant::now();
        let label = format!("{} {}", litmus.name, scenario.label);
        let cfg = check_config(litmus);
        let build = || litmus.build(scenario, None, false);
        let outcome = spans.span("check.explore", |s| {
            let o = explore(&build, &cfg);
            s.count(&[("states", o.visited)]);
            o
        });
        // The production path on the same litmus: one plain run, whose
        // outputs get the checks every simulation run gets.
        let (machine, run) = spans.span("machine.run", |s| {
            let mut m = build();
            let r = m.try_run();
            if let Ok(stats) = &r {
                s.count(&crate::sim::layer_counts(stats));
            }
            (m, r)
        });
        out.wall += t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.digest += outcome.visited;
        match run {
            Ok(stats) => {
                out.refs += stats.shared_refs();
                out.cycles += stats.cycles;
                out.messages += stats.traffic.total();
                let ops = OpCounts::of(litmus.programs.iter().map(|p| p.as_slice()));
                let complete = matches!(scenario.organization, Organization::Complete);
                if let Err(e) = checks::run_counts(&stats, ops, complete, None)
                    .and_then(|()| checks::quiescent(&machine))
                {
                    errors.push(format!("{label}: plain run: {e}"));
                }
            }
            Err(e) => errors.push(format!("{label}: plain run failed: {}", e.kind())),
        }
        if let Err(e) = checks::untruncated(&label, &outcome) {
            errors.push(e);
        }
        if let Some(cex) = &outcome.violation {
            out.failed += 1;
            failed_labels.push(label.clone());
            let t = Instant::now();
            let real = spans.span("check.replay", |_| replay_confirms(&build, &cfg, cex));
            out.wall += t.elapsed().as_secs_f64();
            if !real {
                errors.push(format!("{label}: reported violation does not replay"));
            }
            if litmus.name == FAULTY_LITMUS && !cex.error.contains(FAULT_SIGNATURE) {
                errors.push(format!("{label}: unexpected violation: {}", cex.error));
            }
        }
    }
    let corpus = corpus();
    for (name, mutation, litmus_name, protocol) in GATES {
        let litmus = corpus
            .iter()
            .find(|l| l.name == litmus_name)
            .expect("gate litmus in corpus");
        let cfg = gate_config(litmus);
        let t = Instant::now();
        let caught = spans.span("check.mutation", |_| {
            let mut caught = 0;
            for s in scenarios().iter().filter(|s| s.protocol == protocol) {
                let build = || litmus.build(s, Some(mutation), false);
                let o = explore(&build, &cfg);
                if let Some(cex) = &o.violation {
                    if replay_confirms(&build, &cfg, cex) {
                        caught += 1;
                    }
                }
            }
            caught
        });
        out.wall += t.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = checks::mutation_caught(name, caught) {
            out.failed += 1;
            errors.push(e);
        }
    }

    if let Err(e) = checks::failure_set(&failed_labels, &expected_failures()) {
        errors.push(e);
    }
    out.errors = errors;
    out
}
