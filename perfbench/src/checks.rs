//! Output checks. Each takes what a workload produced and the figure it
//! must equal, computed apart from the program (from the generated op
//! streams, from another counter, from Table 1's formula) or a property
//! the method must have. `selftest` feeds every check a broken input, so
//! none can pass vacuously.

use scd_check::Outcome;
use scd_machine::{checker, Machine, RunStats};
use scd_stats::MessageClass;
use scd_tango::Op;

/// Operation counts taken from generated op streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub reads: u64,
    pub writes: u64,
    pub sync: u64,
}

impl OpCounts {
    /// Counts the reads, writes and synchronization operations of every
    /// processor's stream.
    pub fn of<'a>(programs: impl IntoIterator<Item = &'a [Op]>) -> Self {
        let mut c = OpCounts::default();
        for op in programs.into_iter().flatten() {
            match op {
                Op::Read(_) => c.reads += 1,
                Op::Write(_) => c.writes += 1,
                Op::Lock(_) | Op::Unlock(_) | Op::Barrier(_) => c.sync += 1,
                Op::Compute(_) | Op::Done => {}
            }
        }
        c
    }
}

/// The checks every simulation run must pass: the run issued exactly the
/// generated operations, every invalidation was acknowledged, the traffic
/// total equals the network's message count (and the attribution total,
/// when attribution ran), and with a complete directory the invalidation
/// messages equal the invalidation histogram's weight.
pub fn run_counts(
    stats: &RunStats,
    ops: OpCounts,
    complete: bool,
    attributed_messages: Option<u64>,
) -> Result<(), String> {
    let issued = OpCounts {
        reads: stats.shared_reads,
        writes: stats.shared_writes,
        sync: stats.sync_ops,
    };
    if issued != ops {
        return Err(format!("issued {issued:?}, op streams hold {ops:?}"));
    }
    let invals = stats.traffic.get(MessageClass::Invalidation);
    let acks = stats.traffic.get(MessageClass::Acknowledgement);
    if invals != acks {
        return Err(format!(
            "{invals} invalidations but {acks} acknowledgements"
        ));
    }
    let total = stats.traffic.total();
    if total != stats.network.messages {
        return Err(format!(
            "traffic total {total} != network messages {}",
            stats.network.messages
        ));
    }
    if let Some(attributed) = attributed_messages {
        if attributed != total {
            return Err(format!(
                "attribution total {attributed} != traffic total {total}"
            ));
        }
    }
    if complete && invals != stats.invalidations.weight() {
        return Err(format!(
            "{invals} invalidation messages but histogram weight {}",
            stats.invalidations.weight()
        ));
    }
    Ok(())
}

/// The quiescent coherence invariants of a drained machine.
pub fn quiescent(machine: &Machine) -> Result<(), String> {
    checker::verify_quiescent(machine).map_err(|v| format!("quiescent invariant: {v}"))
}

/// Telemetry must not perturb the simulation: the run's statistics equal
/// those of the same point run with telemetry off.
pub fn same_stats(with: &RunStats, without: &RunStats) -> Result<(), String> {
    let (a, b) = (with.to_json().to_string(), without.to_json().to_string());
    if a != b {
        return Err("statistics differ between telemetry on and off".into());
    }
    Ok(())
}

/// The stream validates, closes with `run_end`, and its event lines are
/// byte for byte the post-hoc trace export.
pub fn stream(stream: &str, post_hoc: &str) -> Result<(), String> {
    let summary = scd_trace::validate_stream(stream).map_err(|e| format!("stream: {e}"))?;
    if !summary.run_ended {
        return Err("stream does not close with run_end".into());
    }
    if scd_trace::extract_trace_lines(stream) != post_hoc {
        return Err("stream event lines differ from the post-hoc trace export".into());
    }
    Ok(())
}

/// The patterns document replayed from the exported trace text equals the
/// document the online classifier built.
pub fn patterns(online: &str, replayed: &str) -> Result<(), String> {
    if online != replayed {
        return Err("patterns replay differs from the online document".into());
    }
    Ok(())
}

/// An exploration must finish: a truncated search proves nothing.
pub fn untruncated(label: &str, outcome: &Outcome) -> Result<(), String> {
    if outcome.truncated {
        return Err(format!("{label}: exploration truncated"));
    }
    Ok(())
}

/// A seeded mutation must be caught by at least one scenario.
pub fn mutation_caught(name: &str, caught: usize) -> Result<(), String> {
    if caught == 0 {
        return Err(format!("mutation {name} was not caught"));
    }
    Ok(())
}

/// Exactly the expected checks fail: `failed` and `expected` hold the same
/// labels.
pub fn failure_set(failed: &[String], expected: &[String]) -> Result<(), String> {
    let mut f = failed.to_vec();
    let mut e = expected.to_vec();
    f.sort();
    e.sort();
    if f != e {
        return Err(format!("failing checks {f:?}, expected exactly {e:?}"));
    }
    Ok(())
}

/// A directory-memory figure reported by the program equals the one the
/// benchmark computes from Table 1's formula.
pub fn overhead_row(
    label: &str,
    reported: (usize, f64),
    computed: (usize, f64),
) -> Result<(), String> {
    if reported.0 != computed.0 || (reported.1 - computed.1).abs() > 1e-12 {
        return Err(format!(
            "{label}: program reports {} bits / {:.4}%, Table 1 gives {} bits / {:.4}%",
            reported.0,
            reported.1 * 100.0,
            computed.0,
            computed.1 * 100.0
        ));
    }
    Ok(())
}
