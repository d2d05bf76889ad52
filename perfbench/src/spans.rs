//! In-memory spans for the traced run.
//!
//! Each span wraps one call from the benchmark into a layer of the
//! program: a name, a start and an end (nanoseconds since the recorder was
//! made), the span that encloses it, and the counts read at the same
//! boundary. Spans stay in memory until the run ends, when
//! [`Spans::write`] saves them as one JSON document.

use std::time::Instant;

use scd_trace::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: usize,
    counts: Vec<(&'static str, u64)>,
}

/// The span recorder. A disabled recorder keeps nothing, so the untraced
/// runs pay one branch per call.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced rounds to measure the recorder's own cost).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Marks the start of round `round`; spans opened from now on belong
    /// to it.
    pub fn begin_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            counts: Vec::new(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Attaches counts to the innermost open span.
    pub fn count(&mut self, counts: &[(&'static str, u64)]) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.extend_from_slice(counts);
        }
    }

    /// Seconds spent in spans named `name` during round `round`.
    pub fn seconds(&self, name: &str, round: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round == round)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }

    /// Durations, in seconds, of every span named `name` in round `round`.
    pub fn durations(&self, name: &str, round: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round == round)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Sum of count `key` over spans named `name` in round `round`.
    pub fn total(&self, name: &str, key: &str, round: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round == round)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let counts = s
                    .counts
                    .iter()
                    .fold(Json::obj(), |o, &(k, v)| o.with(k, Json::U64(v)));
                Json::obj()
                    .with("id", Json::U64(id as u64))
                    .with("name", Json::Str(s.name.into()))
                    .with("round", Json::U64(s.round as u64))
                    .with("start_ns", Json::U64(s.start_ns))
                    .with("end_ns", Json::U64(s.end_ns))
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    )
                    .with("counts", counts)
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{}\n", Json::obj().with("spans", Json::Arr(spans))),
        )
    }
}
