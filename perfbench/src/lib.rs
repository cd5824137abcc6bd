//! The pscds benchmark: three closed-loop workloads with one client each
//! (`oneshot`, `query_many`, `delta_stream`), six end-to-end metrics
//! measured with tracing off, and a traced census that times every layer
//! from outside through its public calls. See `README.md` in this
//! directory for the rationale and `NOTES.md` for defects found while
//! sizing it.

pub mod cpus;
pub mod delta_stream;
pub mod inputs;
pub mod oneshot;
pub mod query_many;
pub mod rng;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `pscds confidence` CLI invocation per operation.
    Oneshot,
    /// Conditional queries against one compiled circuit.
    QueryMany,
    /// Delta batches against maintained sessions.
    DeltaStream,
}

impl Workload {
    /// Every workload, in census order.
    pub const ALL: [Workload; 3] = [
        Workload::Oneshot,
        Workload::QueryMany,
        Workload::DeltaStream,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::QueryMany => "query_many",
            Workload::DeltaStream => "delta_stream",
        }
    }

    /// The workloads registered in `BENCHMARK.json`. `query_many` runs
    /// by name and is replayed by the traced census, but is not
    /// registered: on the shared 2-vCPU machine the benchmark was sized
    /// on, its ten-seed spread went over the bound in more sets than
    /// `delta_stream`'s did (see `README.md`).
    pub const REGISTERED: [Workload; 2] = [Workload::Oneshot, Workload::DeltaStream];

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes. [`Sizes::full`] is the benchmark; [`Sizes::smoke`]
/// keeps the same shapes small enough for the benchmark's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `oneshot` scale (group size and padding), near the DFS/DP crossover.
    pub oneshot_m: usize,
    /// `query_many` scale.
    pub query_m: usize,
    /// Set-up repetitions of `oneshot` and `query_many`, spread over the
    /// run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Batches per `delta_stream` stream.
    pub stream_batches: usize,
    /// Streams in the `delta_stream` pool, replayed once per pass.
    pub stream_pool: usize,
    /// Sessions opened together per `delta_stream` round.
    pub streams_per_round: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Self {
        Sizes {
            oneshot_m: 32,
            query_m: 64,
            setup_reps: 31,
            stream_batches: 48,
            stream_pool: 12,
            streams_per_round: 4,
        }
    }

    /// Small sizes with the same shapes, for smoke tests.
    #[must_use]
    pub fn smoke() -> Self {
        Sizes {
            oneshot_m: 4,
            query_m: 6,
            setup_reps: 2,
            stream_batches: 6,
            stream_pool: 4,
            streams_per_round: 2,
        }
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload measured (with `trace`, the one replayed first).
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Run the traced census instead of the untraced workload.
    pub trace: bool,
    /// Instance sizes.
    pub sizes: Sizes,
    /// Scratch directory for the files the CLI reads and the span dump.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Registered name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// The result of a run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or disagreed with their reference.
    pub failed: u64,
    /// Metrics in registration order.
    pub metrics: Vec<Metric>,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Whether every operation matched its reference.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The human-readable table, one metric per line with its sample count.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        out
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot carry) become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The six end-to-end metrics of an untraced run.
pub struct EndToEnd {
    /// Per-operation latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Set-up repetitions in seconds.
    pub setups_s: Vec<f64>,
}

impl EndToEnd {
    /// Pushes the [`END_TO_END`] metrics onto `outcome`. Throughput is
    /// completed operations over the summed operation time: one waiting
    /// client, so reference checks between operations are excluded.
    pub fn report(&self, outcome: &mut Outcome) {
        let n = self.latencies_ms.len();
        let busy_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        let ok = outcome.attempted - outcome.failed;
        outcome.push("throughput_ops_s", ok as f64 / busy_s, "1/s", n);
        outcome.push("latency_p50_ms", stats::median(&self.latencies_ms), "ms", n);
        outcome.push(
            "latency_p95_ms",
            stats::quantile(&self.latencies_ms, 0.95),
            "ms",
            n,
        );
        outcome.push(
            "success_rate",
            ok as f64 / outcome.attempted.max(1) as f64,
            "ratio",
            outcome.attempted as usize,
        );
        outcome.push(
            "setup_s",
            stats::median(&self.setups_s),
            "s",
            self.setups_s.len(),
        );
        outcome.push("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1);
    }
}

/// Whether a run has measured `seconds` of operation time. Runs stop on
/// measured time, not wall time, so the reference checks between
/// operations never shorten the measurement; they stop at a round
/// boundary, so every operation class keeps its equal weight.
#[must_use]
pub fn measured_enough(latencies_ms: &[f64], seconds: f64) -> bool {
    latencies_ms.iter().sum::<f64>() >= seconds * 1e3
}

/// Whether the next of a run's `reps` set-up repetitions is due.
/// Repetition `k` falls due once `k / reps` of the measured time has
/// passed, so the repetitions are spread over the run and `setup_s` is
/// taken on the same machine as the operations, not all at start-up.
#[must_use]
pub fn setup_due(done: usize, reps: usize, latencies_ms: &[f64], seconds: f64) -> bool {
    done < reps && latencies_ms.iter().sum::<f64>() * reps as f64 >= done as f64 * seconds * 1e3
}

/// A hook around each public call a workload makes: the untraced runs
/// call the body directly, the traced census records a span around it.
pub type Step<'a> = &'a mut dyn FnMut(&'static str, &mut dyn FnMut());

/// The untraced [`Step`]: calls the body.
pub fn untraced(_name: &'static str, body: &mut dyn FnMut()) {
    body();
}

/// Runs one benchmark configuration.
///
/// # Errors
/// A message when the run could not be set up (unwritable work
/// directory, an input the program rejects at set-up, or a traced-run
/// integrity violation). Per-operation failures are counted in the
/// [`Outcome`] instead.
pub fn run(config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;
    if config.trace {
        return trace::census(config);
    }
    match config.workload {
        Workload::Oneshot => oneshot::run(config),
        Workload::QueryMany => query_many::run(config),
        Workload::DeltaStream => delta_stream::run(config),
    }
}
