//! The traced census (`--trace 1`): every per-layer metric, timed from
//! outside by spans the benchmark records around each public call.
//!
//! A span has a name, start, end, parent and operation id. Spans are
//! kept in memory and written out as JSONL when the run ends. A span's
//! self time is its duration minus its children's. Whichever workload is
//! named, the census replays all three (that one first, each for a third
//! of the time), because every per-layer metric lives on exactly one of
//! them; [`PER_LAYER`] names the home of each.

use crate::delta_stream::{self, Recompute, Replay};
use crate::inputs::{self, query_round, Rounds, ENGINES};
use crate::oneshot::{self, Expected};
use crate::query_many::{self, Reference};
use crate::stats::{mean, median, ms_since};
use crate::{Config, Outcome, Workload};
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{
    analyze_circuit_budgeted, compile_circuit, count_dp, count_dp_observed, CircuitConfig,
    ConfidenceAnalysis, DpConfig, SignatureAnalysis,
};
use pscds_core::obs::{MetricSet, ObsSession};
use pscds_core::textfmt::parse_collection;
use pscds_core::{confidence_resilient_observed, Budget, ParallelConfig, ResilientConfidence};
use pscds_numeric::RowCache;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Every per-layer metric: name, unit, and whether higher is better.
/// The census fails unless it emits exactly these.
pub const PER_LAYER: [(&str, &str, &str); 28] = [
    ("textfmt.parse_ms", "ms", "lower"),
    ("signature.analyze_ms", "ms", "lower"),
    ("resilient.auto_ms", "ms", "lower"),
    ("dp.count_ms", "ms", "lower"),
    ("partition.dp_speedup", "ratio", "higher"),
    ("partition.dfs_speedup", "ratio", "higher"),
    ("counting.table_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("obs.profile_overhead.auto", "ratio", "lower"),
    ("obs.profile_overhead.dp", "ratio", "lower"),
    ("obs.profile_overhead.circuit", "ratio", "lower"),
    ("bench.trace_overhead.oneshot", "ratio", "lower"),
    ("circuit.compile_ms", "ms", "lower"),
    ("circuit.compile_ns_per_node", "ns", "lower"),
    ("circuit.traverse_ms", "ms", "lower"),
    ("circuit.nodes", "count", "lower"),
    ("circuit.conditional_ms", "ms", "lower"),
    ("circuit.pass_ns_per_node", "ns", "lower"),
    ("bench.trace_overhead.query_many", "ratio", "lower"),
    ("delta.init_ms", "ms", "lower"),
    ("delta.apply_ms", "ms", "lower"),
    ("delta.answer_ms", "ms", "lower"),
    ("delta.read_ms", "ms", "lower"),
    ("delta.reuse_ratio", "ratio", "higher"),
    ("delta.nodes_patched_per_epoch", "count", "lower"),
    ("delta.recompiles_per_epoch", "count", "lower"),
    ("delta.incremental_over_recompute", "ratio", "lower"),
    ("bench.trace_overhead.delta_stream", "ratio", "lower"),
];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in nesting order");
        self.spans[id].end_ns = end;
    }

    /// Records `body` as a new operation's root span named `name`.
    pub fn op<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        let id = self.open(name);
        let result = body(self);
        self.close(id);
        result
    }

    /// Records `body` as a span named `name` inside the open one.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = body();
        self.close(id);
        result
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= i128::from(span.duration_ns());
            }
        }
        own
    }

    /// The time the last operation spent in the layers it called, in ms:
    /// its root's direct children's durations, which is the summed self
    /// time of every span below the root.
    #[must_use]
    pub fn last_op_layers_ms(&self) -> f64 {
        let Some(root) = self.spans.iter().rposition(|s| s.parent.is_none()) else {
            return 0.0;
        };
        let ns: u64 = self.spans[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Per-operation self time of the spans named `name`, in ms (spans
    /// of one name within one operation are summed).
    #[must_use]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u64, i128> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                *per_op.entry(span.op).or_default() += own[i];
            }
        }
        per_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Durations of the spans named `name`, in ms.
    #[must_use]
    pub fn duration_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    fn write_jsonl(&self, phase: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"id\": {i}, \"parent\": {parent}, \"op\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// The per-layer values a census has measured so far.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let previous = self.0.insert(name, (value, samples));
        assert!(previous.is_none(), "per-layer metric {name} set twice");
    }

    /// The median of `samples`, recorded with its sample count.
    fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples), samples.len());
    }

    /// The mean of `samples`, recorded with its sample count.
    fn mean(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, mean(samples), samples.len());
    }
}

/// Runs the census.
///
/// # Errors
/// When a phase cannot be set up, the replayed `oneshot` layers outlast
/// the plain CLI run, or a registered per-layer metric is missing.
pub fn census(config: &Config) -> Result<Outcome, String> {
    let slice = config.seconds / 3.0;
    let mut order = vec![config.workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != config.workload));
    let mut outcome = Outcome::default();
    let mut layers = Layers::default();
    let mut dump = String::new();
    for workload in order {
        let tracer = match workload {
            Workload::Oneshot => oneshot_phase(config, slice, &mut outcome, &mut layers)?,
            Workload::QueryMany => query_phase(config, slice, &mut outcome, &mut layers)?,
            Workload::DeltaStream => delta_phase(config, slice, &mut outcome, &mut layers)?,
        };
        tracer.write_jsonl(workload.name(), &mut dump);
    }
    let path = config.work_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        config.workload.name(),
        config.seed
    ));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(dump.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (name, unit, _) in PER_LAYER {
        let (value, samples) = layers
            .0
            .remove(name)
            .ok_or_else(|| format!("per-layer metric {name} was not emitted"))?;
        outcome.push(name, value, unit, samples);
    }
    if let Some(extra) = layers.0.keys().next() {
        return Err(format!("unregistered per-layer metric {extra}"));
    }
    Ok(outcome)
}

/// Replays one `pscds confidence` invocation through the public calls
/// the CLI makes, in its order, rendering the table as the CLI does.
fn replay_cli(
    tracer: &mut Tracer,
    path: &str,
    padding: u64,
    engine: &str,
) -> Result<String, String> {
    tracer.op("oneshot.op", |tr| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let collection = tr
            .span("textfmt.parse", || parse_collection(&text))
            .map_err(|e| e.to_string())?;
        let mut obs = ObsSession::disabled();
        let budget = Budget::unlimited().and_cancel(pscds_cli::arm_cancellation());
        let parallel = ParallelConfig::with_threads(2);
        let identity = collection.as_identity().map_err(|e| e.to_string())?;
        let mut out = String::new();
        let analysis = match engine {
            "auto" => {
                let result = tr
                    .span("resilient.auto", || {
                        confidence_resilient_observed(
                            &identity, padding, &budget, &parallel, false, &mut obs,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                match result {
                    ResilientConfidence::Exact(a)
                    | ResilientConfidence::Dp(a)
                    | ResilientConfidence::Circuit(a) => a,
                    ResilientConfidence::Sampled { .. } => {
                        return Err("auto ladder fell back to sampling".to_owned())
                    }
                }
            }
            "dp" => {
                let analysis = tr.span("signature.analyze", || {
                    SignatureAnalysis::new(&identity, padding)
                });
                let (a, _) = tr
                    .span("dp.count", || {
                        count_dp_observed(
                            analysis,
                            &budget,
                            &parallel,
                            &DpConfig::default(),
                            &mut obs,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(out, "engine: dp (exact, padding {padding})");
                a
            }
            _ => {
                let analysis = tr.span("signature.analyze", || {
                    SignatureAnalysis::new(&identity, padding)
                });
                let circuit = tr
                    .span("circuit.compile", || {
                        compile_circuit(analysis, &budget, &CircuitConfig::default())
                    })
                    .map_err(|e| e.to_string())?;
                let stats = circuit.stats();
                let mut metrics = MetricSet::new();
                stats.record_into(&mut metrics);
                obs.merge_metrics(&metrics);
                let a = tr
                    .span("circuit.traverse", || {
                        analyze_circuit_budgeted(&circuit, &budget)
                    })
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(out, "engine: circuit (exact, padding {padding})");
                let _ = writeln!(
                    out,
                    "compile stats: {} nodes ({} exact residual states, {} shared), {} edges",
                    stats.canonical_nodes, stats.exact_nodes, stats.shared_nodes, stats.edges
                );
                a
            }
        };
        render_table(tr, &mut out, &analysis, &identity, padding)?;
        Ok(out)
    })
}

/// The CLI's exact-table rendering, with the confidence reads in a
/// `counting.table` span and the formatting left to the operation.
fn render_table(
    tr: &mut Tracer,
    out: &mut String,
    analysis: &ConfidenceAnalysis,
    identity: &IdentityCollection,
    padding: u64,
) -> Result<(), String> {
    let _ = writeln!(
        out,
        "|poss(S)| = {} (padding {padding}, {} feasible count vectors)",
        analysis.world_count(),
        analysis.feasible_vectors()
    );
    let mut rows = tr
        .span("counting.table", || {
            identity
                .all_tuples()
                .into_iter()
                .map(|t| {
                    let conf = analysis.confidence_of_tuple(identity, &t)?;
                    Ok((t, conf))
                })
                .collect::<Result<Vec<_>, pscds_core::CoreError>>()
        })
        .map_err(|e| e.to_string())?;
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let _ = writeln!(out, "tuple confidences (descending):");
    for (tuple, conf) in rows {
        let _ = writeln!(
            out,
            "  {}  {}  ≈{:.4}",
            oneshot::row_label(identity, &tuple),
            conf,
            conf.to_f64()
        );
    }
    if padding > 0 {
        let pad = tr
            .span("counting.table", || analysis.padding_confidence())
            .map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "  (each of the {padding} unlisted domain facts: {} ≈{:.4})",
            pad,
            pad.to_f64()
        );
    }
    Ok(())
}

/// Times `body` in ms.
fn time_ms<R>(body: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = body();
    (ms_since(start), result)
}

/// `oneshot` layers: per operation, the plain CLI run, the same run with
/// `--profile`, the traced replay, and the 1-thread partition probes.
fn oneshot_phase(
    config: &Config,
    seconds: f64,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Result<Tracer, String> {
    let (catalog, args) = oneshot::prepare(config)?;
    let padding = catalog.m as u64;
    let expected = Expected::compute(&catalog.collection, padding)?;
    let identity = catalog
        .collection
        .as_identity()
        .map_err(|e| e.to_string())?;
    let path = args[0][1].clone();
    for cell in &args {
        oneshot::timed_cli(cell, &expected).1?;
    }
    let mut tracer = Tracer::default();
    let mut plain = vec![Vec::new(); ENGINES.len()];
    let mut profiled = vec![Vec::new(); ENGINES.len()];
    let mut layer_sums = vec![Vec::new(); ENGINES.len()];
    let (mut dp_1t, mut dfs_1t, mut dfs_2t) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Rounds::new(config.seed, ENGINES.len());
    let budget = Budget::unlimited();
    let start = Instant::now();
    loop {
        for cell in rounds.next_round() {
            let (ms, check) = oneshot::timed_cli(&args[cell], &expected);
            plain[cell].push(ms);
            outcome.record(check);
            let mut with_profile = args[cell].clone();
            with_profile.push("--profile".to_owned());
            let (ms, check) = oneshot::timed_cli(&with_profile, &expected);
            profiled[cell].push(ms);
            outcome.record(check);
            let rendered = replay_cli(&mut tracer, &path, padding, ENGINES[cell]);
            outcome.record(rendered.and_then(|out| expected.check(&out)));
            layer_sums[cell].push(tracer.last_op_layers_ms());
            match ENGINES[cell] {
                "dp" => {
                    // Analysed outside the timed call, as the replay's
                    // `dp.count` span excludes `signature.analyze`.
                    let analysis = SignatureAnalysis::new(&identity, padding);
                    let (ms, _) = time_ms(|| {
                        count_dp_observed(
                            analysis,
                            &budget,
                            &ParallelConfig::serial(),
                            &DpConfig::default(),
                            &mut ObsSession::disabled(),
                        )
                    });
                    dp_1t.push(ms);
                }
                "auto" => {
                    for (threads, out) in [(1, &mut dfs_1t), (2, &mut dfs_2t)] {
                        let (ms, _) = time_ms(|| {
                            ConfidenceAnalysis::analyze_parallel(
                                &identity,
                                padding,
                                &budget,
                                &ParallelConfig::with_threads(threads),
                            )
                        });
                        out.push(ms);
                    }
                }
                _ => {}
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    layers.median("textfmt.parse_ms", &tracer.self_ms("textfmt.parse"));
    layers.median("signature.analyze_ms", &tracer.self_ms("signature.analyze"));
    layers.median("resilient.auto_ms", &tracer.self_ms("resilient.auto"));
    let dp_2t = tracer.self_ms("dp.count");
    layers.median("dp.count_ms", &dp_2t);
    layers.set(
        "partition.dp_speedup",
        median(&dp_1t) / median(&dp_2t),
        dp_1t.len(),
    );
    layers.set(
        "partition.dfs_speedup",
        median(&dfs_1t) / median(&dfs_2t),
        dfs_1t.len(),
    );
    layers.median("counting.table_ms", &tracer.self_ms("counting.table"));
    let cli_self: Vec<f64> = plain
        .iter()
        .flatten()
        .zip(layer_sums.iter().flatten())
        .map(|(cli, layers)| cli - layers)
        .collect();
    check_cli_remainder(&plain, &layer_sums, median(&cli_self))?;
    layers.median("cli.self_ms", &cli_self);
    for (cell, name) in [
        "obs.profile_overhead.auto",
        "obs.profile_overhead.dp",
        "obs.profile_overhead.circuit",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(
            name,
            median(&profiled[cell]) / median(&plain[cell]),
            plain[cell].len(),
        );
    }
    let replayed: f64 = tracer.duration_ms("oneshot.op").iter().sum();
    let untraced: f64 = plain.iter().flatten().sum();
    layers.set(
        "bench.trace_overhead.oneshot",
        replayed / untraced,
        tracer.op as usize,
    );
    Ok(tracer)
}

/// How far the replayed layers may outlast the plain CLI run before the
/// census fails. In the `auto` cell the layers are nearly the whole CLI
/// run and both sides are 2-thread runs on a shared machine, so they
/// differ by some percent; a replay that timed a layer call twice would
/// exceed it by far more.
const REMAINDER_TOLERANCE: f64 = 0.25;

/// Checks, per engine cell, that the layer calls the replay times take
/// no longer than the whole plain CLI run (the median over the cell's
/// operations of layers ÷ CLI, each pair taken in the same round, within
/// [`REMAINDER_TOLERANCE`] of 1), and that `cli.self_ms` — the CLI's
/// time minus the layers' — is not negative. It fails when the replay
/// makes calls the CLI does not, or times more work than the CLI does.
fn check_cli_remainder(
    plain: &[Vec<f64>],
    layer_sums: &[Vec<f64>],
    cli_self_ms: f64,
) -> Result<(), String> {
    for (cell, engine) in ENGINES.iter().enumerate() {
        let ratios: Vec<f64> = layer_sums[cell]
            .iter()
            .zip(&plain[cell])
            .map(|(layers, cli)| layers / cli)
            .collect();
        let ratio = median(&ratios);
        if ratio > 1.0 + REMAINDER_TOLERANCE {
            return Err(format!(
                "oneshot {engine}: replayed layers take {ratio:.3}× the plain CLI run"
            ));
        }
    }
    if cli_self_ms < 0.0 {
        return Err(format!("cli.self_ms is negative ({cli_self_ms:.3} ms)"));
    }
    Ok(())
}

/// `query_many` layers: the traced set-ups, then per query a plain and
/// a traced answer.
fn query_phase(
    config: &Config,
    seconds: f64,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Result<Tracer, String> {
    let catalog = inputs::scaled_catalog(config.seed, config.sizes.query_m);
    let reference = Reference::compute(&catalog)?;
    let mut tracer = Tracer::default();
    let mut service = None;
    for _ in 0..config.sizes.setup_reps {
        let built = tracer.op("query_many.setup", |tr| {
            query_many::set_up(&catalog.text, catalog.m as u64, &mut |name, body| {
                tr.span(name, body);
            })
        })?;
        reference.check_table(&built.table)?;
        service = Some(built);
    }
    let service = service.ok_or("no set-up repetitions")?;
    let mut plain = Vec::new();
    let mut rounds = Rounds::new(config.seed, 9);
    let start = Instant::now();
    loop {
        for query in query_round(&mut rounds, &catalog.classes) {
            let (ms, got) = time_ms(|| query_many::answer(&service, &query));
            plain.push(ms);
            outcome.record(reference.check(&query, got));
            let got = tracer.op("query_many.op", |tr| {
                tr.span("circuit.conditional", || {
                    query_many::answer(&service, &query)
                })
            });
            outcome.record(reference.check(&query, got));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let nodes = service.circuit.node_count() as f64;
    let compile = tracer.self_ms("circuit.compile");
    layers.median("circuit.compile_ms", &compile);
    layers.set(
        "circuit.compile_ns_per_node",
        median(&compile) * 1e6 / nodes,
        compile.len(),
    );
    layers.median("circuit.traverse_ms", &tracer.self_ms("circuit.traverse"));
    layers.set("circuit.nodes", nodes, 1);
    let conditional = tracer.self_ms("circuit.conditional");
    layers.median("circuit.conditional_ms", &conditional);
    // Two moment passes per query (the queried tuple is never the event).
    layers.set(
        "circuit.pass_ns_per_node",
        median(&conditional) * 1e6 / (2.0 * nodes),
        conditional.len(),
    );
    let traced: f64 = tracer.duration_ms("query_many.op").iter().sum();
    layers.set(
        "bench.trace_overhead.query_many",
        traced / plain.iter().sum::<f64>(),
        plain.len(),
    );
    Ok(tracer)
}

/// `delta_stream` layers: each stream is replayed twice in lockstep, on
/// a plain session and a traced one, and every epoch is also recounted
/// from scratch by serial `count_dp` for the incremental-over-recompute
/// ratio.
fn delta_phase(
    config: &Config,
    seconds: f64,
    outcome: &mut Outcome,
    layers: &mut Layers,
) -> Result<Tracer, String> {
    let batches = config.sizes.stream_batches;
    let mut tracer = Tracer::default();
    let mut recompute = Recompute::default();
    let (mut plain, mut scratch) = (Vec::new(), Vec::new());
    let (mut epochs, mut reused, mut patched, mut recompiled) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut order = Rounds::new(config.seed, config.sizes.stream_pool)
        .next_round()
        .into_iter()
        .cycle();
    loop {
        let index = order.next().expect("a cycle never ends") as u64;
        let stream = || inputs::delta_stream(config.seed, index, batches);
        let (session, first) = delta_stream::open(&stream())?;
        let mut plain_replay = Replay::new(stream(), session, &first, &mut recompute)?;
        let generated = stream();
        let opened = tracer.op("delta.init", |_| delta_stream::open(&generated))?;
        let mut traced_replay = Replay::new(generated, opened.0, &opened.1, &mut recompute)?;
        for e in 0..batches {
            let batch = &plain_replay.stream.batches[e];
            let (ms, answer) = time_ms(|| {
                delta_stream::epoch(&mut plain_replay.session, batch, &mut crate::untraced)
            });
            plain.push(ms);
            outcome.record(plain_replay.check(e, &answer, &mut recompute));
            let batch = &traced_replay.stream.batches[e];
            let answer = tracer.op("delta.op", |tr| {
                delta_stream::epoch(&mut traced_replay.session, batch, &mut |name, body| {
                    tr.span(name, body);
                })
            });
            outcome.record(traced_replay.check(e, &answer, &mut recompute));
            let identity = traced_replay
                .catalog
                .as_identity()
                .map_err(|e| e.to_string())?;
            let padding = traced_replay.session.padding();
            let (ms, _) = time_ms(|| {
                count_dp(
                    SignatureAnalysis::new(&identity, padding),
                    &Budget::unlimited(),
                    &DpConfig::default(),
                    &mut RowCache::new(),
                )
            });
            scratch.push(ms);
        }
        let stats = traced_replay.session.stats();
        epochs += stats.batches_applied;
        reused += stats.results_reused;
        patched += stats.nodes_patched;
        recompiled += stats.recompiles_forced;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    layers.median("delta.init_ms", &tracer.duration_ms("delta.init"));
    // Epoch costs are bimodal (reuse vs patch or recompile), so the
    // per-step figures are means: they sum to the mean epoch.
    layers.mean("delta.apply_ms", &tracer.self_ms("delta.apply"));
    layers.mean("delta.answer_ms", &tracer.self_ms("delta.answer"));
    layers.mean("delta.read_ms", &tracer.self_ms("delta.read"));
    let per_epoch = |count: u64| count as f64 / epochs.max(1) as f64;
    let n = epochs as usize;
    layers.set("delta.reuse_ratio", per_epoch(reused), n);
    layers.set("delta.nodes_patched_per_epoch", per_epoch(patched), n);
    layers.set("delta.recompiles_per_epoch", per_epoch(recompiled), n);
    let plain_total: f64 = plain.iter().sum();
    layers.set(
        "delta.incremental_over_recompute",
        plain_total / scratch.iter().sum::<f64>(),
        n,
    );
    let traced_total: f64 = tracer.duration_ms("delta.op").iter().sum();
    layers.set(
        "bench.trace_overhead.delta_stream",
        traced_total / plain_total,
        n,
    );
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::check_cli_remainder;

    #[test]
    fn the_cli_remainder_check_fails_when_the_replay_outlasts_the_cli() {
        let plain = vec![vec![10.0, 11.0, 12.0]; 3];
        assert!(check_cli_remainder(&plain, &plain, 0.0).is_ok());
        let mut slower = plain.clone();
        slower[1] = vec![13.0, 14.0, 15.0];
        let why = check_cli_remainder(&plain, &slower, 0.0).unwrap_err();
        assert!(why.starts_with("oneshot dp:"), "{why}");
        let why = check_cli_remainder(&plain, &plain, -0.5).unwrap_err();
        assert!(why.starts_with("cli.self_ms is negative"), "{why}");
    }
}
