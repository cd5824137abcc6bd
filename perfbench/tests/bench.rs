//! The benchmark's own tests: smoke-sized runs of every workload pass
//! their correctness checks, the metric names printed are exactly those
//! registered in `BENCHMARK.json`, inputs are a pure function of the
//! seed, and a held-out seed runs clean.
//!
//! Run: `cargo test --manifest-path perfbench/Cargo.toml`

use pscds_core::confidence::{compile_circuit, CircuitConfig, SignatureAnalysis};
use pscds_core::Budget;
use pscds_perfbench::inputs::{self, query_round, Rounds};
use pscds_perfbench::trace::PER_LAYER;
use pscds_perfbench::{run, Config, Outcome, Sizes, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 0x00c0_ffee_2026;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{seed}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let config = Config {
        workload,
        seed,
        seconds: 0.2,
        trace,
        sizes: Sizes::smoke(),
        work_dir,
    };
    run(&config).expect("smoke run sets up")
}

fn names_and_units(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

/// The `"<field>": "<value>"` strings of one array in `BENCHMARK.json`,
/// in order. The arrays hold flat objects, so the first `]` after the
/// key closes the array.
fn field_values(json: &str, array: &str, field: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    let needle = format!("\"{field}\": \"");
    json[open..close]
        .split(&needle)
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("string closes")].to_owned())
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn smoke_runs_pass_their_correctness_checks() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, SEED, false);
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert!(outcome.attempted > 0);
        let expected: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names_and_units(&outcome), expected);
        let success = &outcome.metrics[3];
        assert_eq!(success.value, 1.0);
        for metric in &outcome.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} = {}",
                metric.name,
                metric.value
            );
        }
    }
}

#[test]
fn traced_census_emits_every_per_layer_metric() {
    let outcome = smoke(Workload::QueryMany, SEED, true);
    assert!(outcome.correct(), "{:?}", outcome.failures);
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(names_and_units(&outcome), expected);
    for metric in &outcome.metrics {
        assert!(
            metric.value.is_finite() && metric.value >= 0.0,
            "{} = {}",
            metric.name,
            metric.value
        );
    }
}

#[test]
fn benchmark_json_registers_exactly_the_printed_metrics() {
    let json = benchmark_json();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    let e2e_units: Vec<String> = END_TO_END.iter().map(|(_, u)| (*u).to_owned()).collect();
    assert_eq!(field_values(&json, "end_to_end", "name"), e2e);
    assert_eq!(field_values(&json, "end_to_end", "unit"), e2e_units);
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| (*n).to_owned()).collect();
    let units: Vec<String> = PER_LAYER.iter().map(|(_, u, _)| (*u).to_owned()).collect();
    let better: Vec<String> = PER_LAYER.iter().map(|(_, _, b)| (*b).to_owned()).collect();
    assert_eq!(field_values(&json, "per_layer", "name"), layers);
    assert_eq!(field_values(&json, "per_layer", "unit"), units);
    assert_eq!(field_values(&json, "per_layer", "better"), better);
    let workloads: Vec<String> = Workload::REGISTERED
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(field_values(&json, "workloads", "name"), workloads);
}

#[test]
fn the_same_seed_generates_byte_identical_inputs() {
    let catalog = |seed| inputs::scaled_catalog(seed, 32).text;
    assert_eq!(catalog(SEED), catalog(SEED));
    assert_ne!(catalog(SEED), catalog(SEED + 1));
    let stream = |seed, index| {
        let s = inputs::delta_stream(seed, index, 48);
        format!(
            "{}\n# padding {}\n{}",
            pscds_core::textfmt::format_collection(&s.initial),
            s.padding,
            pscds_core::delta::format_delta_stream(&s.batches)
        )
    };
    assert_eq!(stream(SEED, 3), stream(SEED, 3));
    assert_ne!(stream(SEED, 3), stream(SEED + 1, 3));
    let queries = |seed| {
        let classes = inputs::scaled_catalog(seed, 8).classes;
        let mut rounds = Rounds::new(seed, 9);
        (0..4)
            .flat_map(|_| query_round(&mut rounds, &classes))
            .map(|q| format!("{} {:?} {:?}", q.pair, q.tuple, q.given))
            .collect::<Vec<_>>()
    };
    assert_eq!(queries(SEED), queries(SEED));
    let mut order = Rounds::new(SEED, 3);
    let mut again = Rounds::new(SEED, 3);
    for _ in 0..5 {
        assert_eq!(order.next_round(), again.next_round());
    }
}

#[test]
fn renaming_keeps_the_instances_structure() {
    // The seeded catalog is the paper's scaled family up to names.
    for m in [4, 32] {
        let digest = |collection: &pscds_core::SourceCollection| {
            let identity = collection.as_identity().expect("identity views");
            compile_circuit(
                SignatureAnalysis::new(&identity, m as u64),
                &Budget::unlimited(),
                &CircuitConfig::default(),
            )
            .expect("compiles")
            .skeleton_digest()
        };
        assert_eq!(
            digest(&inputs::scaled_catalog(SEED, m).collection),
            digest(&pscds_core::paper::example_5_1_scaled(m))
        );
    }
    // Renamed streams keep every batch's shape.
    let a = inputs::delta_stream(SEED, 0, 48);
    let b = inputs::delta_stream(SEED + 7, 0, 48);
    assert_eq!(a.padding, b.padding);
    let shape = |s: &inputs::Stream| -> Vec<(usize, usize)> {
        s.batches
            .iter()
            .flat_map(|batch| batch.deltas.iter())
            .map(|d| (d.delete.len(), d.insert.len()))
            .collect()
    };
    assert_eq!(shape(&a), shape(&b));
}

#[test]
fn a_held_out_seed_runs_clean() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, HELD_OUT_SEED, false);
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
    }
}

#[test]
fn the_result_is_one_json_line_with_every_end_to_end_metric() {
    let json = smoke(Workload::Oneshot, 5, false).json();
    assert_eq!(json.lines().count(), 1, "{json}");
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(json.contains("\"failed\": 0, \"metrics\": {"), "{json}");
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "oneshot", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "oneshot",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "oneshot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pscds-perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}
