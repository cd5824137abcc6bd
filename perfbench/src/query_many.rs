//! `query_many`: a service compiles one catalog once (`parse_collection`
//! → `compile_circuit` → `analyze_circuit`, all set-up) and then answers
//! conditional queries `confidence(t | e)` serially. The nine class
//! pairs of `(t, e)` are shuffled per round, so each has equal weight.

use crate::cpus::Rotation;
use crate::inputs::{self, query_round, Query, Rounds, ScaledCatalog};
use crate::stats::ms_since;
use crate::{Config, EndToEnd, Outcome, Step};
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{
    analyze_circuit, analyze_circuit_conditional, compile_circuit, CircuitConfig, CompiledCircuit,
    ConfidenceAnalysis, SignatureAnalysis,
};
use pscds_core::textfmt::parse_collection;
use pscds_core::Budget;
use pscds_numeric::Rational;
use std::time::Instant;

/// The service state after set-up.
pub struct Service {
    /// The compiled circuit.
    pub circuit: CompiledCircuit,
    /// The collection the queries resolve tuples against.
    pub identity: IdentityCollection,
    /// The unconditional table the set-up traversal produced.
    pub table: ConfidenceAnalysis,
}

/// The service's set-up from catalog text. Each step is a public call
/// the traced census times on its own, so it is exposed through `step`.
///
/// # Errors
/// When the program rejects the catalog.
pub fn set_up(text: &str, padding: u64, step: Step) -> Result<Service, String> {
    let mut parsed = None;
    step("textfmt.parse", &mut || {
        parsed = Some(parse_collection(text))
    });
    let collection = parsed
        .expect("step runs its body")
        .map_err(|e| e.to_string())?;
    let identity = collection.as_identity().map_err(|e| e.to_string())?;
    let mut analysis = None;
    step("signature.analyze", &mut || {
        analysis = Some(SignatureAnalysis::new(&identity, padding));
    });
    let mut compiled = None;
    step("circuit.compile", &mut || {
        compiled = Some(compile_circuit(
            analysis.take().expect("analysis built"),
            &Budget::unlimited(),
            &CircuitConfig::default(),
        ));
    });
    let circuit = compiled
        .expect("step runs its body")
        .map_err(|e| e.to_string())?;
    let mut table = None;
    step("circuit.traverse", &mut || {
        table = Some(analyze_circuit(&circuit));
    });
    Ok(Service {
        circuit,
        identity,
        table: table.expect("step runs its body"),
    })
}

/// The reference answers: for each class pair, the signature DFS's
/// `joint_confidence_of(t, e) ÷ confidence_of_tuple(e)` on one
/// representative pair, plus the DFS world count for the set-up table.
pub struct Reference {
    answers: Vec<Rational>,
    worlds: String,
}

impl Reference {
    /// Computes the reference with the signature DFS.
    ///
    /// # Errors
    /// When the DFS rejects the catalog.
    pub fn compute(catalog: &ScaledCatalog) -> Result<Self, String> {
        let identity = catalog
            .collection
            .as_identity()
            .map_err(|e| e.to_string())?;
        let dfs = ConfidenceAnalysis::analyze(&identity, catalog.m as u64);
        let answers = (0..9)
            .map(|pair| {
                let (x, y) = (pair / 3, pair % 3);
                let t = &catalog.classes[x][0];
                let e = &catalog.classes[y][1];
                let joint = dfs.joint_confidence_of(&identity, t, e)?;
                Ok(joint.div(&dfs.confidence_of_tuple(&identity, e)?))
            })
            .collect::<Result<_, pscds_core::CoreError>>()
            .map_err(|e| format!("reference DFS: {e}"))?;
        Ok(Reference {
            answers,
            worlds: dfs.world_count().to_string(),
        })
    }

    /// Checks the set-up traversal's world count.
    ///
    /// # Errors
    /// On disagreement.
    pub fn check_table(&self, table: &ConfidenceAnalysis) -> Result<(), String> {
        let got = table.world_count().to_string();
        if got == self.worlds {
            Ok(())
        } else {
            Err(format!(
                "set-up world count {got} != reference {}",
                self.worlds
            ))
        }
    }

    /// Checks one query's answer.
    ///
    /// # Errors
    /// On an error or a disagreement.
    pub fn check(
        &self,
        query: &Query,
        answer: Result<Rational, pscds_core::CoreError>,
    ) -> Result<(), String> {
        match answer {
            Ok(got) if got == self.answers[query.pair] => Ok(()),
            Ok(got) => Err(format!(
                "query_many pair {}: {got} != reference {}",
                query.pair, self.answers[query.pair]
            )),
            Err(e) => Err(format!("query_many pair {}: {e}", query.pair)),
        }
    }
}

/// Answers one query.
///
/// # Errors
/// As `analyze_circuit_conditional`.
pub fn answer(service: &Service, query: &Query) -> Result<Rational, pscds_core::CoreError> {
    analyze_circuit_conditional(
        &service.circuit,
        &service.identity,
        &query.tuple,
        &query.given,
    )
}

/// The untraced `query_many` run.
///
/// # Errors
/// When set-up fails.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let catalog = inputs::scaled_catalog(config.seed, config.sizes.query_m);
    let reference = Reference::compute(&catalog)?;
    let reps = config.sizes.setup_reps;
    let mut setups_s = Vec::new();
    let mut service = None;
    let mut outcome = Outcome::default();
    let mut latencies_ms = Vec::new();
    let mut rounds = Rounds::new(config.seed, 9);
    let mut cpus = Rotation::new();
    loop {
        cpus.advance();
        // Set-up repetitions are spread over the run; each one replaces
        // the service the queries use.
        while crate::setup_due(setups_s.len(), reps, &latencies_ms, config.seconds) {
            let start = Instant::now();
            let built = set_up(&catalog.text, catalog.m as u64, &mut crate::untraced)?;
            setups_s.push(ms_since(start) / 1e3);
            reference.check_table(&built.table)?;
            service = Some(built);
        }
        let service = service.as_ref().ok_or("no set-up repetitions")?;
        for query in query_round(&mut rounds, &catalog.classes) {
            let t = Instant::now();
            let got = answer(service, &query);
            latencies_ms.push(ms_since(t));
            outcome.record(reference.check(&query, got));
        }
        if crate::measured_enough(&latencies_ms, config.seconds) && setups_s.len() == reps {
            break;
        }
    }
    EndToEnd {
        latencies_ms,
        setups_s,
    }
    .report(&mut outcome);
    Ok(outcome)
}
