//! `delta_stream`: an ingest loop keeps one `DeltaSession` per catalog
//! and, per operation, applies one batch, re-answers incrementally and
//! reads every tuple's confidence. Each pass replays the stream pool in
//! seeded order, a few streams per round: the round's sessions are
//! opened together (set-up) and fed their batches round-robin. Runs stop
//! at a pass boundary, so every pool stream carries equal weight. Each
//! round runs on the next CPU in turn ([`Rotation`]).

use crate::cpus::Rotation;
use crate::inputs::{self, Rounds, Stream};
use crate::stats::ms_since;
use crate::{Config, EndToEnd, Outcome, Step};
use pscds_core::confidence::{count_dp, ConfidenceAnalysis, DpConfig, SignatureAnalysis};
use pscds_core::delta::{analyze_incremental, apply_batch_to_catalog, DeltaBatch, DeltaSession};
use pscds_core::{Budget, SourceCollection};
use pscds_numeric::{Frac, Rational, RowCache, UBig};
use pscds_relational::Value;
use std::collections::HashMap;
use std::time::Instant;

/// Every tuple's confidence, as one epoch's reader sees it.
pub type Reads = Vec<(Vec<Value>, Rational)>;

/// One epoch: apply the batch, answer incrementally, read every tuple.
/// Each step is a public call the traced census times on its own.
///
/// # Errors
/// When the session rejects the batch or a read fails.
pub fn epoch(
    session: &mut DeltaSession,
    batch: &DeltaBatch,
    step: Step,
) -> Result<(ConfidenceAnalysis, Reads), String> {
    let mut applied = Ok(());
    step("delta.apply", &mut || applied = session.apply_batch(batch));
    applied.map_err(|e| format!("apply_batch: {e}"))?;
    let mut answered = None;
    step("delta.answer", &mut || {
        answered = Some(analyze_incremental(session));
    });
    let analysis = answered.expect("step runs its body");
    let reads = read(session, &analysis, step)?;
    Ok((analysis, reads))
}

/// Opens a session on a stream and answers epoch 0.
///
/// # Errors
/// When the session rejects the catalog.
pub fn open(stream: &Stream) -> Result<(DeltaSession, ConfidenceAnalysis), String> {
    let mut session =
        DeltaSession::new(&stream.initial, stream.padding).map_err(|e| e.to_string())?;
    let first = analyze_incremental(&mut session);
    Ok((session, first))
}

/// Reads every tuple's confidence from an answer.
///
/// # Errors
/// When a read fails.
pub fn read(
    session: &DeltaSession,
    analysis: &ConfidenceAnalysis,
    step: Step,
) -> Result<Reads, String> {
    let mut reads = Ok(Vec::new());
    step("delta.read", &mut || {
        let collection = session.collection();
        reads = collection
            .all_tuples()
            .into_iter()
            .map(|t| {
                let conf = analysis.confidence_of_tuple(collection, &t)?;
                Ok((t, conf))
            })
            .collect::<Result<Vec<_>, pscds_core::CoreError>>();
    });
    reads.map_err(|e| format!("read: {e}"))
}

/// What a count depends on: the padding, every source's bounds and
/// extension size, and the `(signature, size)` class sequence — never
/// which tuples the classes hold.
type StructureKey = (u64, Vec<(Frac, Frac, usize)>, Vec<(u64, u64)>);

/// A from-scratch count: consistency, world count, feasible vectors and
/// every class's confidence.
struct Counted {
    worlds: UBig,
    vectors: u64,
    class_confidence: Option<Vec<Rational>>,
}

/// The from-scratch reference for every epoch. Each epoch's catalog is
/// rebuilt with `apply_batch_to_catalog`, decomposed anew, and counted by
/// serial `count_dp`. A count is a function of the decomposition's
/// structure alone, so counts are memoized by [`StructureKey`]; the
/// tuple-to-class mapping is recomputed for every epoch.
#[derive(Default)]
pub struct Recompute {
    memo: HashMap<StructureKey, Counted>,
}

impl Recompute {
    /// Checks one epoch's answer and reads against the catalog they
    /// should describe.
    ///
    /// # Errors
    /// A description of the first disagreement.
    pub fn check(
        &mut self,
        catalog: &SourceCollection,
        padding: u64,
        analysis: &ConfidenceAnalysis,
        reads: &Reads,
    ) -> Result<(), String> {
        let identity = catalog.as_identity().map_err(|e| e.to_string())?;
        let decomposition = SignatureAnalysis::new(&identity, padding);
        let key: StructureKey = (
            padding,
            identity
                .sources
                .iter()
                .map(|s| (s.completeness, s.soundness, s.tuples.len()))
                .collect(),
            decomposition
                .classes()
                .iter()
                .map(|c| (c.signature, c.size))
                .collect(),
        );
        if !self.memo.contains_key(&key) {
            let (counted, _) = count_dp(
                decomposition.clone(),
                &Budget::unlimited(),
                &DpConfig::default(),
                &mut RowCache::new(),
            )
            .map_err(|e| format!("reference count_dp: {e}"))?;
            let class_confidence = counted.is_consistent().then(|| {
                (0..decomposition.classes().len())
                    .map(|c| counted.class_confidence(c).expect("consistent"))
                    .collect()
            });
            self.memo.insert(
                key.clone(),
                Counted {
                    worlds: counted.world_count().clone(),
                    vectors: counted.feasible_vectors(),
                    class_confidence,
                },
            );
        }
        let want = &self.memo[&key];
        if analysis.world_count() != &want.worlds || analysis.feasible_vectors() != want.vectors {
            return Err(format!(
                "world count {} ({} vectors) != recompute {} ({} vectors)",
                analysis.world_count(),
                analysis.feasible_vectors(),
                want.worlds,
                want.vectors
            ));
        }
        let Some(class_confidence) = &want.class_confidence else {
            return if reads.is_empty() {
                Ok(())
            } else {
                Err("reads from an inconsistent catalog".to_owned())
            };
        };
        let tuples = identity.all_tuples();
        if reads.len() != tuples.len() {
            return Err(format!("{} reads for {} tuples", reads.len(), tuples.len()));
        }
        for ((got_tuple, got), tuple) in reads.iter().zip(&tuples) {
            let class = decomposition
                .class_of(tuple, identity.signature_of(tuple))
                .map_err(|e| e.to_string())?;
            if got_tuple != tuple || got != &class_confidence[class] {
                return Err(format!(
                    "{got_tuple:?} = {got}, recompute {tuple:?} = {}",
                    class_confidence[class]
                ));
            }
        }
        Ok(())
    }
}

/// A stream under replay: its session, the independently maintained
/// catalog, and the fixed universe size that sets each epoch's padding.
pub struct Replay {
    /// The stream.
    pub stream: Stream,
    /// The maintained session.
    pub session: DeltaSession,
    /// The catalog rebuilt batch by batch for the reference.
    pub catalog: SourceCollection,
    universe: u64,
}

impl Replay {
    /// Starts a replay from an opened session, checking epoch 0.
    ///
    /// # Errors
    /// When epoch 0 disagrees with the reference.
    pub fn new(
        stream: Stream,
        session: DeltaSession,
        first: &ConfidenceAnalysis,
        recompute: &mut Recompute,
    ) -> Result<Self, String> {
        let identity = stream.initial.as_identity().map_err(|e| e.to_string())?;
        let universe = stream.padding + identity.all_tuples().len() as u64;
        let reads = read(&session, first, &mut crate::untraced)?;
        recompute
            .check(&stream.initial, stream.padding, first, &reads)
            .map_err(|why| format!("delta_stream epoch 0: {why}"))?;
        Ok(Replay {
            catalog: stream.initial.clone(),
            stream,
            session,
            universe,
        })
    }

    /// Advances the reference catalog by batch `epoch` and checks the
    /// session's answer for it.
    ///
    /// # Errors
    /// A description of the disagreement.
    pub fn check(
        &mut self,
        epoch: usize,
        answer: &Result<(ConfidenceAnalysis, Reads), String>,
        recompute: &mut Recompute,
    ) -> Result<(), String> {
        let batch = &self.stream.batches[epoch];
        self.catalog = apply_batch_to_catalog(&self.catalog, batch).map_err(|e| e.to_string())?;
        let union = self
            .catalog
            .as_identity()
            .map_err(|e| e.to_string())?
            .all_tuples()
            .len() as u64;
        let (analysis, reads) = answer.as_ref().map_err(Clone::clone)?;
        recompute
            .check(&self.catalog, self.universe - union, analysis, reads)
            .map_err(|why| format!("delta_stream epoch {}: {why}", epoch + 1))
    }
}

/// The untraced `delta_stream` run.
///
/// # Errors
/// When a session cannot be opened or epoch 0 disagrees.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let sizes = config.sizes;
    let mut outcome = Outcome::default();
    let mut recompute = Recompute::default();
    let mut latencies_ms = Vec::new();
    let mut setups_s = Vec::new();
    let mut passes = Rounds::new(config.seed, sizes.stream_pool);
    let mut cpus = Rotation::new();
    loop {
        for round in passes.next_round().chunks(sizes.streams_per_round) {
            cpus.advance();
            let streams: Vec<Stream> = round
                .iter()
                .map(|&i| inputs::delta_stream(config.seed, i as u64, sizes.stream_batches))
                .collect();
            let opened = Instant::now();
            let sessions = streams.iter().map(open).collect::<Result<Vec<_>, _>>()?;
            setups_s.push(ms_since(opened) / 1e3);
            let mut replays = streams
                .into_iter()
                .zip(sessions)
                .map(|(stream, (session, first))| {
                    Replay::new(stream, session, &first, &mut recompute)
                })
                .collect::<Result<Vec<_>, _>>()?;
            for e in 0..sizes.stream_batches {
                for replay in &mut replays {
                    let t = Instant::now();
                    let answer = epoch(
                        &mut replay.session,
                        &replay.stream.batches[e],
                        &mut crate::untraced,
                    );
                    latencies_ms.push(ms_since(t));
                    outcome.record(replay.check(e, &answer, &mut recompute));
                }
            }
        }
        if crate::measured_enough(&latencies_ms, config.seconds) {
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
