//! `oneshot`: one `pscds confidence` CLI invocation per operation, from
//! file read and parse to the rendered table, over scaled Example 5.1
//! near the DFS/DP crossover. The engine cells `auto`, `dp` and
//! `circuit` are shuffled per round of three, so each has exactly equal
//! weight; p50 then falls inside the middle cell and p95 inside the
//! slowest. Threads are pinned to 2.

use crate::inputs::{self, Rounds, ENGINES};
use crate::stats::ms_since;
use crate::{Config, EndToEnd, Outcome};
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{count_dp, ConfidenceAnalysis, DpConfig, SignatureAnalysis};
use pscds_core::{Budget, SourceCollection};
use pscds_numeric::RowCache;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The CLI arguments of one engine cell.
#[must_use]
pub fn cli_args(path: &Path, padding: usize, engine: &str) -> Vec<String> {
    [
        "confidence",
        &path.display().to_string(),
        "--padding",
        &padding.to_string(),
        "--threads",
        "2",
        "--engine",
        engine,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

/// The reference confidence table, from serial `count_dp`: world count,
/// every listed tuple's confidence and the padding facts' confidence, as
/// the CLI prints them.
pub struct Expected {
    worlds: String,
    rows: BTreeMap<String, String>,
    padding: Option<String>,
}

impl Expected {
    /// Computes the reference for `collection` at `padding`.
    ///
    /// # Errors
    /// A message when the reference engine fails.
    pub fn compute(collection: &SourceCollection, padding: u64) -> Result<Self, String> {
        let identity = collection.as_identity().map_err(|e| e.to_string())?;
        let (analysis, _) = count_dp(
            SignatureAnalysis::new(&identity, padding),
            &Budget::unlimited(),
            &DpConfig::default(),
            &mut RowCache::new(),
        )
        .map_err(|e| format!("reference count_dp: {e}"))?;
        Ok(Expected::from_analysis(&analysis, &identity, padding))
    }

    /// The table an exact analysis yields.
    ///
    /// # Panics
    /// On an inconsistent analysis: the scaled example is consistent.
    fn from_analysis(
        analysis: &ConfidenceAnalysis,
        identity: &IdentityCollection,
        padding: u64,
    ) -> Self {
        let rows = identity
            .all_tuples()
            .into_iter()
            .map(|t| {
                let conf = analysis
                    .confidence_of_tuple(identity, &t)
                    .expect("consistent catalog");
                (row_label(identity, &t), conf.to_string())
            })
            .collect();
        Expected {
            worlds: analysis.world_count().to_string(),
            rows,
            padding: (padding > 0).then(|| {
                analysis
                    .padding_confidence()
                    .expect("padding class present")
                    .to_string()
            }),
        }
    }

    /// Checks a rendered `confidence` table against the reference: the
    /// world count, one row per listed tuple with its exact value, and
    /// the padding row. Only these values are compared, not layout.
    ///
    /// # Errors
    /// A description of the first disagreement.
    pub fn check(&self, output: &str) -> Result<(), String> {
        let worlds = output
            .lines()
            .find_map(|l| l.trim().strip_prefix("|poss(S)| = "))
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("no |poss(S)| line")?;
        if worlds != self.worlds {
            return Err(format!("|poss(S)| {worlds} != reference {}", self.worlds));
        }
        let mut seen = 0usize;
        for line in output.lines() {
            let mut tokens = line.split_whitespace();
            let (Some(label), Some(value)) = (tokens.next(), tokens.next()) else {
                continue;
            };
            if let Some(want) = self.rows.get(label) {
                if value != want {
                    return Err(format!("{label} = {value}, reference {want}"));
                }
                seen += 1;
            }
        }
        if seen != self.rows.len() {
            return Err(format!("{seen} of {} tuple rows found", self.rows.len()));
        }
        if let Some(want) = &self.padding {
            let got = output
                .lines()
                .find_map(|l| l.split_once("domain facts: "))
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .ok_or("no padding row")?;
            if got != want {
                return Err(format!("padding confidence {got}, reference {want}"));
            }
        }
        Ok(())
    }
}

/// `R(x, …)` as the CLI labels a tuple row.
#[must_use]
pub fn row_label(identity: &IdentityCollection, tuple: &[pscds_relational::Value]) -> String {
    let args: Vec<String> = tuple.iter().map(ToString::to_string).collect();
    format!("{}({})", identity.relation, args.join(", "))
}

/// Runs the CLI once, returning its latency in ms and whether its table
/// matched the reference.
pub fn timed_cli(args: &[String], expected: &Expected) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let result = pscds_cli::run_with_status(args);
    let ms = ms_since(start);
    let check = match result {
        Ok((out, 0)) => expected.check(&out),
        Ok((_, status)) => Err(format!("exit status {status}")),
        Err(e) => Err(format!("CLI error: {e}")),
    };
    (
        ms,
        check.map_err(|why| format!("oneshot {}: {why}", args[7])),
    )
}

/// Writes the seed's catalog where the CLI will read it; returns the
/// catalog and the per-engine argument lists.
///
/// # Errors
/// When the file cannot be written.
pub fn prepare(config: &Config) -> Result<(inputs::ScaledCatalog, Vec<Vec<String>>), String> {
    let m = config.sizes.oneshot_m;
    let catalog = inputs::scaled_catalog(config.seed, m);
    let path = config
        .work_dir
        .join(format!("oneshot-seed{}.pscds", config.seed));
    std::fs::write(&path, &catalog.text)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let args = ENGINES.iter().map(|e| cli_args(&path, m, e)).collect();
    Ok((catalog, args))
}

/// The untraced `oneshot` run.
///
/// # Errors
/// When the inputs cannot be written or a set-up pass fails.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let (catalog, args) = prepare(config)?;
    let expected = Expected::compute(&catalog.collection, catalog.m as u64)?;
    // Set-up: warm passes over the three cells, spread over the run. A
    // CLI user pays cold start on every run, so one pass is the honest
    // set-up figure; the median of several keeps it steady.
    let reps = config.sizes.setup_reps;
    let mut setups_s = Vec::new();
    let mut outcome = Outcome::default();
    let mut latencies_ms = Vec::new();
    let mut rounds = Rounds::new(config.seed, ENGINES.len());
    loop {
        while crate::setup_due(setups_s.len(), reps, &latencies_ms, config.seconds) {
            let mut pass_ms = 0.0;
            for cell in &args {
                let (ms, check) = timed_cli(cell, &expected);
                check.map_err(|why| format!("set-up pass: {why}"))?;
                pass_ms += ms;
            }
            setups_s.push(pass_ms / 1e3);
        }
        for cell in rounds.next_round() {
            let (ms, check) = timed_cli(&args[cell], &expected);
            latencies_ms.push(ms);
            outcome.record(check);
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
