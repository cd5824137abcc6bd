//! Input generation. Every input is a pure function of the benchmark
//! seed; generation is never timed and never counted as set-up.

use crate::rng::Rng;
use pscds_core::delta::DeltaBatch;
use pscds_core::{SourceCollection, SourceDescriptor};
use pscds_datagen::deltas::{cache_sim_stream, CacheStreamConfig};
use pscds_numeric::Frac;
use pscds_relational::Value;
use std::collections::BTreeSet;

/// Stream names for [`Rng::derive`], one per generated input.
const STREAM_LABELS: u64 = 1;
const STREAM_ORDER: u64 = 2;
const STREAM_DELTAS: u64 = 3;

/// Scaled Example 5.1 (`pscds_core::paper::example_5_1_scaled`) with
/// seeded constant names: `S1 = a ∪ b`, `S2 = b ∪ c`, each group `m`
/// constants, both sources at completeness and soundness 1/2. The
/// renaming keeps every signature class and its size, so the counting
/// work is the paper family's; only the labels the program parses and
/// prints depend on the seed.
pub struct ScaledCatalog {
    /// The collection.
    pub collection: SourceCollection,
    /// Its textual form, as the CLI reads it.
    pub text: String,
    /// The three listed signature classes: S1 only, both, S2 only.
    pub classes: [Vec<Vec<Value>>; 3],
    /// The scale `m` (group size and padding).
    pub m: usize,
}

/// Builds [`ScaledCatalog`] at scale `m` for `seed`.
///
/// # Panics
/// Never for `m ≥ 1`: the descriptors are well-formed by construction.
#[must_use]
pub fn scaled_catalog(seed: u64, m: usize) -> ScaledCatalog {
    let mut rng = Rng::derive(seed, STREAM_LABELS);
    let mut seen = BTreeSet::new();
    let mut labels = Vec::with_capacity(3 * m);
    while labels.len() < 3 * m {
        let draw = rng.next_u64() as u32;
        if seen.insert(draw) {
            labels.push(Value::sym(&format!("k{draw:08x}")));
        }
    }
    let group = |g: usize| -> Vec<Vec<Value>> {
        labels[g * m..(g + 1) * m]
            .iter()
            .map(|v| vec![*v])
            .collect()
    };
    let classes = [group(0), group(1), group(2)];
    let source = |name: &str, view: &str, ext: Vec<Vec<Value>>| {
        SourceDescriptor::identity(name, view, "R", 1, ext, Frac::HALF, Frac::HALF)
            .expect("identity descriptors with c = s = 1/2 are valid")
    };
    let s1 = source(
        "S1",
        "V1",
        [classes[0].clone(), classes[1].clone()].concat(),
    );
    let s2 = source(
        "S2",
        "V2",
        [classes[1].clone(), classes[2].clone()].concat(),
    );
    let collection = SourceCollection::from_sources([s1, s2]);
    let text = pscds_core::textfmt::format_collection(&collection);
    ScaledCatalog {
        collection,
        text,
        classes,
        m,
    }
}

/// The `oneshot` engine cells, each given equal weight.
pub const ENGINES: [&str; 3] = ["auto", "dp", "circuit"];

/// Seeded rounds of operation classes: each round is a fresh shuffle of
/// `0..classes`, so every class has exactly equal weight at every round
/// boundary.
pub struct Rounds {
    rng: Rng,
    classes: usize,
}

impl Rounds {
    /// Rounds over `classes` operation classes for `seed`.
    #[must_use]
    pub fn new(seed: u64, classes: usize) -> Self {
        Rounds {
            rng: Rng::derive(seed, STREAM_ORDER),
            classes,
        }
    }

    /// The next round: a permutation of `0..classes`.
    pub fn next_round(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.classes).collect();
        self.rng.shuffle(&mut order);
        order
    }

    /// A uniform index in `0..n`, from the same seeded stream.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }
}

/// One `query_many` operation: `confidence(tuple | given)`. `pair` is
/// `3 · class(tuple) + class(given)`; the answer depends on nothing else.
pub struct Query {
    /// Operation class, `0..9`.
    pub pair: usize,
    /// The queried tuple.
    pub tuple: Vec<Value>,
    /// The one-tuple conditioning event.
    pub given: Vec<Vec<Value>>,
}

/// The next round of nine queries, one per class pair, in seeded order.
pub fn query_round(rounds: &mut Rounds, classes: &[Vec<Vec<Value>>; 3]) -> Vec<Query> {
    rounds
        .next_round()
        .into_iter()
        .map(|pair| {
            let (x, y) = (pair / 3, pair % 3);
            let tuple = classes[x][rounds.pick(classes[x].len())].clone();
            let mut given = classes[y][rounds.pick(classes[y].len())].clone();
            while given == tuple {
                given = classes[y][rounds.pick(classes[y].len())].clone();
            }
            Query {
                pair,
                tuple,
                given: vec![given],
            }
        })
        .collect()
}

/// A generated update stream of fixed shape.
pub struct Stream {
    /// The epoch-0 catalog.
    pub initial: SourceCollection,
    /// Padding at epoch 0.
    pub padding: u64,
    /// The ordered batches.
    pub batches: Vec<DeltaBatch>,
}

/// Generator seed of pool stream 0; stream `i` uses `POOL_BASE + i`.
const POOL_BASE: u64 = 0x5eed_0000;

/// Stream `index` of the `delta_stream` pool: the cache-replacement
/// stream over 3 caches, 4 resident objects per cache subset, 4 updates
/// per batch, no drift. The pool is fixed — epoch costs are heavy-tailed
/// across generator seeds, so a per-seed pool would make the workload's
/// figures depend on which streams a seed happened to draw — and `seed`
/// only renames the objects. The shape, and so the padding
/// (`batches × 4`), is fixed too: a longer run replays the pool more
/// often, never a longer stream.
///
/// # Panics
/// Never: the configuration is well-formed and renaming preserves it.
#[must_use]
pub fn delta_stream(seed: u64, index: u64, batches: usize) -> Stream {
    let generated = cache_sim_stream(&CacheStreamConfig {
        group_size: 4,
        n_caches: 3,
        batches,
        updates_per_batch: 4,
        drift: 0.0,
        seed: POOL_BASE + index,
    })
    .expect("a well-formed cache stream configuration");
    let mut names = Renamer::new(Rng::derive(seed ^ STREAM_DELTAS, index));
    let catalog = names.rename(&pscds_core::textfmt::format_collection(&generated.initial));
    let batches = names.rename(&pscds_core::delta::format_delta_stream(&generated.batches));
    Stream {
        initial: pscds_core::textfmt::parse_collection(&catalog).expect("renamed catalog parses"),
        padding: generated.padding,
        batches: pscds_core::delta::parse_delta_stream(&batches).expect("renamed stream parses"),
    }
}

/// Renames the generator's `page<N>` objects to seeded labels of one
/// fixed length, consistently across the catalog and its batches.
struct Renamer {
    rng: Rng,
    names: std::collections::HashMap<String, String>,
    taken: BTreeSet<u32>,
}

impl Renamer {
    fn new(rng: Rng) -> Self {
        Renamer {
            rng,
            names: std::collections::HashMap::new(),
            taken: BTreeSet::new(),
        }
    }

    fn rename(&mut self, text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(at) = rest.find("page") {
            out.push_str(&rest[..at]);
            let digits = rest[at + 4..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len() - at - 4);
            let object = &rest[at..at + 4 + digits];
            if digits == 0 {
                out.push_str(object);
            } else {
                if !self.names.contains_key(object) {
                    let label = loop {
                        let draw = self.rng.next_u64() as u32;
                        if self.taken.insert(draw) {
                            break format!("o{draw:08x}");
                        }
                    };
                    self.names.insert(object.to_owned(), label);
                }
                out.push_str(&self.names[object]);
            }
            rest = &rest[at + 4 + digits..];
        }
        out.push_str(rest);
        out
    }
}
