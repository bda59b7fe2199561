//! Inputs made from the seed: the relation, its plaintext ground truth,
//! and the operation streams the closed-loop clients send.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pds_common::rng::{seeded_rng, shuffle};
use pds_common::{Result, TupleId, Value};
use pds_storage::{PartitionedRelation, Partitioner, Relation, Tuple};
use pds_workload::{QueryWorkload, SensitivityAssigner, TpchConfig, TpchGenerator, Zipf};
use rand::rngs::StdRng;

/// The searchable attribute of every workload (the paper's §V setting).
pub const SEARCH_ATTR: &str = "L_PARTKEY";

/// Share of tuples marked sensitive (whole `L_PARTKEY` value groups).
pub const ALPHA: f64 = 0.3;

/// A pseudo-TPC-H LINEITEM of `rows` tuples with `rows / 8` part keys.
pub fn lineitem(rows: usize, seed: u64) -> Relation {
    TpchGenerator::new(TpchConfig {
        lineitem_tuples: rows,
        distinct_partkeys: (rows / 8).max(16),
        distinct_suppkeys: (rows / 150).max(4),
        skew: 0.0,
        seed,
    })
    .lineitem()
}

/// Splits `relation` at [`ALPHA`] over [`SEARCH_ATTR`].
pub fn partition(relation: &Relation, seed: u64) -> Result<PartitionedRelation> {
    let attr = relation.schema().attr_id(SEARCH_ATTR)?;
    let policy = SensitivityAssigner::new(seed).by_value_fraction(relation, attr, ALPHA)?;
    Partitioner::new(policy).split(relation)
}

/// Every searchable value of either side, in a fixed order.
pub fn all_values(parts: &PartitionedRelation) -> Result<Vec<Value>> {
    let attr = parts.sensitive.schema().attr_id(SEARCH_ATTR)?;
    let mut values = parts.sensitive.distinct_values(attr);
    values.extend(parts.nonsensitive.distinct_values(attr));
    values.sort_by_key(Value::encode);
    values.dedup();
    Ok(values)
}

/// Tuples as sorted encodings: the form answers are compared in.
pub fn encode_sorted(tuples: &[Tuple]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = tuples.iter().map(Tuple::encode).collect();
    out.sort();
    out
}

/// The plaintext answer to every point query, kept current under inserts.
#[derive(Debug, Clone)]
pub struct Truth {
    answers: HashMap<Value, Vec<Vec<u8>>>,
}

impl Truth {
    /// The answers over both sides of `parts`.
    pub fn new(parts: &PartitionedRelation) -> Result<Truth> {
        let attr = parts.sensitive.schema().attr_id(SEARCH_ATTR)?;
        let mut answers: HashMap<Value, Vec<Vec<u8>>> = HashMap::new();
        for t in parts
            .sensitive
            .tuples()
            .iter()
            .chain(parts.nonsensitive.tuples())
        {
            answers
                .entry(t.value(attr).clone())
                .or_default()
                .push(t.encode());
        }
        for enc in answers.values_mut() {
            enc.sort();
        }
        Ok(Truth { answers })
    }

    /// Whether `answer` is exactly the expected answer for `value`.
    pub fn matches(&self, value: &Value, answer: &[Tuple]) -> bool {
        let want = self.answers.get(value).map_or(&[][..], Vec::as_slice);
        want == encode_sorted(answer).as_slice()
    }

    /// How many of `answers` differ from the expected answers to the
    /// queries `values` they are aligned with.
    pub fn count_wrong(&self, values: &[Value], answers: &[Vec<Tuple>]) -> u64 {
        values
            .iter()
            .zip(answers)
            .filter(|(v, a)| !self.matches(v, a))
            .count() as u64
    }

    /// Adds an inserted tuple to the answer for `value`.
    pub fn record_insert(&mut self, value: &Value, tuple: &Tuple) {
        let enc = self.answers.entry(value.clone()).or_default();
        enc.push(tuple.encode());
        enc.sort();
    }

    /// Fault injection: adds a tuple no deployment holds to the expected
    /// answer for `value`, so a run that queries `value` — every run's
    /// exhaustive pass does — must report a wrong answer.
    pub fn corrupt(&mut self, value: &Value) {
        let bogus = Tuple::new(TupleId::new(u64::MAX), vec![value.clone()]);
        self.record_insert(value, &bogus);
    }
}

/// An endless stream of shuffled exhaustive passes over `values`.
#[derive(Debug, Clone)]
pub struct Passes {
    values: Vec<Value>,
    pos: usize,
    rng: StdRng,
}

impl Passes {
    /// A stream over `values` (non-empty) shuffled by `seed`.
    pub fn new(values: Vec<Value>, seed: u64) -> Passes {
        assert!(!values.is_empty(), "a pass needs at least one value");
        let mut passes = Passes {
            pos: values.len(),
            values,
            rng: seeded_rng(seed),
        };
        passes.reshuffle_if_done();
        passes
    }

    fn reshuffle_if_done(&mut self) {
        if self.pos == self.values.len() {
            shuffle(&mut self.values, &mut self.rng);
            self.pos = 0;
        }
    }

    /// The next value.
    pub fn next_value(&mut self) -> Value {
        let v = self.values[self.pos].clone();
        self.pos += 1;
        self.reshuffle_if_done();
        v
    }
}

/// Zipf-popular draws: the most frequent value in the data is also the
/// most frequently queried.
#[derive(Debug, Clone)]
pub struct ZipfDraws {
    ranked: Vec<Value>,
    zipf: Zipf,
    rng: StdRng,
}

impl ZipfDraws {
    /// Draws over `relation`'s search values with exponent `s`.
    pub fn new(relation: &Relation, s: f64, seed: u64) -> Result<ZipfDraws> {
        let attr = relation.schema().attr_id(SEARCH_ATTR)?;
        let ranked = QueryWorkload::zipf(relation, attr, s, seed)?
            .values()
            .to_vec();
        Ok(ZipfDraws {
            zipf: Zipf::new(ranked.len(), s)?,
            ranked,
            rng: seeded_rng(seed),
        })
    }

    /// The next value.
    pub fn next_value(&mut self) -> Value {
        self.ranked[self.zipf.sample(&mut self.rng)].clone()
    }
}

/// Where read values come from.
#[derive(Debug, Clone)]
pub enum Reads {
    /// Shuffled exhaustive passes.
    Passes(Passes),
    /// Zipf-popular draws.
    Zipf(ZipfDraws),
}

impl Reads {
    fn next_value(&mut self) -> Value {
        match self {
            Reads::Passes(p) => p.next_value(),
            Reads::Zipf(z) => z.next_value(),
        }
    }
}

/// One closed-loop operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One read call: a batch of point queries.
    Read(Vec<Value>),
    /// One clear-text insert of `tuple`, whose searchable value is `value`.
    Insert {
        /// The searchable value.
        value: Value,
        /// The tuple, with a fresh id.
        tuple: Tuple,
    },
}

/// Clear-text inserts for values that already have a non-sensitive bin:
/// each copies an existing tuple of the value under a fresh id.
///
/// Inserts are due on a clock, one per `every`, not one per so many
/// operations: every insert grows a bin that later reads return, so a
/// count-based schedule would let a faster host grow the relation faster
/// and measure its later reads on a larger relation.  On the clock, the
/// relation at any moment of a phase is the same in every run.
#[derive(Debug, Clone)]
pub struct Inserts {
    every: Duration,
    due: Option<Instant>,
    values: Passes,
    templates: HashMap<Value, Tuple>,
    next_id: u64,
}

impl Inserts {
    /// One insert of a copy of a non-sensitive tuple of `nonsensitive`
    /// per `every` of a phase; fresh ids start at `first_id`.
    pub fn new(
        every: Duration,
        nonsensitive: &Relation,
        first_id: u64,
        seed: u64,
    ) -> Result<Inserts> {
        let attr = nonsensitive.schema().attr_id(SEARCH_ATTR)?;
        let mut templates = HashMap::new();
        for t in nonsensitive.tuples() {
            templates
                .entry(t.value(attr).clone())
                .or_insert_with(|| t.clone());
        }
        let mut values: Vec<Value> = templates.keys().cloned().collect();
        values.sort_by_key(Value::encode);
        Ok(Inserts {
            every,
            due: None,
            values: Passes::new(values, seed),
            templates,
            next_id: first_id,
        })
    }
}

/// One client's operation stream: reads in batches of `batch`, with an
/// insert whenever one is due.
#[derive(Debug, Clone)]
pub struct OpStream {
    reads: Reads,
    batch: usize,
    inserts: Option<Inserts>,
}

impl OpStream {
    /// A stream of `batch`-query reads, optionally interleaved with inserts.
    pub fn new(reads: Reads, batch: usize, inserts: Option<Inserts>) -> OpStream {
        OpStream {
            reads,
            batch,
            inserts,
        }
    }

    /// Starts a phase at `start`: the first insert is due one interval
    /// later.
    pub fn start_clock(&mut self, start: Instant) {
        if let Some(ins) = &mut self.inserts {
            ins.due = Some(start + ins.every);
        }
    }

    /// The next operation at time `now`: an insert if one is due (a
    /// client that fell behind catches up one insert per call), else a
    /// read.
    pub fn next_op(&mut self, now: Instant) -> Op {
        if let Some(ins) = &mut self.inserts {
            let due = *ins.due.get_or_insert(now + ins.every);
            if now >= due {
                ins.due = Some(due + ins.every);
                let value = ins.values.next_value();
                let mut tuple = ins.templates[&value].clone();
                tuple.id = TupleId::new(ins.next_id);
                ins.next_id += 1;
                return Op::Insert { value, tuple };
            }
        }
        Op::Read((0..self.batch).map(|_| self.reads.next_value()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    #[test]
    fn passes_cover_every_value_once_per_pass() {
        let mut p = Passes::new(ints(7), 3);
        for _ in 0..3 {
            let mut pass: Vec<Value> = (0..7).map(|_| p.next_value()).collect();
            pass.sort_by_key(Value::encode);
            assert_eq!(pass, ints(7));
        }
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let rel = lineitem(400, 5);
        let draw = |seed| {
            let mut z = ZipfDraws::new(&rel, 1.1, seed).unwrap();
            (0..50).map(|_| z.next_value()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn inserts_are_due_on_the_clock_with_fresh_ids() {
        let parts = partition(&lineitem(400, 5), 5).unwrap();
        let every = Duration::from_millis(10);
        let inserts = Inserts::new(every, &parts.nonsensitive, 1_000, 1).unwrap();
        let values = all_values(&parts).unwrap();
        let mut ops = OpStream::new(Reads::Passes(Passes::new(values, 2)), 1, Some(inserts));
        let t0 = Instant::now();
        ops.start_clock(t0);
        let ms = |n| t0 + Duration::from_millis(n);
        // Due at 10, 20, 30 ms: on time at 10 ms, two behind at 35 ms.
        let kinds: Vec<Option<u64>> = [5, 9, 10, 10, 35, 35, 35, 36]
            .into_iter()
            .map(|at| match ops.next_op(ms(at)) {
                Op::Insert { tuple, .. } => Some(tuple.id.raw()),
                Op::Read(batch) => {
                    assert_eq!(batch.len(), 1);
                    None
                }
            })
            .collect();
        assert_eq!(
            kinds,
            [
                None,
                None,
                Some(1_000),
                None,
                Some(1_001),
                Some(1_002),
                None,
                None
            ]
        );
        // A new phase restarts the clock.
        ops.start_clock(ms(100));
        assert!(matches!(ops.next_op(ms(105)), Op::Read(_)));
        assert!(matches!(ops.next_op(ms(110)), Op::Insert { .. }));
    }

    #[test]
    fn truth_tracks_inserts_and_catches_corruption() {
        let parts = partition(&lineitem(400, 5), 5).unwrap();
        let attr = parts.nonsensitive.schema().attr_id(SEARCH_ATTR).unwrap();
        let t = parts.nonsensitive.tuples()[0].clone();
        let v = t.value(attr).clone();
        let mut truth = Truth::new(&parts).unwrap();
        let answer: Vec<Tuple> = parts
            .sensitive
            .tuples()
            .iter()
            .chain(parts.nonsensitive.tuples())
            .filter(|x| x.value(attr) == &v)
            .cloned()
            .collect();
        assert!(truth.matches(&v, &answer));
        let mut extra = t.clone();
        extra.id = TupleId::new(99_999);
        truth.record_insert(&v, &extra);
        assert!(!truth.matches(&v, &answer));
        let mut grown = answer.clone();
        grown.push(extra);
        assert!(truth.matches(&v, &grown));
        truth.corrupt(&v);
        assert!(!truth.matches(&v, &grown));
    }
}
