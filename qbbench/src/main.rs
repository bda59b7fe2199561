//! `qbbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the gated end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`.  The lines before it print every metric by name and unit,
//! with the sample counts, seed and core count behind them.  Exits 1 on any
//! wrong answer, security violation or dropped span, 2 on a usage error.
//!
//! `--inject corrupt-answer|drop-episode` plants a fault the gate must
//! catch; it exists for the benchmark's own tests.

use std::process::ExitCode;
use std::time::Duration;

use pds_common::rng::derive_seed;
use pds_common::Result;
use qbbench::bench::{
    exhaustive_pass, peak_rss_mb, prime, secure, setup, spec, timed_phase, ClientInput, Deployment,
    Inject, Spec, DAEMON_WORKERS, SETUP_BUDGET, SETUP_MIN_REPS, SPECS, WARMUP,
};
use qbbench::data::{
    all_values, lineitem, partition, Inserts, OpStream, Passes, Reads, Truth, ZipfDraws,
};
use qbbench::report::{end_to_end, per_layer, result_line, table, GATED_END_TO_END};

/// Seed of the dataset and the shard placement.  Like `dbgen` output at a
/// fixed scale, the data is the same for every run, so runs differ only in
/// what `--seed` draws: query streams, insert order and the owners' keys.
const DATA_SEED: u64 = 0x0b1a_5eed;

/// First id of inserted tuples: above every generated and fake tuple id.
const FIRST_INSERT_ID: u64 = 1 << 40;

const USAGE: &str = "usage: qbbench --workload <tcp-uniform|inproc-zipf-cache|tcp-rw-tenants> \
                     --seed <u64> --seconds <u64 >= 1> --trace <0|1> \
                     [--inject corrupt-answer|drop-episode]";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: Inject,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject = Inject::None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--inject" => {
                inject = match value.as_str() {
                    "corrupt-answer" => Inject::CorruptAnswer,
                    "drop-episode" => Inject::DropEpisode,
                    _ => return Err(format!("bad --inject {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

/// Runs the workload; returns whether the gate passed.
fn run(args: &Args) -> Result<bool> {
    let spec = args.spec;
    let seed = args.seed;

    // Inputs, made from the seed before any timing starts.
    let relation = lineitem(spec.rows, derive_seed(DATA_SEED, "lineitem"));
    let parts = partition(&relation, derive_seed(DATA_SEED, "alpha"))?;
    let values = all_values(&parts)?;
    let mut truth = Truth::new(&parts)?;
    if args.inject == Inject::CorruptAnswer {
        truth.corrupt(&values[0]);
    }
    let inputs = (0..spec.tenants as u64)
        .map(|i| {
            let reads = match spec.zipf {
                Some(s) => Reads::Zipf(ZipfDraws::new(
                    &relation,
                    s,
                    derive_seed(seed, "zipf").wrapping_add(i),
                )?),
                None => Reads::Passes(Passes::new(
                    values.clone(),
                    derive_seed(seed, "passes").wrapping_add(i),
                )),
            };
            let inserts = spec
                .insert_every
                .map(|every| {
                    Inserts::new(
                        every,
                        &parts.nonsensitive,
                        FIRST_INSERT_ID,
                        derive_seed(seed, "inserts").wrapping_add(i),
                    )
                })
                .transpose()?;
            Ok(ClientInput {
                truth: truth.clone(),
                ops: OpStream::new(reads, spec.batch, inserts),
            })
        })
        .collect::<Result<Vec<_>>>()?;

    // Set-up, many times: only the last deployment is kept.
    let mut setups = Vec::new();
    let mut spent = 0.0;
    let mut dep: Option<Deployment> = None;
    while setups.len() < SETUP_MIN_REPS || spent < SETUP_BUDGET.as_secs_f64() {
        if let Some(mut old) = dep.take() {
            old.land()?;
        }
        let (fresh, times) = setup(spec, &parts, DATA_SEED, seed, inputs.clone())?;
        spent += times.total_s;
        setups.push(times);
        dep = Some(fresh);
    }
    let mut dep = dep.expect("at least one set-up");
    // Memory is read after set-up: the views and wire logs the shards
    // record grow with every query, so a later reading would rise with
    // throughput.
    let setup_rss_mb = peak_rss_mb()?;

    // Timed phases: end-to-end metrics come from an untraced phase; a
    // traced run splits its window into an untraced reference half and a
    // traced half, so the tracing overhead is measured in the same run.
    let window = Duration::from_secs(args.seconds);
    let mut primer = Passes::new(values.clone(), derive_seed(seed, "prime"));
    let primer: Vec<_> = (0..values.len()).map(|_| primer.next_value()).collect();
    let (primed, prime_failed) = prime(&mut dep, &primer);
    let warmup = timed_phase(&mut dep, WARMUP, false)?;
    let (reference, traced) = if args.trace {
        let half = window / 2;
        let reference = timed_phase(&mut dep, half, false)?;
        (reference, Some(timed_phase(&mut dep, half, true)?))
    } else {
        (timed_phase(&mut dep, window, false)?, None)
    };

    // Peak memory of the workload itself, before the gate's own work.
    let window_rss_mb = peak_rss_mb()?;

    // The gate: one exhaustive pass completes the bin co-occurrence graph,
    // then every tenant's views must satisfy partitioned security.
    let gate_start = std::time::Instant::now();
    let mut pass = Passes::new(values.clone(), derive_seed(seed, "exhaustive"));
    let pass: Vec<_> = (0..values.len()).map(|_| pass.next_value()).collect();
    let (checked, check_failed) = exhaustive_pass(&mut dep, &pass);
    let is_secure = secure(&dep, args.inject);
    let gate_s = gate_start.elapsed().as_secs_f64();

    let phases: Vec<_> = [&warmup, &reference]
        .into_iter()
        .chain(traced.as_ref())
        .collect();
    let attempted = primed + checked + phases.iter().map(|p| p.ops()).sum::<u64>();
    let failed = prime_failed + check_failed + phases.iter().map(|p| p.failed).sum::<u64>();
    let dropped = traced
        .as_ref()
        .and_then(|p| p.spans.as_ref())
        .map_or(0, |s| s.dropped());
    let correct = failed == 0 && is_secure && dropped == 0;

    let e2e = end_to_end(&setups, &reference, attempted, failed, setup_rss_mb);
    println!(
        "qbbench workload={} seed={seed} seconds={} trace={} nproc={} client_threads={} \
         daemon_workers={} shards={} rows={} values={}",
        spec.name,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spec.tenants,
        if spec.tcp { DAEMON_WORKERS } else { 0 },
        spec.shards,
        spec.rows,
        values.len(),
    );
    let labelled = [
        ("warm-up", Some(&warmup)),
        ("untraced", Some(&reference)),
        ("traced", traced.as_ref()),
    ];
    for (label, p) in labelled {
        if let Some(p) = p {
            println!(
                "{label} phase: {} ops in {:.3} s ({} queries, {} inserts); samples: {} reads, \
                 {} inserts",
                p.ops(),
                p.wall_s,
                p.queries,
                p.inserts,
                p.read_ms.len(),
                p.insert_ms.len(),
            );
            let fmt = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "  {} slices: ops/s [{}]; read p50 ms [{}]",
                p.slices.ops_per_s.len(),
                fmt(&p.slices.ops_per_s),
                fmt(&p.slices.read_p50_ms),
            );
        }
    }
    println!(
        "set-up: {} deployments, median reported; gate: {failed} of {attempted} \
         operations failed (exhaustive pass: {checked} queries), secure={is_secure} \
         (gate took {gate_s:.1} s), \
         dropped_spans={dropped}, correct={correct}; peak RSS {setup_rss_mb:.1} MB after \
         set-up, {window_rss_mb:.1} MB after the timed window",
        setups.len()
    );
    println!("end-to-end (untraced phase):\n{}", table(&e2e).trim_end());
    let reported = match &traced {
        Some(traced) => {
            let layers = per_layer(&setups, &reference, traced);
            println!("per-layer (traced phase):\n{}", table(&layers).trim_end());
            layers
        }
        None => e2e
            .into_iter()
            .filter(|m| GATED_END_TO_END.contains(&m.name))
            .collect(),
    };
    println!("{}", result_line(correct, attempted, failed, &reported));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qbbench: {e}\n{USAGE}");
            let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
