//! The three workloads, their deployments, the closed-loop timed phase and
//! the correctness gate.
//!
//! Every layer is driven from outside through its public calls, and each
//! call is wrapped in a `bench.*` span so a traced run can split the time
//! the program's own spans do not cover.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{
    AdversarialView, BinRoutedCloud, BinTransport, CloudServer, DbOwner, Metrics, NetworkModel,
    ServiceConfig, ShardDaemon, ShardRouter, TcpCloudClient,
};
use pds_common::rng::derive_seed;
use pds_common::{PdsError, Result, Value};
use pds_core::{BinningConfig, QbExecutor, QueryBinning};
use pds_obs::{obs_span, Registry, StatsScope};
use pds_proto::{InsertRequest, PoolStats, WireMessage};
use pds_storage::{PartitionedRelation, Tuple};
use pds_systems::{DeterministicIndexEngine, NonDetScanEngine, SecureSelectionEngine};

use crate::data::{Op, OpStream, Truth, SEARCH_ATTR};
use crate::stats::{Done, SelfTimes, Slices, Timeline};

/// Worker threads of every shard daemon.  Fixed, not derived from the
/// machine's core count, so runs on different machines load alike.
pub const DAEMON_WORKERS: usize = 2;

/// A run builds at least this many deployments, and more until
/// [`SETUP_BUDGET`] is spent; `setup_s` is their median.  A deployment
/// sets up in 10 to 80 ms, and a burst of host load slows a few of them by
/// half, so it takes many builds to make the median steady.
pub const SETUP_MIN_REPS: usize = 5;

/// Set-up time a run spends, at least, on repeated deployments.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Length of the untimed warm-up phase before the timed one: it fills the
/// cache and faults the code in.
pub const WARMUP: Duration = Duration::from_millis(1_000);

/// Equal slices a timed window is cut into: `ops_per_s` and `read_p50_ms`
/// are medians over them.  A 20 s window gives 2 s slices, each with at
/// least 18 read calls in every workload.
pub const SLICES: usize = 10;

/// Queries per read call of the untimed exhaustive pass.
const CHECK_BATCH: usize = 64;

/// The secure back-end the deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Deterministic tags with a cloud-side index: composed, one round,
    /// pipelinable.
    DetIndex,
    /// Non-deterministic encryption with a full scan: fine-grained,
    /// multi-round.
    NonDetScan,
}

impl EngineKind {
    fn build(self) -> Box<dyn SecureSelectionEngine> {
        match self {
            EngineKind::DetIndex => Box::new(DeterministicIndexEngine::new()),
            EngineKind::NonDetScan => Box::new(NonDetScanEngine::new()),
        }
    }
}

/// One named workload: its deployment and its load.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// LINEITEM rows.
    pub rows: usize,
    /// Secure back-end on every shard.
    pub engine: EngineKind,
    /// Shards (one daemon each over TCP).
    pub shards: usize,
    /// Tenants, each with its own deployment, client thread and
    /// connection per shard.
    pub tenants: usize,
    /// TCP pipelined to shard daemons (`true`) or in-process threaded.
    pub tcp: bool,
    /// Owner-side hot-bin cache capacity in bins (0 = off).
    pub cache_bins: usize,
    /// Point queries per read call.
    pub batch: usize,
    /// Zipf exponent of query popularity; `None` = shuffled exhaustive
    /// passes.
    pub zipf: Option<f64>,
    /// One clear-text insert per this interval of a phase, per client.
    pub insert_every: Option<Duration>,
}

/// The benchmark's workloads.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "tcp-uniform",
        rows: 15_000,
        engine: EngineKind::DetIndex,
        shards: 2,
        tenants: 1,
        tcp: true,
        cache_bins: 0,
        batch: 64,
        zipf: None,
        insert_every: None,
    },
    Spec {
        name: "inproc-zipf-cache",
        rows: 15_000,
        engine: EngineKind::NonDetScan,
        shards: 2,
        tenants: 1,
        tcp: false,
        cache_bins: 64,
        batch: 64,
        zipf: Some(1.1),
        insert_every: None,
    },
    Spec {
        name: "tcp-rw-tenants",
        rows: 1_500,
        engine: EngineKind::DetIndex,
        shards: 1,
        tenants: 2,
        tcp: true,
        cache_bins: 0,
        batch: 1,
        zipf: None,
        insert_every: Some(Duration::from_millis(10)),
    },
];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A deliberate fault, to prove the gate fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// Corrupt one expected answer.
    CorruptAnswer,
    /// Drop one episode (every repeat of its bin pair) from the view the
    /// security check sees.
    DropEpisode,
}

/// One tenant's inputs: its ground truth and its operation stream.
#[derive(Debug, Clone)]
pub struct ClientInput {
    /// Plaintext answers, kept current under the tenant's inserts.
    pub truth: Truth,
    /// The operations its closed-loop client sends.
    pub ops: OpStream,
}

struct Tenant {
    id: u64,
    executor: QbExecutor<Box<dyn SecureSelectionEngine>>,
    owner: DbOwner,
    router: ShardRouter,
    input: ClientInput,
}

/// Time spent in one deployment's set-up, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Binning, outsourcing and daemon spawn, end to end.
    pub total_s: f64,
    /// `QueryBinning::build`, summed over tenants.
    pub binning_s: f64,
    /// `QbExecutor::outsource` (encrypt and upload), summed over tenants.
    pub outsource_s: f64,
    /// `ShardDaemon::spawn`, summed over shards.
    pub spawn_s: f64,
    /// Values the owners encrypted while outsourcing.
    pub owner_encryptions: u64,
}

/// A set-up deployment: every tenant's executor, owner and shard servers,
/// the servers lifted into daemons while a TCP phase runs.
pub struct Deployment {
    spec: &'static Spec,
    tenants: Vec<Tenant>,
    daemons: Vec<ShardDaemon>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Builds, outsources and (over TCP) serves a deployment of `spec` over
/// `parts`, one tenant per input: shard placement from `data_seed`, owner
/// keys from `seed`.  Generating the inputs is not set-up.
pub fn setup(
    spec: &'static Spec,
    parts: &PartitionedRelation,
    data_seed: u64,
    seed: u64,
    inputs: Vec<ClientInput>,
) -> Result<(Deployment, SetupTimes)> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut tenants = Vec::with_capacity(inputs.len());
    for (id, input) in (1u64..).zip(inputs) {
        let t = Instant::now();
        let binning = {
            let _span = obs_span("bench.binning");
            QueryBinning::build(parts, SEARCH_ATTR, BinningConfig::default())?
        };
        times.binning_s += secs(t);
        let mut executor = QbExecutor::new(binning, spec.engine.build())
            .with_tenant(id)
            .with_cache_capacity(spec.cache_bins);
        let mut owner = DbOwner::new(derive_seed(seed, "owner").wrapping_add(id));
        let mut router = ShardRouter::new(
            spec.shards,
            NetworkModel::paper_wan(),
            derive_seed(data_seed, "placement").wrapping_add(id),
        )?;
        let t = Instant::now();
        {
            let _span = obs_span("bench.outsource");
            executor.outsource(&mut owner, &mut router, parts)?;
        }
        times.outsource_s += secs(t);
        times.owner_encryptions += owner.metrics().owner_encryptions;
        // Phases count their own work only.
        owner.reset_metrics();
        router.reset_metrics();
        tenants.push(Tenant {
            id,
            executor,
            owner,
            router,
            input,
        });
    }
    let mut dep = Deployment {
        spec,
        tenants,
        daemons: Vec::new(),
    };
    if spec.tcp {
        let t = Instant::now();
        dep.lift()?;
        times.spawn_s = secs(t);
    }
    times.total_s = secs(start);
    Ok((dep, times))
}

impl Deployment {
    /// Moves every tenant's shard servers into one daemon per shard.
    fn lift(&mut self) -> Result<()> {
        let mut hosted: Vec<Vec<(u64, CloudServer)>> =
            (0..self.spec.shards).map(|_| Vec::new()).collect();
        for t in &mut self.tenants {
            for (s, server) in t.router.shards_mut().iter_mut().enumerate() {
                hosted[s].push((t.id, std::mem::take(server)));
            }
        }
        for (s, servers) in hosted.into_iter().enumerate() {
            let _span = obs_span("bench.spawn");
            let config = ServiceConfig::with_workers(DAEMON_WORKERS).with_shard(s as u64);
            self.daemons.push(ShardDaemon::spawn(servers, config)?);
        }
        Ok(())
    }

    /// Shuts the daemons down and hands every tenant its shard servers
    /// back, with the views and counters the daemons recorded.
    pub fn land(&mut self) -> Result<()> {
        let mut returned: Vec<Vec<(u64, CloudServer)>> = self
            .daemons
            .drain(..)
            .map(|d| {
                let _span = obs_span("bench.shutdown");
                d.shutdown()
            })
            .collect();
        for t in &mut self.tenants {
            for (s, servers) in returned.iter_mut().enumerate() {
                let pos = servers
                    .iter()
                    .position(|(id, _)| *id == t.id)
                    .ok_or_else(|| {
                        PdsError::Cloud(format!("shard {s} daemon lost tenant {}", t.id))
                    })?;
                t.router.shards_mut()[s] = servers.swap_remove(pos).1;
            }
        }
        Ok(())
    }
}

/// What one closed-loop client did in one phase.
#[derive(Debug, Default)]
struct ClientLog {
    start: Option<Instant>,
    end: Option<Instant>,
    /// Every completed operation: when, how many, read latency.
    done: Vec<(Instant, u64, Option<f64>)>,
    read_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    queries: u64,
    inserts: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    reconnects: u64,
}

/// Everything one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall-clock seconds from the first client's start to the last
    /// client's end.
    pub wall_s: f64,
    /// Latency of every read call, in ms, ascending.
    pub read_ms: Vec<f64>,
    /// Throughput and read latency of each slice of the window.
    pub slices: Slices,
    /// Latency of every insert, in ms, ascending.
    pub insert_ms: Vec<f64>,
    /// Point queries answered.
    pub queries: u64,
    /// Inserts sent.
    pub inserts: u64,
    /// Operations that erred or answered wrongly.
    pub failed: u64,
    /// Queries served from the owner-side cache.
    pub cache_hits: u64,
    /// Queries that fetched their bin pair from a shard.
    pub cache_misses: u64,
    /// Shard servers' counters over the phase, summed over tenants.
    pub cloud: Metrics,
    /// Owners' counters over the phase, summed over tenants.
    pub owner: Metrics,
    /// Codec buffer-pool counter deltas over the phase.
    pub pool: PoolStats,
    /// Eager reconnects of the tenants' TCP clients.
    pub reconnects: u64,
    /// Requests the daemons served.
    pub daemon_requests: u64,
    /// Requests the daemons answered with an error.
    pub daemon_errors: u64,
    /// CPU seconds the whole process (owners, clients, daemons) used.
    pub cpu_s: f64,
    /// Span self-times, when the phase was traced.
    pub spans: Option<SelfTimes>,
}

impl Phase {
    /// Queries plus inserts in the timed window.
    pub fn ops(&self) -> u64 {
        self.queries + self.inserts
    }

    /// Completed operations per second of the timed window.
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::ratio(self.ops() as f64, self.wall_s)
    }
}

fn drain_into(tracer: Option<&Mutex<SelfTimes>>) {
    if let Some(tracer) = tracer {
        let drained = pds_obs::drain();
        tracer
            .lock()
            .expect("a client thread panicked while folding spans")
            .absorb(drained);
    }
}

/// Sum of every series of counter `name` in a daemon registry.
fn counter_sum(registry: &Registry, name: &str) -> u64 {
    registry
        .render(StatsScope::All)
        .lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` of this process in MB (the kernel's peak resident set).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| PdsError::Config(format!("cannot read process status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| PdsError::Config("no VmHWM in process status".into()))
}

/// User plus system CPU seconds of this process so far, all threads
/// included (`/proc/self/stat`, in the kernel's fixed 100 Hz user ticks).
pub fn process_cpu_s() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| PdsError::Config(format!("cannot read process stat: {e}")))?;
    // Fields after the parenthesised command name, from the state (3rd).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err(PdsError::Config("malformed process stat".into())),
    }
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        returns: after.returns - before.returns,
        reader_grows: after.reader_grows - before.reader_grows,
    }
}

impl Tenant {
    /// Runs the closed loop until `deadline`: each operation is sent only
    /// after the previous one was answered and checked.
    fn drive(
        &mut self,
        transport: &BinTransport,
        deadline: Instant,
        tracer: Option<&Mutex<SelfTimes>>,
    ) -> ClientLog {
        let start = Instant::now();
        let mut log = ClientLog {
            start: Some(start),
            ..ClientLog::default()
        };
        self.input.ops.start_clock(start);
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.input.ops.next_op(now) {
                Op::Read(values) => {
                    let t = Instant::now();
                    let run = {
                        let _span = obs_span("bench.read");
                        self.executor.run_workload_transported(
                            &mut self.owner,
                            &mut self.router,
                            &values,
                            transport,
                        )
                    };
                    let ms = secs(t) * 1e3;
                    log.read_ms.push(ms);
                    log.done
                        .push((Instant::now(), values.len() as u64, Some(ms)));
                    drain_into(tracer);
                    log.queries += values.len() as u64;
                    match run {
                        Ok(run) => {
                            log.cache_hits += run.cache_hits as u64;
                            log.cache_misses += run.cache_misses as u64;
                            log.failed += self.input.truth.count_wrong(&values, &run.answers);
                        }
                        Err(_) => log.failed += values.len() as u64,
                    }
                }
                Op::Insert { value, tuple } => {
                    let t = Instant::now();
                    let done = self.insert(transport, &value, &tuple);
                    log.insert_ms.push(secs(t) * 1e3);
                    log.done.push((Instant::now(), 1, None));
                    drain_into(tracer);
                    log.inserts += 1;
                    match done {
                        Ok(()) => self.input.truth.record_insert(&value, &tuple),
                        Err(_) => log.failed += 1,
                    }
                }
            }
        }
        if let BinTransport::Tcp(client) = transport {
            log.reconnects = client.reconnects();
        }
        log.end = Some(Instant::now());
        log
    }

    /// One clear-text insert: an `InsertRequest` to every shard over a
    /// pooled connection, then the owner-side cache invalidation.
    fn insert(&mut self, transport: &BinTransport, value: &Value, tuple: &Tuple) -> Result<()> {
        let BinTransport::Tcp(client) = transport else {
            return Err(PdsError::Config(
                "the benchmark sends inserts over TCP only".into(),
            ));
        };
        let request = WireMessage::InsertRequest(InsertRequest {
            plain_tuples: vec![tuple.clone()],
            encrypted_rows: Vec::new(),
        });
        for shard in 0..client.shard_count() {
            let mut conn = {
                let _span = obs_span("bench.checkout");
                client.checkout(shard)?
            };
            // An errored connection may be desynchronised: it is dropped,
            // not checked back in.
            let reply = {
                let _span = obs_span("bench.insert_call");
                conn.call(&request)?
            };
            match reply {
                WireMessage::Ack(ack) if ack.items == 1 => {
                    let _span = obs_span("bench.checkin");
                    client.checkin(shard, conn);
                }
                other => {
                    return Err(PdsError::Wire(format!(
                        "insert expected an Ack of 1 item, got {}",
                        other.name()
                    )))
                }
            }
        }
        let _span = obs_span("bench.invalidate");
        self.executor.invalidate_cache_on_insert(value, false);
        Ok(())
    }
}

/// Runs one closed-loop phase of `window`, one client thread per tenant
/// starting together; traced when `traced`.  Over TCP the servers are
/// lifted into fresh daemons for the phase and landed after it, so the
/// phase's counters are its own.
pub fn timed_phase(dep: &mut Deployment, window: Duration, traced: bool) -> Result<Phase> {
    if dep.spec.tcp && dep.daemons.is_empty() {
        dep.lift()?;
    }
    let addrs: Vec<_> = dep.daemons.iter().map(ShardDaemon::addr).collect();
    let registries: Vec<_> = dep.daemons.iter().map(ShardDaemon::registry).collect();
    let tracer = traced.then(|| Mutex::new(SelfTimes::default()));
    let ready = Barrier::new(dep.tenants.len());
    let tcp = dep.spec.tcp;
    let pool_before = pds_proto::pool_stats();
    let cpu_before = process_cpu_s()?;

    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .tenants
            .iter_mut()
            .map(|t| {
                let (addrs, tracer, ready) = (addrs.clone(), tracer.as_ref(), &ready);
                scope.spawn(move || {
                    let transport = if tcp {
                        BinTransport::Tcp(TcpCloudClient::new(t.id, addrs))
                    } else {
                        BinTransport::Threaded
                    };
                    if ready.wait().is_leader() && traced {
                        pds_obs::set_tracing(true);
                    }
                    ready.wait();
                    t.drive(&transport, Instant::now() + window, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    pds_obs::set_tracing(false);
    let cpu_s = process_cpu_s()? - cpu_before;
    let pool_after = pds_proto::pool_stats();
    let daemon_requests = registries
        .iter()
        .map(|r| counter_sum(r, "pds_daemon_requests_total"))
        .sum();
    let daemon_errors = registries
        .iter()
        .map(|r| counter_sum(r, "pds_daemon_request_errors_total"))
        .sum();
    dep.land()?;
    // Daemon spans close by the time their threads are joined.
    drain_into(tracer.as_ref());

    let mut phase = Phase {
        pool: pool_delta(pool_after, pool_before),
        cpu_s,
        daemon_requests,
        daemon_errors,
        spans: tracer.map(|t| t.into_inner().expect("span tracer poisoned")),
        ..Phase::default()
    };
    let start = logs.iter().filter_map(|l| l.start).min();
    let end = logs.iter().filter_map(|l| l.end).max();
    if let (Some(start), Some(end)) = (start, end) {
        phase.wall_s = end.duration_since(start).as_secs_f64();
        let since = |t: Instant| t.duration_since(start).as_secs_f64();
        let timelines: Vec<Timeline> = logs
            .iter()
            .map(|l| Timeline {
                start_s: l.start.map_or(0.0, since),
                done: l
                    .done
                    .iter()
                    .map(|&(at, ops, read_ms)| Done {
                        at_s: since(at),
                        ops,
                        read_ms,
                    })
                    .collect(),
            })
            .collect();
        phase.slices = Slices::new(&timelines, window.as_secs_f64(), SLICES);
    }
    for timed in logs {
        phase.failed += timed.failed;
        phase.read_ms.extend(timed.read_ms);
        phase.insert_ms.extend(timed.insert_ms);
        phase.queries += timed.queries;
        phase.inserts += timed.inserts;
        phase.cache_hits += timed.cache_hits;
        phase.cache_misses += timed.cache_misses;
        phase.reconnects += timed.reconnects;
    }
    phase.read_ms.sort_by(f64::total_cmp);
    phase.insert_ms.sort_by(f64::total_cmp);
    for t in &mut dep.tenants {
        phase.cloud.absorb(&t.router.metrics());
        phase.owner.absorb(t.owner.metrics());
        t.router.reset_metrics();
        t.owner.reset_metrics();
    }
    Ok(phase)
}

/// The untimed priming pass of a cached workload: every value once per
/// tenant, in read calls of the workload's batch size, with the cache on.
///
/// The cache serves a bin pair only after the cloud has seen it fetched
/// together once, so under Zipf draws alone the set of servable pairs
/// grows with every rare value the stream happens to reach and throughput
/// keeps rising for tens of seconds.  After one pass every pair is
/// servable and the timed window is steady: its hit ratio is that of the
/// LRU on the Zipf stream.  Returns (attempted, failed); a workload
/// without a cache is not primed.
pub fn prime(dep: &mut Deployment, values: &[Value]) -> (u64, u64) {
    let mut failed = 0;
    let mut attempted = 0;
    if dep.spec.cache_bins == 0 {
        return (0, 0);
    }
    for t in &mut dep.tenants {
        for chunk in values.chunks(dep.spec.batch) {
            attempted += chunk.len() as u64;
            let run = {
                let _span = obs_span("bench.prime");
                t.executor.run_workload_transported(
                    &mut t.owner,
                    &mut t.router,
                    chunk,
                    &BinTransport::Threaded,
                )
            };
            match run {
                Ok(run) => failed += t.input.truth.count_wrong(chunk, &run.answers),
                Err(_) => failed += chunk.len() as u64,
            }
        }
        t.router.reset_metrics();
        t.owner.reset_metrics();
    }
    (attempted, failed)
}

/// The untimed exhaustive pass: every value once per tenant, in-process
/// with the cache off so every bin pair reaches a shard and the bin
/// co-occurrence graph is complete.  Returns (attempted, failed).
pub fn exhaustive_pass(dep: &mut Deployment, values: &[Value]) -> (u64, u64) {
    let mut failed = 0;
    let mut attempted = 0;
    for t in &mut dep.tenants {
        t.executor.set_cache_capacity(0);
        for chunk in values.chunks(CHECK_BATCH) {
            attempted += chunk.len() as u64;
            match t.executor.run_workload_transported(
                &mut t.owner,
                &mut t.router,
                chunk,
                &BinTransport::Threaded,
            ) {
                Ok(run) => failed += t.input.truth.count_wrong(chunk, &run.answers),
                Err(_) => failed += chunk.len() as u64,
            }
        }
    }
    (attempted, failed)
}

/// `view` with each distinct episode once — minus the first one when
/// `drop_first` (fault injection).
///
/// Episodes are distinct by their sorted sensitive ids and sorted
/// clear-text request.  The checker's verdict depends only on the set of
/// such episodes: the bin co-occurrence edges, each encrypted tuple's
/// candidate values and the set of sensitive output sizes are all unions
/// over episodes.  Repeats add nothing but checking time, which grows
/// with every repeat the timed phase made.
pub fn distinct_episodes(view: &AdversarialView, drop_first: bool) -> AdversarialView {
    let mut seen = HashSet::new();
    let mut out = AdversarialView::new();
    for ep in view.episodes() {
        let mut ids = ep.sensitive_returned.clone();
        ids.sort_unstable();
        let mut request = ep.plaintext_request.clone();
        request.sort_by_key(Value::encode);
        if !seen.insert((ids, request)) || (drop_first && seen.len() == 1) {
            continue;
        }
        out.begin_episode();
        out.observe_plaintext_request(&ep.plaintext_request);
        out.observe_encrypted_request(ep.encrypted_request_size);
        out.observe_nonsensitive_result(&ep.nonsensitive_returned, &ep.nonsensitive_values);
        out.observe_sensitive_result(&ep.sensitive_returned);
        out.end_episode();
    }
    out
}

/// Partitioned security of every tenant's per-shard and composed views.
pub fn secure(dep: &Deployment, inject: Inject) -> bool {
    dep.tenants.iter().all(|t| {
        let views = t.router.adversarial_views();
        let first = views.iter().position(|v| !v.is_empty());
        let distinct: Vec<AdversarialView> = views
            .iter()
            .enumerate()
            .map(|(s, v)| distinct_episodes(v, inject == Inject::DropEpisode && first == Some(s)))
            .collect();
        let refs: Vec<&AdversarialView> = distinct.iter().collect();
        let _span = obs_span("bench.security_check");
        check_sharded_partitioned_security(&refs).is_secure()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sum_adds_every_labelled_series() {
        let r = Registry::new();
        r.counter_add("pds_x_total", &[("shard", "0"), ("tenant", "1")], 3);
        r.counter_add("pds_x_total", &[("shard", "0"), ("tenant", "2")], 4);
        r.counter_add("pds_x_total_other", &[("shard", "0")], 100);
        assert_eq!(counter_sum(&r, "pds_x_total"), 7);
        assert_eq!(counter_sum(&r, "pds_missing_total"), 0);
    }

    fn view(episodes: &[(&[u64], &[i64])]) -> AdversarialView {
        let mut av = AdversarialView::new();
        for (ids, values) in episodes {
            av.begin_episode();
            av.observe_plaintext_request(
                &values.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
            );
            av.observe_sensitive_result(
                &ids.iter()
                    .map(|&i| pds_common::TupleId::new(i))
                    .collect::<Vec<_>>(),
            );
            av.end_episode();
        }
        av
    }

    #[test]
    fn distinct_episodes_keep_the_verdict_and_dropping_one_breaks_it() {
        use pds_adversary::check_partitioned_security;
        // Two sensitive bins × two clear-text bins, every pair seen, some
        // pairs repeated (one in another order).
        let v = view(&[
            (&[1, 2], &[10, 11]),
            (&[1, 2], &[12, 13]),
            (&[3, 4], &[10, 11]),
            (&[3, 4], &[12, 13]),
            (&[2, 1], &[11, 10]),
            (&[3, 4], &[12, 13]),
        ]);
        let d = distinct_episodes(&v, false);
        assert_eq!(d.len(), 4);
        let (full, dedup) = (
            check_partitioned_security(&v),
            check_partitioned_security(&d),
        );
        assert!(full.is_secure() && dedup.is_secure());
        assert_eq!(
            (
                full.dropped_matches,
                full.min_ambiguity,
                full.distinct_output_sizes
            ),
            (
                dedup.dropped_matches,
                dedup.min_ambiguity,
                dedup.distinct_output_sizes
            )
        );
        let dropped = distinct_episodes(&v, true);
        assert_eq!(dropped.len(), 3);
        assert!(!check_partitioned_security(&dropped).is_secure());
        // Unequal sensitive output sizes stay visible after de-duplication.
        let leaky = view(&[(&[1, 2], &[10]), (&[3], &[11]), (&[3], &[11])]);
        assert!(!check_partitioned_security(&distinct_episodes(&leaky, false)).is_secure());
    }

    #[test]
    fn process_readings_are_live() {
        let before = process_cpu_s().unwrap();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s().unwrap() >= before + 0.05);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|f| f.name), Some(s.name));
            assert!(s.tenants <= 2, "at most two client threads");
            assert!(s.insert_every.is_none() || s.tcp, "inserts travel over TCP");
        }
        assert!(spec("nope").is_none());
    }
}
