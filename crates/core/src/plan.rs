//! Query plans: the compiled form of a Query Binning batch, and the one
//! function that executes them.
//!
//! Every entry point of the executor — [`crate::QbExecutor::select`],
//! [`crate::QbExecutor::fetch_bin_pair`],
//! [`crate::QbExecutor::run_workload_transported`] — first **compiles** its
//! queries into a [`QueryPlan`] and then **executes** each shard's steps
//! through [`execute_shard`] over that shard's [`ShardLink`]:
//!
//! ```text
//! values ──compile──► QueryPlan ──execute_shard──► answers
//!                      │ cache_served   (answered owner-side, 0 rounds)
//!                      │ per_shard[s]   (EpisodeSteps, one per bin pair)
//!                      │ waiters        (in-batch repeats, resolved last)
//!                      ▼
//!             ShardLink(shard s) ── in-process: CloudSession, one episode per step
//!                                └─ TCP: a window of composed frames in flight
//! ```
//!
//! Each [`EpisodeStep`] is one adversarial-view episode on the shard
//! hosting its sensitive bin.  A step is either **composed** — the back-end
//! answers the whole bin-pair request in a single
//! `BinPairRequest`/`BinPayload` round — or **fine-grained**, the
//! multi-round §V-B procedure, chosen per shard from the engine's
//! [`SecureSelectionEngine::composes_episodes`] capability and the
//! executor's [`PlanMode`].  Fine-grained steps need the server in
//! process; over TCP they are refused with a typed error.

use std::collections::VecDeque;

use pds_cloud::{
    BinEpisodeRequest, CloudServer, CloudSession, CorrelationWindow, DbOwner, ShardLink,
    TcpCloudClient,
};
use pds_common::{PdsError, Result};
use pds_storage::Tuple;
use pds_systems::{fine_grained_bin_episode, BinEpisodeOutcome, SecureSelectionEngine};

use crate::binning::BinPair;

/// How the executor chooses the wire shape of each episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Engines that can answer a composed bin-pair request in one round do
    /// so; multi-round engines fall back to the fine-grained path.
    #[default]
    Composed,
    /// Every episode runs the fine-grained multi-round path, whatever the
    /// engine supports — the pre-refactor behaviour, kept selectable so
    /// equivalence tests and the `experiments wire` rounds gate can compare
    /// the two paths on identical deployments.
    FineGrained,
}

/// One planned bin-pair episode: which answer slot it serves, which shard
/// hosts it, and the full request the engine will execute.
#[derive(Debug, Clone)]
pub struct EpisodeStep {
    /// Position in the batch's answer vector this episode serves.
    pub index: usize,
    /// The bin pair being retrieved.
    pub pair: BinPair,
    /// Shard hosting the sensitive bin (the whole episode runs there).
    pub shard: usize,
    /// Whether the episode runs as one composed single-round request.
    pub composed: bool,
    /// The bin-pair request handed to the back-end.
    pub request: BinEpisodeRequest,
}

/// A pair retrieval answered owner-side from the hot-bin cache during
/// planning (no cloud interaction, zero rounds).
#[derive(Debug, Clone)]
pub struct CacheServed {
    /// Position in the batch's answer vector.
    pub index: usize,
    /// The pair the cache served.
    pub pair: BinPair,
    /// Cached clear-text tuples of the non-sensitive bin.
    pub nonsensitive: Vec<Tuple>,
    /// Cached decrypted tuples of the sensitive bin.
    pub sensitive: Vec<Tuple>,
}

/// The compiled form of one query batch.
#[derive(Debug, Default)]
pub struct QueryPlan {
    /// Episode steps grouped by home shard, in batch order within a shard.
    pub per_shard: Vec<Vec<EpisodeStep>>,
    /// Retrievals served from the owner-side cache at planning time.
    pub cache_served: Vec<CacheServed>,
    /// In-batch repeats of a pending pair: they wait for the first
    /// occurrence's fetch and are resolved against the cache afterwards.
    pub waiters: Vec<(usize, BinPair)>,
}

impl QueryPlan {
    /// An empty plan over `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        QueryPlan {
            per_shard: (0..shard_count).map(|_| Vec::new()).collect(),
            cache_served: Vec::new(),
            waiters: Vec::new(),
        }
    }

    /// Number of episodes the plan sends to the cloud.
    pub fn step_count(&self) -> usize {
        self.per_shard.iter().map(Vec::len).sum()
    }

    /// Number of episodes that run as composed single-round requests.
    pub fn composed_step_count(&self) -> usize {
        self.per_shard
            .iter()
            .flatten()
            .filter(|s| s.composed)
            .count()
    }
}

/// The outcome of executing one [`EpisodeStep`].
#[derive(Debug)]
pub struct EpisodeResult {
    /// The two result streams, pre-merge.
    pub outcome: BinEpisodeOutcome,
    /// Owner↔cloud rounds the episode took.
    pub rounds: u64,
}

/// One executed step: its answer slot, its bin pair and its outcome.
pub type ShardEpisode = (usize, BinPair, EpisodeResult);

/// Executes one shard's planned steps over its link — the one episode
/// loop every entry point and every transport runs.
///
/// * **In process** ([`ShardLink::Local`]) each step runs as one
///   [`CloudSession`] episode, composed or fine-grained, with its rounds
///   measured from the shard's counters.
/// * **Over TCP** ([`ShardLink::Tcp`]) up to `window` composed requests
///   are framed and written back-to-back (vectored writes, no response
///   awaited in between), and responses are matched back to their steps
///   by correlation id in whatever order the daemon's worker pool
///   finishes them.  Each episode's owner-side work is split across the
///   engine's two halves — [`SecureSelectionEngine::composed_wire_tags`]
///   before the uplink, [`SecureSelectionEngine::finish_composed`] after
///   the downlink — so the client keeps issuing requests while earlier
///   responses are still being computed cloud-side.  `window = 1` is the
///   write-then-read discipline; every TCP episode is one round.
///
/// TCP failure handling:
///
/// * a step that is not composed, or an engine that cannot split its
///   composed episode, is a typed `Wire` error before anything is sent —
///   those episodes need the server in process;
/// * a transported **error frame** aborts the shard — the daemon refused
///   the episode, and replaying it would be refused again;
/// * a **transport failure** (daemon died mid-batch, stream torn) triggers
///   one eager [`TcpCloudClient::reconnect`]; the unanswered episodes are
///   replayed on the fresh connection (safe: composed bin-pair episodes
///   are idempotent reads).  A second failure aborts with a typed error;
/// * a response with an **unknown correlation id** (0 included) is a
///   protocol violation: typed error, no replay — a stream that
///   misattributes responses cannot be trusted with a retry.
pub fn execute_shard<E: SecureSelectionEngine + ?Sized>(
    owner: &mut DbOwner,
    link: ShardLink<'_>,
    engine: &mut E,
    steps: &[EpisodeStep],
    window: usize,
) -> Result<Vec<ShardEpisode>> {
    match link {
        ShardLink::Local(shard) => steps
            .iter()
            .map(|step| {
                Ok((
                    step.index,
                    step.pair,
                    execute_episode(owner, shard, engine, step)?,
                ))
            })
            .collect(),
        ShardLink::Tcp { client, shard } => {
            execute_pipelined(owner, client, shard, engine, steps, window)
        }
    }
}

/// Runs one planned episode in process: opens a [`CloudSession`] episode,
/// runs the composed or fine-grained path, and reports the measured round
/// count.
fn execute_episode<E: SecureSelectionEngine + ?Sized>(
    owner: &mut DbOwner,
    shard: &mut CloudServer,
    engine: &mut E,
    step: &EpisodeStep,
) -> Result<EpisodeResult> {
    let _span = pds_obs::obs_span("episode.execute");
    let mut session = CloudSession::new(shard);
    session.begin_episode();
    let outcome = {
        let _engine_span = pds_obs::obs_span("engine.call");
        if step.composed {
            engine.select_bin_episode(owner, &mut session, &step.request)
        } else {
            fine_grained_bin_episode(engine, owner, &mut session, &step.request)
        }
    };
    let rounds = session.end_episode();
    Ok(EpisodeResult {
        outcome: outcome?,
        rounds,
    })
}

/// The TCP half of [`execute_shard`]: the bounded in-flight window over
/// one daemon connection.
fn execute_pipelined<E: SecureSelectionEngine + ?Sized>(
    owner: &mut DbOwner,
    client: &TcpCloudClient,
    shard: usize,
    engine: &mut E,
    steps: &[EpisodeStep],
    window: usize,
) -> Result<Vec<ShardEpisode>> {
    let _span = pds_obs::obs_span("episode.pipelined");
    let name = engine.name();
    let wire_only = || {
        PdsError::Wire(format!(
            "the {name} back-end plans fine-grained or engine-resolved episodes, which \
             need in-process server access; only composed episodes resolved by the \
             cloud's tag index travel over BinTransport::Tcp"
        ))
    };
    if steps.iter().any(|s| !s.composed) {
        return Err(wire_only());
    }
    let window = window.max(1);
    let mut conn = client.checkout(shard)?;
    let mut inflight = CorrelationWindow::new();
    let mut queue: VecDeque<usize> = (0..steps.len()).collect();
    let mut episodes: Vec<ShardEpisode> = Vec::with_capacity(steps.len());
    let mut reconnected = false;

    while !queue.is_empty() || !inflight.is_empty() {
        // Fill the window: frame and buffer requests, reading nothing back.
        while inflight.len() < window {
            let Some(slot) = queue.pop_front() else { break };
            let step = &steps[slot];
            let tags = engine
                .composed_wire_tags(owner, &step.request)?
                .ok_or_else(wire_only)?;
            let corr = conn.enqueue_bin_pair(&step.request, tags)?;
            inflight.track(corr, slot)?;
        }
        // Put the window on the socket and drain one response;
        // out-of-order completion is expected.
        let received = conn.flush().and_then(|()| conn.recv_bin_pair());
        let (corr, answer) = match received {
            Ok(ok) => ok,
            Err(e) => {
                if reconnected {
                    return Err(e);
                }
                reconnected = true;
                for slot in inflight.drain_slots().into_iter().rev() {
                    queue.push_front(slot);
                }
                conn = client.reconnect(shard)?;
                continue;
            }
        };
        let slot = inflight.resolve(corr)?;
        let step = &steps[slot];
        let (nonsensitive, rows) = answer?;
        let outcome = engine.finish_composed(owner, &step.request, nonsensitive, rows)?;
        episodes.push((step.index, step.pair, EpisodeResult { outcome, rounds: 1 }));
    }
    client.checkin(shard, conn);
    Ok(episodes)
}
