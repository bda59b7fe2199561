//! Dispatch of per-shard episode streams — sequential, on real OS threads,
//! or over TCP to shard daemons.
//!
//! The [`crate::ShardRouter`]'s `parallel_comm_time` is a *model*: the
//! max-over-shards simulated seconds a workload would take if the shards
//! were independent machines.  [`BinTransport`] turns that estimate into a
//! *measurement*: each shard's stream of bin fetches runs as one task with
//! exclusive use of its shard's [`ShardLink`], and
//! [`BinTransport::Threaded`] and [`BinTransport::Tcp`] fan the tasks out
//! on scoped `std::thread`s so genuinely overlapped work can be timed with
//! a wall clock.
//!
//! The dispatcher is deliberately engine-agnostic: tasks are plain `Send`
//! closures over a [`ShardLink`], so `pds-core` can capture each shard's
//! engine and a forked owner without this crate knowing either type.  An
//! in-process link is a disjoint `&mut` borrow of one shard slot (no
//! locks, no shared mutability); a TCP link names the shard daemon behind
//! the transport's pooled client.

use std::time::Instant;

use pds_common::Result;
use pds_proto::{NetSim, RoundTrip, SimReport};

use crate::network::NetworkModel;
use crate::server::CloudServer;
use crate::tcp::TcpCloudClient;

/// How per-shard work is dispatched to the shards of a deployment.
#[derive(Debug, Clone, Default)]
pub enum BinTransport {
    /// One shard after another on the calling thread.  Useful as a
    /// baseline and for deterministic debugging.
    Sequential,
    /// One scoped OS thread per shard that has work: fetches genuinely
    /// overlap, so the measured wall-clock reflects real parallelism.
    #[default]
    Threaded,
    /// Deterministic single-threaded execution plus an **event-driven
    /// network simulation**: every wire frame the tasks move is replayed
    /// through [`pds_proto::NetSim`] over one link per shard with the given
    /// latency/bandwidth, and the report's
    /// [`DispatchReport::sim_wall_clock_sec`] is the simulated makespan —
    /// per-shard latency genuinely overlaps, unlike the thread-based
    /// transport which only overlaps compute.
    Simulated(NetworkModel),
    /// Real sockets: one scoped OS thread per shard with work, exactly as
    /// [`BinTransport::Threaded`], but each task gets a
    /// [`ShardLink::Tcp`] to the per-shard
    /// [`crate::service::ShardDaemon`] behind this pooled client instead
    /// of the in-process shard slot.  The shards live in the daemons'
    /// address space, so the slots passed to [`BinTransport::dispatch`]
    /// only fix the shard count.
    Tcp(TcpCloudClient),
}

impl PartialEq for BinTransport {
    fn eq(&self, other: &BinTransport) -> bool {
        match (self, other) {
            (BinTransport::Sequential, BinTransport::Sequential) => true,
            (BinTransport::Threaded, BinTransport::Threaded) => true,
            (BinTransport::Simulated(a), BinTransport::Simulated(b)) => a == b,
            // Client handles are equal when they share the same pools.
            (BinTransport::Tcp(a), BinTransport::Tcp(b)) => a.same_client(b),
            _ => false,
        }
    }
}

/// What one shard task talks to: the shard itself, in this process, or
/// the shard daemon behind a TCP client.
#[derive(Debug)]
pub enum ShardLink<'a> {
    /// The shard's server, borrowed exclusively for the task.
    Local(&'a mut CloudServer),
    /// Shard `shard` of the daemon deployment `client` spans.
    Tcp {
        /// The pooled client the task checks connections out of.
        client: &'a TcpCloudClient,
        /// The shard (daemon) index.
        shard: usize,
    },
}

/// The outcome of one fan-out: per-shard task outputs (`None` for shards
/// that had no task) plus the measured wall-clock of the whole dispatch.
#[derive(Debug)]
pub struct DispatchReport<T> {
    /// One slot per shard, aligned with the shard slice passed in.
    pub per_shard: Vec<Option<T>>,
    /// Measured wall-clock seconds from first spawn to last join.
    pub wall_clock_sec: f64,
    /// Simulated-network wall-clock of the fan-out's wire traffic
    /// (`Some` for [`BinTransport::Simulated`], `None` otherwise).
    pub sim_wall_clock_sec: Option<f64>,
}

/// Replays per-shard wire traffic through the event-driven simulator over
/// identical `link` links (one per traffic stream) and returns the
/// simulation report.  This is how a *recorded* run — whatever transport
/// executed it — gets its simulated-network wall-clock.
pub fn simulate_wire_traffic(
    link: NetworkModel,
    per_shard: &[Vec<RoundTrip>],
) -> Result<SimReport> {
    NetSim::uniform(per_shard.len().max(1), link.link_spec())?.run(per_shard)
}

impl BinTransport {
    /// Runs at most one task per shard, each with exclusive use of its
    /// shard's link, and measures the elapsed wall-clock.
    ///
    /// `tasks` must be no longer than `shards`; missing trailing entries
    /// are treated as `None`.  A panicking task propagates its panic after
    /// all other tasks have joined (scoped threads guarantee the join).
    pub fn dispatch<T, F>(
        &self,
        shards: &mut [CloudServer],
        tasks: Vec<Option<F>>,
    ) -> DispatchReport<T>
    where
        F: for<'l> FnOnce(ShardLink<'l>) -> T + Send,
        T: Send,
    {
        assert!(
            tasks.len() <= shards.len(),
            "got {} tasks for {} shards",
            tasks.len(),
            shards.len()
        );
        let shard_count = shards.len();
        let start = Instant::now();
        let mut sim_wall_clock_sec = None;
        let mut per_shard: Vec<Option<T>> = match self {
            BinTransport::Sequential => run_in_turn(shards, tasks),
            BinTransport::Threaded => {
                run_on_threads(shards.iter_mut().map(ShardLink::Local), tasks)
            }
            BinTransport::Tcp(client) => run_on_threads(
                (0..shard_count).map(|shard| ShardLink::Tcp { client, shard }),
                tasks,
            ),
            BinTransport::Simulated(link) => {
                // Validate the link config up front, before any shard task
                // runs: a bad NetworkModel is a caller bug and must fail
                // with its own message, not a mislabeled one afterwards.
                let sim = NetSim::uniform(shards.len(), link.link_spec()).expect(
                    "BinTransport::Simulated needs a valid link: latency >= 0, bandwidth > 0",
                );
                // Deterministic sequential execution; the *network* overlap
                // comes from replaying the wire frames each task moved
                // through the event simulator afterwards.
                let wire_start: Vec<usize> = shards.iter().map(|s| s.wire_log().len()).collect();
                let out = run_in_turn(shards, tasks);
                let traffic: Vec<Vec<RoundTrip>> = shards
                    .iter()
                    .zip(&wire_start)
                    .map(|(s, &from)| s.wire_log()[from..].to_vec())
                    .collect();
                let report = sim
                    .run(&traffic)
                    .expect("one traffic stream per shard link, by construction");
                sim_wall_clock_sec = Some(report.makespan_sec);
                out
            }
        };
        per_shard.resize_with(shard_count, || None);
        DispatchReport {
            per_shard,
            wall_clock_sec: start.elapsed().as_secs_f64(),
            sim_wall_clock_sec,
        }
    }
}

/// One in-process shard task after another on the calling thread.
fn run_in_turn<T, F>(shards: &mut [CloudServer], tasks: Vec<Option<F>>) -> Vec<Option<T>>
where
    F: for<'l> FnOnce(ShardLink<'l>) -> T,
{
    shards
        .iter_mut()
        .zip(tasks)
        .map(|(shard, task)| task.map(|f| f(ShardLink::Local(shard))))
        .collect()
}

/// One scoped OS thread per task, each owning its shard's link; joins
/// every thread before re-raising the first task panic.
fn run_on_threads<'l, T, F>(
    links: impl Iterator<Item = ShardLink<'l>>,
    tasks: Vec<Option<F>>,
) -> Vec<Option<T>>
where
    F: FnOnce(ShardLink<'l>) -> T + Send,
    T: Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .zip(tasks)
            .map(|(link, task)| task.map(|f| scope.spawn(move || f(link))))
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.map(|h| h.join())).collect();
        joined
            .into_iter()
            .map(|slot| slot.map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::store::EncryptedRow;
    use pds_common::TupleId;
    use pds_crypto::NonDetCipher;

    fn local(link: ShardLink<'_>) -> &mut CloudServer {
        match link {
            ShardLink::Local(shard) => shard,
            other => panic!("expected an in-process link, got {other:?}"),
        }
    }

    fn shards(n: usize) -> Vec<CloudServer> {
        (0..n)
            .map(|_| CloudServer::new(NetworkModel::paper_wan()))
            .collect()
    }

    fn rows(base: u64, n: u64) -> Vec<EncryptedRow> {
        let cipher = NonDetCipher::from_seed(3);
        let mut rng = pds_common::rng::seeded_rng(base);
        (0..n)
            .map(|i| EncryptedRow {
                id: TupleId::new(base + i),
                attr_ct: cipher.encrypt(b"attr", &mut rng),
                tuple_ct: cipher.encrypt(b"tuple", &mut rng),
                search_tags: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn both_transports_mutate_their_own_shard_slot() {
        for transport in [BinTransport::Sequential, BinTransport::Threaded] {
            let mut servers = shards(3);
            let tasks: Vec<Option<_>> = (0..3u64)
                .map(|i| {
                    Some(move |link: ShardLink<'_>| {
                        let shard = local(link);
                        shard.upload_encrypted(rows(i * 100, i + 1)).unwrap();
                        shard.encrypted_len()
                    })
                })
                .collect();
            let report = transport.dispatch(&mut servers, tasks);
            assert_eq!(report.per_shard, vec![Some(1), Some(2), Some(3)]);
            for (i, shard) in servers.iter().enumerate() {
                assert_eq!(shard.encrypted_len(), i + 1, "{transport:?}");
            }
            assert!(report.wall_clock_sec >= 0.0);
        }
    }

    type BoxedTask = Box<dyn FnOnce(ShardLink<'_>) -> usize + Send>;

    #[test]
    fn shards_without_tasks_are_untouched() {
        let mut servers = shards(4);
        // Only shard 1 gets work; trailing shards get implicit None.
        let tasks: Vec<Option<BoxedTask>> = vec![
            None,
            Some(Box::new(|link: ShardLink<'_>| {
                local(link).upload_encrypted(rows(0, 2)).unwrap();
                2
            })),
        ];
        let report = BinTransport::Threaded.dispatch(&mut servers, tasks);
        assert_eq!(report.per_shard, vec![None, Some(2), None, None]);
        assert_eq!(servers[0].encrypted_len(), 0);
        assert_eq!(servers[1].encrypted_len(), 2);
    }

    #[test]
    fn threaded_overlap_beats_or_matches_sequential_on_sleeps() {
        // Four tasks sleeping 20ms each: sequential needs ~80ms, threaded
        // ~20ms per batch (on a single-core box the threads still overlap
        // their sleeps).  Generous bounds keep this robust under CI noise.
        let sleep_task =
            |_: ShardLink<'_>| std::thread::sleep(std::time::Duration::from_millis(20));
        let mut servers = shards(4);
        let seq = BinTransport::Sequential
            .dispatch(&mut servers, (0..4).map(|_| Some(sleep_task)).collect());
        let thr = BinTransport::Threaded
            .dispatch(&mut servers, (0..4).map(|_| Some(sleep_task)).collect());
        assert!(seq.wall_clock_sec >= 0.079, "{}", seq.wall_clock_sec);
        assert!(
            thr.wall_clock_sec < seq.wall_clock_sec,
            "threaded {} must overlap the sleeps, sequential was {}",
            thr.wall_clock_sec,
            seq.wall_clock_sec
        );
    }

    #[test]
    fn simulated_transport_reports_an_overlapped_makespan() {
        // Each shard task fetches its own rows, moving real wire frames.
        let link = NetworkModel {
            bandwidth_bytes_per_sec: 1.0e6,
            latency_sec: 0.02,
        };
        let run = |n: usize| {
            let mut servers = shards(4);
            let tasks: Vec<Option<_>> = (0..n as u64)
                .map(|i| {
                    Some(move |link: ShardLink<'_>| {
                        let shard = local(link);
                        shard.upload_encrypted(rows(i * 100, 3)).unwrap();
                        shard.scan_encrypted().len()
                    })
                })
                .collect();
            BinTransport::Simulated(link).dispatch(&mut servers, tasks)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(four.per_shard, vec![Some(3); 4]);
        let one_sim = one.sim_wall_clock_sec.expect("simulated");
        let four_sim = four.sim_wall_clock_sec.expect("simulated");
        assert!(one_sim > 0.0);
        // Four shards moving 4x the traffic of one shard finish in far
        // less than 4x the single-shard simulated time: latency and
        // transfer genuinely overlap across links.
        assert!(
            four_sim < 4.0 * one_sim,
            "simulated {four_sim} must overlap vs serial {}",
            4.0 * one_sim
        );
        // Sequential/Threaded transports report no simulated clock.
        let mut servers = shards(1);
        let report = BinTransport::Sequential
            .dispatch::<usize, _>(&mut servers, vec![Some(|_: ShardLink<'_>| 1)]);
        assert!(report.sim_wall_clock_sec.is_none());
    }

    #[test]
    fn simulate_wire_traffic_matches_the_network_model_on_one_link() {
        let link = NetworkModel {
            bandwidth_bytes_per_sec: 1000.0,
            latency_sec: 0.5,
        };
        let traffic = vec![vec![
            pds_proto::RoundTrip {
                up_bytes: 250,
                down_bytes: 250,
            },
            pds_proto::RoundTrip {
                up_bytes: 0,
                down_bytes: 500,
            },
        ]];
        let report = simulate_wire_traffic(link, &traffic).unwrap();
        // Two round trips of (latency 0.5 + 500B/1000Bps) = 1.0s each.
        assert!((report.makespan_sec - 2.0).abs() < 1e-12, "{report:?}");
        assert_eq!(report.total_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "tasks for")]
    fn more_tasks_than_shards_is_a_bug() {
        let mut servers = shards(1);
        let tasks: Vec<Option<fn(ShardLink<'_>)>> = vec![Some(|_| {}), Some(|_| {})];
        let _ = BinTransport::Sequential.dispatch(&mut servers, tasks);
    }
}
