//! The benchmark's own arithmetic: nearest-rank percentiles, medians,
//! per-slice throughput and latency, and span self-times.

use std::collections::{BTreeMap, HashMap};

use pds_obs::{DrainResult, TraceEvent};

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.  Empty → 0.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0 (a layer the workload never
/// reaches).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Nanoseconds spent per operation, in microseconds.
pub fn us_per_op(ns: u64, ops: u64) -> f64 {
    ratio(ns as f64 / 1e3, ops as f64)
}

/// One operation a closed-loop client completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    /// Completion time, seconds from the phase start.
    pub at_s: f64,
    /// Operations it completed (point queries of a read call, or 1).
    pub ops: u64,
    /// Latency in ms, when it was a read call.
    pub read_ms: Option<f64>,
}

/// One closed-loop client's phase: when it started and what it completed,
/// in completion order.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Start time, seconds from the phase start.
    pub start_s: f64,
    /// Completed operations, in order.
    pub done: Vec<Done>,
}

/// Throughput and read latency of each of `slices` equal slices of a
/// `window_s` window, whose medians are the reported figures: a burst of
/// load on a shared host skews the few slices it falls in, not the median.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slices {
    /// Operations per second in each slice where any client completed
    /// one.
    pub ops_per_s: Vec<f64>,
    /// Nearest-rank p50 of the read calls completed in each slice that
    /// has one, in ms.
    pub read_p50_ms: Vec<f64>,
}

impl Slices {
    /// Splits `clients`' completions into `slices` slices of `window_s`.
    /// Completions past the window are left out.
    ///
    /// A client's rate in a slice is the operations it completed there
    /// over the time from its last completion before the slice (or its
    /// start) to its last completion in it: in a closed loop that is
    /// exactly the time those operations took, with no rounding to whole
    /// calls at the slice edges.  The slice's rate sums its clients'.
    pub fn new(clients: &[Timeline], window_s: f64, slices: usize) -> Slices {
        let mut out = Slices::default();
        let width = window_s / slices as f64;
        for i in 0..slices {
            let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
            let mut rate = 0.0;
            let mut any = false;
            let mut reads = Vec::new();
            for c in clients {
                let before = c.done.iter().take_while(|d| d.at_s < lo).last();
                let inside: Vec<&Done> = c
                    .done
                    .iter()
                    .skip_while(|d| d.at_s < lo)
                    .take_while(|d| d.at_s < hi)
                    .collect();
                let Some(last) = inside.last() else { continue };
                let from = before.map_or(c.start_s, |d| d.at_s);
                let ops: u64 = inside.iter().map(|d| d.ops).sum();
                rate += ratio(ops as f64, last.at_s - from);
                any = true;
                reads.extend(inside.iter().filter_map(|d| d.read_ms));
            }
            if any {
                out.ops_per_s.push(rate);
            }
            if !reads.is_empty() {
                reads.sort_by(f64::total_cmp);
                out.read_p50_ms.push(nearest_rank(&reads, 50.0));
            }
        }
        out
    }
}

/// Running per-name self-time totals over successive trace drains.
///
/// A span's self time is its duration minus the durations of its direct
/// children.  A child closes before its parent on the same thread, so it
/// arrives in the same drain as its parent or an earlier one: children's
/// durations are parked under the parent's id until the parent arrives.
#[derive(Debug, Default)]
pub struct SelfTimes {
    children_ns: HashMap<u64, u64>,
    self_ns: BTreeMap<String, u64>,
    count: BTreeMap<String, u64>,
    dropped: u64,
}

impl SelfTimes {
    /// Folds one drain in.
    pub fn absorb(&mut self, drained: DrainResult) {
        self.dropped += drained.dropped;
        self.absorb_events(&drained.events);
    }

    /// Folds a batch of closed spans in.
    pub fn absorb_events(&mut self, events: &[TraceEvent]) {
        for ev in events.iter().filter(|ev| ev.parent != 0) {
            *self.children_ns.entry(ev.parent).or_default() += ev.end_ns - ev.start_ns;
        }
        for ev in events {
            let children = self.children_ns.remove(&ev.id).unwrap_or(0);
            let own = (ev.end_ns - ev.start_ns).saturating_sub(children);
            *self.self_ns.entry(ev.name.clone()).or_default() += own;
            *self.count.entry(ev.name.clone()).or_default() += 1;
        }
    }

    /// Total self time of spans named exactly `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Total self time of every span whose name starts with `prefix`
    /// (`"episode."` sums the whole phase).
    pub fn prefix_ns(&self, prefix: &str) -> u64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Number of spans named exactly `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Spans lost to ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            thread: 1,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 50.0), 5.0);
        assert_eq!(nearest_rank(&sample, 90.0), 9.0);
        assert_eq!(nearest_rank(&sample, 91.0), 10.0);
        assert_eq!(nearest_rank(&sample, 100.0), 10.0);
        assert_eq!(nearest_rank(&sample, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.5], 90.0), 7.5);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        // 1..=20: p50 is the 10th value, p90 the 18th.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&twenty, 50.0), 10.0);
        assert_eq!(nearest_rank(&twenty, 90.0), 18.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn done(at_s: f64, ops: u64, read_ms: Option<f64>) -> Done {
        Done { at_s, ops, read_ms }
    }

    #[test]
    fn slices_rate_over_the_time_their_operations_took() {
        // Slices [0,1) and [1,2).  Client a completes 64-query reads at
        // 0.5, 0.9 and 1.5 s; client b inserts at 0.2 and 1.2 s and once
        // more past the window.
        let a = Timeline {
            start_s: 0.1,
            done: vec![
                done(0.5, 64, Some(400.0)),
                done(0.9, 64, Some(400.0)),
                done(1.5, 64, Some(600.0)),
            ],
        };
        let b = Timeline {
            start_s: 0.0,
            done: vec![done(0.2, 1, None), done(1.2, 1, None), done(2.5, 1, None)],
        };
        let s = Slices::new(&[a, b], 2.0, 2);
        // Slice 0: a did 128 queries in 0.8 s, b 1 insert in 0.2 s.
        // Slice 1: a did 64 in 0.6 s (0.9 → 1.5), b 1 in 1.0 s.
        let want = [128.0 / 0.8 + 1.0 / 0.2, 64.0 / 0.6 + 1.0 / 1.0];
        assert_eq!(s.ops_per_s.len(), 2);
        for (got, want) in s.ops_per_s.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(s.read_p50_ms, vec![400.0, 600.0]);
    }

    #[test]
    fn slices_without_completions_are_left_out() {
        let a = Timeline {
            start_s: 0.0,
            done: vec![done(0.5, 2, Some(1.0)), done(2.5, 2, None)],
        };
        let s = Slices::new(&[a], 3.0, 3);
        assert_eq!(s.ops_per_s, vec![4.0, 1.0]);
        assert_eq!(s.read_p50_ms, vec![1.0]);
        assert_eq!(Slices::new(&[], 1.0, 4), Slices::default());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // read [0,100] ⊃ plan [10,20] and episode [20,90] ⊃ engine [30,60];
        // daemon.queue is a root on another thread.
        let spans = vec![
            ev(1, 0, "bench.read", 0, 100),
            ev(2, 1, "plan.compile", 10, 20),
            ev(3, 1, "episode.execute", 20, 90),
            ev(4, 3, "engine.call", 30, 60),
            ev(5, 0, "daemon.queue", 40, 45),
        ];
        let mut st = SelfTimes::default();
        st.absorb_events(&spans);
        assert_eq!(st.self_ns("bench.read"), 100 - 10 - 70);
        assert_eq!(st.self_ns("plan.compile"), 10);
        assert_eq!(st.self_ns("episode.execute"), 70 - 30);
        assert_eq!(st.self_ns("engine.call"), 30);
        assert_eq!(st.self_ns("daemon.queue"), 5);
        assert_eq!(st.prefix_ns("e"), 40 + 30);
        assert_eq!(st.count("plan.compile"), 1);
        // Self times partition the root's interval on its thread.
        let thread_total: u64 = [
            "bench.read",
            "plan.compile",
            "episode.execute",
            "engine.call",
        ]
        .iter()
        .map(|n| st.self_ns(n))
        .sum();
        assert_eq!(thread_total, 100);
    }

    #[test]
    fn children_drained_before_their_parent_still_count() {
        let mut st = SelfTimes::default();
        st.absorb(DrainResult {
            events: vec![ev(2, 1, "wire.call", 10, 40)],
            dropped: 0,
        });
        st.absorb(DrainResult {
            events: vec![ev(1, 0, "bench.read", 0, 50)],
            dropped: 3,
        });
        assert_eq!(st.self_ns("bench.read"), 20);
        assert_eq!(st.self_ns("wire.call"), 30);
        assert_eq!(st.dropped(), 3);
    }

    #[test]
    fn per_op_normalisation() {
        // Two reads of 64 queries: 1.28 ms of episode self time over 128
        // queries is 10 µs per query.
        assert_eq!(us_per_op(1_280_000, 128), 10.0);
        assert_eq!(us_per_op(5_000, 0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
