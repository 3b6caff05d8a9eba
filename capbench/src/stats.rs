//! Pure helpers: exact percentiles, the capacity search over a fixed rate
//! ladder, and counter arithmetic over engine stats snapshots.

use std::collections::BTreeMap;

use aloha_common::stats::StatsSnapshot;

/// An exact percentile summary of raw samples, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q * n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` and summarizes them; `None` when there are none.
pub fn summarize(mut samples: Vec<f64>) -> Option<Summary> {
    samples.sort_by(f64::total_cmp);
    Some(Summary {
        count: samples.len(),
        p50: percentile(&samples, 0.50)?,
        p99: percentile(&samples, 0.99)?,
    })
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The second-best of `values`: the second lowest when lower is better,
/// else the second highest; the only value when there is one.
///
/// Other tenants of a shared host only ever add latency and take capacity
/// away, so the best passes are the closest to the program's own speed.
/// The second-best rather than the best keeps one lucky pass from setting
/// a figure alone.
pub fn second_best(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    *v.get(1).or(v.first()).expect("second best of nothing")
}

/// One measured rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The worst p99 as a multiple of its SLO (commit p99 / commit SLO,
    /// read p99 / read SLO): at most 1.0 meets the SLO.
    pub slo_ratio: f64,
    /// Share of the rung's requests completed by the rung's end plus the
    /// commit SLO.
    pub completed_share: f64,
    /// Requests completed within the rung, per second of the rung: the
    /// engine's service rate when the rung saturates it.
    pub throughput: f64,
}

/// Share of due requests that must complete within the rung for it to
/// count as sustained (no growing backlog).
pub const MIN_COMPLETED_SHARE: f64 = 0.99;

impl RungOutcome {
    /// Whether the rung meets the SLO without a growing backlog.
    pub fn passes(&self) -> bool {
        self.slo_ratio <= 1.0 && self.completed_share >= MIN_COMPLETED_SHARE
    }
}

/// The highest sustainable offered rate over an ascending ladder.
///
/// The highest rung that meets the SLO sets a floor. When the rung above
/// it ran and failed:
///
/// * with a growing backlog, the engine was saturated, and the throughput
///   it sustained there is its service rate: the capacity, no less than
///   the throughput the passing rung sustained and no more than the
///   failing rung's rate;
/// * on the SLO alone, the crossing is interpolated on the logarithm of
///   the SLO ratio.
///
/// Either way the result moves smoothly with the engine instead of
/// snapping to a ladder rate. A ladder that never fails reports its top
/// rate; one that never passes scales its first rate down by the SLO
/// ratio.
pub fn capacity(rungs: &[RungOutcome]) -> f64 {
    let Some(best) = rungs.iter().rposition(RungOutcome::passes) else {
        return rungs
            .first()
            .map_or(0.0, |r| r.rate * (1.0 / r.slo_ratio).min(1.0));
    };
    let lo = rungs[best];
    let Some(&hi) = rungs.get(best + 1) else {
        return lo.rate;
    };
    if hi.completed_share < MIN_COMPLETED_SHARE {
        return hi.throughput.max(lo.throughput).min(hi.rate);
    }
    if hi.slo_ratio <= lo.slo_ratio {
        return lo.rate;
    }
    let frac = (-lo.slo_ratio.ln() / (hi.slo_ratio / lo.slo_ratio).ln()).clamp(0.0, 1.0);
    lo.rate + frac * (hi.rate - lo.rate)
}

/// Counter totals of a stats tree, keyed `<component>.<counter>` and summed
/// over every node of the same component. Per-instance suffixes
/// (`server_3`, `gate_s1`) are stripped, so all servers add into
/// `server.*`, all partitions into `partition.*`.
pub fn totals(snapshot: &StatsSnapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    add_totals(snapshot, &mut out);
    out
}

fn add_totals(node: &StatsSnapshot, out: &mut BTreeMap<String, u64>) {
    let kind = component(&node.name);
    for (name, value) in &node.counters {
        *out.entry(format!("{kind}.{name}")).or_insert(0) += value;
    }
    for child in &node.children {
        add_totals(child, out);
    }
}

/// The component of a node name: `server_3` → `server`, `p12` stays.
fn component(name: &str) -> &str {
    if let Some((head, tail)) = name.rsplit_once('_') {
        let digits = tail.strip_prefix('s').unwrap_or(tail);
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return head;
        }
    }
    name
}

/// Sums several counter maps, such as the deltas of every trial of a run.
pub fn merge<'a>(
    parts: impl IntoIterator<Item = &'a BTreeMap<String, u64>>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for part in parts {
        for (k, v) in part {
            *out.entry(k.clone()).or_insert(0) += v;
        }
    }
    out
}

/// `after - before` per counter. Counters absent before count from zero;
/// a counter that went backwards (a restarted component) reads zero.
pub fn delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 1000 samples: p99 is the 990th, leaving ten above it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
    }

    #[test]
    fn summarize_sorts_and_counts() {
        let s = summarize(vec![5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
        assert!(summarize(Vec::new()).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn second_best_ignores_one_outlier_either_way() {
        let passes = [31.0, 29.0, 55.0, 28.0, 30.0];
        assert_eq!(second_best(&passes, true), 29.0);
        assert_eq!(second_best(&passes, false), 31.0);
        assert_eq!(second_best(&[7.0], true), 7.0);
        assert_eq!(second_best(&[7.0], false), 7.0);
    }

    fn rung(rate: f64, slo_ratio: f64) -> RungOutcome {
        RungOutcome {
            rate,
            slo_ratio,
            completed_share: 1.0,
            throughput: rate,
        }
    }

    fn saturated_at(rate: f64, throughput: f64) -> RungOutcome {
        RungOutcome {
            rate,
            slo_ratio: 5.0,
            completed_share: 0.9,
            throughput,
        }
    }

    #[test]
    fn capacity_interpolates_the_log_crossing() {
        // 0.5x the SLO at 1000/s, 2x at 2000/s: the log-midpoint is 1500.
        let c = capacity(&[rung(500.0, 0.3), rung(1000.0, 0.5), rung(2000.0, 2.0)]);
        assert!((c - 1500.0).abs() < 1e-9, "{c}");
        // Exactly at the SLO on the failing side is a pass.
        assert_eq!(capacity(&[rung(1000.0, 0.5), rung(2000.0, 1.0)]), 2000.0);
    }

    #[test]
    fn capacity_edges() {
        // Never failing: the ladder's top rate.
        assert_eq!(capacity(&[rung(1000.0, 0.2), rung(2000.0, 0.9)]), 2000.0);
        // Never passing: scaled down by the SLO ratio.
        assert_eq!(capacity(&[rung(1000.0, 4.0)]), 250.0);
        // Saturated above the last pass: the sustained throughput, clamped
        // between the two rates.
        assert!(!saturated_at(2000.0, 1700.0).passes());
        assert_eq!(
            capacity(&[rung(1000.0, 0.5), saturated_at(2000.0, 1700.0)]),
            1700.0
        );
        assert_eq!(
            capacity(&[rung(1000.0, 0.5), saturated_at(2000.0, 800.0)]),
            1000.0
        );
        assert_eq!(
            capacity(&[rung(1000.0, 0.5), saturated_at(2000.0, 2100.0)]),
            2000.0
        );
        // A short passing rung sustains a little less than it was offered;
        // that, not its rate, bounds a saturated rung's throughput below.
        let short = RungOutcome {
            throughput: 970.0,
            ..rung(1000.0, 0.5)
        };
        assert_eq!(capacity(&[short, saturated_at(2000.0, 990.0)]), 990.0);
        assert_eq!(capacity(&[short, saturated_at(2000.0, 800.0)]), 970.0);
        // The highest passing rung decides, past a marginal failure below.
        assert_eq!(
            capacity(&[
                rung(1000.0, 0.5),
                rung(2000.0, 1.01),
                rung(3000.0, 0.5),
                rung(4000.0, 5.0)
            ]),
            3000.0 + 1000.0 * (2f64.ln() / 10f64.ln())
        );
        assert_eq!(capacity(&[]), 0.0);
    }

    fn snap(name: &str, counters: &[(&str, u64)], children: Vec<StatsSnapshot>) -> StatsSnapshot {
        let mut s = StatsSnapshot::new(name);
        for (k, v) in counters {
            s.set_counter(*k, *v);
        }
        s.children = children;
        s
    }

    #[test]
    fn totals_sum_per_component() {
        let tree = snap(
            "cluster",
            &[("committed", 9)],
            vec![
                snap(
                    "server_0",
                    &[("committed", 4)],
                    vec![snap("partition", &[("computes", 10)], vec![])],
                ),
                snap(
                    "server_11",
                    &[("committed", 5)],
                    vec![snap("partition", &[("computes", 7)], vec![])],
                ),
                snap("gate_s2", &[("shed", 1)], vec![]),
                snap("epoch_manager", &[("epochs_completed", 3)], vec![]),
                snap("p_x", &[("n", 1)], vec![]),
            ],
        );
        let t = totals(&tree);
        assert_eq!(t["cluster.committed"], 9);
        assert_eq!(t["server.committed"], 9);
        assert_eq!(t["partition.computes"], 17);
        assert_eq!(t["gate.shed"], 1);
        assert_eq!(t["epoch_manager.epochs_completed"], 3);
        assert_eq!(t["p_x.n"], 1);
    }

    #[test]
    fn merge_and_delta() {
        let a = totals(&snap(
            "server_0",
            &[("installs", 3)],
            vec![snap("net", &[("tcp_frames_out", 2)], vec![])],
        ));
        let b = totals(&snap(
            "server_1",
            &[("installs", 4)],
            vec![snap("net", &[("tcp_frames_out", 5)], vec![])],
        ));
        let m = merge([&a, &b]);
        assert_eq!(m["server.installs"], 7);
        assert_eq!(m["net.tcp_frames_out"], 7);
        let later = merge([&m, &a]);
        let d = delta(&m, &later);
        assert_eq!(d["server.installs"], 3);
        assert_eq!(d["net.tcp_frames_out"], 2);
        // A counter that restarted below its old value reads zero, and one
        // that appeared counts from zero.
        let mut shrunk = m.clone();
        shrunk.insert("server.installs".into(), 1);
        shrunk.insert("new.counter".into(), 4);
        let d = delta(&m, &shrunk);
        assert_eq!(d["server.installs"], 0);
        assert_eq!(d["new.counter"], 4);
    }
}
