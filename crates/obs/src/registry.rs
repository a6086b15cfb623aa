//! Metric registry: named counter/gauge families, histograms, and windowed
//! time series, all addressed by cheap integer handles.
//!
//! Metrics are registered once when a recorder is constructed and updated by
//! index afterwards, so the hot path never hashes a name. Registration order
//! is the (deterministic) serialization order of the metrics snapshot.

use crate::hist::Histogram;

/// Handle to a counter family.
#[derive(Clone, Copy, Debug)]
pub struct CounterId(pub(crate) usize);

/// Handle to a gauge family.
#[derive(Clone, Copy, Debug)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a histogram.
#[derive(Clone, Copy, Debug)]
pub struct HistId(pub(crate) usize);

/// Handle to a windowed series.
#[derive(Clone, Copy, Debug)]
pub struct SeriesId(pub(crate) usize);

/// A named family of values. A scalar metric is a family of length 1; indexed
/// metrics (per-link, per-bank, node x MC) use one slot per element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Family<T> {
    /// Stable snapshot key, e.g. `"net.link.flit_cycles"`.
    pub name: &'static str,
    /// One value per element, in element order.
    pub vals: Vec<T>,
}

/// How a windowed series folds samples that land in the same epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowMode {
    /// Sum all samples in the epoch (event rates).
    Add,
    /// Keep the maximum sample in the epoch (peaks, e.g. queue depth).
    Max,
}

/// A time series sampled by sim-cycle epoch: slot `i` covers cycles
/// `[i * epoch_cycles, (i + 1) * epoch_cycles)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    /// Stable snapshot key, e.g. `"win.offchip"`.
    pub name: &'static str,
    /// Epoch width in sim cycles (>= 1).
    pub epoch_cycles: u64,
    /// Fold mode for same-epoch samples.
    pub mode: WindowMode,
    /// One folded value per epoch, from cycle 0.
    pub vals: Vec<u64>,
    /// The epoch the last sample landed in: its first cycle and its slot.
    at: (u64, usize),
}

impl Series {
    fn bump(&mut self, ts: u64, n: u64) {
        // Samples arrive nearly in time order, so most land in the epoch
        // the last one did, found by one compare; only the others divide.
        let e = self.epoch_cycles;
        if ts.wrapping_sub(self.at.0) >= e || self.vals.is_empty() {
            let epoch = ts / e;
            self.at = (epoch * e, epoch as usize);
            if self.vals.len() <= self.at.1 {
                self.vals.resize(self.at.1 + 1, 0);
            }
        }
        let v = &mut self.vals[self.at.1];
        *v = match self.mode {
            WindowMode::Add => v.saturating_add(n),
            WindowMode::Max => (*v).max(n),
        };
    }
}

/// The registry proper: all metric storage for one recording.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    pub(crate) counters: Vec<Family<u64>>,
    pub(crate) gauges: Vec<Family<i64>>,
    pub(crate) hists: Vec<(&'static str, Histogram)>,
    pub(crate) series: Vec<Series>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a counter family with `len` zeroed slots.
    pub fn counter(&mut self, name: &'static str, len: usize) -> CounterId {
        self.counters.push(Family {
            name,
            vals: vec![0; len],
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge family with `len` zeroed slots.
    pub fn gauge(&mut self, name: &'static str, len: usize) -> GaugeId {
        self.gauges.push(Family {
            name,
            vals: vec![0; len],
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register an empty histogram.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        self.hists.push((name, Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Register a windowed series. `epoch_cycles` is clamped to at least 1.
    pub fn series(&mut self, name: &'static str, epoch_cycles: u64, mode: WindowMode) -> SeriesId {
        self.series.push(Series {
            name,
            epoch_cycles: epoch_cycles.max(1),
            mode,
            vals: Vec::new(),
            at: (0, 0),
        });
        SeriesId(self.series.len() - 1)
    }

    /// Add `n` to slot `idx` of a counter family.
    #[inline]
    pub fn inc(&mut self, id: CounterId, idx: usize, n: u64) {
        self.counters[id.0].vals[idx] += n;
    }

    /// Set slot `idx` of a gauge family.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, idx: usize, v: i64) {
        self.gauges[id.0].vals[idx] = v;
    }

    /// Record a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Fold a sample into the epoch of `ts` for a windowed series.
    #[inline]
    pub fn sample(&mut self, id: SeriesId, ts: u64, n: u64) {
        self.series[id.0].bump(ts, n);
    }

    /// Look up a counter family by name (snapshot/report access).
    pub fn counter_family(&self, name: &str) -> Option<&[u64]> {
        self.counters
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.vals.as_slice())
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Look up a windowed series by name.
    pub fn series_by_name(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_by_handle() {
        let mut r = Registry::new();
        let c = r.counter("c", 3);
        let g = r.gauge("g", 2);
        r.inc(c, 1, 5);
        r.inc(c, 1, 2);
        r.set_gauge(g, 0, -4);
        assert_eq!(r.counter_family("c").unwrap(), &[0, 7, 0]);
        assert_eq!(r.gauges[g.0].vals, [-4, 0]);
        assert!(r.counter_family("missing").is_none());
    }

    #[test]
    fn series_fold_by_epoch() {
        let mut r = Registry::new();
        let a = r.series("a", 10, WindowMode::Add);
        let m = r.series("m", 10, WindowMode::Max);
        for (ts, n) in [(0, 1), (9, 2), (10, 4), (35, 7)] {
            r.sample(a, ts, n);
            r.sample(m, ts, n);
        }
        assert_eq!(r.series_by_name("a").unwrap().vals, vec![3, 4, 0, 7]);
        assert_eq!(r.series_by_name("m").unwrap().vals, vec![2, 4, 0, 7]);
    }

    /// Samples out of time order, over epochs of any width, fold as
    /// dividing each timestamp by the width does.
    #[test]
    fn series_fold_as_division_does_for_any_epoch() {
        hoploc_ptest::run_cases("series_vs_division", 64, |rng| {
            let e = rng.u64_in(1..3000);
            let mut r = Registry::new();
            let ids = [WindowMode::Add, WindowMode::Max].map(|mode| r.series("s", e, mode));
            let (mut add, mut max) = (vec![0; 1], vec![0; 1]);
            let mut now = 0;
            for _ in 0..rng.usize_in(1..2000) {
                // Short steps, and now and then a leap past the next epoch.
                let leap = rng.u64_below(16) == 0;
                now += rng.u64_below(if leap { 4 * e } else { e / 4 + 2 });
                let (ts, n) = (now.saturating_sub(rng.u64_below(2 * e)), rng.u64_below(9));
                let epoch = (ts / e) as usize;
                add.resize(add.len().max(epoch + 1), 0);
                max.resize(add.len(), 0);
                (add[epoch], max[epoch]) = (add[epoch] + n, max[epoch].max(n));
                ids.iter().for_each(|&id| r.sample(id, ts, n));
            }
            assert_eq!([&r.series[0].vals, &r.series[1].vals], [&add, &max]);
        });
    }

    #[test]
    fn zero_epoch_is_clamped() {
        let mut r = Registry::new();
        let s = r.series("s", 0, WindowMode::Add);
        r.sample(s, 123, 1);
        assert_eq!(r.series_by_name("s").unwrap().epoch_cycles, 1);
    }
}
