//! Benchmark-side tracing: spans recorded around calls into the
//! libraries' public functions, kept in memory, aggregated and written out
//! when the run ends.
//!
//! A span's *self* time is its duration minus the durations of the spans
//! opened directly inside it. Nothing here reaches into the libraries: the
//! spans time the calls from outside, so the traced build is the same code
//! users link against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    parent: u32,
    item: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    item: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans recorded from now on with work item `item`.
    pub fn set_item(&mut self, item: u64) {
        self.item = item;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(SpanRec {
            name,
            parent,
            item: self.item,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = self.now_ns();
        let r = f(self);
        let end = self.now_ns();
        self.open.pop();
        let rec = &mut self.spans[idx as usize];
        rec.start_ns = start;
        rec.end_ns = end;
        r
    }

    /// Adds `v` to the counter `name` (work counts recorded beside spans).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// The counter `name` (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations in nanoseconds of every span named `name`, in order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Per work item, the summed duration (or, with `self_time`, self
    /// time) of the spans named `name`, in nanoseconds.
    #[must_use]
    pub fn per_item(&self, name: &str, self_time: bool) -> BTreeMap<u64, i64> {
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ns()) {
            if s.name == name {
                let dur = s.end_ns - s.start_ns;
                let v = if self_time {
                    dur.saturating_sub(children)
                } else {
                    dur
                };
                *out.entry(s.item).or_default() += i64::try_from(v).unwrap_or(i64::MAX);
            }
        }
        out
    }

    /// Per-name totals, including self time.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ns()) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The raw spans as tab-separated text: one header line, then
    /// `id parent item name start_ns end_ns` per span.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("id\tparent\titem\tname\tstart_ns\tend_ns\n");
        for (id, r) in self.spans.iter().enumerate() {
            let parent = if r.parent == NO_PARENT {
                String::from("-")
            } else {
                r.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                r.item, r.name, r.start_ns, r.end_ns
            );
        }
        s
    }
}

/// Summed statistics helpers over [`Tracer::totals`].
pub trait TotalsExt {
    /// Total nanoseconds of spans named `name` (0 when absent).
    fn total_ns(&self, name: &str) -> f64;
    /// Self nanoseconds of spans named `name` (0 when absent).
    fn self_ns(&self, name: &str) -> f64;
    /// Mean nanoseconds per span named `name` (0 when absent).
    fn mean_ns(&self, name: &str) -> f64;
}

impl TotalsExt for BTreeMap<&'static str, SpanTotals> {
    fn total_ns(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |t| t.total_ns as f64)
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |t| t.self_ns as f64)
    }

    fn mean_ns(&self, name: &str) -> f64 {
        self.get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.calls.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |tr| tr.span("leaf", |_| std::hint::black_box(1)));
            tr.span("inner", |_| ());
        });
        let t = tr.totals();
        assert_eq!(t["outer"].calls, 1);
        assert_eq!(t["inner"].calls, 2);
        let inner_total = t["inner"].total_ns;
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - inner_total);
        assert_eq!(t["leaf"].self_ns, t["leaf"].total_ns);
        assert!(tr.to_tsv().lines().count() == 5, "header + 4 spans");
    }
}
