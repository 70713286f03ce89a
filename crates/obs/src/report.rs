//! Frozen trace snapshots and their deterministic JSON form.
//!
//! Integer counts only, paths sorted, no timestamps/hosts/thread counts:
//! re-running the same workload reproduces `TRACE_REPORT*.json` byte for
//! byte, which `scripts/check.sh` enforces by diffing two back-to-back
//! quick runs.

use crate::counters::OpCounts;

/// One scope (span path) and its accumulated counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeRow {
    /// Full `/`-joined span path, e.g. `nn:forward/conv2d`.
    pub path: String,
    /// Counters accumulated at exactly this path (children are separate
    /// rows — a parent does not include its children's counts).
    pub counts: OpCounts,
}

/// A frozen, path-sorted snapshot of the trace registry.
///
/// ```
/// use nga_obs::{OpCounts, ScopeRow, TraceReport};
/// let report = TraceReport {
///     scopes: vec![ScopeRow {
///         path: "demo/x".into(),
///         counts: OpCounts { muls: 4, ..OpCounts::default() },
///     }],
/// };
/// assert_eq!(report.total().muls, 4);
/// assert_eq!(report.aggregate_by_leaf()[0].0, "x");
/// assert!(report.to_json("quick").starts_with("{\n"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// All scopes, sorted by path.
    pub scopes: Vec<ScopeRow>,
}

impl TraceReport {
    /// The counters recorded at exactly `path`, if any.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&OpCounts> {
        self.scopes.iter().find(|r| r.path == path).map(|r| &r.counts)
    }

    /// Grand total across every scope.
    #[must_use]
    pub fn total(&self) -> OpCounts {
        let mut t = OpCounts::default();
        for r in &self.scopes {
            t.merge(&r.counts);
        }
        t
    }

    /// Aggregates scopes by the final path segment, sorted by segment.
    ///
    /// Kernel tiers record under leaf names like `matmul8:parallel`, and nn
    /// layers under `conv2d`/`dense`/…, so this one fold answers both
    /// "per kernel tier" and "per layer kind" regardless of where in the
    /// span tree the work happened.
    #[must_use]
    pub fn aggregate_by_leaf(&self) -> Vec<(String, OpCounts)> {
        let mut map: std::collections::BTreeMap<&str, OpCounts> = std::collections::BTreeMap::new();
        for r in &self.scopes {
            let leaf = r.path.rsplit('/').next().unwrap_or(r.path.as_str());
            map.entry(leaf).or_default().merge(&r.counts);
        }
        map.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Scopes whose path contains `needle` as a `/`-separated segment.
    #[must_use]
    pub fn filter_segment(&self, needle: &str) -> Vec<&ScopeRow> {
        self.scopes
            .iter()
            .filter(|r| r.path.split('/').any(|seg| seg == needle))
            .collect()
    }

    /// Serialises the report as pretty-printed JSON. `mode` labels the
    /// workload (`"quick"`/`"full"`); everything else is derived from the
    /// counters alone, so equal traces serialise to equal bytes.
    #[must_use]
    pub fn to_json(&self, mode: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"tool\": \"nga-obs\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", escape(mode)));
        s.push_str("  \"scopes\": [\n");
        for (i, r) in self.scopes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": \"{}\", {}}}{}\n",
                escape(&r.path),
                counts_json(&r.counts),
                comma(i, self.scopes.len()),
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"total\": {{{}}}\n", counts_json(&self.total())));
        s.push_str("}\n");
        s
    }
}

fn counts_json(c: &OpCounts) -> String {
    format!(
        "\"calls\": {}, \"ops\": {}, \"adds\": {}, \"muls\": {}, \"divs\": {}, \
         \"lut_hits\": {}, \"nar_nan\": {}, \"inexact\": {}, \"overflow\": {}, \
         \"underflow\": {}, \"div_by_zero\": {}, \"saturated\": {}, \"wrapped\": {}",
        c.calls,
        c.ops,
        c.adds,
        c.muls,
        c.divs,
        c.lut_hits,
        c.nar_nan,
        c.inexact,
        c.overflow,
        c.underflow,
        c.div_by_zero,
        c.saturated,
        c.wrapped,
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceReport {
        TraceReport {
            scopes: vec![
                ScopeRow {
                    path: "a/matmul8:parallel".into(),
                    counts: OpCounts {
                        calls: 1,
                        muls: 10,
                        lut_hits: 20,
                        ..OpCounts::default()
                    },
                },
                ScopeRow {
                    path: "b/matmul8:parallel".into(),
                    counts: OpCounts {
                        calls: 2,
                        muls: 5,
                        ..OpCounts::default()
                    },
                },
            ],
        }
    }

    #[test]
    fn totals_and_leaf_aggregation() {
        let r = sample();
        assert_eq!(r.total().muls, 15);
        let by_leaf = r.aggregate_by_leaf();
        assert_eq!(by_leaf.len(), 1);
        assert_eq!(by_leaf[0].0, "matmul8:parallel");
        assert_eq!(by_leaf[0].1.lut_hits, 20);
        assert_eq!(r.filter_segment("a").len(), 1);
        assert_eq!(r.get("b/matmul8:parallel").map(|c| c.calls), Some(2));
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = sample();
        let j = r.to_json("quick");
        assert_eq!(j, r.to_json("quick"));
        assert!(j.contains("\"mode\": \"quick\""));
        assert!(j.contains("\"lut_hits\": 20"));
        assert!(j.ends_with("}\n"));
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
