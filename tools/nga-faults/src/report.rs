//! Deterministic JSON serialisation of a fault sweep.
//!
//! Integer units only (milli-percent, ppm, counts) and no timestamps,
//! host names or thread counts: re-running the same sweep reproduces the
//! committed `FAULTS_REPORT*.json` byte for byte — which `scripts/
//! check.sh` enforces by diffing two back-to-back quick runs.

/// One model-level degradation row (workload × format × target × rate).
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Workload name ("kws_mini", "resnet_mini").
    pub workload: String,
    /// Format identifier.
    pub format: String,
    /// Fault target: "weights" or "activations".
    pub target: String,
    /// Per-bit upset rate in ppm.
    pub rate_ppm: u32,
    /// Bits actually flipped during the run.
    pub flips: u64,
    /// Fault-free top-1 accuracy, milli-percent.
    pub baseline_mpct: u64,
    /// Faulted top-1 accuracy, milli-percent.
    pub acc_mpct: u64,
    /// Poisoned (NaN/NaR) logit-lane fraction, ppm.
    pub nan_ppm: u64,
    /// Mean relative logit error vs baseline, ppm.
    pub mre_ppm: u64,
}

impl ModelRow {
    /// Accuracy drop vs baseline, milli-percent (negative = improved).
    #[must_use]
    pub fn drop_mpct(&self) -> i64 {
        self.baseline_mpct as i64 - self.acc_mpct as i64
    }
}

/// One operand-upset micro-sweep row (format × rate).
#[derive(Debug, Clone)]
pub struct OperandRow {
    /// Format identifier.
    pub format: String,
    /// Per-bit upset rate in ppm.
    pub rate_ppm: u32,
    /// Operand pairs evaluated.
    pub cases: u64,
    /// Bits flipped across all operands.
    pub flips: u64,
    /// Products that became NaR/NaN from clean inputs, ppm of cases.
    pub special_ppm: u64,
    /// Mean relative product error (capped at 10 per case), ppm.
    pub mre_ppm: u64,
}

/// One lookup-table corruption row (8-bit format × rate).
#[derive(Debug, Clone)]
pub struct LutRow {
    /// 8-bit format identifier.
    pub format: String,
    /// Per-bit upset rate in ppm.
    pub rate_ppm: u32,
    /// Table entries touched by the injector.
    pub corrupted_entries: u64,
    /// Output bytes differing from the scalar tier, ppm.
    pub mismatch_ppm: u64,
    /// Whether checksum verification + scalar fallback restored
    /// bit-identical output. Must be `true`; the CLI gates on it.
    pub recovered: bool,
}

/// A whole fault-sweep run.
#[derive(Debug, Clone)]
pub struct Report {
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Injector seed.
    pub seed: u64,
    /// Model-level rows in deterministic order.
    pub models: Vec<ModelRow>,
    /// Operand micro-sweep rows.
    pub operands: Vec<OperandRow>,
    /// Lookup-table rows.
    pub luts: Vec<LutRow>,
}

impl Report {
    /// Whether every LUT row recovered through the verified fallback.
    #[must_use]
    pub fn all_recovered(&self) -> bool {
        self.luts.iter().all(|l| l.recovered)
    }

    /// Serialises the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"tool\": \"nga-faults\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"models\": [\n");
        for (i, r) in self.models.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workload\": \"{}\", \"format\": \"{}\", \"target\": \"{}\", \
                 \"rate_ppm\": {}, \"flips\": {}, \"baseline_mpct\": {}, \
                 \"acc_mpct\": {}, \"drop_mpct\": {}, \"nan_ppm\": {}, \"mre_ppm\": {}}}{}\n",
                r.workload,
                r.format,
                r.target,
                r.rate_ppm,
                r.flips,
                r.baseline_mpct,
                r.acc_mpct,
                r.drop_mpct(),
                r.nan_ppm,
                r.mre_ppm,
                comma(i, self.models.len()),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"operands\": [\n");
        for (i, r) in self.operands.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"format\": \"{}\", \"rate_ppm\": {}, \"cases\": {}, \
                 \"flips\": {}, \"special_ppm\": {}, \"mre_ppm\": {}}}{}\n",
                r.format,
                r.rate_ppm,
                r.cases,
                r.flips,
                r.special_ppm,
                r.mre_ppm,
                comma(i, self.operands.len()),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"luts\": [\n");
        for (i, r) in self.luts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"format\": \"{}\", \"rate_ppm\": {}, \"corrupted_entries\": {}, \
                 \"mismatch_ppm\": {}, \"recovered\": {}}}{}\n",
                r.format,
                r.rate_ppm,
                r.corrupted_entries,
                r.mismatch_ppm,
                r.recovered,
                comma(i, self.luts.len()),
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
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

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let r = Report {
            mode: "quick".into(),
            seed: 424_242,
            models: vec![ModelRow {
                workload: "kws_mini".into(),
                format: "posit8".into(),
                target: "weights".into(),
                rate_ppm: 1000,
                flips: 17,
                baseline_mpct: 95_000,
                acc_mpct: 90_000,
                nan_ppm: 1200,
                mre_ppm: 40_000,
            }],
            operands: vec![OperandRow {
                format: "e4m3".into(),
                rate_ppm: 1000,
                cases: 2000,
                flips: 16,
                special_ppm: 500,
                mre_ppm: 123,
            }],
            luts: vec![LutRow {
                format: "posit8".into(),
                rate_ppm: 1000,
                corrupted_entries: 512,
                mismatch_ppm: 9000,
                recovered: true,
            }],
        };
        let a = r.to_json();
        assert_eq!(a, r.to_json());
        assert!(a.contains("\"drop_mpct\": 5000"));
        assert!(a.contains("\"recovered\": true"));
        assert!(a.ends_with("}\n"));
        assert!(r.all_recovered());
    }
}
