//! # nga-bench — the reproduction harness
//!
//! One binary per table and figure of *Next Generation Arithmetic for
//! Edge Computing* (DATE 2020), each printing the paper's rows/series
//! next to this repository's measured values:
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table I — DNN characteristics |
//! | `table2` | Table II — approximate multipliers |
//! | `fig1` | Fig. 1 — parametric sin/cos generator sweep |
//! | `fig2` | Fig. 2 — bit-heap-centric operator generation |
//! | `fig3_4` | Figs. 3/4 — 3×3 multiplier regularization |
//! | `fig5` | Fig. 5 — approximate retraining accuracy (±augmentation) |
//! | `fig6_7` | Figs. 6/7 — encoding ring censuses |
//! | `fig8` | Fig. 8 — Yonemoto posit8 multiplier |
//! | `fig9` | Fig. 9 — decimal accuracy vs magnitude |
//! | `fig10` | Fig. 10 — decimal accuracy vs bit string |
//!
//! The `kernels` bin times the kernel tiers, and in its `micro` section
//! the software throughput of each arithmetic system plus the ablations
//! DESIGN.md calls out (`--json` writes `BENCH_kernels.json`).

#![warn(missing_docs)]

use std::fmt::Display;

/// Prints a markdown table: a header row and aligned data rows.
///
/// ```
/// nga_bench::print_table(
///     &["format", "decades"],
///     &[vec!["posit16".to_string(), "16.9".to_string()]],
/// );
/// ```
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Formats a float with `d` decimals.
#[must_use]
pub fn fmt_f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Formats any displayable value.
#[must_use]
pub fn fmt<T: Display>(x: T) -> String {
    x.to_string()
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers() {
        assert_eq!(super::fmt_f(std::f64::consts::PI, 2), "3.14");
        assert_eq!(super::fmt(42), "42");
    }
}
