//! The metric catalogue: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names (a
//! test keeps the two in step).

/// End-to-end metrics, reported by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("item_us.p10", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload on a traced run. A layer
/// the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // nga-nn::layers, from the traced layer walk.
    ("nn.conv2d.self_us", "us"),
    ("nn.dense.self_us", "us"),
    ("nn.relu.self_us", "us"),
    ("nn.maxpool2.self_us", "us"),
    ("nn.gapool.self_us", "us"),
    ("nn.flatten.self_us", "us"),
    ("nn.residual.self_us", "us"),
    ("nn.forward.glue_us", "us"),
    ("nn.conv2d.gmac_per_s", "GMAC/s"),
    ("nn.conv2d.ceiling_pct", "%"),
    // Model x arithmetic.
    ("infer.kws_mini.f32.us", "us"),
    ("infer.kws_mini.f32.gmac_per_s", "GMAC/s"),
    ("infer.kws_mini.int8.us", "us"),
    ("infer.kws_mini.int8.gmac_per_s", "GMAC/s"),
    ("infer.resnet_mini.f32.us", "us"),
    ("infer.resnet_mini.f32.gmac_per_s", "GMAC/s"),
    ("infer.resnet_mini.int8.us", "us"),
    ("infer.resnet_mini.int8.gmac_per_s", "GMAC/s"),
    ("infer.resnet20.f32.us", "us"),
    ("infer.resnet20.f32.gmac_per_s", "GMAC/s"),
    ("infer.resnet20.int8.us", "us"),
    ("infer.resnet20.int8.gmac_per_s", "GMAC/s"),
    // nga-nn::quant.
    ("nn.qforward.us", "us"),
    ("nn.qforward.gmac_per_s", "GMAC/s"),
    ("nn.quant.from_float_us", "us"),
    // nga-nn::train, from the traced retrain replica.
    ("train.qforward.us", "us"),
    ("train.forward_train.us", "us"),
    ("train.backward.us", "us"),
    ("train.step.us", "us"),
    ("train.requantize.us", "us"),
    ("train.static_loss.us", "us"),
    ("train.glue_us", "us"),
    ("train.top1_pct", "%"),
    // nga-kernels.
    ("kernels.matmul8.posit8.us", "us"),
    ("kernels.matmul8.posit8.gmac_per_s", "GMAC/s"),
    ("kernels.matmul8.posit8.ceiling_pct", "%"),
    ("kernels.matmul8.posit8.nar_nan", "count"),
    ("kernels.matmul8.e4m3.us", "us"),
    ("kernels.matmul8.e4m3.gmac_per_s", "GMAC/s"),
    ("kernels.matmul8.e4m3.ceiling_pct", "%"),
    ("kernels.matmul8.e4m3.nar_nan", "count"),
    ("kernels.matmul8.e5m2.us", "us"),
    ("kernels.matmul8.e5m2.gmac_per_s", "GMAC/s"),
    ("kernels.matmul8.e5m2.ceiling_pct", "%"),
    ("kernels.matmul8.e5m2.nar_nan", "count"),
    ("kernels.matmul8.fixed8_q4.4.us", "us"),
    ("kernels.matmul8.fixed8_q4.4.gmac_per_s", "GMAC/s"),
    ("kernels.matmul8.fixed8_q4.4.ceiling_pct", "%"),
    ("kernels.matmul8.fixed8_q4.4.nar_nan", "count"),
    ("kernels.ctx_scalar.ns_per_op", "ns"),
    ("kernels.ctx_scalar.ceiling_pct", "%"),
    ("kernels.lut_build_ms", "ms"),
    ("kernels.mac_table_build_ms", "ms"),
    // nga-obs, and the cost of this benchmark's own tracing.
    ("obs.spans_per_item", "count"),
    ("trace.overhead_us", "us"),
];

/// The unit of a catalogued metric.
#[must_use]
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} listed twice");
            assert!(n.len() <= 64, "{n} too long");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n} has a character outside [A-Za-z0-9_.-]"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\":").count();
        // Four workloads plus every metric.
        assert_eq!(listed, 4 + END_TO_END.len() + PER_LAYER.len());
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
