//! Table I reproduction: DNN characteristics — parameters, MACs, float
//! accuracy, 8-bit quantized accuracy.
//!
//! Params/MACs come from the full-scale model definitions (exact
//! counting); the accuracy columns are measured by actually training the
//! laptop-scale variants on the synthetic datasets (DESIGN.md §3.2/3.3 —
//! absolute accuracies differ from the paper's, the float→8-bit gap is
//! the claim under reproduction).

use nga_approx::ApproxMultiplier;
use nga_bench::{banner, fmt, fmt_f, print_table};
use nga_nn::data::Dataset;
use nga_nn::models::{kws_cnn1, kws_cnn2, kws_mini, resnet20, resnet_mini};
use nga_nn::train::{accuracy, accuracy_approx, train_float, TrainConfig};

fn main() {
    banner("Table I — DNN characteristics");
    println!(
        "kernels: implicit-GEMM conv + MAC-LUT tensor layer, {} worker thread(s)\n",
        nga_kernels::num_threads()
    );

    // Full-scale definitions: exact parameter/MAC accounting.
    let rn = resnet20(10, 1);
    let c1 = kws_cnn1(12, 2);
    let c2 = kws_cnn2(12, 3);
    let full_rows = [
        (
            "ResNet20",
            "CIFAR (synthetic)",
            rn.param_count(),
            rn.mac_count(&[3, 32, 32]),
            (274_442u64, 40_800_000u64),
        ),
        (
            "KWS-CNN1",
            "SCD (synthetic)",
            c1.param_count(),
            c1.mac_count(&[1, 49, 10]),
            (69_982, 2_500_000),
        ),
        (
            "KWS-CNN2",
            "SCD (synthetic)",
            c2.param_count(),
            c2.mac_count(&[1, 49, 10]),
            (179_404, 8_600_000),
        ),
    ];

    // Trainable variants: measure Float and 8-bit accuracy columns.
    println!("training laptop-scale variants for the accuracy columns...");
    let mut measured: Vec<(f64, f64)> = Vec::new();

    // ResNet-mini on synthetic CIFAR.
    {
        let data = Dataset::synth_images(10, 20, 16, 41);
        let mut net = resnet_mini(8, 10, 7);
        let cfg = TrainConfig {
            lr: 0.01,
            momentum: 0.9,
            epochs: 12,
            seed: 3,
        };
        train_float(&mut net, &data, &cfg);
        measured.push((
            accuracy(&net, &data),
            accuracy_approx(&net, &data, ApproxMultiplier::Exact),
        ));
    }
    // Two KWS variants (sizes differ) on synthetic speech.
    for (width_seed, epochs) in [(11u64, 15usize), (13, 18)] {
        let data = Dataset::synth_speech(10, 20, 32, 10, width_seed);
        let mut net = kws_mini(32, 10, 10, width_seed);
        let cfg = TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            epochs,
            seed: 5,
        };
        train_float(&mut net, &data, &cfg);
        measured.push((
            accuracy(&net, &data),
            accuracy_approx(&net, &data, ApproxMultiplier::Exact),
        ));
    }

    let paper_acc = [(91.04, 90.34), (91.99, 91.90), (92.71, 92.60)];
    let rows: Vec<Vec<String>> = full_rows
        .iter()
        .zip(measured.iter())
        .zip(paper_acc.iter())
        .map(|(((name, ds, p, m, (pp, pm)), (fa, qa)), (pfa, pqa))| {
            vec![
                (*name).to_string(),
                (*ds).to_string(),
                fmt(p),
                fmt(m),
                fmt_f(*fa, 2),
                fmt_f(*qa, 2),
                fmt(pp),
                fmt(pm),
                fmt_f(*pfa, 2),
                fmt_f(*pqa, 2),
            ]
        })
        .collect();
    print_table(
        &[
            "DNN",
            "dataset",
            "params",
            "MACs",
            "float",
            "8-bit",
            "paper params",
            "paper MACs",
            "paper float",
            "paper 8-bit",
        ],
        &rows,
    );
    println!();
    println!(
        "shape check: params/MACs match the paper's scale (BN params omitted); \
         the float -> 8-bit drop is small in both (paper: <1 point)."
    );
}
