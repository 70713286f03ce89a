//! Fig. 5 reproduction: task accuracy with the ten approximate
//! multipliers on three DNNs, after 5 epochs of approximate retraining,
//! with and without data augmentation.
//!
//! Pass `--quick` to run a single model with three multipliers (CI-sized).
//! The paper's claims under reproduction:
//!   1. accuracy degrades as multiplier MRE grows,
//!   2. retraining recovers accuracy within the tolerance for most of the
//!      ladder (tolerance: 1 point for images, 5 points for KWS, §IV-B),
//!   3. training WITHOUT augmentation recovers better than with it
//!      ("data augmentation worsens the accuracy degradation", §IV-C-2).

use nga_approx::ApproxMultiplier;
use nga_bench::{banner, fmt_f, print_table};
use nga_nn::data::{Augmentation, Dataset};
use nga_nn::layers::Network;
use nga_nn::models::{kws_mini, resnet_mini};
use nga_nn::train::{accuracy_approx, retrain_approx, train_float, TrainConfig};

struct Task {
    name: &'static str,
    net: Network,
    train: Dataset,
    eval: Dataset,
    augmented: Dataset,
}

fn image_task() -> Task {
    // Harder-than-default noise so approximation errors are visible, and
    // a held-out test split so recovery is generalization, not memory.
    let all = Dataset::synth_images_noisy(10, 24, 12, 0.55, 17);
    let (train, eval) = all.split_alternating();
    let mut net = resnet_mini(6, 10, 9);
    // Two-stage schedule: the residual stack (no batch norm) wants a
    // gentle warm-up followed by fine-tuning.
    let c1 = TrainConfig {
        lr: 0.005,
        momentum: 0.9,
        epochs: 15,
        seed: 5,
    };
    train_float(&mut net, &train, &c1);
    let cfg = TrainConfig {
        lr: 0.0015,
        momentum: 0.9,
        epochs: 10,
        seed: 6,
    };
    train_float(&mut net, &train, &cfg);
    let augmented = train
        .without_augmentation()
        .with_augmentation(Augmentation::HorizontalFlip);
    Task {
        name: "ResNet-mini (image)",
        net,
        eval,
        augmented,
        train,
    }
}

fn kws_task(name: &'static str, seed: u64) -> Task {
    let all = Dataset::synth_speech_noisy(16, 30, 24, 10, 0.7, seed);
    let (train, eval) = all.split_alternating();
    let mut net = kws_mini(24, 10, 16, seed);
    let cfg = TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        epochs: 35,
        seed: 5,
    };
    train_float(&mut net, &train, &cfg);
    let augmented = train
        .without_augmentation()
        .with_augmentation(Augmentation::BackgroundNoise { volume: 0.1 });
    Task {
        name,
        net,
        eval,
        augmented,
        train,
    }
}

#[expect(clippy::disallowed_methods, reason = "reads the --quick flag")]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("Fig. 5 — accuracy with 10 approximate multipliers on 3 DNNs");
    println!(
        "kernels: implicit-GEMM conv + MAC-LUT tensor layer, {} worker thread(s)\n",
        nga_kernels::num_threads()
    );

    let multipliers: Vec<ApproxMultiplier> = if quick {
        vec![
            ApproxMultiplier::DropLsb,
            ApproxMultiplier::Mitchell,
            ApproxMultiplier::Trunc9,
        ]
    } else {
        ApproxMultiplier::LADDER.to_vec()
    };

    let tasks: Vec<Task> = if quick {
        vec![image_task()]
    } else {
        vec![
            image_task(),
            kws_task("KWS-mini-1 (speech)", 23),
            kws_task("KWS-mini-2 (speech)", 29),
        ]
    };

    let retrain_cfg = TrainConfig {
        lr: 0.004,
        momentum: 0.9,
        epochs: 5, // the paper retrains over 5 epochs
        seed: 31,
    };

    for task in tasks {
        let q8 = accuracy_approx(&task.net, &task.eval, ApproxMultiplier::Exact);
        println!(
            "\n{} — 8-bit baseline {:.2} % (tolerance per §IV-B: {} points)",
            task.name,
            q8,
            if task.name.contains("image") { 1 } else { 5 }
        );
        let mut rows = Vec::new();
        for &m in &multipliers {
            let before = accuracy_approx(&task.net, &task.eval, m);
            // Retrain WITHOUT augmentation (the paper's proposal).
            let mut net_plain = task.net.clone();
            retrain_approx(&mut net_plain, &task.train, m, &retrain_cfg);
            let after_plain = accuracy_approx(&net_plain, &task.eval, m);
            // Retrain WITH augmentation (the paper's comparison point).
            let mut net_aug = task.net.clone();
            retrain_approx(&mut net_aug, &task.augmented, m, &retrain_cfg);
            let after_aug = accuracy_approx(&net_aug, &task.eval, m);
            rows.push(vec![
                m.id().to_string(),
                fmt_f(nga_approx::ErrorMetrics::characterize(m).mre_percent, 2),
                fmt_f(before, 2),
                fmt_f(after_plain, 2),
                fmt_f(after_aug, 2),
                if after_plain >= after_aug {
                    "no-aug"
                } else {
                    "aug"
                }
                .to_string(),
            ]);
        }
        print_table(
            &[
                "multiplier",
                "MRE [%]",
                "no retrain",
                "retrained",
                "retrained+aug",
                "better",
            ],
            &rows,
        );
    }
    println!();
    println!(
        "shape check: accuracy falls with MRE; retraining recovers most rungs; \
         no-augmentation retraining dominates (§IV-C-2)."
    );
}
