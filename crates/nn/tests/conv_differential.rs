//! Whole-network differential check of the f32 convolution: ResNet20's
//! `Network::forward` is bit-equal to a layer walk whose convolutions are
//! direct strided, zero-padded loops. Every other layer runs its own
//! forward, so any difference is the conv kernel's.

use nga_nn::data::Dataset;
use nga_nn::layers::{Conv2d, Layer};
use nga_nn::models::resnet20;
use nga_nn::Tensor;

/// Direct convolution: per output pixel, the bias plus `w · x` for
/// ascending `(ic, ky, kx)`, one multiply and one add per tap, where a tap
/// in the padding reads `0.0` and is still added.
fn direct_conv(conv: &Conv2d, x: &Tensor) -> Tensor {
    let [out_ch, in_ch, k, _] = *conv.weights.shape() else {
        panic!("conv weights are 4-D")
    };
    let (s, p) = (conv.stride, conv.pad);
    let (h, w) = (x.shape()[1], x.shape()[2]);
    let (oh, ow) = ((h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1);
    let wt = conv.weights.data();
    let mut out = Vec::with_capacity(out_ch * oh * ow);
    for oc in 0..out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = conv.bias.data()[oc];
                for ic in 0..in_ch {
                    for ky in 0..k {
                        for kx in 0..k {
                            let (iy, ix) = (oy * s + ky, ox * s + kx);
                            let v = if (p..h + p).contains(&iy) && (p..w + p).contains(&ix) {
                                x.at3(ic, iy - p, ix - p)
                            } else {
                                0.0
                            };
                            acc += wt[((oc * in_ch + ic) * k + ky) * k + kx] * v;
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    Tensor::from_vec(&[out_ch, oh, ow], out)
}

/// `layers` applied to `x` in order, convolutions through [`direct_conv`].
fn walk(layers: &[Layer], x: &Tensor) -> Tensor {
    let mut t = x.clone();
    for layer in layers {
        t = match layer {
            Layer::Conv2d(c) => direct_conv(c, &t),
            Layer::Residual(r) => walk(&r.main, &t).add(&walk(&r.shortcut, &t)),
            other => other.forward(&t),
        };
    }
    t
}

#[test]
fn resnet20_forward_equals_a_direct_convolution_walk() {
    let seed = 3;
    let net = resnet20(10, seed);
    let images = Dataset::synth_images_noisy(2, 1, 32, 0.15, seed);
    for i in 0..images.len() {
        let x = images.sample(i).0;
        let got = net.forward(&x);
        let want = walk(&net.layers, &x);
        assert_eq!(got.shape(), want.shape(), "image {i}");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "image {i}: logits");
    }
}
