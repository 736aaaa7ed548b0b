//! Micro-benchmarks for the autograd substrate: the dense and graph
//! primitives every model step decomposes into.

use tp_bench::micro::Suite;
use tp_rng::StdRng;
use tp_tensor::Tensor;

fn bench_matmul(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(0);
    for n in [64usize, 256, 1024] {
        let a = Tensor::randn(&[n, 64], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[64, 64], 0.0, 1.0, &mut rng);
        suite.bench(&format!("matmul/{n}x64"), || a.matmul(&b));
    }
}

/// The fused dense layer at the benchmark's shapes: a hidden 64→64 ReLU
/// layer over every pin of usbf_device at paper scale (`infer_full`'s net
/// embedding), and the narrow 64→8 arrival/slew head over 71,718 pins,
/// whose 8 output columns take the kernel's 8-column block.
fn bench_dense(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut operands = |m: usize, n: usize| {
        (
            Tensor::randn(&[m, 64], 0.0, 1.0, &mut rng),
            Tensor::randn(&[64, n], 0.0, 0.1, &mut rng),
            Tensor::randn(&[n], 0.0, 0.1, &mut rng),
        )
    };
    let (x, w, b) = operands(46_631, 64);
    suite.bench("dense_relu/46631x64x64", || x.linear_relu(&w, &b));
    let (x, w, b) = operands(71_718, 8);
    suite.bench("dense/71718x64x8", || x.linear(&w, &b));
}

/// The weight gradient `xᵀ·g` of `x·W`, alone on the tape: `x` carries
/// no gradient, so a backward of `sum(x·W)` runs the sum's backward and
/// the weight-gradient gemm, which reads `x` in place. Shapes: a 64→64
/// layer over every pin of usbf_device at paper scale, and a 32→32 layer
/// over a batch the size of a `train_epoch` design's larger groups.
fn bench_weight_grad(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(4);
    for (m, k, n) in [(46_631usize, 64usize, 64usize), (4_096, 32, 32)] {
        let x = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 0.0, 0.1, &mut rng).with_grad();
        let loss = x.matmul(&w).sum();
        suite.bench(&format!("weight_grad/{m}x{k}x{n}"), || {
            w.zero_grad();
            loss.backward();
        });
    }
}

fn bench_segment_ops(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(1);
    let e = 20_000;
    let n = 5_000;
    let x = Tensor::randn(&[e, 32], 0.0, 1.0, &mut rng);
    let segs: Vec<usize> = (0..e).map(|i| i % n).collect();
    suite.bench("segment_sum_20k_32", || x.segment_sum(&segs, n));
    suite.bench("segment_max_20k_32", || x.segment_max(&segs, n));
    let xg = x.detach().with_grad();
    suite.bench("segment_max_20k_32/tape", || xg.segment_max(&segs, n));
    suite.bench("gather_20k_32", || x.gather_rows(&segs));
}

fn bench_backward(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(2);
    let w1 = Tensor::randn(&[64, 64], 0.0, 0.1, &mut rng).with_grad();
    let w2 = Tensor::randn(&[64, 64], 0.0, 0.1, &mut rng).with_grad();
    let x = Tensor::randn(&[1024, 64], 0.0, 1.0, &mut rng);
    suite.bench("mlp_fwd_bwd_1024x64", || {
        let loss = x.matmul(&w1).relu().matmul(&w2).square().mean();
        w1.zero_grad();
        w2.zero_grad();
        loss.backward();
        loss.item()
    });
}

fn main() {
    let mut suite = Suite::new("tensor_ops");
    bench_matmul(&mut suite);
    bench_dense(&mut suite);
    bench_weight_grad(&mut suite);
    bench_segment_ops(&mut suite);
    bench_backward(&mut suite);
    suite.finish();
}
