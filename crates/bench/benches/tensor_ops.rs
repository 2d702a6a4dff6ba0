//! Criterion micro-benchmarks for the tensor kernels that dominate
//! training time: GEMM, softmax, layer norm, and a full backward pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dader_tensor::{Param, Tensor};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = Tensor::from_vec((0..n * n).map(|i| (i % 17) as f32 * 0.1).collect(), (n, n));
        let b = Tensor::from_vec((0..n * n).map(|i| (i % 13) as f32 * 0.1).collect(), (n, n));
        g.bench_function(format!("{n}x{n}"), |bench| {
            bench.iter(|| black_box(a.matmul(&b)))
        });
    }
    g.finish();
}

fn bench_bmm_attention_shape(c: &mut Criterion) {
    // The attention inner product at quick-scale shapes: (B*h, S, dh).
    let (bh, s, dh) = (64usize, 40usize, 8usize);
    let q = Tensor::from_vec(vec![0.1; bh * s * dh], (bh, s, dh));
    let k = Tensor::from_vec(vec![0.2; bh * s * dh], (bh, s, dh));
    c.bench_function("bmm_nt_attention", |bench| {
        bench.iter(|| black_box(q.bmm_nt(&k)))
    });
}

fn bench_softmax_and_norm(c: &mut Criterion) {
    let x = Tensor::from_vec(
        (0..64 * 40).map(|i| ((i * 31) % 11) as f32 * 0.3 - 1.5).collect(),
        (64, 40),
    );
    c.bench_function("softmax_64x40", |bench| {
        bench.iter(|| black_box(x.softmax_last()))
    });
    c.bench_function("layer_norm_64x40", |bench| {
        bench.iter(|| black_box(x.layer_norm_last(1e-5)))
    });
}

fn bench_parallel_gemm(c: &mut Criterion) {
    // Serial vs sharded GEMM at the sizes where the pool dispatches
    // (d = 128 crosses PAR_MIN_MACS; 256 is comfortably parallel). The
    // thread override is process-global, so each measurement pins it and
    // the group restores the default at the end. Results feed the README
    // "Performance" table.
    use dader_tensor::ops::matmul::{gemm, Layout};
    use dader_tensor::pool;

    let mut g = c.benchmark_group("parallel_gemm");
    for &d in &[128usize, 256] {
        let a: Vec<f32> = (0..d * d).map(|i| (i % 17) as f32 * 0.1).collect();
        let b: Vec<f32> = (0..d * d).map(|i| (i % 13) as f32 * 0.1).collect();
        for &threads in &[1usize, 2, 4] {
            pool::set_threads(Some(threads));
            g.bench_function(format!("{d}x{d}_t{threads}"), |bench| {
                bench.iter(|| black_box(gemm(Layout::NN, black_box(&a), black_box(&b), 1, d, d, d)))
            });
        }
    }
    pool::set_threads(None);
    g.finish();
}

fn bench_backward_chain(c: &mut Criterion) {
    // Forward + backward of a small MLP-like graph.
    let w1 = Param::from_vec("w1", vec![0.01; 64 * 64], (64, 64));
    let w2 = Param::from_vec("w2", vec![0.01; 64 * 2], (64, 2));
    let x = Tensor::from_vec(vec![0.5; 16 * 64], (16, 64));
    let targets: Vec<usize> = (0..16).map(|i| i % 2).collect();
    c.bench_function("mlp_forward_backward", |bench| {
        bench.iter_batched(
            || (),
            |_| {
                let h = x.matmul(&w1.leaf()).relu();
                let logits = h.matmul(&w2.leaf());
                let loss = logits.cross_entropy_logits(&targets);
                black_box(loss.backward())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_bmm_attention_shape,
    bench_softmax_and_norm,
    bench_parallel_gemm,
    bench_backward_chain
);
criterion_main!(benches);
