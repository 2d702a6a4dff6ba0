//! Determinism lockdown for the GEMM and its sharding driver: every layout
//! (NN, NT, TN), at rank 2 and rank 3, must be *bitwise* identical to a
//! naive triple loop for any shape (including empty and single-row) and
//! any shard count 1–8.
//!
//! The guarantee rests on two invariants the suite exercises: shards write
//! disjoint output slices, and each output element receives its products
//! in ascending-k order starting from +0.0, exactly as the naive loop
//! does. Comparisons use `f32::to_bits`, not approximate equality —
//! reassociated floating-point sums, or a stray -0.0, would fail.

use dader_tensor::ops::matmul::{gemm, gemm_shards, Layout};
use dader_tensor::pool;
use proptest::prelude::*;

/// Exact bit equality, element by element.
fn assert_bitwise_eq(expect: &[f32], got: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.len(), "{}: length mismatch", what);
    for (i, (s, p)) in expect.iter().zip(got).enumerate() {
        prop_assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{}: element {} differs: expected {} vs got {}",
            what,
            i,
            s,
            p
        );
    }
    Ok(())
}

/// The naive reference: for every output element, sum the products in
/// ascending k into a +0.0 accumulator, reading each operand at its
/// layout's index.
#[allow(clippy::too_many_arguments)]
fn naive(layout: Layout, a: &[f32], b: &[f32], bs: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; bs * m * n];
    for batch in 0..bs {
        let (a, b) = (&a[batch * m * k..], &b[batch * k * n..]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = match layout {
                        Layout::TN => a[kk * m + i],
                        _ => a[i * k + kk],
                    };
                    let bv = match layout {
                        Layout::NT => b[j * k + kk],
                        _ => b[kk * n + j],
                    };
                    acc += av * bv;
                }
                c[(batch * m + i) * n + j] = acc;
            }
        }
    }
    c
}

/// Check every shard count 1–8 against the naive reference.
#[allow(clippy::too_many_arguments)]
fn check_shards(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let expect = naive(layout, a, b, bs, m, k, n);
    for shards in 1..=8usize {
        let got = gemm_shards(layout, a, b, bs, m, k, n, shards);
        assert_bitwise_eq(&expect, &got, &format!("{layout:?} bs={bs} shards={shards}"))?;
    }
    Ok(())
}

/// Values with deliberate exact zeros so all-zero products are exercised
/// alongside the dense path.
fn matrix(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        (-2.0f32..2.0).prop_map(|v| if v.abs() < 0.4 { 0.0 } else { v }),
        len,
    )
}

/// Values drawn from +0.0, -0.0 (a fifth of the draws) and signed halves up
/// to ±4, so products are exact and sums cancel to zero.
fn signed_zeros(len: usize) -> impl Strategy<Value = Vec<f32>> {
    let mut values = vec![0.0f32, -0.0, 0.0, -0.0];
    values.extend((1..=8).flat_map(|v| [v as f32 * 0.5, v as f32 * -0.5]));
    proptest::collection::vec(proptest::sample::select(values), len)
}

/// Arbitrary rank-2 problem: `m`, `k` in 0..=8 cover empty, single-row and
/// odd shapes that don't divide evenly into shards; `n` up to 26 reaches
/// the kernel's 16- and 8-column tiles and its remainder. Operand lengths
/// are the same in every layout (`m·k` and `k·n`).
fn rank2() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..9, 0usize..9, 0usize..27)
        .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), matrix(m * k), matrix(k * n)))
}

/// Arbitrary rank-3 problem (batch 0..=4, `n` up to 19).
#[allow(clippy::type_complexity)]
fn rank3() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..5, 0usize..7, 0usize..7, 0usize..20).prop_flat_map(|(bs, m, k, n)| {
        (
            Just(bs),
            Just(m),
            Just(k),
            Just(n),
            matrix(bs * m * k),
            matrix(bs * k * n),
        )
    })
}

/// A problem over [`signed_zeros`] values, batch 1..=3 and widths up to
/// 26 (a 16-column tile, an 8-column tile and a remainder).
#[allow(clippy::type_complexity)]
fn signed_problem() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..4, 0usize..6, 0usize..7, 0usize..27).prop_flat_map(|(bs, m, k, n)| {
        (
            Just(bs),
            Just(m),
            Just(k),
            Just(n),
            signed_zeros(bs * m * k),
            signed_zeros(bs * k * n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_acc_sharded_is_bitwise_serial((m, k, n, a, b) in rank2()) {
        check_shards(Layout::NN, &a, &b, 1, m, k, n)?;
    }

    #[test]
    fn gemm_nt_acc_sharded_is_bitwise_serial((m, k, n, a, b) in rank2()) {
        // The second operand reads as (n, k).
        check_shards(Layout::NT, &a, &b, 1, m, k, n)?;
    }

    #[test]
    fn gemm_tn_acc_sharded_is_bitwise_serial((m, k, n, a, b) in rank2()) {
        // The first operand reads as (k, m).
        check_shards(Layout::TN, &a, &b, 1, m, k, n)?;
    }

    #[test]
    fn batched_gemm_sharded_is_bitwise_serial((bs, m, k, n, a, b) in rank3()) {
        check_shards(Layout::NN, &a, &b, bs, m, k, n)?;
    }

    #[test]
    fn batched_nt_sharded_is_bitwise_serial((bs, m, k, n, a, b) in rank3()) {
        check_shards(Layout::NT, &a, &b, bs, m, k, n)?;
    }

    #[test]
    fn batched_tn_sharded_is_bitwise_serial((bs, m, k, n, a, b) in rank3()) {
        check_shards(Layout::TN, &a, &b, bs, m, k, n)?;
    }

    /// ±0.0 and mixed signs in both operands, every layout, ranks 2 and 3,
    /// widths across the 16- and 8-column tiles and the remainder: the
    /// sign of every zero in the output matches the naive loop (a +0.0
    /// accumulator never turns into -0.0).
    #[test]
    fn signed_zeros_match_naive_oracle_bitwise((bs, m, k, n, a, b) in signed_problem()) {
        for layout in [Layout::NN, Layout::NT, Layout::TN] {
            check_shards(layout, &a, &b, bs, m, k, n)?;
        }
    }
}

/// Above the heuristic threshold the auto [`gemm`] entry point actually
/// dispatches to the pool; it must still be bitwise-serial in every layout
/// and rank. Thread-count override is process-global, so all override
/// manipulation stays inside this single test.
#[test]
fn auto_dispatch_above_threshold_is_bitwise_serial() {
    let d = 160usize; // d^3 = 4.1M MACs, comfortably above PAR_MIN_MACS
    assert!(d * d * d >= dader_tensor::ops::matmul::PAR_MIN_MACS);
    let a: Vec<f32> = (0..d * d)
        .map(|i| if i % 7 == 0 { 0.0 } else { ((i % 23) as f32 - 11.0) * 0.13 })
        .collect();
    let b: Vec<f32> = (0..d * d).map(|i| ((i % 19) as f32 - 9.0) * 0.21).collect();
    // Rank 2 (row shards) and rank 3 with two batches (batch shards).
    let shapes = [(1usize, d, d, d), (2, d / 2, d, d / 2)];

    let prev = pool::set_threads(Some(1));
    let layouts = [Layout::NN, Layout::NT, Layout::TN];
    let serial: Vec<Vec<f32>> = shapes
        .iter()
        .flat_map(|&(bs, m, k, n)| {
            let (a, b) = (&a[..bs * m * k], &b[..bs * k * n]);
            layouts.map(|l| gemm(l, a, b, bs, m, k, n))
        })
        .collect();

    for threads in [2usize, 3, 4, 8] {
        pool::set_threads(Some(threads));
        let mut expect = serial.iter();
        for &(bs, m, k, n) in &shapes {
            let (a, b) = (&a[..bs * m * k], &b[..bs * k * n]);
            for layout in layouts {
                let par = gemm(layout, a, b, bs, m, k, n);
                assert!(
                    expect.next().unwrap().iter().zip(&par).all(|(s, p)| s.to_bits() == p.to_bits()),
                    "{layout:?} bs={bs} at {threads} threads diverged"
                );
            }
        }
    }
    pool::set_threads(prev);
}

/// Full tensor-level check: a forward + backward pass through matmul/bmm
/// ops is bitwise identical at 1 and 4 threads.
#[test]
fn tensor_graph_bitwise_identical_across_thread_counts() {
    use dader_tensor::{Param, Tensor};

    let run = || {
        let w = Param::from_vec(
            "w",
            (0..96 * 96).map(|i| ((i % 13) as f32 - 6.0) * 0.05).collect(),
            (96, 96),
        );
        let x = Tensor::from_vec(
            (0..64 * 96).map(|i| ((i % 11) as f32 - 5.0) * 0.1).collect(),
            (64, 96),
        );
        let q = Tensor::from_vec(vec![0.3; 8 * 12 * 16], (8, 12, 16));
        let kx = Tensor::from_vec(vec![0.7; 8 * 12 * 16], (8, 12, 16));
        let y = x.matmul(&w.leaf());
        let att = q.bmm_nt(&kx);
        let loss = y.sum_all().add(&att.sum_all());
        let grads = loss.backward();
        (y.to_vec(), att.to_vec(), grads.get_id(w.id()).unwrap().to_vec())
    };

    let prev = pool::set_threads(Some(1));
    let serial = run();
    pool::set_threads(Some(4));
    let parallel = run();
    pool::set_threads(prev);

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&serial.0), bits(&parallel.0), "forward matmul diverged");
    assert_eq!(bits(&serial.1), bits(&parallel.1), "forward bmm_nt diverged");
    assert_eq!(bits(&serial.2), bits(&parallel.2), "backward grads diverged");
}
