//! Property tests pinning the two blocking guarantees the rest of the
//! system leans on:
//!
//! 1. **Thread-count invariance** — `Blocker::block` shards probes over
//!    the engine pool; the candidate lists (indices *and* score bits)
//!    must be identical at 1, 2 and 4 threads.
//! 2. **Index/brute-force agreement** — the TF-IDF inverted-index query
//!    must produce bitwise the same top-k as a brute-force scan that
//!    scores every indexed record with the same sorted-token accumulation
//!    order.

use dader_block::{Blocker, Candidate, LshParams, MinHashLshBlocker, TfIdfBlocker, TopK};
use dader_datagen::Entity;
use dader_tensor::pool;
use proptest::prelude::*;

/// A small shared vocabulary so random records actually overlap.
const VOCAB: [&str; 12] = [
    "kodak", "esp", "printer", "hp", "laserjet", "sony", "bravia", "tv",
    "inkjet", "7250", "deskjet", "office",
];

fn entity_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..VOCAB.len(), 0..8)
}

fn table(rows: &[Vec<usize>], prefix: &str) -> Vec<Entity> {
    rows.iter()
        .enumerate()
        .map(|(i, tokens)| {
            let text = tokens
                .iter()
                .map(|&t| VOCAB[t])
                .collect::<Vec<_>>()
                .join(" ");
            Entity::new(format!("{prefix}{i}"), vec![("title", text)])
        })
        .collect()
}

fn bits(blocked: &[Vec<Candidate>]) -> Vec<Vec<(usize, u32)>> {
    blocked
        .iter()
        .map(|row| row.iter().map(|c| (c.right, c.score.to_bits())).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lsh_block_is_thread_count_invariant(
        left in proptest::collection::vec(entity_strategy(), 1..16),
        right in proptest::collection::vec(entity_strategy(), 1..16),
        k in 1usize..6,
    ) {
        let left = table(&left, "a");
        let right = table(&right, "b");
        let idx = MinHashLshBlocker::build(&right, LshParams::default());
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            pool::set_threads(Some(threads));
            runs.push(bits(&idx.block(&left, k)));
        }
        pool::set_threads(None);
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }

    #[test]
    fn tfidf_index_query_equals_brute_force_bitwise(
        left in proptest::collection::vec(entity_strategy(), 1..12),
        right in proptest::collection::vec(entity_strategy(), 1..20),
        k in 1usize..8,
    ) {
        let left = table(&left, "a");
        let right = table(&right, "b");
        let idx = TfIdfBlocker::build(&right);
        for probe in &left {
            let fast = idx.candidates(probe, k);
            // Brute force: score every indexed record by walking the
            // probe's sorted (token, weight) list — the same accumulation
            // order the inverted query uses per candidate.
            let weights = idx.probe_weights(probe);
            let mut top = TopK::new(k);
            for j in 0..right.len() {
                let mut score = 0.0f32;
                for (t, wq) in &weights {
                    score += wq * idx.indexed_weight(t, j);
                }
                if score > 0.0 {
                    top.push(Candidate { right: j, score });
                }
            }
            let slow = top.into_sorted();
            prop_assert_eq!(
                bits(std::slice::from_ref(&fast)),
                bits(std::slice::from_ref(&slow))
            );
        }
    }
}

/// `parse_csv`'s contract on untrusted text: `Ok`, or a typed [`RowError`]
/// whose line lies in the input — for the fatal header error and for every
/// rejected row alike — and never a panic.
fn check_csv(text: &str) -> Result<(), TestCaseError> {
    let lines = text.matches('\n').count() + 1;
    let errors = match dader_block::parse_csv(text) {
        Ok(table) => table.errors,
        Err(e) => vec![e],
    };
    for e in errors {
        prop_assert!((1..=lines).contains(&e.line), "line {} of {}: {}", e.line, lines, e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_csv_random_bytes_are_ok_or_typed(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        check_csv(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn parse_csv_structural_soup_is_ok_or_typed(
        pieces in proptest::collection::vec(
            proptest::sample::select(vec![",", "\"", "\n", "\r", "\r\n", "id", "title", "a b", ""]),
            0..60,
        ),
    ) {
        check_csv(&pieces.concat())?;
    }
}
