//! Deterministic heap-based top-k selection.
//!
//! Every blocker ranks candidates by a floating-point score; what makes
//! the results reproducible across thread counts, hash-map iteration
//! orders and insertion orders is that selection runs under a *total*
//! order: score descending, then candidate index ascending. Under a total
//! order the top-k **set** (and its sorted rendering) is unique no matter
//! in which order candidates are offered, so `par_map`-sharded queries
//! and serial queries agree bitwise.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Candidate;

/// A heap entry ordered so that the *worst* kept candidate is the heap
/// maximum (`BinaryHeap` is a max-heap; popping evicts the loser).
struct Entry(Candidate);

impl Entry {
    /// The keep-order: higher score wins; ties go to the lower index.
    fn beats(&self, other: &Entry) -> bool {
        match self.0.score.total_cmp(&other.0.score) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => self.0.right < other.0.right,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        // "Greater" means worse, so the max-heap surfaces the weakest
        // kept candidate for eviction.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.right.cmp(&other.0.right))
    }
}

/// Most heap slots [`TopK::new`] reserves up front. `k` can come from a
/// client (`match_table` / `match_record`), so reserving `k` slots would
/// let one request ask for any amount of memory; past this the heap grows
/// with what is actually pushed.
const PREALLOC_MAX: usize = 1024;

/// Accumulates candidates, keeping only the best `k` under the
/// deterministic order (score descending, index ascending).
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Entry>,
}

impl TopK {
    /// New accumulator keeping at most `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(PREALLOC_MAX)),
        }
    }

    /// Offer one candidate; it is kept only if it beats the current
    /// weakest (or the heap is not yet full).
    pub fn push(&mut self, cand: Candidate) {
        if self.k == 0 {
            return;
        }
        let entry = Entry(cand);
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.beats(worst) {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Number of candidates currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept candidates, best first (score descending, index
    /// ascending) — a deterministic function of the offered *set*.
    pub fn into_sorted(self) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = self.heap.into_iter().map(|e| e.0).collect();
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.right.cmp(&b.right))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(right: usize, score: f32) -> Candidate {
        Candidate { right, score }
    }

    #[test]
    fn keeps_best_k_sorted() {
        let mut t = TopK::new(3);
        for (j, s) in [(5, 0.2), (1, 0.9), (9, 0.5), (2, 0.7), (7, 0.1)] {
            t.push(cand(j, s));
        }
        let got: Vec<(usize, f32)> = t.into_sorted().iter().map(|c| (c.right, c.score)).collect();
        assert_eq!(got, vec![(1, 0.9), (2, 0.7), (9, 0.5)]);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let mut t = TopK::new(2);
        for j in [8, 3, 5, 1] {
            t.push(cand(j, 0.5));
        }
        let got: Vec<usize> = t.into_sorted().iter().map(|c| c.right).collect();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn result_is_insertion_order_independent() {
        let items: Vec<Candidate> = (0..20)
            .map(|j| cand(j, [0.3, 0.8, 0.8, 0.1][j % 4]))
            .collect();
        let mut forward = TopK::new(5);
        let mut backward = TopK::new(5);
        for c in &items {
            forward.push(*c);
        }
        for c in items.iter().rev() {
            backward.push(*c);
        }
        let f = forward.into_sorted();
        let b = backward.into_sorted();
        assert_eq!(f.len(), 5);
        for (x, y) in f.iter().zip(&b) {
            assert_eq!((x.right, x.score.to_bits()), (y.right, y.score.to_bits()));
        }
    }

    #[test]
    fn k_zero_and_underfull() {
        let mut t = TopK::new(0);
        t.push(cand(1, 1.0));
        assert!(t.is_empty());
        let mut t = TopK::new(10);
        t.push(cand(4, 0.5));
        t.push(cand(2, 0.5));
        assert_eq!(t.len(), 2);
        let got: Vec<usize> = t.into_sorted().iter().map(|c| c.right).collect();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn huge_k_reserves_only_what_is_pushed() {
        // `k` is client-chosen: `usize::MAX` must neither overflow nor
        // try to reserve that many slots.
        let mut t = TopK::new(usize::MAX);
        for j in 0..3 {
            t.push(cand(j, j as f32));
        }
        let got: Vec<usize> = t.into_sorted().iter().map(|c| c.right).collect();
        assert_eq!(got, vec![2, 1, 0]);
    }
}
