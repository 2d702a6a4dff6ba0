//! Evaluation: precision, recall and F1 over the matching class, the
//! paper's metric (Section 6.1).

/// Confusion-matrix-derived metrics for the matching (positive) class.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl Metrics {
    /// Compute from aligned prediction/label slices (1 = matching).
    pub fn from_predictions(preds: &[usize], labels: &[usize]) -> Metrics {
        assert_eq!(preds.len(), labels.len(), "prediction/label count mismatch");
        let mut m = Metrics::default();
        for (&p, &l) in preds.iter().zip(labels) {
            match (p, l) {
                (1, 1) => m.tp += 1,
                (1, 0) => m.fp += 1,
                (0, 1) => m.fn_ += 1,
                _ => m.tn += 1,
            }
        }
        m
    }

    /// Precision `TP / (TP + FP)` (0 when undefined).
    pub fn precision(&self) -> f32 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f32 / denom as f32
        }
    }

    /// Recall `TP / (TP + FN)` (0 when undefined).
    pub fn recall(&self) -> f32 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f32 / denom as f32
        }
    }

    /// F1 as a percentage in `[0, 100]`, matching the paper's tables.
    pub fn f1(&self) -> f32 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            100.0 * 2.0 * p * r / (p + r)
        }
    }
}

/// Mean and sample standard deviation of repeated F1 measurements — the
/// `mean ± std` entries of Tables 3-5.
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    if values.len() == 1 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (values.len() - 1) as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let m = Metrics::from_predictions(&[1, 0, 1, 0], &[1, 0, 1, 0]);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 100.0);
    }

    #[test]
    fn all_wrong() {
        let m = Metrics::from_predictions(&[0, 1], &[1, 0]);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn paper_formula() {
        // TP=2 FP=1 FN=1 → P=2/3 R=2/3 F1=2/3
        let m = Metrics::from_predictions(&[1, 1, 1, 0, 0], &[1, 1, 0, 1, 0]);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-6);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-6);
        assert!((m.f1() - 100.0 * 2.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn degenerate_no_positives() {
        let m = Metrics::from_predictions(&[0, 0], &[0, 0]);
        assert_eq!(m.f1(), 0.0); // no matches to find → F1 undefined → 0
    }

    #[test]
    fn always_positive_baseline() {
        // predicting everything as a match: recall 1, low precision
        let m = Metrics::from_predictions(&[1; 10], &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(m.recall(), 1.0);
        assert!((m.precision() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn mean_std_values() {
        let (m, s) = mean_std(&[80.0, 90.0, 100.0]);
        assert!((m - 90.0).abs() < 1e-4);
        assert!((s - 10.0).abs() < 1e-4);
        let (m1, s1) = mean_std(&[42.0]);
        assert_eq!((m1, s1), (42.0, 0.0));
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
