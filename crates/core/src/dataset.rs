//! The point database `D`.
//!
//! A [`Dataset`] stores `n` points in `d` dimensions in a single flat,
//! row-major buffer. All attributes follow the paper's convention of
//! "larger is better" and must be finite and non-negative
//! (points live in `R^d_{>=0}`, Definition 1).

use crate::error::{FamError, Result};

/// An immutable collection of `n` points in `d` dimensions.
///
/// # Examples
///
/// ```
/// use fam_core::Dataset;
///
/// let d = Dataset::from_rows(vec![
///     vec![0.9, 0.1],
///     vec![0.5, 0.5],
///     vec![0.1, 0.9],
/// ]).unwrap();
/// assert_eq!(d.len(), 3);
/// assert_eq!(d.dim(), 2);
/// assert_eq!(d.point(1), &[0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f64>,
    dim: usize,
    labels: Option<Vec<String>>,
}

impl Dataset {
    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim == 0`, the buffer is empty or not a multiple
    /// of `dim`, or any value is non-finite or negative.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(FamError::ZeroDimension);
        }
        if data.is_empty() {
            return Err(FamError::EmptyDataset);
        }
        if !data.len().is_multiple_of(dim) {
            return Err(FamError::DimensionMismatch { expected: dim, got: data.len() % dim });
        }
        for (i, v) in data.iter().enumerate() {
            if !v.is_finite() {
                return Err(FamError::NonFinite { row: i / dim, col: i % dim });
            }
            if *v < 0.0 {
                return Err(FamError::NegativeValue { row: i / dim, col: i % dim });
            }
        }
        Ok(Dataset { data, dim, labels: None })
    }

    /// Builds a dataset from per-point rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are empty, ragged, or contain
    /// non-finite/negative values.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let dim = rows.first().map(|r| r.len()).ok_or(FamError::EmptyDataset)?;
        if dim == 0 {
            return Err(FamError::ZeroDimension);
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(FamError::DimensionMismatch { expected: dim, got: row.len() });
            }
            data.extend_from_slice(row);
        }
        Self::from_flat(data, dim)
    }

    /// Attaches human-readable labels (e.g. hotel or player names) to points.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of labels differs from the number of
    /// points.
    pub fn with_labels(mut self, labels: Vec<String>) -> Result<Self> {
        if labels.len() != self.len() {
            return Err(FamError::DimensionMismatch { expected: self.len(), got: labels.len() });
        }
        self.labels = Some(labels);
        Ok(self)
    }

    /// Number of points `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the dataset holds no points (never true for a constructed
    /// dataset; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Label of point `i`, if labels were attached.
    pub fn label(&self, i: usize) -> Option<&str> {
        self.labels.as_ref().map(|l| l[i].as_str())
    }

    /// Iterator over all points, in index order.
    pub fn points(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The flat row-major coordinate buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Returns a new dataset containing only the points at `indices`
    /// (in the given order), carrying labels along when present.
    ///
    /// # Errors
    ///
    /// Returns an error if `indices` is empty or any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Result<Self> {
        if indices.is_empty() {
            return Err(FamError::EmptyDataset);
        }
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            if i >= self.len() {
                return Err(FamError::IndexOutOfBounds { index: i, len: self.len() });
            }
            data.extend_from_slice(self.point(i));
        }
        let labels = self.labels.as_ref().map(|l| indices.iter().map(|&i| l[i].clone()).collect());
        Ok(Dataset { data, dim: self.dim, labels })
    }

    /// A copy with one point batch applied: `delete` indexes the current
    /// points (swap-remove: freed slots are refilled in descending order
    /// by the then-last point), and `insert`'s coordinates append after
    /// the survivors in batch order. When the points carry labels,
    /// survivors keep theirs and inserted point `j` is labelled
    /// `label(j)`. Returns the copy and the remap of the current points
    /// (`None` for deleted ones; see [`crate::swap_remove_remap`]).
    ///
    /// # Errors
    ///
    /// Checking in this order: an inserted point of the wrong dimension
    /// ([`FamError::DimensionMismatch`]); an out-of-bounds or duplicate
    /// delete; a batch that deletes every point
    /// ([`FamError::EmptyDataset`]); invalid inserted coordinates (see
    /// [`Dataset::from_flat`]).
    pub fn with_point_edits(
        &self,
        delete: &[usize],
        insert: &[&[f64]],
        label: impl Fn(usize) -> String,
    ) -> Result<(Dataset, Vec<Option<u32>>)> {
        if let Some(bad) = insert.iter().find(|coords| coords.len() != self.dim) {
            return Err(FamError::DimensionMismatch { expected: self.dim, got: bad.len() });
        }
        let remap = crate::scores::swap_remove_remap(self.len(), delete)?;
        if delete.len() == self.len() {
            return Err(FamError::EmptyDataset);
        }
        // `order[slot]` is the current point that ends up in `slot`.
        let mut order = vec![0usize; self.len() - delete.len()];
        for (p, slot) in remap.iter().enumerate() {
            if let Some(s) = slot {
                order[*s as usize] = p;
            }
        }
        let mut data = Vec::with_capacity((order.len() + insert.len()) * self.dim);
        for &p in &order {
            data.extend_from_slice(self.point(p));
        }
        for coords in insert {
            data.extend_from_slice(coords);
        }
        let mut next = Dataset::from_flat(data, self.dim)?;
        next.labels = self.labels.as_ref().map(|labels| {
            order.iter().map(|&p| labels[p].clone()).chain((0..insert.len()).map(label)).collect()
        });
        Ok((next, remap))
    }

    /// Scales every dimension so that its maximum becomes 1 (the paper
    /// normalizes utilities "by the largest utility value"). Dimensions whose
    /// maximum is 0 are left untouched.
    #[must_use]
    pub fn normalized_max(&self) -> Self {
        let mut maxes = vec![0.0f64; self.dim];
        for p in self.points() {
            for (m, v) in maxes.iter_mut().zip(p) {
                if *v > *m {
                    *m = *v;
                }
            }
        }
        let mut data = self.data.clone();
        for (i, v) in data.iter_mut().enumerate() {
            let m = maxes[i % self.dim];
            if m > 0.0 {
                *v /= m;
            }
        }
        Dataset { data, dim: self.dim, labels: self.labels.clone() }
    }

    /// Per-dimension maxima, useful for manual normalization checks.
    pub fn dim_maxes(&self) -> Vec<f64> {
        let mut maxes = vec![f64::NEG_INFINITY; self.dim];
        for p in self.points() {
            for (m, v) in maxes.iter_mut().zip(p) {
                if *v > *m {
                    *m = *v;
                }
            }
        }
        maxes
    }

    /// Validates that `indices` form a legal selection over this dataset:
    /// non-empty, within bounds, and free of duplicates.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first violation found.
    pub fn validate_selection(&self, indices: &[usize]) -> Result<()> {
        if indices.is_empty() {
            return Err(FamError::InvalidK { k: 0, n: self.len() });
        }
        let mut seen = vec![false; self.len()];
        for &i in indices {
            if i >= self.len() {
                return Err(FamError::IndexOutOfBounds { index: i, len: self.len() });
            }
            if seen[i] {
                return Err(FamError::InvalidParameter {
                    name: "selection",
                    message: format!("duplicate point index {i}"),
                });
            }
            seen[i] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![vec![1.0, 4.0], vec![2.0, 3.0], vec![3.0, 1.0]]).unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.point(0), &[1.0, 4.0]);
        assert_eq!(d.point(2), &[3.0, 1.0]);
        assert_eq!(d.points().count(), 3);
    }

    #[test]
    fn from_flat_checks_multiple_of_dim() {
        assert!(matches!(
            Dataset::from_flat(vec![1.0, 2.0, 3.0], 2),
            Err(FamError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(Dataset::from_rows(vec![]), Err(FamError::EmptyDataset)));
        assert!(matches!(Dataset::from_flat(vec![], 2), Err(FamError::EmptyDataset)));
    }

    #[test]
    fn rejects_zero_dim() {
        assert!(matches!(Dataset::from_rows(vec![vec![]]), Err(FamError::ZeroDimension)));
    }

    #[test]
    fn rejects_ragged_rows() {
        let r = Dataset::from_rows(vec![vec![1.0, 2.0], vec![1.0]]);
        assert!(matches!(r, Err(FamError::DimensionMismatch { expected: 2, got: 1 })));
    }

    #[test]
    fn rejects_nan_and_negative() {
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0, f64::NAN]]),
            Err(FamError::NonFinite { row: 0, col: 1 })
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0, -0.5]]),
            Err(FamError::NegativeValue { row: 0, col: 1 })
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![f64::INFINITY, 0.5]]),
            Err(FamError::NonFinite { row: 0, col: 0 })
        ));
    }

    #[test]
    fn normalization_scales_each_dim_to_unit_max() {
        let d = sample().normalized_max();
        let maxes = d.dim_maxes();
        assert!((maxes[0] - 1.0).abs() < 1e-12);
        assert!((maxes[1] - 1.0).abs() < 1e-12);
        assert_eq!(d.point(0), &[1.0 / 3.0, 1.0]);
    }

    #[test]
    fn normalization_handles_all_zero_dim() {
        let d = Dataset::from_rows(vec![vec![0.0, 1.0], vec![0.0, 2.0]]).unwrap();
        let n = d.normalized_max();
        assert_eq!(n.point(0), &[0.0, 0.5]);
    }

    #[test]
    fn subset_carries_labels() {
        let d = sample().with_labels(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let s = d.subset(&[2, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[3.0, 1.0]);
        assert_eq!(s.label(0), Some("c"));
        assert_eq!(s.label(1), Some("a"));
    }

    #[test]
    fn subset_rejects_bad_indices() {
        assert!(sample().subset(&[5]).is_err());
        assert!(sample().subset(&[]).is_err());
    }

    #[test]
    fn point_edits_swap_remove_append_and_relabel() {
        let d = Dataset::from_rows((0..5).map(|i| vec![i as f64, 1.0]).collect())
            .unwrap()
            .with_labels(["a", "b", "c", "d", "e"].map(String::from).to_vec())
            .unwrap();
        let label = |j: usize| format!("new-{j}");
        // Deleting 1 and 3, in descending order: e refills slot 3, then,
        // as the last point again, slot 1.
        let (next, remap) = d.with_point_edits(&[1, 3], &[&[9.0, 9.0]], label).unwrap();
        assert_eq!(remap, vec![Some(0), None, Some(2), None, Some(1)]);
        let rows: Vec<(&str, &[f64])> =
            (0..next.len()).map(|i| (next.label(i).unwrap(), next.point(i))).collect();
        let want: Vec<(&str, &[f64])> = vec![
            ("a", &[0.0, 1.0]),
            ("e", &[4.0, 1.0]),
            ("c", &[2.0, 1.0]),
            ("new-0", &[9.0, 9.0]),
        ];
        assert_eq!(rows, want);
        // An insert-only batch keeps every slot; unlabelled points stay
        // unlabelled.
        let plain = sample();
        let (next, remap) = plain.with_point_edits(&[], &[&[0.5, 0.5]], label).unwrap();
        assert_eq!(remap, vec![Some(0), Some(1), Some(2)]);
        assert_eq!((next.len(), next.point(3), next.label(3)), (4, &[0.5, 0.5][..], None));
        // The errors, in order: a wrong-dimension insert wins over a bad
        // delete, which wins over emptying the dataset, which wins over
        // invalid inserted coordinates.
        assert!(matches!(
            plain.with_point_edits(&[7], &[&[1.0]], label),
            Err(FamError::DimensionMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            plain.with_point_edits(&[0, 1, 2, 3], &[&[-1.0, 0.0]], label),
            Err(FamError::IndexOutOfBounds { index: 3, len: 3 })
        ));
        assert!(matches!(
            plain.with_point_edits(&[1, 1], &[], label),
            Err(FamError::InvalidParameter { name: "delete", .. })
        ));
        assert!(matches!(
            plain.with_point_edits(&[0, 1, 2], &[&[-1.0, 0.0]], label),
            Err(FamError::EmptyDataset)
        ));
        assert!(matches!(
            plain.with_point_edits(&[0], &[&[0.5, f64::NAN]], label),
            Err(FamError::NonFinite { row: 2, col: 1 })
        ));
    }

    #[test]
    fn labels_must_match_len() {
        assert!(sample().with_labels(vec!["x".into()]).is_err());
    }

    #[test]
    fn validate_selection_rules() {
        let d = sample();
        assert!(d.validate_selection(&[0, 2]).is_ok());
        assert!(d.validate_selection(&[]).is_err());
        assert!(d.validate_selection(&[3]).is_err());
        assert!(d.validate_selection(&[1, 1]).is_err());
    }
}
