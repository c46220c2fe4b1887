//! A dissimilarity artifact: the condensed matrix over one item set,
//! built at most once and shared by every analysis stage that needs
//! pairwise dissimilarities — and the unit the artifact store persists
//! for the monolithic matrix build.
//!
//! The matrix is the expensive product (O(n²) dissimilarity
//! evaluations). Everything the clustering stages derive from it is
//! cheap by comparison: ε-regions are row scans and the k-NN
//! dissimilarities come from one linear sweep
//! ([`CondensedMatrix::knn_table`]), so no derived structure is kept or
//! persisted alongside it.

use crate::matrix::CondensedMatrix;

/// The condensed dissimilarity matrix of one item set.
#[derive(Debug, Clone, PartialEq)]
pub struct DissimArtifact {
    matrix: CondensedMatrix,
}

impl DissimArtifact {
    /// Computes the pairwise matrix with `threads` worker threads.
    /// `f(i, j)` must be symmetric; it is called once per unordered
    /// pair `i < j`.
    pub fn compute(n: usize, threads: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        Self::from_matrix(CondensedMatrix::build_parallel(n, threads, f))
    }

    /// Computes the pairwise Canberra dissimilarity matrix directly
    /// from the segment slices via the kernel layer
    /// ([`CondensedMatrix::build_segments`]): bit-identical to
    /// [`compute`](Self::compute) over [`crate::dissimilarity`], several
    /// times faster.
    pub fn compute_segments(
        segments: &[&[u8]],
        params: &crate::canberra::DissimParams,
        threads: usize,
    ) -> Self {
        Self::from_matrix(CondensedMatrix::build_segments(segments, params, threads))
    }

    /// Wraps an existing matrix.
    pub fn from_matrix(matrix: CondensedMatrix) -> Self {
        Self { matrix }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Whether the artifact covers zero items.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// The condensed pairwise matrix.
    pub fn matrix(&self) -> &CondensedMatrix {
        &self.matrix
    }

    /// Consumes the artifact, returning the matrix.
    pub fn into_matrix(self) -> CondensedMatrix {
        self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_matches_serial_matrix() {
        let pts = [3.0f64, 1.0, 4.0, 1.5, 9.0];
        let a = DissimArtifact::compute(pts.len(), 3, |i, j| (pts[i] - pts[j]).abs());
        let m = CondensedMatrix::build(pts.len(), |i, j| (pts[i] - pts[j]).abs());
        assert_eq!(*a.matrix(), m);
        assert_eq!(a.len(), 5);
        assert_eq!(a.into_matrix(), m);
    }
}
