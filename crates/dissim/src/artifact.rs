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
    /// Computes the pairwise Canberra dissimilarity matrix directly
    /// from the segment slices via the kernel layer
    /// ([`CondensedMatrix::build_segments`]): bit-identical to
    /// [`CondensedMatrix::build`] over [`crate::dissimilarity`], several
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
        let segs: [&[u8]; 5] = [b"\x03", b"\x01\x02", b"\x04", b"\x01\x05\x09", b"\x09"];
        let p = crate::DissimParams::default();
        let a = DissimArtifact::compute_segments(&segs, &p, 3);
        let m = CondensedMatrix::build(segs.len(), |i, j| {
            crate::dissimilarity(segs[i], segs[j], &p)
        });
        assert_eq!(*a.matrix(), m);
        assert_eq!(a.len(), 5);
        assert_eq!(a.into_matrix(), m);
    }
}
