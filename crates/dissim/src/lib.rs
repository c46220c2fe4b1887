#![warn(missing_docs)]
//! Canberra dissimilarity for byte segments and condensed pairwise
//! matrices.
//!
//! The clustering pipeline interprets every message segment as a vector
//! of byte values and compares segments with the *Canberra dissimilarity*
//! (Kleber et al., INFOCOM 2020), which extends the classic Canberra
//! distance (Lance & Williams, 1966) to vectors of different dimensions
//! by sliding the shorter vector over the longer one and penalizing the
//! non-overlap (paper §III-C).
//!
//! The O(n²) pairwise matrix build is the pipeline's dominant cost; the
//! [`kernel`] layer (byte-pair LUT, early-abandon sliding windows,
//! length-bucketed scheduling — see [`CondensedMatrix::build_segments`])
//! makes it several times faster while staying bit-identical to the
//! scalar reference [`dissimilarity`].
//!
//! # Examples
//!
//! ```
//! use dissim::{dissimilarity, DissimParams};
//!
//! let params = DissimParams::default();
//! // Identical segments have dissimilarity 0.
//! assert_eq!(dissimilarity(b"\x10\x20\x30", b"\x10\x20\x30", &params), 0.0);
//! // Same-prefix values of different length are closer than unrelated ones.
//! let near = dissimilarity(b"\x10\x20\x30\x01", b"\x10\x20\x30", &params);
//! let far = dissimilarity(b"\xff\x01\x80\x55", b"\x10\x20\x30", &params);
//! assert!(near < far);
//! ```

pub mod artifact;
pub mod canberra;
mod cells;
pub mod kernel;
pub mod knn;
pub mod matrix;
pub mod provider;
pub mod region;
pub mod strata;
pub mod tiled;
pub mod vptree;

pub use artifact::DissimArtifact;
pub use canberra::{canberra_distance, dissimilarity, DissimParams, InvalidLengthPenalty};
pub use kernel::{CanberraLut, QueryDist};
pub use knn::{KnnAccumulator, KnnTable};
pub use matrix::{CondensedMatrix, MatrixView};
pub use provider::{MatrixProvider, NeighborProvider};
pub use region::RegionTable;
pub use strata::{length_lower_bound, QueryCounters, StrataIndex, StratifiedProvider, Stratum};
pub use tiled::{MatrixTile, TiledMatrix};
pub use vptree::{VpForest, VpTree};
