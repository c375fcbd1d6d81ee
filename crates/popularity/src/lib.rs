//! File-popularity profiles and fast sampling for the cache-network model.
//!
//! The paper (§II-B) assumes requests draw file types from a popularity
//! distribution `P = {p_1, …, p_K}` — either **Uniform** (`p_i = 1/K`) or
//! **Zipf** with parameter `γ` (`p_i ∝ i^{−γ}`), the empirically observed
//! law for web and video workloads (\[26\], \[27\] in the paper). Cache content
//! placement samples from the *same* distribution ("proportional
//! placement"), so both the request stream and the placement need millions
//! of fast draws:
//!
//! * [`Popularity`] — the profile itself (Uniform / Zipf / custom weights).
//! * [`AliasTable`] — Walker–Vose alias sampling: O(K) build, O(1) draw.
//! * [`FileSampler`] — profile-aware dispatcher picking the cheapest exact
//!   sampler (direct uniform draw / alias table).
//! * [`empirical`] — frequency counting and χ² statistics for tests.

pub mod alias;
pub mod empirical;
pub mod profile;
pub mod sampler;

pub use alias::AliasTable;
pub use profile::Popularity;
pub use sampler::FileSampler;

/// File identifier: an index in `0..K`.
pub type FileId = u32;
