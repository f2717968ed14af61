//! Dataset substrate for FreqyWM.
//!
//! FreqyWM is data-type agnostic: it operates on *tokens* — any
//! repeating value in a dataset (a URL, a taxi id, an age, a
//! combination of attributes). This crate provides:
//!
//! * [`token`] — the token model, including multi-attribute tokens for
//!   multi-dimensional datasets (Sec. IV-C);
//! * [`histogram`] — frequency histograms sorted by rank, with the
//!   upper/lower boundaries the eligibility rule needs (Sec. III-B1);
//! * [`dataset`] — token sequences and multi-column tables, plus the
//!   add/remove-instances transformation surface;
//! * [`synthetic`] — the power-law generator behind the Sec. IV-A
//!   experiments (1M samples over 1K tokens, skew α);
//! * [`realworld`] — simulated stand-ins for Chicago Taxi, eyeWnder
//!   and Adult, whose originals are not redistributable;
//! * [`csv`] — a small CSV reader/writer for the CLI and examples;
//! * [`bucketize`] — bucketing of wide-range numeric data (Sec. VI,
//!   "challenging datasets");
//! * [`sketch`] — streaming top-k (Space-Saving) and Count-Min
//!   summaries for histogram construction over streams too large to
//!   hold exactly.

pub mod bucketize;
pub mod csv;
pub mod dataset;
pub mod histogram;
pub mod realworld;
pub mod sketch;
pub mod synthetic;
pub mod token;

pub use dataset::{Dataset, Table};
pub use histogram::{Boundaries, Histogram};
pub use token::Token;
