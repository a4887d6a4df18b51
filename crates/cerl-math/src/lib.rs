//! # cerl-math
//!
//! Dense linear-algebra and numerics substrate for the CERL workspace
//! (reproduction of *Continual Causal Inference with Incremental
//! Observational Data*, ICDE 2023).
//!
//! Provides:
//! * [`Matrix`] — row-major dense `f64` matrix (units are rows).
//! * [`matmul`](mod@matmul) — blocked serial and crossbeam-parallel GEMM
//!   kernels; `A·B`, `Aᵀ·B` and `A·Bᵀ` all run on the same blocked
//!   kernel and share its bitwise determinism contract.
//! * [`decomp`] — Cholesky factorization and Jacobi symmetric eigen.
//! * [`special`] — erf / normal CDF / quantile / log-gamma.
//! * [`correlation`] — hub-Toeplitz correlation construction
//!   (Hardin, Garcia & Golan 2013; paper §IV.C, Eqs. 11–12).
//! * [`stats`] — running moments, paired t-test, quantiles.
//! * [`norms`] — distances, cosine similarity, pairwise kernels.
//!
//! This crate has no randomness; anything stochastic lives in `cerl-rand`.

#![warn(missing_docs)]

pub mod correlation;
pub mod decomp;
pub mod error;
pub mod matmul;
pub mod matrix;
pub mod norms;
pub mod special;
pub mod stats;

pub use error::MathError;
pub use matmul::{dot, matmul, matmul_a_bt, matmul_at_b, matvec};
pub use matrix::Matrix;
