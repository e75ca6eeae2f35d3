//! Weight initialisation from seeded RNGs.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded initialiser handing out Xavier/Glorot-uniform weights.
#[derive(Debug)]
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// Creates an initialiser from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Xavier-uniform `rows × cols` matrix: U(−l, l), l = √(6/(fan_in+fan_out)).
    pub fn xavier(&mut self, rows: usize, cols: usize) -> Matrix {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| self.rng.random_range(-limit..limit))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Uniform `U(-limit, limit)` matrix for custom scales.
    pub fn uniform(&mut self, rows: usize, cols: usize, limit: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| self.rng.random_range(-limit..limit))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_limit() {
        let mut init = Initializer::new(3);
        let m = init.xavier(20, 30);
        let limit = (6.0 / 50.0f64).sqrt();
        assert!(m.data().iter().all(|v| v.abs() < limit));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Initializer::new(9).xavier(5, 5);
        let b = Initializer::new(9).xavier(5, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Initializer::new(1).xavier(5, 5);
        let b = Initializer::new(2).xavier(5, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_is_near_zero() {
        let m = Initializer::new(7).xavier(50, 50);
        let mean: f64 = m.data().iter().sum::<f64>() / m.data().len() as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
    }
}
