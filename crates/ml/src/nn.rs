//! Minimal neural-network numerics: dense matrices, activations,
//! softmax cross-entropy and the Adam optimiser.

use rand::Rng;
use rand::RngCore;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialisation.
    pub fn xavier<R: RngCore>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// `y = A·x` (length `rows`).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// `y = Aᵀ·x` (length `cols`).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += a * xr;
            }
        }
        y
    }

    /// `A += α · u ⊗ v` (outer product accumulate).
    pub fn add_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &uval) in u.iter().enumerate() {
            let ur = alpha * uval;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, &vc) in row.iter_mut().zip(v) {
                *a += ur * vc;
            }
        }
    }
}

#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Cross-entropy loss of a softmax distribution against a target class,
/// plus the logit gradient (`probs - onehot`).
pub fn softmax_cross_entropy(logits: &[f64], target: usize) -> (f64, Vec<f64>) {
    assert!(target < logits.len(), "target class out of range");
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = probs;
    grad[target] -= 1.0;
    (loss, grad)
}

/// Adam optimiser state for one parameter tensor.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
}

impl Adam {
    pub fn new(len: usize, lr: f64) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// One update step: `params -= lr · m̂ / (√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_known() {
        let mut a = Matrix::zeros(2, 3);
        a.data.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_product() {
        let mut a = Matrix::zeros(2, 2);
        a.add_outer(2.0, &[1.0, 3.0], &[5.0, 7.0]);
        assert_eq!(a.data, vec![10.0, 14.0, 30.0, 42.0]);
    }

    #[test]
    fn softmax_properties() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability with huge logits.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let (loss, grad) = softmax_cross_entropy(&[0.0, 0.0], 0);
        assert!((loss - (2.0f64).ln()).abs() < 1e-12);
        assert!((grad[0] + 0.5).abs() < 1e-12);
        assert!((grad[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_finite_difference() {
        let logits = [0.3, -1.2, 0.7, 0.1];
        let (_, grad) = softmax_cross_entropy(&logits, 2);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, 2);
            let (lm, _) = softmax_cross_entropy(&minus, 2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-6,
                "dim {i}: fd {fd} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (x - 3)^2 with Adam.
        let mut x = vec![0.0f64];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let grad = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &grad);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x = {}", x[0]);
    }

    #[test]
    fn xavier_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= limit));
        // Not all zero.
        assert!(a.data.iter().any(|v| v.abs() > 1e-4));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
