//! Sinkhorn iterations for entropy-regularized optimal transport.
//!
//! The paper balances treated/control representation distributions with an
//! IPM instantiated as the Wasserstein distance (Eq. 3), following the CFR
//! line of work, which computes it with Sinkhorn iterations.
//!
//! [`sinkhorn_plan`] runs one of two forms of the same iteration, chosen
//! from its input:
//!
//! * **Scaling form** (Cuturi 2013) when every entry of `C/ε` lies in
//!   `[0, B]` with `B =` [`SCALING_FORM_BOUND`]. The Gibbs kernel
//!   `K = exp(−C/ε)` is built once (`n·m` exps), then each iteration is two
//!   mat-vecs, `u = a ⊘ K·v` and `v = b ⊘ Kᵀ·u`, starting from `v = 1`; the
//!   plan is `diag(u)·K·diag(v)`. Every kernel entry is then at least
//!   `e^−B`, a normal `f64`, so the scalings stay finite.
//! * **Log-domain form** otherwise (small `ε` against the cost, negative
//!   or non-finite costs): the potentials `f, g` are updated with
//!   log-sum-exp, which is robust to any `ε` but costs `2·n·m` exps per
//!   iteration.
//!
//! The two forms compute the same iterates — `u = e^{f/ε}`, `v = e^{g/ε}`,
//! and `v = 1` is the log form's `g = 0` start — so they agree up to
//! rounding. Both are deterministic: the same input gives the same bits.

use cerl_math::Matrix;

/// Largest `max C/ε` for which [`sinkhorn_plan`] uses the scaling form.
///
/// Below it every Gibbs kernel entry `exp(−C/ε)` is at least `e^−500 ≈
/// 7e−218`, a normal `f64`. The scalings stay in range as well: the
/// Sinkhorn map on the potentials is non-expansive in the sup norm and
/// commutes with shifts, so from the `v = 1` start `u ≤ e^B` and
/// `v ≤ e^B · max b / min b` at every iteration. Training with
/// [`EpsilonMode::RelativeToMeanCost`] sits far below
/// the bound (`max C/ε` is the max-to-mean cost ratio over `ε`, on the
/// order of 100); only a small [`EpsilonMode::Absolute`] `ε` crosses it.
pub const SCALING_FORM_BOUND: f64 = 500.0;

/// Configuration for the Sinkhorn solver.
#[derive(Debug, Clone, Copy)]
pub struct SinkhornConfig {
    /// Entropic regularization strength. Interpreted per [`EpsilonMode`].
    pub epsilon: f64,
    /// How `epsilon` relates to the cost matrix.
    pub epsilon_mode: EpsilonMode,
    /// Number of Sinkhorn iterations.
    pub iterations: usize,
}

/// Interpretation of the `epsilon` field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonMode {
    /// Use `epsilon` directly.
    Absolute,
    /// Use `epsilon · mean(cost)`, adapting regularization to the scale of
    /// the batch (recommended; cost scales vary wildly across domains).
    RelativeToMeanCost,
}

impl Default for SinkhornConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            epsilon_mode: EpsilonMode::RelativeToMeanCost,
            iterations: 50,
        }
    }
}

/// Output of [`sinkhorn_plan`].
#[derive(Debug, Clone)]
pub struct SinkhornResult {
    /// Transport plan `P` (rows sum to `a`, columns to `b`).
    pub plan: Matrix,
    /// Transport cost `⟨P, C⟩` (without the entropy term).
    pub cost: f64,
    /// Effective `ε` actually used (after mode resolution).
    pub effective_epsilon: f64,
}

/// Solve entropy-regularized OT between histograms `a` (len n) and `b`
/// (len m) under cost matrix `cost` (n×m), returning the plan and cost.
///
/// # Panics
/// If marginals are not positive probability vectors matching `cost`'s
/// shape.
pub fn sinkhorn_plan(cost: &Matrix, a: &[f64], b: &[f64], cfg: &SinkhornConfig) -> SinkhornResult {
    let (n, m) = cost.shape();
    assert_eq!(a.len(), n, "sinkhorn_plan: marginal a length mismatch");
    assert_eq!(b.len(), m, "sinkhorn_plan: marginal b length mismatch");
    if n == 0 || m == 0 {
        return SinkhornResult {
            plan: Matrix::zeros(n, m),
            cost: 0.0,
            effective_epsilon: cfg.epsilon,
        };
    }
    assert!(
        a.iter().all(|&v| v > 0.0),
        "sinkhorn_plan: marginal a must be positive"
    );
    assert!(
        b.iter().all(|&v| v > 0.0),
        "sinkhorn_plan: marginal b must be positive"
    );

    let eps = match cfg.epsilon_mode {
        EpsilonMode::Absolute => cfg.epsilon,
        EpsilonMode::RelativeToMeanCost => {
            let mean_c = cost.mean().max(1e-12);
            cfg.epsilon * mean_c
        }
    }
    .max(1e-12);

    let iterations = cfg.iterations.max(1);
    let (plan, total) = match gibbs_kernel(cost, eps) {
        Some(kernel) => sinkhorn_scaling(cost, &kernel, a, b, iterations),
        None => sinkhorn_log(cost, a, b, eps, iterations),
    };
    SinkhornResult {
        plan,
        cost: total,
        effective_epsilon: eps,
    }
}

/// The Gibbs kernel `K = exp(−C/ε)`, or `None` when some entry of `C/ε`
/// falls outside `[0, SCALING_FORM_BOUND]` (including NaN), which sends
/// the solve to the log domain.
fn gibbs_kernel(cost: &Matrix, eps: f64) -> Option<Matrix> {
    let mut kernel = cost.clone();
    for k in kernel.as_mut_slice() {
        let r = *k / eps;
        if !(0.0..=SCALING_FORM_BOUND).contains(&r) {
            return None;
        }
        *k = (-r).exp();
    }
    Some(kernel)
}

/// Scaling-form Sinkhorn over a precomputed Gibbs kernel; returns the plan
/// `diag(u)·K·diag(v)` and `⟨P, C⟩`.
fn sinkhorn_scaling(
    cost: &Matrix,
    kernel: &Matrix,
    a: &[f64],
    b: &[f64],
    iterations: usize,
) -> (Matrix, f64) {
    let kernel_t = kernel.transpose();
    let mut u = vec![0.0; a.len()];
    let mut v = vec![1.0; b.len()];
    for _ in 0..iterations {
        // u ← a ⊘ K·v
        transposed_mat_vec(&kernel_t, &v, &mut u);
        for (ui, &ai) in u.iter_mut().zip(a) {
            *ui = ai / *ui;
        }
        // v ← b ⊘ Kᵀ·u
        transposed_mat_vec(kernel, &u, &mut v);
        for (vj, &bj) in v.iter_mut().zip(b) {
            *vj = bj / *vj;
        }
    }

    let mut plan = kernel.clone();
    let mut total = 0.0;
    let rows = plan.as_mut_slice().chunks_exact_mut(b.len());
    for ((prow, crow), &ui) in rows.zip(cost.iter_rows()).zip(&u) {
        for ((p, &c), &vj) in prow.iter_mut().zip(crow).zip(&v) {
            *p = ui * *p * vj;
            total += *p * c;
        }
    }
    (plan, total)
}

/// `out = Mᵀ·x` for row-major `M` with `x.len()` rows, summed as scaled
/// rows of `M` in ascending row order so the inner loop is a
/// vectorizable axpy rather than a serial dot-product reduction.
fn transposed_mat_vec(m: &Matrix, x: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (row, &xr) in m.iter_rows().zip(x) {
        for (o, &k) in out.iter_mut().zip(row) {
            *o += xr * k;
        }
    }
}

/// Log-domain Sinkhorn on the potentials `f`, `g`; returns the plan and
/// `⟨P, C⟩`.
fn sinkhorn_log(cost: &Matrix, a: &[f64], b: &[f64], eps: f64, iterations: usize) -> (Matrix, f64) {
    let (n, m) = cost.shape();
    let log_a: Vec<f64> = a.iter().map(|&v| v.ln()).collect();
    let log_b: Vec<f64> = b.iter().map(|&v| v.ln()).collect();
    let mut f = vec![0.0; n]; // potential for rows
    let mut g = vec![0.0; m]; // potential for columns

    for _ in 0..iterations {
        // f_i ← ε·log a_i − ε·LSE_j((g_j − C_ij)/ε)
        for i in 0..n {
            let row = cost.row(i);
            let mut mx = f64::NEG_INFINITY;
            for (j, &c) in row.iter().enumerate() {
                mx = mx.max((g[j] - c) / eps);
            }
            let mut s = 0.0;
            for (j, &c) in row.iter().enumerate() {
                s += ((g[j] - c) / eps - mx).exp();
            }
            f[i] = eps * log_a[i] - eps * (mx + s.ln());
        }
        // g_j ← ε·log b_j − ε·LSE_i((f_i − C_ij)/ε)
        for j in 0..m {
            let mut mx = f64::NEG_INFINITY;
            for i in 0..n {
                mx = mx.max((f[i] - cost[(i, j)]) / eps);
            }
            let mut s = 0.0;
            for i in 0..n {
                s += ((f[i] - cost[(i, j)]) / eps - mx).exp();
            }
            g[j] = eps * log_b[j] - eps * (mx + s.ln());
        }
    }

    let mut plan = Matrix::zeros(n, m);
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..m {
            let p = ((f[i] + g[j] - cost[(i, j)]) / eps).exp();
            plan[(i, j)] = p;
            total += p * cost[(i, j)];
        }
    }
    (plan, total)
}

/// [`sinkhorn_plan`] with uniform marginals.
pub fn sinkhorn_uniform(cost: &Matrix, cfg: &SinkhornConfig) -> SinkhornResult {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    sinkhorn_plan(cost, &a, &b, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_math::norms::pairwise_sq_dists;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg(eps: f64, iters: usize) -> SinkhornConfig {
        SinkhornConfig {
            epsilon: eps,
            epsilon_mode: EpsilonMode::Absolute,
            iterations: iters,
        }
    }

    #[test]
    fn marginals_are_respected() {
        let cost = Matrix::from_fn(4, 6, |i, j| ((i * 3 + j) as f64 * 0.7).sin().abs() + 0.1);
        let r = sinkhorn_uniform(&cost, &cfg(0.05, 300));
        // Row sums ≈ 1/4, column sums ≈ 1/6.
        for i in 0..4 {
            let s: f64 = r.plan.row(i).iter().sum();
            assert!((s - 0.25).abs() < 1e-6, "row {i} sum {s}");
        }
        for j in 0..6 {
            let s: f64 = r.plan.col(j).iter().sum();
            assert!((s - 1.0 / 6.0).abs() < 1e-6, "col {j} sum {s}");
        }
    }

    #[test]
    fn identical_points_give_zero_cost() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let cost = pairwise_sq_dists(&x, &x);
        let r = sinkhorn_uniform(&cost, &cfg(0.01, 200));
        assert!(r.cost < 1e-6, "cost={}", r.cost);
    }

    #[test]
    fn matches_exact_on_two_points() {
        // Two treated at {0, 1}, two control at {0, 1} shifted by δ:
        // optimal coupling matches nearest neighbours.
        let xt = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let xc = Matrix::from_rows(&[vec![0.1], vec![1.1]]);
        let cost = pairwise_sq_dists(&xt, &xc);
        // max C/ε = 1210: beyond the scaling bound, so this runs in the
        // log domain.
        assert!(gibbs_kernel(&cost, 0.001).is_none());
        let r = sinkhorn_uniform(&cost, &cfg(0.001, 500));
        // Exact W2² = mean of (0.1)² = 0.01.
        assert!((r.cost - 0.01).abs() < 1e-3, "cost={}", r.cost);
        // Plan concentrates on the diagonal.
        assert!(r.plan[(0, 0)] > 0.4 && r.plan[(1, 1)] > 0.4);
        assert!(r.plan[(0, 1)] < 0.1 && r.plan[(1, 0)] < 0.1);
    }

    #[test]
    fn larger_epsilon_blurs_plan() {
        let xt = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let xc = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let cost = pairwise_sq_dists(&xt, &xc);
        let sharp = sinkhorn_uniform(&cost, &cfg(0.1, 300));
        let blurred = sinkhorn_uniform(&cost, &cfg(100.0, 300));
        assert!(sharp.plan[(0, 0)] > blurred.plan[(0, 0)]);
        assert!(blurred.cost > sharp.cost);
    }

    #[test]
    fn relative_epsilon_scales_with_cost() {
        let cost_small =
            Matrix::from_fn(3, 3, |i, j| ((i + 2 * j) as f64 * 0.31).cos().abs() * 0.01);
        let cost_big = cost_small.scale(1e6);
        let cfg_rel = SinkhornConfig {
            epsilon: 0.05,
            epsilon_mode: EpsilonMode::RelativeToMeanCost,
            iterations: 200,
        };
        let rs = sinkhorn_uniform(&cost_small, &cfg_rel);
        let rb = sinkhorn_uniform(&cost_big, &cfg_rel);
        // Plans should be (nearly) identical because ε scales with cost.
        assert!(rs.plan.approx_eq(&rb.plan, 1e-6));
        assert!((rb.cost / rs.cost - 1e6).abs() / 1e6 < 1e-6);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let cost = Matrix::zeros(0, 3);
        let r = sinkhorn_plan(&cost, &[], &[0.3, 0.3, 0.4], &SinkhornConfig::default());
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.plan.shape(), (0, 3));
    }

    /// Entries of `P` within `rel` of each other, relative to the larger.
    fn plans_agree(p: &Matrix, q: &Matrix, rel: f64) -> bool {
        p.shape() == q.shape()
            && p.as_slice()
                .iter()
                .zip(q.as_slice())
                .all(|(&x, &y)| (x - y).abs() <= rel * x.abs().max(y.abs()))
    }

    #[test]
    fn path_choice_follows_cost_over_epsilon() {
        let eps = 0.01;
        let at = |c: f64| gibbs_kernel(&Matrix::filled(2, 3, c), eps).is_some();
        assert!(at(0.0));
        assert!(at(SCALING_FORM_BOUND * eps));
        assert!(!at(SCALING_FORM_BOUND * eps * 1.001));
        assert!(!at(-1e-9), "negative costs take the log domain");
        assert!(!at(f64::NAN));
        assert!(!at(f64::INFINITY));
    }

    #[test]
    fn scaling_form_matches_log_form() {
        // Same iterates in two parameterizations: over random costs whose
        // max C/ε sweeps up to just below the bound, plan and cost agree to
        // 1e-9 relative, with uniform and non-uniform marginals.
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..48 {
            let n = rng.gen_range(1..40);
            let m = rng.gen_range(1..40);
            let cost = Matrix::from_fn(n, m, |_, _| rng.gen::<f64>() * 3.0);
            let max_ratio = [1.0, 20.0, 150.0, 0.99 * SCALING_FORM_BOUND][case % 4];
            let top = cost.as_slice().iter().fold(1e-3, |t, &c| c.max(t));
            let eps = top / max_ratio;
            let iterations = [1, 30, 200][case % 3];
            let mut a: Vec<f64> = (0..n).map(|_| 0.1 + rng.gen::<f64>()).collect();
            let mut b: Vec<f64> = (0..m).map(|_| 0.1 + rng.gen::<f64>()).collect();
            for w in [&mut a, &mut b] {
                let s: f64 = w.iter().sum();
                w.iter_mut().for_each(|x| *x /= s);
            }
            let kernel = gibbs_kernel(&cost, eps).expect("cost below the bound");
            let (ps, cs) = sinkhorn_scaling(&cost, &kernel, &a, &b, iterations);
            let (pl, cl) = sinkhorn_log(&cost, &a, &b, eps, iterations);
            assert!(
                plans_agree(&ps, &pl, 1e-9),
                "case {case}: plans diverge ({n}x{m}, max C/ε {max_ratio})"
            );
            assert!(
                (cs - cl).abs() <= 1e-9 * cl.abs(),
                "case {case}: cost {cs} vs {cl}"
            );
        }
    }

    #[test]
    fn scaling_form_near_bound_stays_finite() {
        // max C/ε just under the bound, with zero-cost entries scattered
        // among near-bound ones, skewed marginals and tiny kernel entries
        // (~e^−500): the scalings must stay finite and the plan must still
        // meet both marginals.
        let (n, m) = (24, 17);
        let eps = 0.01;
        let top = 0.9999 * SCALING_FORM_BOUND * eps;
        let cost = Matrix::from_fn(n, m, |i, j| top * ((i * i + 3 * j) % 13) as f64 / 12.0);
        let mut a: Vec<f64> = (0..n).map(|i| ((i + 1) * (i + 1)) as f64).collect();
        let mut b: Vec<f64> = (0..m).map(|j| 1.0 / (j + 1) as f64).collect();
        for w in [&mut a, &mut b] {
            let s: f64 = w.iter().sum();
            w.iter_mut().for_each(|x| *x /= s);
        }
        let kernel = gibbs_kernel(&cost, eps).expect("cost below the bound");
        let (plan, total) = sinkhorn_scaling(&cost, &kernel, &a, &b, 2000);
        assert!(plan.all_finite() && total.is_finite(), "cost {total}");
        for (i, &ai) in a.iter().enumerate() {
            let s: f64 = plan.row(i).iter().sum();
            assert!((s - ai).abs() < 1e-6, "row {i}: {s} vs {ai}");
        }
        for (j, &bj) in b.iter().enumerate() {
            let s: f64 = plan.col(j).iter().sum();
            assert!((s - bj).abs() < 1e-6, "col {j}: {s} vs {bj}");
        }
        // The public entry point takes the same path and returns the same plan.
        let r = sinkhorn_plan(&cost, &a, &b, &cfg(eps, 2000));
        assert!(plans_agree(&r.plan, &plan, 0.0));
    }

    #[test]
    fn nonuniform_marginals() {
        let cost = Matrix::from_fn(2, 2, |i, j| if i == j { 0.0 } else { 1.0 });
        let r = sinkhorn_plan(&cost, &[0.9, 0.1], &[0.9, 0.1], &cfg(0.01, 300));
        assert!((r.plan[(0, 0)] - 0.9).abs() < 1e-3);
        assert!((r.plan[(1, 1)] - 0.1).abs() < 1e-3);
        assert!(r.cost < 1e-2);
    }
}
