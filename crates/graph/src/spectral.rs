//! Spectral graph analysis: adjacency eigenvalues, the spectral gap, the normalized
//! Laplacian gap µ₁, and the Ramanujan property test (Section II of the paper).
//!
//! Two solvers are provided:
//!
//! * a dense Jacobi eigenvalue solver for small graphs and for cross-checking, and
//! * a sparse Lanczos solver (full reorthogonalization, Sturm-sequence tridiagonal
//!   eigenvalues) with deflation of the known trivial eigenvectors of a `k`-regular graph
//!   (the all-ones vector for `+k` and, for bipartite graphs, the 2-colouring sign vector
//!   for `-k`), which is what the experiment harness uses for graphs with thousands to
//!   hundreds of thousands of vertices.

use crate::csr::CsrGraph;

/// Result of the spectral analysis of a `k`-regular connected graph.
#[derive(Clone, Debug)]
pub struct SpectralSummary {
    /// The degree `k` (largest adjacency eigenvalue).
    pub k: usize,
    /// Second largest (signed) adjacency eigenvalue λ₂.
    pub lambda2: f64,
    /// Largest-magnitude adjacency eigenvalue not equal to ±k, i.e. λ(G) in the paper.
    pub lambda_nontrivial: f64,
    /// Normalized Laplacian spectral gap µ₁ = (k − λ₂)/k.
    pub mu1: f64,
    /// Whether the graph is bipartite (has eigenvalue −k).
    pub bipartite: bool,
    /// Whether λ(G) ≤ 2√(k−1) + tolerance, i.e. the graph is Ramanujan.
    pub ramanujan: bool,
}

/// Numerical tolerance used when classifying a graph as Ramanujan.
pub const RAMANUJAN_TOL: f64 = 1e-6;

/// Dense symmetric eigenvalue solver (cyclic Jacobi). Returns eigenvalues in ascending order.
///
/// Intended for matrices up to a few hundred rows (tests, small topologies, tridiagonal
/// cross-checks); the complexity is O(n³) per sweep.
pub fn jacobi_eigenvalues(matrix: &[Vec<f64>]) -> Vec<f64> {
    let n = matrix.len();
    for row in matrix {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    // Symmetry check (cheap, catches caller bugs early).
    for (i, row) in a.iter().enumerate() {
        for (j, x) in row.iter().enumerate().take(i) {
            assert!(
                (x - a[j][i]).abs() < 1e-9,
                "jacobi_eigenvalues requires a symmetric matrix"
            );
        }
    }
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for (i, row) in a.iter().enumerate() {
            for x in row.iter().skip(i + 1) {
                off += x * x;
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let aip = row[p];
                    let aiq = row[q];
                    row[p] = c * aip - s * aiq;
                    row[q] = s * aip + c * aiq;
                }
                // Rotate rows p and q (p < q, so split_at_mut separates them).
                let (head, tail) = a.split_at_mut(q);
                let (row_p, row_q) = (&mut head[p], &mut tail[0]);
                for (api, aqi) in row_p.iter_mut().zip(row_q.iter_mut()) {
                    let (x, y) = (*api, *aqi);
                    *api = c * x - s * y;
                    *aqi = s * x + c * y;
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    eig.sort_by(|x, y| x.partial_cmp(y).unwrap());
    eig
}

/// Dense adjacency eigenvalues of a graph (ascending). Only for small graphs.
pub fn dense_adjacency_eigenvalues(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    assert!(n <= 2048, "dense solver limited to 2048 vertices (got {n})");
    let mut a = vec![vec![0.0; n]; n];
    for (u, v) in g.edges() {
        a[u as usize][v as usize] = 1.0;
        a[v as usize][u as usize] = 1.0;
    }
    jacobi_eigenvalues(&a)
}

/// Eigenvalues of a symmetric tridiagonal matrix by bisection with Sturm sequences.
/// `alpha` is the diagonal (length m), `beta` the off-diagonal (length m-1).
/// Returns all eigenvalues in ascending order.
pub fn tridiagonal_eigenvalues(alpha: &[f64], beta: &[f64]) -> Vec<f64> {
    let m = alpha.len();
    assert!(m >= 1 && beta.len() + 1 == m);
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..m {
        let b_prev = if i > 0 { beta[i - 1].abs() } else { 0.0 };
        let b_next = if i < m - 1 { beta[i].abs() } else { 0.0 };
        lo = lo.min(alpha[i] - b_prev - b_next);
        hi = hi.max(alpha[i] + b_prev + b_next);
    }
    if m == 1 {
        return vec![alpha[0]];
    }
    // Sturm count: number of eigenvalues strictly less than x.
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = alpha[0] - x;
        if d < 0.0 {
            count += 1;
        }
        for i in 1..m {
            let denom = if d.abs() < 1e-300 {
                1e-300_f64.copysign(d.signum().max(0.0) * 2.0 - 1.0)
            } else {
                d
            };
            d = (alpha[i] - x) - beta[i - 1] * beta[i - 1] / denom;
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    let mut out = Vec::with_capacity(m);
    for idx in 0..m {
        // Find the idx-th smallest eigenvalue by bisection on the Sturm count.
        let (mut a, mut b) = (lo - 1e-9, hi + 1e-9);
        for _ in 0..200 {
            let mid = 0.5 * (a + b);
            if count_below(mid) <= idx {
                a = mid;
            } else {
                b = mid;
            }
            if b - a < 1e-12 * (1.0 + hi.abs().max(lo.abs())) {
                break;
            }
        }
        out.push(0.5 * (a + b));
    }
    out
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn orthogonalize_against(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let proj = dot(v, b);
        axpy(v, -proj, b);
    }
}

/// Lanczos iteration on the adjacency operator of `g`, restricted to the orthogonal
/// complement of `deflate` (each deflation vector must be unit-norm).
///
/// Returns the Ritz values (eigenvalue estimates) in ascending order. With full
/// reorthogonalization and `iters` around 80–150 the extreme Ritz values are accurate to
/// well below the tolerances used by the Ramanujan test for the graph sizes in the paper.
pub fn lanczos_ritz_values(
    g: &CsrGraph,
    deflate: &[Vec<f64>],
    iters: usize,
    seed: u64,
) -> Vec<f64> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let n = g.num_vertices();
    let m = iters.min(n.saturating_sub(deflate.len())).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Random start vector, deflated and normalized.
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    orthogonalize_against(&mut v, deflate);
    let nv = norm(&v);
    assert!(nv > 1e-12, "deflation space covers the whole space");
    for x in v.iter_mut() {
        *x /= nv;
    }

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alpha = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::new();
    let mut w = vec![0.0; n];
    let mut prev: Option<Vec<f64>> = None;

    for j in 0..m {
        g.adjacency_matvec(&v, &mut w);
        let a_j = dot(&w, &v);
        alpha.push(a_j);
        // w = A v - a_j v - b_{j-1} v_{j-1}
        axpy(&mut w, -a_j, &v);
        if let Some(p) = &prev {
            let b_prev = *beta.last().unwrap();
            axpy(&mut w, -b_prev, p);
        }
        // Full reorthogonalization against the deflation space and all previous Lanczos vectors.
        orthogonalize_against(&mut w, deflate);
        orthogonalize_against(&mut w, &basis);
        orthogonalize_against(&mut w, std::slice::from_ref(&v));
        basis.push(v.clone());
        if j + 1 == m {
            break;
        }
        let b_j = norm(&w);
        if b_j < 1e-10 {
            break; // invariant subspace found
        }
        beta.push(b_j);
        prev = Some(v);
        v = w.iter().map(|x| x / b_j).collect();
        w = vec![0.0; n];
    }
    tridiagonal_eigenvalues(&alpha, &beta[..alpha.len().saturating_sub(1)])
}

/// Two-colour the graph if it is bipartite, returning the ±1 colouring; `None` otherwise.
pub fn bipartite_sign_vector(g: &CsrGraph) -> Option<Vec<f64>> {
    let n = g.num_vertices();
    let mut color = vec![i8::MIN; n];
    for start in 0..n {
        if color[start] != i8::MIN {
            continue;
        }
        color[start] = 1;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start as u32);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if color[v as usize] == i8::MIN {
                    color[v as usize] = -color[u as usize];
                    queue.push_back(v);
                } else if color[v as usize] == color[u as usize] {
                    return None;
                }
            }
        }
    }
    Some(color.iter().map(|&c| c as f64).collect())
}

/// The second largest (signed) adjacency eigenvalue λ₂ of a connected `k`-regular graph.
pub fn lambda2(g: &CsrGraph, iters: usize, seed: u64) -> f64 {
    let n = g.num_vertices();
    assert!(n >= 2, "lambda2 needs at least two vertices");
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let ritz = lanczos_ritz_values(g, &[ones], iters, seed);
    *ritz
        .last()
        .expect("Lanczos produced at least one Ritz value")
}

/// λ(G): the largest-magnitude adjacency eigenvalue not equal to ±k, for a connected
/// `k`-regular graph. Deflates the all-ones vector and, if bipartite, the sign vector.
pub fn lambda_nontrivial(g: &CsrGraph, iters: usize, seed: u64) -> f64 {
    let n = g.num_vertices();
    let mut deflate = vec![vec![1.0 / (n as f64).sqrt(); n]];
    if let Some(sign) = bipartite_sign_vector(g) {
        let nv = norm(&sign);
        deflate.push(sign.into_iter().map(|x| x / nv).collect());
    }
    let ritz = lanczos_ritz_values(g, &deflate, iters, seed);
    let lo = *ritz.first().unwrap();
    let hi = *ritz.last().unwrap();
    if lo.abs() > hi.abs() {
        lo
    } else {
        hi
    }
}

/// Full spectral summary of a connected `k`-regular graph.
///
/// `iters` controls Lanczos accuracy; 100 is ample for every instance in the paper.
pub fn spectral_summary(g: &CsrGraph, iters: usize, seed: u64) -> SpectralSummary {
    let k = g
        .regular_degree()
        .expect("spectral_summary requires a regular graph");
    let l2 = lambda2(g, iters, seed);
    let lnt = lambda_nontrivial(g, iters, seed);
    let bipartite = bipartite_sign_vector(g).is_some();
    let bound = 2.0 * ((k as f64) - 1.0).sqrt();
    SpectralSummary {
        k,
        lambda2: l2,
        lambda_nontrivial: lnt,
        mu1: (k as f64 - l2) / k as f64,
        bipartite,
        ramanujan: lnt.abs() <= bound + RAMANUJAN_TOL,
    }
}

/// The Alon–Boppana lower bound on λ for a `k`-regular graph of diameter `d`:
/// `2 sqrt(k-1) (1 - 2/d) - 2/d` (Section II of the paper).
pub fn alon_boppana_bound(k: usize, diameter: u32) -> f64 {
    let d = diameter as f64;
    2.0 * ((k as f64) - 1.0).sqrt() * (1.0 - 2.0 / d) - 2.0 / d
}

/// Lower bound on bisection bandwidth from the normalized Laplacian gap:
/// `BW(G) ≥ µ₁ · k · n / 4` (Fiedler bound as used in Section IV-d of the paper).
pub fn spectral_bisection_lower_bound(n: usize, k: usize, mu1: f64) -> f64 {
    mu1 * k as f64 * n as f64 / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &edges)
    }

    fn complete_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..a as u32 {
            for v in 0..b as u32 {
                edges.push((u, a as u32 + v));
            }
        }
        CsrGraph::from_edges(a + b, &edges)
    }

    fn petersen() -> CsrGraph {
        let outer: Vec<(u32, u32)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let inner: Vec<(u32, u32)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let spokes: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 5)).collect();
        let edges: Vec<_> = outer.into_iter().chain(inner).chain(spokes).collect();
        CsrGraph::from_edges(10, &edges)
    }

    #[test]
    fn jacobi_on_diagonal_matrix() {
        let m = vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ];
        let e = jacobi_eigenvalues(&m);
        assert!((e[0] + 1.0).abs() < 1e-9);
        assert!((e[1] - 2.0).abs() < 1e-9);
        assert!((e[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn jacobi_on_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let e = jacobi_eigenvalues(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!((e[0] - 1.0).abs() < 1e-9 && (e[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn dense_spectrum_of_k5() {
        // K_n has eigenvalues n-1 (once) and -1 (n-1 times).
        let e = dense_adjacency_eigenvalues(&complete_graph(5));
        assert!((e[4] - 4.0).abs() < 1e-8);
        for x in e.iter().take(4) {
            assert!((x + 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn dense_spectrum_of_cycle() {
        // C_n eigenvalues: 2 cos(2 pi j / n).
        let n = 8;
        let mut expected: Vec<f64> = (0..n)
            .map(|j| 2.0 * (2.0 * std::f64::consts::PI * j as f64 / n as f64).cos())
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let e = dense_adjacency_eigenvalues(&cycle_graph(n));
        for (a, b) in e.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn tridiagonal_solver_matches_jacobi() {
        let alpha = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let beta = vec![0.7, 1.3, -0.4, 2.0];
        let m = alpha.len();
        let mut dense = vec![vec![0.0; m]; m];
        for i in 0..m {
            dense[i][i] = alpha[i];
            if i + 1 < m {
                dense[i][i + 1] = beta[i];
                dense[i + 1][i] = beta[i];
            }
        }
        let a = tridiagonal_eigenvalues(&alpha, &beta);
        let b = jacobi_eigenvalues(&dense);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn lambda2_of_complete_graph() {
        // K_n: lambda2 = -1.
        let g = complete_graph(20);
        let l2 = lambda2(&g, 40, 7);
        assert!((l2 + 1.0).abs() < 1e-6, "lambda2 = {l2}");
    }

    #[test]
    fn lambda2_of_petersen() {
        // Petersen spectrum: 3, 1 (x5), -2 (x4).
        let l2 = lambda2(&petersen(), 20, 3);
        assert!((l2 - 1.0).abs() < 1e-6, "lambda2 = {l2}");
        let lnt = lambda_nontrivial(&petersen(), 20, 3);
        assert!((lnt + 2.0).abs() < 1e-6, "lambda = {lnt}");
    }

    #[test]
    fn bipartite_detection() {
        assert!(bipartite_sign_vector(&complete_bipartite(4, 4)).is_some());
        assert!(bipartite_sign_vector(&cycle_graph(6)).is_some());
        assert!(bipartite_sign_vector(&cycle_graph(5)).is_none());
        assert!(bipartite_sign_vector(&petersen()).is_none());
    }

    #[test]
    fn bipartite_trivial_eigenvalue_is_deflated() {
        // K_{4,4} spectrum: 4, 0 (x6), -4. Nontrivial lambda should be 0.
        let g = complete_bipartite(4, 4);
        let lnt = lambda_nontrivial(&g, 10, 5);
        assert!(lnt.abs() < 1e-6, "lambda = {lnt}");
        // And the spectral summary flags it bipartite and Ramanujan (0 <= 2 sqrt 3).
        let s = spectral_summary(&g, 10, 5);
        assert!(s.bipartite);
        assert!(s.ramanujan);
    }

    #[test]
    fn petersen_is_ramanujan() {
        // lambda(Petersen) = 2 = 2 sqrt(3-1) - small; 2 < 2.828.
        let s = spectral_summary(&petersen(), 30, 11);
        assert!(s.ramanujan);
        assert!((s.mu1 - (3.0 - 1.0) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_is_not_an_expander_but_is_ramanujan_for_k2() {
        // For k = 2 the Ramanujan bound is 2, and cycles have |lambda| < 2, so they qualify.
        let s = spectral_summary(&cycle_graph(17), 60, 2);
        assert_eq!(s.k, 2);
        assert!(s.ramanujan);
        assert!(s.mu1 > 0.0 && s.mu1 < 0.2);
    }

    #[test]
    fn lanczos_matches_dense_on_random_regular_like_graph() {
        // Circulant graph C_24(1, 3, 8): 6-regular; compare Lanczos lambda2 with dense.
        let n = 24u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for &s in &[1u32, 3, 8] {
                edges.push((i, (i + s) % n));
            }
        }
        let g = CsrGraph::from_edges(n as usize, &edges);
        assert_eq!(g.regular_degree(), Some(6));
        let dense = dense_adjacency_eigenvalues(&g);
        let exact_l2 = dense[dense.len() - 2];
        let l2 = lambda2(&g, 24, 9);
        assert!((l2 - exact_l2).abs() < 1e-6, "{l2} vs {exact_l2}");
    }

    #[test]
    fn alon_boppana_below_ramanujan_bound() {
        for k in [3usize, 4, 12, 24] {
            for d in [3u32, 4, 6, 10] {
                assert!(alon_boppana_bound(k, d) <= 2.0 * ((k - 1) as f64).sqrt());
            }
        }
    }

    #[test]
    fn spectral_bisection_bound_formula() {
        assert!((spectral_bisection_lower_bound(100, 10, 0.5) - 125.0).abs() < 1e-12);
    }
}
