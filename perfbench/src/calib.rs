//! The machine-speed calibration kernel.
//!
//! Two frozen parts on fixed, self-generated inputs: a copy of the
//! hand-written diagonal-GMM gradient (floating-point, like executor
//! kernels) and a rebuild-and-evaluate pass over an expression tree
//! (branchy, data-dependent tree walks, like compiler passes and
//! interpreter dispatch). Both work in buffers allocated once, so the
//! kernel's speed does not depend on the state of the process heap,
//! which the program under test shapes. The kernel lives in the benchmark so that no
//! change to the program under test can change it: its duration tracks
//! only how fast the machine runs at that moment. Gated latencies are
//! divided by the median of this kernel's durations measured around
//! them in the same run.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 256;
/// Expression-tree nodes.
const NODES: usize = 24000;
const D: usize = 16;
const K: usize = 10;

/// The kernel's fixed input.
pub struct Calib {
    tree: Vec<Node>,
    /// Scratch for the rebuilt tree; its capacity is reserved up front.
    folded: RefCell<Vec<Node>>,
    xs: Vec<f64>,
    alphas: Vec<f64>,
    means: Vec<f64>,
    log_sigmas: Vec<f64>,
}

impl Calib {
    pub fn new() -> Calib {
        // xorshift64*, fixed seed: the input never depends on the run.
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut gen = |len: usize, scale: f64| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    s ^= s >> 12;
                    s ^= s << 25;
                    s ^= s >> 27;
                    let u =
                        (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                    (2.0 * u - 1.0) * scale
                })
                .collect()
        };
        let mut leaves = gen(NODES, 4.0);
        let mut tree = Vec::with_capacity(NODES);
        build(&mut tree, &mut leaves, NODES);
        Calib {
            folded: RefCell::new(Vec::with_capacity(tree.len())),
            tree,
            xs: gen(N * D, 2.0),
            alphas: gen(K, 1.0),
            means: gen(K * D, 1.5),
            log_sigmas: gen(K * D, 0.3),
        }
    }

    /// Run the kernel once; returns its duration in seconds.
    pub fn run(&self) -> f64 {
        let t = Instant::now();
        let g = gradient(
            black_box(&self.xs),
            black_box(&self.alphas),
            black_box(&self.means),
            black_box(&self.log_sigmas),
        );
        black_box(g);
        let mut folded = self.folded.borrow_mut();
        folded.clear();
        let root = fold(black_box(&self.tree), self.tree.len() - 1, &mut folded);
        black_box(eval(&folded, root, &[0.5, -1.25, 2.0, 0.75]));
        t.elapsed().as_secs_f64()
    }

    pub fn describe() -> String {
        format!("frozen-gmm-gradient(n={N},d={D},k={K})+expr-fold(nodes={NODES})")
    }
}

fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

fn gradient(xs: &[f64], alphas: &[f64], means: &[f64], log_sigmas: &[f64]) -> Vec<f64> {
    let mut d_alpha = vec![0.0; K];
    let mut d_mu = vec![0.0; K * D];
    let mut d_ls = vec![0.0; K * D];
    let mut comps = vec![0.0; K];
    for i in 0..N {
        let x = &xs[i * D..(i + 1) * D];
        for c in 0..K {
            let mu = &means[c * D..(c + 1) * D];
            let ls = &log_sigmas[c * D..(c + 1) * D];
            let mut quad = 0.0;
            let mut slog = 0.0;
            for j in 0..D {
                let z = (x[j] - mu[j]) * (-ls[j]).exp();
                quad += z * z;
                slog += ls[j];
            }
            comps[c] = alphas[c] - slog - 0.5 * quad;
        }
        let lse = logsumexp(&comps);
        for c in 0..K {
            let w = (comps[c] - lse).exp();
            d_alpha[c] += w;
            for j in 0..D {
                let inv2 = (-2.0 * log_sigmas[c * D + j]).exp();
                let diff = x[j] - means[c * D + j];
                d_mu[c * D + j] += w * diff * inv2;
                d_ls[c * D + j] += w * (diff * diff * inv2 - 1.0);
            }
        }
    }
    let lse_a = logsumexp(alphas);
    for c in 0..K {
        d_alpha[c] -= N as f64 * (alphas[c] - lse_a).exp();
    }
    d_alpha.extend(d_mu);
    d_alpha.extend(d_ls);
    d_alpha
}

/// An expression node; operands are indices of earlier nodes.
#[derive(Clone, Copy)]
enum Node {
    Const(f64),
    Var(usize),
    Add(usize, usize),
    Mul(usize, usize),
    Neg(usize),
}

/// Append a deterministic tree of `n` nodes, drawing leaf values from
/// `vals`; returns the index of its root (always the last node pushed).
fn build(out: &mut Vec<Node>, vals: &mut Vec<f64>, n: usize) -> usize {
    let node = if n <= 1 {
        let v = vals.pop().unwrap_or(1.0);
        if v > 1.0 {
            Node::Var((v * 1000.0) as usize % 4)
        } else {
            Node::Const(v)
        }
    } else {
        let left = (n - 1) / 3 + 1;
        match n % 3 {
            0 => Node::Neg(build(out, vals, n - 1)),
            1 => {
                let a = build(out, vals, left);
                Node::Add(a, build(out, vals, n - 1 - left))
            }
            _ => {
                let a = build(out, vals, left);
                Node::Mul(a, build(out, vals, n - 1 - left))
            }
        }
    };
    out.push(node);
    out.len() - 1
}

/// Rebuild the tree rooted at `i` into `out` bottom-up, folding constant
/// subtrees; returns the new root's index.
fn fold(tree: &[Node], i: usize, out: &mut Vec<Node>) -> usize {
    let node = match tree[i] {
        Node::Const(c) => Node::Const(c),
        Node::Var(v) => Node::Var(v),
        Node::Neg(a) => {
            let a = fold(tree, a, out);
            match out[a] {
                Node::Const(c) => Node::Const(-c),
                _ => Node::Neg(a),
            }
        }
        Node::Add(a, b) | Node::Mul(a, b) => {
            let (a, b) = (fold(tree, a, out), fold(tree, b, out));
            match (tree[i], out[a], out[b]) {
                (Node::Add(..), Node::Const(x), Node::Const(y)) => Node::Const(x + y),
                (Node::Mul(..), Node::Const(x), Node::Const(y)) => Node::Const(x * y),
                (Node::Add(..), _, _) => Node::Add(a, b),
                _ => Node::Mul(a, b),
            }
        }
    };
    out.push(node);
    out.len() - 1
}

fn eval(tree: &[Node], i: usize, env: &[f64]) -> f64 {
    match tree[i] {
        Node::Const(c) => c,
        Node::Var(v) => env[v],
        Node::Neg(a) => -eval(tree, a, env),
        Node::Add(a, b) => eval(tree, a, env) + eval(tree, b, env),
        Node::Mul(a, b) => eval(tree, a, env) * eval(tree, b, env),
    }
}
