//! Program sets, seeded inputs, reference results and output checks.

use std::path::Path;
use std::sync::Arc;

use fir::ir::Fun;
use fir_api::{Engine, GradOutput};
use firvm::{ProgramCache, Vm};
use interp::Value;
use workloads::{adbench, gmm, kmeans, lstm, mc};

/// A baseline implementation of a program's gradient (tensor tape or
/// hand-written), run only to time it.
pub type Baseline = Box<dyn Fn() + Send + Sync>;

/// One program of a workload's set with the inputs the workload runs it on.
pub struct Prog {
    pub key: &'static str,
    pub fun: Fun,
    pub args: Vec<Value>,
    pub tensor: Option<Baseline>,
    pub manual: Option<Baseline>,
}

/// A `vm-seq` engine over a private program cache, so no process-global
/// cache can answer its compiles; optionally backed by a persistent store.
pub fn seq_engine(store: Option<&Path>) -> Engine {
    let vm = Vm::sequential().with_cache(Arc::new(ProgramCache::new()));
    let mut b = Engine::builder().backend(Box::new(vm));
    if let Some(dir) = store {
        b = b.persistent_cache(dir);
    }
    b.build().expect("vm-seq engine")
}

pub fn named_engine(name: &str) -> Engine {
    Engine::builder()
        .backend_name(name)
        .build()
        .expect("named engine")
}

/// Bitwise equality of two result lists.
pub fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_bits_eq(x, y))
}

fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
        (Value::I64(p), Value::I64(q)) => p == q,
        (Value::Bool(p), Value::Bool(q)) => p == q,
        (Value::Arr(p), Value::Arr(q)) => {
            p.shape == q.shape
                && match (&p.data, &q.data) {
                    (interp::Data::F64(u), interp::Data::F64(v)) => {
                        u.len() == v.len()
                            && u.iter()
                                .zip(v.iter())
                                .all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                    (interp::Data::I64(u), interp::Data::I64(v)) => u == v,
                    (interp::Data::Bool(u), interp::Data::Bool(v)) => u == v,
                    _ => false,
                }
        }
        _ => false,
    }
}

pub fn grad_bits_eq(a: &GradOutput, b: &GradOutput) -> bool {
    same_bits(&a.value, &b.value) && same_bits(&a.grads, &b.grads)
}

/// Flat `f64` view of a list of values (scalars and `f64` arrays).
pub fn flat(vs: &[Value]) -> Vec<f64> {
    let mut out = Vec::new();
    for v in vs {
        match v {
            Value::F64(x) => out.push(*x),
            Value::Arr(a) => out.extend_from_slice(a.f64s()),
            _ => {}
        }
    }
    out
}

/// `|a - b| <= tol * max(1, |b|)` elementwise, equal lengths.
pub fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * y.abs().max(1.0))
}

// ---------------------------------------------------------------------
// gmm-grad
// ---------------------------------------------------------------------

/// ADBench-scaled GMM at D=16: n=200 points, K=10 components. The shape
/// is fixed so that every seed does the same work; the seed picks values.
pub const GMM_SHAPE: (usize, usize, usize) = (200, 16, 10);
pub const GMM_DATASETS: u64 = 4;

pub fn gmm_datasets(seed: u64) -> Vec<gmm::GmmData> {
    let (n, d, k) = GMM_SHAPE;
    (0..GMM_DATASETS)
        .map(|i| gmm::GmmData::generate(n, d, k, seed * 1000 + i))
        .collect()
}

pub fn gmm_prog(data: &gmm::GmmData) -> Prog {
    let (t, m) = (data.clone(), data.clone());
    Prog {
        key: "gmm",
        fun: gmm::objective_ir(),
        args: data.ir_args(),
        tensor: Some(Box::new(move || {
            std::hint::black_box(gmm::gradient_tensor(&t));
        })),
        manual: Some(Box::new(move || {
            std::hint::black_box(gmm::gradient_manual(&m));
        })),
    }
}

/// The hand-written gradient as the flat (alphas, means, log_sigmas)
/// vector the AD gradient is checked against.
pub fn gmm_manual_flat(data: &gmm::GmmData) -> Vec<f64> {
    let (a, m, l) = gmm::gradient_manual(data);
    [a, m, l].concat()
}

/// AD adjoints of (alphas, means, log_sigmas); the data-point adjoint is
/// not a parameter gradient.
pub fn gmm_ad_flat(g: &GradOutput) -> Vec<f64> {
    flat(&g.grads[1..])
}

// ---------------------------------------------------------------------
// lstm-serve
// ---------------------------------------------------------------------

/// Table 6's tiny LSTM: seq 4, d 3, h 4, batch 2.
pub const LSTM_SHAPE: (usize, usize, usize, usize) = (4, 3, 4, 2);
pub const LSTM_DATASETS: u64 = 4;

pub fn lstm_datasets(seed: u64) -> Vec<lstm::LstmData> {
    let (s, d, h, bs) = LSTM_SHAPE;
    (0..LSTM_DATASETS)
        .map(|i| lstm::LstmData::generate(s, d, h, bs, seed * 1000 + i))
        .collect()
}

pub fn lstm_prog(data: &lstm::LstmData) -> Prog {
    let t = data.clone();
    Prog {
        key: "lstm",
        fun: lstm::objective_ir(data.h, data.bs),
        args: data.ir_args(),
        tensor: Some(Box::new(move || {
            std::hint::black_box(lstm::tensor_gradient(&t));
        })),
        manual: None,
    }
}

// ---------------------------------------------------------------------
// compile-cold: the nine programs the fir-net server warms
// ---------------------------------------------------------------------

pub fn nine_programs(seed: u64) -> Vec<Prog> {
    let s = seed * 1000;
    let g = gmm::GmmData::generate(6, 3, 3, s + 1);
    let kd = kmeans::KmeansData::generate(12, 3, 3, s + 2);
    let ks = kmeans::SparseKmeansData::generate(12, 8, 3, 3, s + 3);
    let (ls, ld, lh, lbs) = LSTM_SHAPE;
    let l = lstm::LstmData::generate(ls, ld, lh, lbs, s + 4);
    let ba = adbench::BaData::generate(3, 10, 20, s + 5);
    let hs = adbench::HandData::generate(8, 4, s + 6);
    let hc = adbench::HandData::generate(8, 4, s + 7);
    let dl = adbench::DlstmData::generate(4, 4, 4, s + 8);
    let xs = mc::XsData::generate(8, 4, 64, s + 9);
    fn bl<T: Send + Sync + 'static, R: 'static>(data: T, f: fn(&T) -> R) -> Option<Baseline> {
        Some(Box::new(move || {
            std::hint::black_box(f(&data));
        }))
    }
    vec![
        Prog {
            key: "gmm",
            fun: gmm::objective_ir(),
            args: g.ir_args(),
            tensor: bl(g.clone(), gmm::gradient_tensor),
            manual: bl(g, gmm::gradient_manual),
        },
        Prog {
            key: "kmeans-dense",
            fun: kmeans::dense_objective_ir(),
            args: kd.ir_args(),
            tensor: bl(kd.clone(), kmeans::dense_tensor_gradient),
            manual: bl(kd, kmeans::dense_manual),
        },
        Prog {
            key: "kmeans-sparse",
            fun: kmeans::sparse_objective_ir(),
            args: ks.ir_args(),
            tensor: bl(ks.clone(), kmeans::sparse_tensor_gradient),
            manual: bl(ks, kmeans::sparse_manual),
        },
        Prog {
            key: "lstm",
            fun: lstm::objective_ir(l.h, l.bs),
            args: l.ir_args(),
            tensor: bl(l, lstm::tensor_gradient),
            manual: None,
        },
        Prog {
            key: "ba",
            fun: adbench::ba_objective_ir(),
            args: ba.ir_args(),
            tensor: None,
            manual: bl(ba, adbench::ba_manual),
        },
        Prog {
            key: "hand-simple",
            fun: adbench::hand_objective_ir(false),
            args: hs.ir_args(false),
            tensor: None,
            manual: bl(hs, |d| adbench::hand_manual(d, false)),
        },
        Prog {
            key: "hand-complicated",
            fun: adbench::hand_objective_ir(true),
            args: hc.ir_args(true),
            tensor: None,
            manual: bl(hc, |d| adbench::hand_manual(d, true)),
        },
        Prog {
            key: "d-lstm",
            fun: adbench::dlstm_objective_ir(dl.h),
            args: dl.ir_args(),
            tensor: None,
            manual: bl(dl, adbench::dlstm_manual),
        },
        Prog {
            key: "xsbench",
            fun: mc::xsbench_ir(xs.g),
            args: xs.ir_args(),
            tensor: None,
            manual: None,
        },
    ]
}
