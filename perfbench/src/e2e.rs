//! The three end-to-end workloads: set-up, the measured closed loop, and
//! the output checks.
//!
//! Every workload runs on the `vm-seq` engine and interleaves the
//! calibration kernel with its operations while no operation is in
//! flight: after every op for the single-caller workloads, in short
//! bursts between load windows (clients paused) for `lstm-serve`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fir::ir::Fun;
use fir_api::{CompiledFn, FirError, GradOutput, Transform};
use fir_net::{NetClient, NetServer, NetServerBuilder};
use interp::Value;

use crate::calib::Calib;
use crate::programs::{self, Prog};
use crate::recorder::Recorder;
use crate::stats::median;

/// What one measured run produced.
#[derive(Default)]
pub struct E2e {
    /// Op latencies, seconds.
    pub op_s: Vec<f64>,
    /// Warm-load latencies, seconds.
    pub warm_s: Vec<f64>,
    /// Calibration kernel durations, seconds, in the order they ran.
    pub calib_s: Vec<f64>,
    /// Stretches of time with ops in flight: (ops completed, seconds,
    /// calibration samples taken before the stretch ended).
    windows: Vec<(usize, f64, usize)>,
    /// Calibration samples taken before each op / warm load ended.
    op_at: Vec<usize>,
    warm_at: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
}

/// Calibration samples on each side of an op that make up its local
/// machine-speed reference.
const LOCAL: usize = 4;

impl E2e {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn calibrate(&mut self, calib: &Calib) {
        self.calib_s.push(calib.run());
    }

    /// A single caller's op that took `dt` seconds.
    fn op(&mut self, dt: f64) {
        self.window(vec![dt], dt);
    }

    /// A load window of `busy` seconds whose ops took `lat` seconds each.
    fn window(&mut self, lat: Vec<f64>, busy: f64) {
        let at = self.calib_s.len();
        self.windows.push((lat.len(), busy, at));
        self.op_at.extend(std::iter::repeat_n(at, lat.len()));
        self.op_s.extend(lat);
    }

    fn warm(&mut self, dt: f64) {
        self.warm_at.push(self.calib_s.len());
        self.warm_s.push(dt);
    }

    /// The median of the calibration samples nearest in time to the
    /// moment `at` samples had been taken: the machine's speed while
    /// that op ran. The speed of a shared machine drifts over seconds,
    /// so a local reference cancels slow stretches that a run-wide
    /// median would leave in the tail.
    fn local_calib(&self, at: usize) -> f64 {
        let n = self.calib_s.len();
        let lo = at.saturating_sub(LOCAL).min(n.saturating_sub(1));
        let hi = (at + LOCAL).clamp(lo + 1, n.max(1));
        median(&self.calib_s[lo..hi])
    }

    /// Op latencies in units of the local calibration time.
    pub fn op_x(&self) -> Vec<f64> {
        self.op_s
            .iter()
            .zip(&self.op_at)
            .map(|(t, &at)| t / self.local_calib(at))
            .collect()
    }

    pub fn warm_x(&self) -> Vec<f64> {
        self.warm_s
            .iter()
            .zip(&self.warm_at)
            .map(|(t, &at)| t / self.local_calib(at))
            .collect()
    }

    /// Ops completed per local calibration time with ops in flight.
    pub fn throughput_x(&self) -> f64 {
        let ops: usize = self.windows.iter().map(|w| w.0).sum();
        let busy_x: f64 = self
            .windows
            .iter()
            .map(|&(_, t, at)| t / self.local_calib(at))
            .sum();
        ops as f64 / busy_x
    }

    /// Raw ops per second with ops in flight.
    pub fn throughput(&self) -> f64 {
        let ops: usize = self.windows.iter().map(|w| w.0).sum();
        ops as f64 / self.windows.iter().map(|w| w.1).sum::<f64>()
    }
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Load `funs` and their vjp programs from a populated store through a
/// fresh engine and record the load time in `out`. The op fails if any
/// program had to be compiled or `check` rejects the loaded vjp programs.
fn warm_load(
    store: &Path,
    funs: &[&Fun],
    out: &mut E2e,
    check: impl FnOnce(&[CompiledFn]) -> bool,
) {
    let t = Instant::now();
    let engine = programs::seq_engine(Some(store));
    let loaded: Result<Vec<CompiledFn>, FirError> =
        funs.iter().map(|f| engine.compile(f)?.vjp()).collect();
    let dt = t.elapsed().as_secs_f64();
    match loaded {
        Ok(handles) if engine.cache_stats().misses == 0 => {
            out.tally(check(&handles));
            out.warm(dt);
        }
        _ => out.tally(false),
    }
}

/// Compile and vjp-derive `funs` on a fresh engine with a private cache.
pub fn cold_compile(funs: &[&Fun]) -> Result<(f64, Vec<CompiledFn>), FirError> {
    let t = Instant::now();
    let engine = programs::seq_engine(None);
    let mut out = Vec::with_capacity(funs.len());
    for f in funs {
        out.push(engine.compile(f)?.vjp()?);
    }
    Ok((t.elapsed().as_secs_f64(), out))
}

// ---------------------------------------------------------------------
// gmm-grad
// ---------------------------------------------------------------------

pub struct GmmGrad {
    pub progs: Vec<Prog>,
    refs: Vec<Vec<f64>>,
    f: CompiledFn,
    store: PathBuf,
    next: usize,
}

impl GmmGrad {
    pub fn setup(seed: u64, scratch: &Path) -> GmmGrad {
        let data = programs::gmm_datasets(seed);
        let refs = data.iter().map(programs::gmm_manual_flat).collect();
        let progs: Vec<Prog> = data.iter().map(programs::gmm_prog).collect();
        let store = fresh_dir(scratch, "gmm-store");
        let engine = programs::seq_engine(Some(&store));
        let f = engine.compile(&progs[0].fun).expect("compile gmm");
        f.vjp().expect("vjp gmm");
        let mut w = GmmGrad {
            progs,
            refs,
            f,
            store,
            next: 0,
        };
        let mut scratch_run = E2e::default();
        for _ in 0..2 {
            w.op(&mut scratch_run);
        }
        w.warm(&mut scratch_run);
        w
    }

    /// One gradient on the next dataset; returns its latency.
    pub fn op(&mut self, out: &mut E2e) -> f64 {
        let i = self.next % self.progs.len();
        self.next += 1;
        let t = Instant::now();
        let g = self.f.grad(&self.progs[i].args);
        let dt = t.elapsed().as_secs_f64();
        let ok =
            matches!(&g, Ok(g) if programs::close(&programs::gmm_ad_flat(g), &self.refs[i], 1e-9));
        out.tally(ok);
        dt
    }

    fn warm(&self, out: &mut E2e) {
        warm_load(&self.store, &[&self.progs[0].fun], out, |_| true);
    }

    pub fn run(&mut self, calib: &Calib, seconds: f64) -> E2e {
        let mut out = E2e::default();
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            out.calibrate(calib);
            let dt = self.op(&mut out);
            out.op(dt);
            self.warm(&mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------
// lstm-serve
// ---------------------------------------------------------------------

/// Closed-loop callers. One: with two, each request's latency depends on
/// whether the other's landed in the same batch window, and the median
/// flipped between the two modes from run to run.
pub const LSTM_CLIENTS: usize = 1;

/// Window control shared by the benchmark thread and the client threads.
struct Ctl {
    start: Barrier,
    end: Barrier,
    window_end: Mutex<Instant>,
    stop: AtomicBool,
    traced: AtomicBool,
    lat: Mutex<Vec<f64>>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

pub struct LstmServe {
    pub progs: Vec<Prog>,
    refs: Vec<GradOutput>,
    pub server: NetServer,
    store: PathBuf,
    ctl: Arc<Ctl>,
    clients: Vec<JoinHandle<()>>,
    /// Tensor-baseline check failures found in set-up.
    setup_failed: u64,
}

impl LstmServe {
    pub fn setup(seed: u64, scratch: &Path, rec: Arc<Recorder>) -> LstmServe {
        let data = programs::lstm_datasets(seed);
        let progs: Vec<Prog> = data.iter().map(programs::lstm_prog).collect();
        // The served gradients must equal an interp-seq reference bitwise;
        // the reference must agree with the tensor baseline.
        let interp = programs::named_engine("interp-seq");
        let f_ref = interp
            .compile(&progs[0].fun)
            .expect("compile lstm on interp-seq");
        let mut setup_failed = 0;
        let refs: Vec<GradOutput> = progs
            .iter()
            .zip(&data)
            .map(|(p, d)| {
                let g = f_ref.grad(&p.args).expect("interp-seq lstm gradient");
                let (_, tensor) = workloads::lstm::tensor_gradient(d);
                if !programs::close(&programs::flat(&g.grads[1..]), &tensor, 1e-9) {
                    setup_failed += 1;
                }
                g
            })
            .collect();
        let store = fresh_dir(scratch, "lstm-store");
        let engine = programs::seq_engine(Some(&store));
        let server = NetServerBuilder::new(engine)
            .shards(1)
            .register("lstm", &progs[0].fun)
            .warmup(&[&[], &[Transform::Vjp]])
            .bind("127.0.0.1:0")
            .expect("bind lstm server");
        let addr = server.local_addr().to_string();
        let ctl = Arc::new(Ctl {
            start: Barrier::new(LSTM_CLIENTS + 1),
            end: Barrier::new(LSTM_CLIENTS + 1),
            window_end: Mutex::new(Instant::now()),
            stop: AtomicBool::new(false),
            traced: AtomicBool::new(false),
            lat: Mutex::new(Vec::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let clients = (0..LSTM_CLIENTS)
            .map(|c| {
                let mut client = NetClient::connect(&addr).expect("connect lstm client");
                let ctl = Arc::clone(&ctl);
                let rec = Arc::clone(&rec);
                let inputs: Vec<(Vec<Value>, GradOutput)> = progs
                    .iter()
                    .zip(&refs)
                    .map(|(p, r)| (p.args.clone(), r.clone()))
                    .collect();
                std::thread::spawn(move || client_loop(c, &mut client, &ctl, &rec, &inputs))
            })
            .collect();
        let w = LstmServe {
            progs,
            refs,
            server,
            store,
            ctl,
            clients,
            setup_failed,
        };
        w.window(Duration::from_millis(30));
        let mut scratch_run = E2e::default();
        w.warm(&mut scratch_run);
        w
    }

    /// Let the clients run a closed loop for `dur`; returns the latencies
    /// of the requests that completed in the window and its wall time.
    pub fn window(&self, dur: Duration) -> (Vec<f64>, f64) {
        let t = Instant::now();
        *self
            .ctl
            .window_end
            .lock()
            .expect("lock poisoned by a panicked thread") = t + dur;
        self.ctl.start.wait();
        self.ctl.end.wait();
        let busy = t.elapsed().as_secs_f64();
        (
            std::mem::take(
                &mut *self
                    .ctl
                    .lat
                    .lock()
                    .expect("lock poisoned by a panicked thread"),
            ),
            busy,
        )
    }

    pub fn set_traced(&self, on: bool) {
        self.ctl.traced.store(on, Ordering::Relaxed);
    }

    fn warm(&self, out: &mut E2e) {
        warm_load(&self.store, &[&self.progs[0].fun], out, |_| true);
    }

    pub fn run(&mut self, calib: &Calib, seconds: f64) -> E2e {
        let mut out = E2e::default();
        self.take_tally();
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            let (lat, busy) = self.window(Duration::from_millis(250));
            out.window(lat, busy);
            // Clients are parked at the barrier: nothing is in flight.
            for _ in 0..4 {
                out.calibrate(calib);
            }
            for _ in 0..2 {
                self.warm(&mut out);
            }
        }
        let (a, f) = self.take_tally();
        out.attempted += a;
        out.failed += f;
        out
    }

    /// (attempted, failed) of the set-up check of the interp-seq
    /// references against the tensor baseline.
    pub fn setup_checks(&self) -> (u64, u64) {
        (self.refs.len() as u64, self.setup_failed)
    }

    /// Client-side (attempted, failed) counts since the last call.
    pub fn take_tally(&self) -> (u64, u64) {
        (
            self.ctl.attempted.swap(0, Ordering::Relaxed),
            self.ctl.failed.swap(0, Ordering::Relaxed),
        )
    }

    pub fn shutdown(self) {
        self.ctl.stop.store(true, Ordering::Relaxed);
        self.ctl.start.wait();
        for c in self.clients {
            if c.join().is_err() {
                eprintln!("perfbench: an lstm-serve client thread panicked");
            }
        }
        self.server.shutdown();
    }
}

fn client_loop(
    c: usize,
    client: &mut NetClient,
    ctl: &Ctl,
    rec: &Recorder,
    inputs: &[(Vec<Value>, GradOutput)],
) {
    let mut i = c;
    let mut round = 0;
    loop {
        ctl.start.wait();
        if ctl.stop.load(Ordering::Relaxed) {
            return;
        }
        round += 1;
        let end = *ctl
            .window_end
            .lock()
            .expect("lock poisoned by a panicked thread");
        let traced = ctl.traced.load(Ordering::Relaxed);
        let mut lat = Vec::new();
        while Instant::now() < end {
            let (args, reference) = &inputs[i % inputs.len()];
            i += 1;
            let t = Instant::now();
            let g = {
                let _span = traced.then(|| rec.span("e2e.request", 0, round));
                client.grad("lstm", args.clone())
            };
            lat.push(t.elapsed().as_secs_f64());
            let ok = matches!(&g, Ok(g) if programs::grad_bits_eq(g, reference));
            ctl.attempted.fetch_add(1, Ordering::Relaxed);
            ctl.failed.fetch_add(u64::from(!ok), Ordering::Relaxed);
        }
        ctl.lat
            .lock()
            .expect("lock poisoned by a panicked thread")
            .extend(lat);
        ctl.end.wait();
    }
}

// ---------------------------------------------------------------------
// compile-cold
// ---------------------------------------------------------------------

pub struct CompileCold {
    pub progs: Vec<Prog>,
    /// Arguments plus unit adjoint seeds of each program's vjp.
    vjp_args: Vec<Vec<Value>>,
    /// interp-seq results of each vjp program on `vjp_args`.
    refs: Vec<Vec<Value>>,
    store: PathBuf,
}

impl CompileCold {
    pub fn setup(seed: u64, scratch: &Path) -> CompileCold {
        let progs = programs::nine_programs(seed);
        let interp = programs::named_engine("interp-seq");
        let mut vjp_args = Vec::new();
        let mut refs = Vec::new();
        for p in &progs {
            let f = interp.compile(&p.fun).expect("compile on interp-seq");
            let mut full = p.args.clone();
            full.extend(f.unit_seeds(&p.args).expect("unit seeds"));
            refs.push(f.vjp().expect("vjp").call(&full).expect("interp-seq vjp"));
            vjp_args.push(full);
        }
        let store = fresh_dir(scratch, "cold-store");
        let w = CompileCold {
            progs,
            vjp_args,
            refs,
            store,
        };
        let populate = programs::seq_engine(Some(&w.store));
        for p in &w.progs {
            populate
                .compile(&p.fun)
                .and_then(|f| f.vjp())
                .expect("populate store");
        }
        let mut scratch_run = E2e::default();
        w.cold(&mut scratch_run);
        w.warm(&mut scratch_run);
        w
    }

    fn funs(&self) -> Vec<&Fun> {
        self.progs.iter().map(|p| &p.fun).collect()
    }

    /// Run each vjp program on its check input; bitwise against `refs`.
    fn check(&self, handles: &[CompiledFn]) -> bool {
        handles
            .iter()
            .zip(&self.vjp_args)
            .zip(&self.refs)
            .all(|((h, args), r)| matches!(h.call(args), Ok(out) if programs::same_bits(&out, r)))
    }

    /// One cold compile of the nine programs; returns its latency.
    pub fn cold(&self, out: &mut E2e) -> f64 {
        match cold_compile(&self.funs()) {
            Ok((dt, handles)) => {
                out.tally(self.check(&handles));
                dt
            }
            Err(_) => {
                out.tally(false);
                f64::NAN
            }
        }
    }

    fn warm(&self, out: &mut E2e) {
        warm_load(&self.store, &self.funs(), out, |h| self.check(h));
    }

    pub fn run(&mut self, calib: &Calib, seconds: f64) -> E2e {
        let mut out = E2e::default();
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            out.calibrate(calib);
            let dt = self.cold(&mut out);
            if dt.is_finite() {
                out.op(dt);
            }
            out.calibrate(calib);
            self.warm(&mut out);
        }
        out
    }
}
