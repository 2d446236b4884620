//! `perfbench` — the repository's layered AD benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gmm-grad|lstm-serve|compile-cold|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--steady <runs>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; gated latencies are
//! divided by the median duration of a frozen native calibration kernel
//! measured in the same run (suffix `_x`); the untraced `lstm-serve` run
//! pins the process to one CPU kept busy (see [`affinity`]). `--trace 1`
//! times every layer from outside through its public functions and
//! reports per-layer metrics plus the tracing overhead. `--steady N` re-runs each workload
//! N times with seeds 1..N in child processes and prints each metric's
//! median and quartile spread against its bound in `BENCHMARK.json`.
//! `--workload all` runs the three workloads one after another in one
//! process (its `peak_rss_mb` is then the high-water mark so far). The
//! last line of standard output is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod affinity;
mod calib;
mod e2e;
mod layers;
mod programs;
mod recorder;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calib::Calib;
use e2e::{CompileCold, E2e, GmmGrad, LstmServe};
use fir_serve::MetricsSnapshot;
use programs::Prog;
use recorder::Recorder;
use stats::{median, quantile};

const WORKLOADS: [&str; 3] = ["gmm-grad", "lstm-serve", "compile-cold"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Per-layer metrics printed in the report but left out of the result
/// line, because not every workload has them (`lstm-serve` has no
/// hand-written gradient).
const REPORT_ONLY: [&str; 1] = ["vs_manual"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? != "0",
            "--steady" => a.steady = Some(val()?.parse().map_err(|e| format!("--steady: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all (got {:?})",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

// ---------------------------------------------------------------------
// Workloads behind one interface
// ---------------------------------------------------------------------

enum Workload {
    Gmm(GmmGrad),
    Lstm(LstmServe),
    Cold(CompileCold),
}

impl Workload {
    fn setup(name: &str, seed: u64, scratch: &Path, rec: &Arc<Recorder>) -> Workload {
        match name {
            "gmm-grad" => Workload::Gmm(GmmGrad::setup(seed, scratch)),
            "lstm-serve" => Workload::Lstm(LstmServe::setup(seed, scratch, Arc::clone(rec))),
            _ => Workload::Cold(CompileCold::setup(seed, scratch)),
        }
    }

    fn run(&mut self, calib: &Calib, seconds: f64) -> E2e {
        match self {
            Workload::Gmm(w) => w.run(calib, seconds),
            Workload::Lstm(w) => w.run(calib, seconds),
            Workload::Cold(w) => w.run(calib, seconds),
        }
    }

    fn progs(&self) -> &[Prog] {
        match self {
            Workload::Gmm(w) => &w.progs,
            Workload::Lstm(w) => &w.progs,
            Workload::Cold(w) => &w.progs,
        }
    }

    /// Program groups the traced rounds cycle through: one dataset per
    /// round for the single-program workloads, all nine for compile-cold.
    fn groups(&self) -> Vec<Vec<usize>> {
        match self {
            Workload::Cold(w) => vec![(0..w.progs.len()).collect()],
            _ => (0..self.progs().len()).map(|i| vec![i]).collect(),
        }
    }

    /// The end-to-end op of the traced run, with spans on or off; returns
    /// its latencies in seconds.
    fn traced_op(&mut self, traced: bool, round: u64, rec: &Recorder, out: &mut E2e) -> Vec<f64> {
        let span = |name| traced.then(|| rec.span(name, 0, round));
        match self {
            Workload::Gmm(w) => {
                let _s = span("e2e.op");
                vec![w.op(out)]
            }
            Workload::Cold(w) => {
                let _s = span("e2e.op");
                vec![w.cold(out)]
            }
            Workload::Lstm(w) => {
                w.set_traced(traced);
                let lat = w.window(Duration::from_millis(200)).0;
                let (a, f) = w.take_tally();
                out.attempted += a;
                out.failed += f;
                lat
            }
        }
    }

    /// (attempted, failed) of checks made during set-up.
    fn setup_checks(&self) -> (u64, u64) {
        match self {
            Workload::Lstm(w) => w.setup_checks(),
            _ => (0, 0),
        }
    }

    fn load_metrics(&self) -> Option<MetricsSnapshot> {
        match self {
            Workload::Lstm(w) => Some(w.server.metrics()),
            _ => None,
        }
    }

    fn shutdown(self) {
        if let Workload::Lstm(w) = self {
            w.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
}

struct Report {
    workload: String,
    metrics: Vec<Metric>,
    /// Names of the metrics that go into the result line.
    in_result_names: Vec<String>,
    attempted: u64,
    failed: u64,
    calib_ms: f64,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize, in_result: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
        if in_result {
            self.in_result_names.push(name.to_string());
        }
    }

    fn print(&self, args: &Args) {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== perfbench {} seed={} seconds={} trace={}",
            self.workload, args.seed, args.seconds, args.trace as u8
        );
        let _ = writeln!(s, "{}", env_block(self.calib_ms));
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<28} {:>14.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        let _ = writeln!(s, "ops attempted={} failed={}", self.attempted, self.failed);
        print!("{s}");
    }
}

fn env_block(calib_ms: f64) -> String {
    format!(
        "env nproc={} available_parallelism={} pool_workers={} git_commit={} profile={} \
         calib_kernel={} calib_median_ms={calib_ms:.6}",
        online_cpus(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        interp::WorkerPool::global().num_workers(),
        git_commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        Calib::describe(),
    )
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Online CPUs, as `nproc --all` reports them (`_SC_NPROCESSORS_ONLN`).
fn online_cpus() -> i64 {
    // SAFETY: sysconf has no memory-safety preconditions.
    unsafe { sysconf(84) }
}

/// The process's peak resident set size, MB: `VmHWM` of this process
/// image. (`getrusage` would not do: its `ru_maxrss` survives `execve`, so
/// under `cargo run` it reports cargo's own peak.)
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(r) {
        return c.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

fn untraced(name: &str, args: &Args, scratch: &Path) -> Report {
    // Spawn the worker pool at its usual size before a pin could shrink it.
    interp::WorkerPool::global();
    let pinned = (name == "lstm-serve")
        .then(affinity::pin_to_one_cpu)
        .flatten();
    let calib = Calib::new();
    for _ in 0..20 {
        calib.run();
    }
    let rec = Arc::new(Recorder::new());
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        if let Some(prev) = w.take() {
            Workload::shutdown(prev);
        }
        let t = Instant::now();
        w = Some(Workload::setup(name, args.seed, scratch, &rec));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let mut e = w.run(&calib, args.seconds);
    let (a, f) = w.setup_checks();
    (e.attempted, e.failed) = (e.attempted + a, e.failed + f);
    w.shutdown();
    let pin_note = pinned.map(|p| format!("process pinned to cpu {} for set-up and run", p.cpu));
    let c = median(&e.calib_s);
    let (op_x, warm_x) = (e.op_x(), e.warm_x());
    let mut r = Report {
        workload: name.into(),
        metrics: Vec::new(),
        in_result_names: Vec::new(),
        attempted: e.attempted,
        failed: e.failed,
        calib_ms: c * 1e3,
        notes: pin_note.into_iter().collect(),
    };
    let (n, nc, nw) = (e.op_s.len(), e.calib_s.len(), e.warm_s.len());
    r.put("latency_p50_x", median(&op_x), "x", n, true);
    r.put("latency_p90_x", quantile(&op_x, 0.9), "x", n, true);
    r.put("throughput_x", e.throughput_x(), "x", n, true);
    r.put("warm_p50_x", median(&warm_x), "x", nw, true);
    r.put("setup_s", median(&setup_s), "s", setup_s.len(), true);
    r.put("peak_rss_mb", peak_rss_mb(), "MB", 1, true);
    let (p50, p90, warm) = (median(&e.op_s), quantile(&e.op_s, 0.9), median(&e.warm_s));
    r.put("raw.latency_p50_ms", p50 * 1e3, "ms", n, false);
    r.put("raw.latency_p90_ms", p90 * 1e3, "ms", n, false);
    r.put("raw.throughput_ops_s", e.throughput(), "1/s", n, false);
    r.put("raw.warm_p50_ms", warm * 1e3, "ms", nw, false);
    r.put("bench.calib_ms", c * 1e3, "ms", nc, false);
    r
}

fn traced(name: &str, args: &Args, scratch: &Path) -> Report {
    let calib = Calib::new();
    let calib_ms = median(&(0..20).map(|_| calib.run()).collect::<Vec<_>>()) * 1e3;
    let rec = Arc::new(Recorder::new());
    let mut w = Workload::setup(name, args.seed, scratch, &rec);
    let groups = w.groups();
    let mut rig = layers::Rig::new(w.progs(), groups, scratch);
    let mut e = E2e::default();
    (e.attempted, e.failed) = w.setup_checks();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0u64;
    while round < 3 || Instant::now() < end {
        // Alternate which of the pair runs first.
        let first = round.is_multiple_of(2);
        for traced in [first, !first] {
            let lat = w.traced_op(traced, round, &rec, &mut e);
            if traced { &mut on } else { &mut off }.extend(lat);
        }
        rig.round(w.progs(), round, &rec);
        round += 1;
    }
    let mut r = Report {
        workload: name.into(),
        metrics: Vec::new(),
        in_result_names: Vec::new(),
        attempted: e.attempted + rig.attempted,
        failed: e.failed + rig.failed,
        calib_ms,
        notes: Vec::new(),
    };
    for (m, v, unit, n) in rig.metrics(&rec, w.load_metrics()) {
        let in_result = !REPORT_ONLY.contains(&m.as_str());
        r.put(&m, v, unit, n, in_result);
    }
    r.put(
        "trace.overhead",
        median(&on) / median(&off),
        "x",
        on.len().min(off.len()),
        true,
    );
    rig.shutdown();
    w.shutdown();
    let path = exe_dir().join(format!("perfbench-trace-{name}.json"));
    match rec.write_chrome(&path) {
        Ok(()) => r
            .notes
            .push(format!("{} spans written to {}", rec.len(), path.display())),
        Err(err) => r.notes.push(format!("could not write trace: {err}")),
    }
    r
}

fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(reports: &[Report], prefix: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in reports {
        for m in r
            .metrics
            .iter()
            .filter(|m| r.in_result_names.contains(&m.name))
        {
            let name = if prefix {
                format!("{}.{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_num(m.value),
                m.unit
            ));
        }
    }
    let finite = reports
        .iter()
        .all(|r| r.metrics.iter().all(|m| m.value.is_finite()));
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0 && finite,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(runs) = args.steady {
        std::process::exit(steady(&args, runs));
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let scratch = exe_dir().join(format!("perfbench-scratch-{}", std::process::id()));
    let mut reports = Vec::new();
    for name in &names {
        eprintln!("perfbench: {name} (trace {})", args.trace as u8);
        let r = if args.trace {
            traced(name, &args, &scratch)
        } else {
            untraced(name, &args, &scratch)
        };
        r.print(&args);
        reports.push(r);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", result_line(&reports, names.len() > 1));
}

// ---------------------------------------------------------------------
// Steadiness mode
// ---------------------------------------------------------------------

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> Vec<(String, f64)> {
    let Ok(src) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(j) = fir_trace::json::parse(&src) else {
        return Vec::new();
    };
    j.get("end_to_end")
        .and_then(|e| e.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect()
}

/// Run each workload `runs` times (seeds 1..=runs) in child processes and
/// print every metric's median and quartile spread against its bound.
/// Returns the exit code: 0 when every run was correct.
fn steady(args: &Args, runs: usize) -> i32 {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = std::env::current_exe().expect("own executable");
    let bounds = bounds();
    let mut all_correct = true;
    for name in names {
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in 1..=runs as u64 {
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output()
                .expect("run child benchmark");
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            let ok = out.status.success() && last.contains("\"correct\":true");
            all_correct &= ok;
            eprintln!(
                "perfbench: steady {name} seed {seed}: {}",
                if ok { "correct" } else { "FAILED" }
            );
            for line in text.lines().filter(|l| l.starts_with("metric ")) {
                let f: Vec<&str> = line.split_whitespace().collect();
                let (Some(m), Some(v), Some(u)) = (f.get(1), f.get(2), f.get(3)) else {
                    continue;
                };
                let v: f64 = v.parse().unwrap_or(f64::NAN);
                match table.iter_mut().find(|(n, _, _)| n == m) {
                    Some((_, _, xs)) => xs.push(v),
                    None => table.push((m.to_string(), u.to_string(), vec![v])),
                }
            }
        }
        println!(
            "== steadiness {name}: {runs} runs, seeds 1..{runs}, {} s each",
            args.seconds
        );
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (m, unit, xs) in &table {
            if xs.len() < 2 {
                continue;
            }
            let (q1, q2, q3) = stats::quartiles(xs);
            let spread = (q3 - q1) / q2;
            let bound = bounds.iter().find(|(n, _)| n == m).map(|(_, b)| *b);
            let verdict = match bound {
                None => "not gated".to_string(),
                Some(_) if m == "setup_s" => "spread not gated (median only)".to_string(),
                Some(b) if spread < b / 3.0 => "steady (< bound/3)".to_string(),
                Some(b) if spread <= b => "within bound".to_string(),
                Some(_) => "TOO NOISY".to_string(),
            };
            println!(
                "{m:<22} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>7}  {verdict} [{unit}]",
                spread * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    println!("{{\"correct\":{all_correct}}}");
    i32::from(!all_correct)
}
