//! The traced run: each layer timed from outside, through its public
//! functions, on the workload's own programs and inputs.
//!
//! One round runs, for one group of the workload's programs: the
//! executor paths nested inside each other (`firvm` bytecode, the
//! `fir-api` gradient, in-process `fir-serve`, `fir-net` over loopback),
//! the baselines, the compile layers one by one, and the compile cache's
//! codec and store. Every call is a span in the [`Recorder`]; per-layer
//! metrics are medians over rounds of per-round span totals.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fir::ir::Fun;
use fir_api::{CompiledFn, Engine, GradOutput, Pass, PassPipeline, Transform};
use fir_cache::{CachedEntry, Store, StoreKey};
use fir_net::wire::{encode_request, encode_response, CallRequest};
use fir_net::{NetClient, NetServer, NetServerBuilder, WireRequest, WireResponse};
use fir_serve::{MetricsSnapshot, Server, ServerBuilder};
use firvm::Vm;
use interp::Value;

use crate::e2e;
use crate::programs::{self, Prog};
use crate::recorder::Recorder;
use crate::stats::median;

struct Compiled {
    f: CompiledFn,
    /// The compiled vjp program the engine runs for `f.grad`.
    program: firvm::Program,
    /// Arguments plus unit adjoint seeds for `program`.
    vjp_args: Vec<Value>,
    f_par: CompiledFn,
    f_jit: CompiledFn,
    req_bytes: usize,
    resp_bytes: usize,
    /// Statements of the optimized vjp IR.
    vjp_stms: usize,
}

pub struct Rig {
    groups: Vec<Vec<usize>>,
    compiled: Vec<Compiled>,
    vm: Vm,
    pipeline: PassPipeline,
    server: Server,
    net: NetServer,
    client: NetClient,
    store: Store,
    /// Per-round scalar samples by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

fn pass_span(p: &Pass) -> &'static str {
    match p {
        Pass::Simplify => "opt.simplify",
        Pass::DeadCode => "opt.dce",
        Pass::ConstantFold => "opt.const-fold",
        Pass::CopyProp => "opt.copy-prop",
        Pass::Cse => "opt.cse",
        Pass::Fusion => "opt.fusion",
        Pass::Hoist => "opt.hoist",
        Pass::MemPlan => "opt.memplan",
    }
}

fn pass_rewrites(p: &Pass) -> &'static str {
    match p {
        Pass::Simplify => "opt.simplify_rewrites",
        Pass::DeadCode => "opt.dce_rewrites",
        Pass::ConstantFold => "opt.const-fold_rewrites",
        Pass::CopyProp => "opt.copy-prop_rewrites",
        Pass::Cse => "opt.cse_rewrites",
        Pass::Fusion => "opt.fusion_rewrites",
        Pass::Hoist => "opt.hoist_rewrites",
        Pass::MemPlan => "opt.memplan_rewrites",
    }
}

fn engine_grad_eq(run: &[Value], g: &GradOutput) -> bool {
    let joined: Vec<Value> = g.value.iter().chain(&g.grads).cloned().collect();
    programs::same_bits(run, &joined)
}

impl Rig {
    /// Compile the workload's programs on every engine the round uses and
    /// start the serving paths. `groups` index into `progs`; round `r`
    /// measures group `r % groups.len()`.
    pub fn new(progs: &[Prog], groups: Vec<Vec<usize>>, scratch: &Path) -> Rig {
        let seq = programs::seq_engine(None);
        let par = programs::named_engine("vm");
        let jit = Engine::builder()
            .backend_name("vm-jit-seq")
            .jit_threshold(1)
            .build()
            .expect("vm-jit-seq engine");
        let compiled = progs
            .iter()
            .map(|p| {
                let f = seq.compile(&p.fun).expect("compile");
                let g = f.vjp().expect("vjp");
                let mut vjp_args = p.args.clone();
                vjp_args.extend(f.unit_seeds(&p.args).expect("unit seeds"));
                let f_par = par.compile(&p.fun).expect("compile on vm");
                let f_jit = jit.compile(&p.fun).expect("compile on vm-jit-seq");
                for _ in 0..3 {
                    // Past the promotion threshold before anything is timed.
                    f_jit.grad(&p.args).expect("jit warm-up");
                }
                let out = f.grad(&p.args).expect("grad");
                let req = WireRequest::Grad(CallRequest {
                    fn_key: p.key.to_string(),
                    transforms: Vec::new(),
                    args: p.args.clone(),
                    deadline_ms: None,
                    tenant: String::new(),
                });
                let resp = WireResponse::Grad {
                    value: out.value,
                    grads: out.grads,
                };
                Compiled {
                    program: firvm::compile(g.fun()),
                    vjp_stms: fir_opt::count_stms(g.fun()),
                    vjp_args,
                    f_par,
                    f_jit,
                    req_bytes: encode_request(1, &req).map_or(0, |s| s.len()),
                    resp_bytes: encode_response(1, 1, &resp).map_or(0, |s| s.len()),
                    f,
                }
            })
            .collect();
        let mut keys: Vec<(&'static str, &Fun)> = Vec::new();
        for p in progs {
            if !keys.iter().any(|(k, _)| *k == p.key) {
                keys.push((p.key, &p.fun));
            }
        }
        let lanes: &[&[Transform]] = &[&[], &[Transform::Vjp]];
        let mut sb = ServerBuilder::new(seq.clone()).warmup(lanes);
        let mut nb = NetServerBuilder::new(seq.clone()).shards(1).warmup(lanes);
        for (k, f) in &keys {
            sb = sb.register(k, f);
            nb = nb.register(k, f);
        }
        let server = sb.build().expect("serve server");
        let net = nb.bind("127.0.0.1:0").expect("net server");
        let client = NetClient::connect(&net.local_addr().to_string()).expect("net client");
        let store = Store::open(e2e::fresh_dir(scratch, "rig-store")).expect("rig store");
        Rig {
            groups,
            compiled,
            vm: Vm::sequential(),
            pipeline: PassPipeline::default(),
            server,
            net,
            client,
            store,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// One round over group `r % groups.len()`.
    pub fn round(&mut self, progs: &[Prog], r: u64, rec: &Recorder) {
        let group = self.groups[r as usize % self.groups.len()].clone();
        let (mut heap, mut arena) = (0u64, 0u64);
        let (mut grad_t, mut tensor) = (0.0, 0.0);
        let (mut grad_m, mut manual) = (0.0, 0.0);
        let (mut req, mut resp, mut vjp_stms, mut kernels) = (0, 0, 0, 0);
        let mut oks = Vec::new();
        for &i in &group {
            let p = &progs[i];
            let c = &self.compiled[i];
            // Untimed, so the timed paths below all start from warm caches.
            self.vm.run_program(&c.program, &c.vjp_args);
            let run_vm = || {
                rec.time("firvm.run", 0, r, || {
                    self.vm.run_program(&c.program, &c.vjp_args)
                })
            };
            let run_api = || {
                let a0 = interp::alloc_stats();
                let t = Instant::now();
                let g = rec.time("api.grad", 0, r, || c.f.grad(&p.args));
                let grad_s = t.elapsed().as_secs_f64();
                let a1 = interp::alloc_stats();
                (
                    g,
                    grad_s,
                    a1.heap_allocs - a0.heap_allocs,
                    a1.arena_hits - a0.arena_hits,
                )
            };
            // The bytecode path and the API path around it alternate which
            // runs first, so neither owns an order effect.
            let (run, (g, grad_s, h, a)) = if r.is_multiple_of(2) {
                let run = run_vm();
                (run, run_api())
            } else {
                let api = run_api();
                (run_vm(), api)
            };
            heap += h;
            arena += a;
            let served = rec.time("serve.grad", 0, r, || {
                self.server.grad(p.key, p.args.clone())
            });
            let netted = rec.time("net.grad", 0, r, || self.client.grad(p.key, p.args.clone()));
            let ok = match &g {
                Ok(g) => {
                    engine_grad_eq(&run, g)
                        && matches!(&served, Ok(s) if programs::grad_bits_eq(s, g))
                        && matches!(&netted, Ok(n) if programs::grad_bits_eq(n, g))
                }
                Err(_) => false,
            };
            rec.time("api.primal", 0, r, || c.f.call(&p.args).is_ok());
            let par_ok = rec.time("pool.grad", 0, r, || c.f_par.grad(&p.args).is_ok());
            let jit_ok = rec.time("jit.grad", 0, r, || c.f_jit.grad(&p.args).is_ok());
            if let Some(b) = &p.tensor {
                let t = Instant::now();
                rec.time("baseline.tensor", 0, r, b);
                tensor += t.elapsed().as_secs_f64();
                grad_t += grad_s;
            }
            if let Some(b) = &p.manual {
                let t = Instant::now();
                rec.time("baseline.manual", 0, r, b);
                manual += t.elapsed().as_secs_f64();
                grad_m += grad_s;
            }
            req += c.req_bytes;
            resp += c.resp_bytes;
            vjp_stms += c.vjp_stms;
            kernels += c.program.kernels.len();
            oks.push(ok && par_ok && jit_ok);
        }
        for ok in oks {
            self.tally(ok);
        }
        self.sample("interp.heap_allocs_per_op", heap as f64);
        self.sample("interp.arena_hits_per_op", arena as f64);
        self.sample("net.req_bytes", req as f64);
        self.sample("net.resp_bytes", resp as f64);
        self.sample("opt.vjp_stms", vjp_stms as f64);
        self.sample("firvm.kernels", kernels as f64);
        if tensor > 0.0 {
            self.sample("vs_tensor", tensor / grad_t);
        }
        if manual > 0.0 {
            self.sample("vs_manual", grad_m / manual);
        }
        self.compile_layers(progs, &group, r, rec);
    }

    /// The compile path one layer at a time, as the engine runs it for
    /// `compile` + `vjp`: typecheck, pipeline and bytecode compile of the
    /// source, then vjp derivation and the same three on the derivative.
    /// Every product is also encoded, decoded, stored and loaded through
    /// the persistent cache codec.
    fn compile_layers(&mut self, progs: &[Prog], group: &[usize], r: u64, rec: &Recorder) {
        let funs: Vec<&Fun> = group.iter().map(|&i| &progs[i].fun).collect();
        let engine = rec.time("api.compile", 0, r, || e2e::cold_compile(&funs));
        let ok = engine.is_ok();
        self.tally(ok);
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut bytes, mut ok) = (0usize, true);
        for src in funs {
            let root = firvm::fingerprint_pair(src);
            let vjp_of = |f: &Fun| rec.time("core.vjp", 0, r, || futhark_ad::vjp(f));
            let derived = vjp_of(src);
            for (stack, fun) in [("", src), ("vjp", &derived)] {
                let typed = rec.time("fir.typecheck", 0, r, || fir::typecheck::check_fun(fun));
                ok &= typed.is_ok();
                let optimized = self.pipeline_layers(fun, r, rec, &mut counts);
                let program = rec.time("firvm.compile", 0, r, || firvm::compile(&optimized));
                let entry = CachedEntry {
                    source: fun.clone(),
                    optimized: Some(optimized),
                    program,
                };
                let pipeline = self.pipeline.cache_key();
                let key = StoreKey {
                    fingerprint: root,
                    transforms: stack,
                    pipeline: &pipeline,
                    backend: "firvm",
                };
                let enc = rec.time("cache.encode", 0, r, || {
                    fir_cache::encode_entry(&key, &entry)
                });
                bytes += enc.len();
                let dec = rec.time("cache.decode", 0, r, || fir_cache::decode_entry(&enc, &key));
                ok &= matches!(&dec, Ok(d) if *d == entry);
                ok &= self.store.store(&key, &entry).is_ok();
                let loaded = rec.time("cache.load", 0, r, || self.store.load(&key));
                ok &= loaded.as_ref() == Some(&entry);
            }
        }
        self.tally(ok);
        for (k, v) in counts {
            self.sample(k, v);
        }
        self.sample("cache.bytes", bytes as f64);
    }

    /// The pass pipeline run pass by pass, as `PassPipeline::apply_with_stats`
    /// runs it, each pass a child span of `opt.pipeline`.
    fn pipeline_layers(
        &self,
        fun: &Fun,
        r: u64,
        rec: &Recorder,
        counts: &mut BTreeMap<&'static str, f64>,
    ) -> Fun {
        let span = rec.span("opt.pipeline", 0, r);
        *counts.entry("opt.stms_in").or_default() += fir_opt::count_stms(fun) as f64;
        let mut cur = fun.clone();
        for _ in 0..self.pipeline.max_iterations() {
            let mut changed = false;
            for p in self.pipeline.passes() {
                let (next, run) = rec.time(pass_span(p), span.id(), r, || p.apply_counted(&cur));
                *counts.entry(pass_rewrites(p)).or_default() += run.rewrites as f64;
                changed |= run.rewrites > 0;
                cur = next;
            }
            if !changed {
                break;
            }
        }
        *counts.entry("opt.stms_out").or_default() += fir_opt::count_stms(&cur) as f64;
        cur
    }

    /// Per-layer metrics: `(name, value, unit, samples)`. `load` is the
    /// metrics snapshot of the server that carried the workload's load, if
    /// it has one of its own; otherwise the rig's network server's.
    pub fn metrics(
        &self,
        rec: &Recorder,
        load: Option<MetricsSnapshot>,
    ) -> Vec<(String, f64, &'static str, usize)> {
        let mut out: Vec<(String, f64, &'static str, usize)> = Vec::new();
        let rounds = |name: &str| rec.per_round_ms(name);
        let mut put = |name: &str, xs: &[f64], unit: &'static str| {
            out.push((name.to_string(), median(xs), unit, xs.len()));
        };
        let diff =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
        let ratio =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x / y).collect() };
        let (run, grad, serve, net) = (
            rounds("firvm.run"),
            rounds("api.grad"),
            rounds("serve.grad"),
            rounds("net.grad"),
        );
        put("firvm.run_ms", &run, "ms");
        put("api.grad_ms", &grad, "ms");
        put("api.self_ms", &diff(&grad, &run), "ms");
        put("serve.grad_ms", &serve, "ms");
        put("serve.self_ms", &diff(&serve, &grad), "ms");
        put("net.grad_ms", &net, "ms");
        put("net.self_ms", &diff(&net, &serve), "ms");
        put("ad_overhead", &ratio(&grad, &rounds("api.primal")), "x");
        put("pool.par_speedup", &ratio(&grad, &rounds("pool.grad")), "x");
        put("jit.tier_ratio", &ratio(&grad, &rounds("jit.grad")), "x");
        let layers = ["fir.typecheck", "core.vjp", "opt.pipeline", "firvm.compile"];
        let mut layer_sum = vec![0.0; rounds("api.compile").len()];
        for l in layers {
            let xs = rounds(l);
            for (s, x) in layer_sum.iter_mut().zip(&xs) {
                *s += x;
            }
            put(&format!("{l}_ms"), &xs, "ms");
        }
        put("api.compile_ms", &rounds("api.compile"), "ms");
        put(
            "api.engine_overhead_ms",
            &diff(&rounds("api.compile"), &layer_sum),
            "ms",
        );
        for p in self.pipeline.passes() {
            put(&format!("{}_ms", pass_span(p)), &rounds(pass_span(p)), "ms");
        }
        for l in ["cache.encode", "cache.decode", "cache.load"] {
            put(&format!("{l}_ms"), &rounds(l), "ms");
        }
        for (name, xs) in &self.samples {
            let unit = match *name {
                "vs_tensor" | "vs_manual" => "x",
                "cache.bytes" | "net.req_bytes" | "net.resp_bytes" => "bytes",
                _ => "count",
            };
            put(name, xs, unit);
        }
        let snap = load.unwrap_or_else(|| self.net.metrics());
        let (mut bsum, mut bcount, mut lsum, mut lcount) = (0u64, 0u64, 0u64, 0u64);
        for f in &snap.fns {
            bsum += f.batch_sizes.sum;
            bcount += f.batch_sizes.count;
            lsum += f.latency_us.sum;
            lcount += f.latency_us.count;
        }
        let n = bcount as usize;
        out.push((
            "serve.mean_batch".into(),
            bsum as f64 / bcount.max(1) as f64,
            "count",
            n,
        ));
        out.push((
            "serve.latency_mean_us".into(),
            lsum as f64 / lcount.max(1) as f64,
            "us",
            lcount as usize,
        ));
        out
    }

    pub fn shutdown(self) {
        drop(self.client);
        self.net.shutdown();
        self.server.shutdown();
    }
}
