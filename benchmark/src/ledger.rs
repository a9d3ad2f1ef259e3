//! The per-layer ledger of the traced run.
//!
//! Three sources, all outside the program: the spans the rounds recorded
//! (per-round sums of self time), what the program itself reports
//! (`SolverProfile`, `RuntimeCounters`, `RemotePlan`, `last_span`, the
//! `Metrics` verb), and single calls into each crate's `pub` functions
//! timed here at the workload's own sizes. A layer is a crate; a metric
//! is `<crate>.<name>`.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stalloc::allocators::{AllocRequest, GpuAllocator};
use stalloc::gpu_sim::{Device, DeviceSpec};
use stalloc::harness::{self, AllocatorKind};
use stalloc::stalloc_core::{
    analyze_plan, apply_delta, baseline_layout, diff_profiles, fingerprint_job,
    fingerprint_job_body, finish_plan, profile_trace, Fingerprint, Plan, PlanEncoding, PlanSource,
    ProfileDelta, ProfileEncoding, ProfiledRequests, Rect, RuntimeConfig, StallocAllocator,
    StrategyChoice, SynthConfig, TimeSpacePacker,
};
use stalloc::stalloc_obs::{LatencyHistogram, Phase, RequestSpan, SpanRing};
use stalloc::stalloc_served::{
    read_frame, write_frame, PlanClient, PlanServer, ServeConfig, DEFAULT_MAX_FRAME,
};
use stalloc::stalloc_solver::{patch_plan, strategy_for, synthesize_strategy, Portfolio};
use stalloc::stalloc_store::{
    decode_plan, decode_profile, decode_profile_delta, encode_plan, encode_profile,
    encode_profile_delta, profile_body, PlanStore, ShardedLru,
};
use stalloc::trace_gen::{ModelSpec, OptimConfig, ParallelConfig, Trace, TraceEvent, TrainJob};

use crate::alloc;
use crate::round::{perturb, run_round, Checks, Reference, RoundOut, Sample, World};
use crate::trace::Tracer;
use crate::util::{median, quantile, Rng};
use crate::workloads::Workload;

/// `(name, value, unit)` rows in insertion order.
#[derive(Default)]
pub struct Ledger(pub Vec<(String, f64, &'static str)>);

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// How long one single-call measurement repeats its call, and about how
/// many such measurements the ledger makes.
const TARGET: Duration = Duration::from_millis(20);
const MEASUREMENTS: u32 = 20;

/// [`TARGET`], or less when little of `--seconds` is left: the loops may
/// use half of it, the single calls around them need the rest.
fn pace(deadline: Instant) -> Duration {
    let left = deadline.saturating_duration_since(Instant::now());
    (left / (2 * MEASUREMENTS)).clamp(Duration::from_millis(1), TARGET)
}

/// Mean nanoseconds per call of `f`: one warm-up call sizes the loop to
/// about `target`, then the loop runs under one span.
fn per_call(tr: &Tracer, target: Duration, name: &'static str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    let reps = (target.as_nanos() / once).clamp(1, 200_000) as u64;
    let ((), took) = tr.span_ops(name, reps, || (0..reps).for_each(|_| f()));
    ns(took) / reps as f64
}

/// Mean over `items` of [`per_call`] on each; the items share `target`.
fn per_item<T>(
    tr: &Tracer,
    target: Duration,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> f64 {
    let each = target / items.len() as u32;
    items
        .iter()
        .map(|it| per_call(tr, each, name, || f(it)))
        .sum::<f64>()
        / items.len() as f64
}

/// Median over rounds of the per-round sum of self time, in `scale`ths
/// of a nanosecond (1e6 for ms).
fn round_median(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let sums: Vec<f64> = tr.round_sums(name).iter().map(|ns| ns / scale).collect();
    median(&sums)
}

/// Self time per op over every span called `name`.
fn ns_per_op(tr: &Tracer, name: &str) -> f64 {
    let (ns, ops) = tr
        .samples(name)
        .iter()
        .fold((0.0, 0u64), |(ns, ops), s| (ns + s.1, ops + s.2));
    ns / ops as f64
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Σ over `items` of one spanned call of `f` on each, in nanoseconds.
fn total_ns<T, R>(tr: &Tracer, name: &'static str, items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    items
        .iter()
        .map(|it| {
            let (out, took) = tr.span(name, || f(it));
            black_box(out);
            ns(took)
        })
        .sum()
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn memory_daemon() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

struct RuntimeProbe {
    static_ns: f64,
    dynamic_ns: f64,
    allocs_per_op: f64,
    driver_calls: u64,
    vmm_ops: u64,
}

/// Drives the runtime allocator through `trace` directly (no replay
/// oracle), timing each `malloc`/`free` and attributing it to the static
/// or the dynamic path; a second pass counts heap allocations.
fn runtime_probe(trace: &Trace, spec: &DeviceSpec, plan: &Plan) -> RuntimeProbe {
    let timer_ns = {
        let start = Instant::now();
        for _ in 0..10_000 {
            black_box(Instant::now().elapsed());
        }
        start.elapsed().as_nanos() as f64 / 10_000.0
    };
    let mut out = RuntimeProbe {
        static_ns: 0.0,
        dynamic_ns: 0.0,
        allocs_per_op: 0.0,
        driver_calls: 0,
        vmm_ops: 0,
    };
    for counting in [false, true] {
        let mut dev = Device::new(spec.clone());
        let mut rt = StallocAllocator::new(plan.clone(), RuntimeConfig::default());
        let mut is_dynamic = std::collections::HashMap::new();
        // [static, dynamic]
        let (mut ns, mut ops, mut heap) = ([0.0f64; 2], [0u64; 2], 0u64);
        for ev in &trace.events {
            match ev {
                TraceEvent::IterationBegin(it) => rt.iteration_begin(&mut dev, *it),
                TraceEvent::IterationEnd(_) => {}
                TraceEvent::PhaseBegin(p) => {
                    rt.phase_begin(&mut dev, *p, &trace.phases[p.0 as usize])
                }
                TraceEvent::ModuleEnter(m) => rt.module_enter(&mut dev, *m),
                TraceEvent::ModuleExit(m) => rt.module_exit(&mut dev, *m),
                TraceEvent::Alloc {
                    id, size, dynamic, ..
                } => {
                    let req = AllocRequest {
                        tensor: *id,
                        size: *size,
                        dynamic: *dynamic,
                    };
                    is_dynamic.insert(*id, *dynamic);
                    let class = *dynamic as usize;
                    if counting {
                        heap += alloc::count(|| rt.malloc(&mut dev, &req)).1;
                    } else {
                        let start = Instant::now();
                        let served = rt.malloc(&mut dev, &req);
                        ns[class] += start.elapsed().as_nanos() as f64 - timer_ns;
                        served.expect("the checked replay served this trace");
                    }
                    ops[class] += 1;
                }
                TraceEvent::Free { id } => {
                    let class = is_dynamic.remove(id).unwrap_or(false) as usize;
                    if counting {
                        heap += alloc::count(|| rt.free(&mut dev, *id)).1;
                    } else {
                        let start = Instant::now();
                        let freed = rt.free(&mut dev, *id);
                        ns[class] += start.elapsed().as_nanos() as f64 - timer_ns;
                        freed.expect("the checked replay freed this tensor");
                    }
                    ops[class] += 1;
                }
            }
        }
        if counting {
            out.allocs_per_op = heap as f64 / (ops[0] + ops[1]) as f64;
        } else {
            out.static_ns = ns[0] / ops[0].max(1) as f64;
            out.dynamic_ns = ns[1] / ops[1].max(1) as f64;
            let stats = dev.stats();
            out.driver_calls = stats.num_mallocs + stats.num_frees + stats.vmm.total_ops();
            out.vmm_ops = stats.vmm.total_ops();
        }
    }
    out
}

/// Fills the ledger. `rounds` are the traced rounds, `world` the last
/// one's artifacts; `untraced_wall` the walls of the rounds run with the
/// tracer off in the same process. `reference` and `checks` are the run's:
/// the store round is held to round 0 like every other.
#[allow(clippy::too_many_arguments)]
pub fn fill(
    w: &Workload,
    seed: u64,
    tr: &Tracer,
    rounds: &[RoundOut],
    untraced_wall: &[f64],
    world: &World,
    work_dir: &Path,
    run_start: Instant,
    deadline: Instant,
    reference: &mut Option<Reference>,
    checks: &mut Checks,
) -> Ledger {
    tr.set_round(u32::MAX);
    let target = pace(deadline);
    let mut l = Ledger::default();
    let config = SynthConfig::default();
    let last = rounds.last().expect("the traced run has a traced round");
    let World {
        traces,
        profiles,
        plans,
    } = world;
    let n = profiles.len() as f64;
    let mut rng = Rng::new(seed ^ 0x1ed9e5);
    // The profile with the most static requests: the packer's worst case.
    let big = (0..profiles.len())
        .max_by_key(|&i| profiles[i].statics.len())
        .expect("a workload has jobs");
    let small = (0..profiles.len())
        .min_by_key(|&i| profiles[i].statics.len())
        .expect("a workload has jobs");
    // A few (base, neighbour, edit script) triples for the delta path.
    let pairs: Vec<(usize, ProfiledRequests, ProfileDelta)> = (0..profiles.len().min(4))
        .map(|i| {
            let next = perturb(&profiles[i], 1 + i as u64, &mut rng);
            let delta = diff_profiles(&profiles[i], &next);
            (i, next, delta)
        })
        .collect();

    // --- trace-gen, gpu-sim, allocators, harness --------------------------
    l.put(
        "trace-gen.build_ms",
        round_median(tr, "trace-gen.build_trace", 1e6),
        "ms",
    );
    l.put("trace-gen.events", last.events as f64, "count");
    let probe = runtime_probe(&traces[big], &w.jobs[big].device, &plans[big]);
    l.put("gpu-sim.driver_calls", probe.driver_calls as f64, "count");
    l.put("gpu-sim.vmm_ops", probe.vmm_ops as f64, "count");
    l.put("gpu-sim.sim_overhead_us", last.sim_overhead_us, "us");
    l.put(
        "allocators.torch23_replay_ns_per_op",
        ns_per_op(tr, "allocators.replay_torch23"),
        "ns",
    );
    for &(name, eff) in &last.reference_efficiency {
        l.put(format!("allocators.{name}_efficiency"), eff, "ratio");
    }
    l.put(
        "harness.replay_checked_ns_per_op",
        ns_per_op(tr, "harness.replay_checked"),
        "ns",
    );
    // `harness::run` memoises plans per process: the second call is the
    // wrapper's own cost (profile + memo lookup + checked replay).
    harness::run(
        &traces[small],
        &w.jobs[small].device,
        AllocatorKind::Stalloc,
    );
    let (_, took) = tr.span("harness.run", || {
        harness::run(
            &traces[small],
            &w.jobs[small].device,
            AllocatorKind::Stalloc,
        )
    });
    l.put("harness.run_stalloc_ms", ns(took) / 1e6, "ms");

    // --- stalloc-core ------------------------------------------------------
    l.put(
        "stalloc-core.profile_ms",
        round_median(tr, "stalloc-core.profile_trace", 1e6),
        "ms",
    );
    l.put("stalloc-core.statics", last.statics as f64, "count");
    l.put("stalloc-core.dynamics", last.dynamics as f64, "count");
    let (mut layout_ns, mut finish_ns) = (0.0, 0.0);
    for p in profiles {
        let (layout, took) = tr.span("stalloc-core.baseline_layout", || {
            baseline_layout(p, &config)
        });
        layout_ns += ns(took);
        let (plan, took) = tr.span("stalloc-core.finish_plan", || {
            finish_plan(p, StrategyChoice::Baseline, layout)
        });
        finish_ns += ns(took);
        black_box(plan);
    }
    l.put("stalloc-core.baseline_layout_ms", layout_ns / 1e6, "ms");
    l.put("stalloc-core.finish_plan_ms", finish_ns / 1e6, "ms");

    // The packer at the workload's largest rect count.
    let rects: Vec<Rect> = plans[big]
        .init_allocs
        .iter()
        .chain(&plans[big].iter_allocs)
        .filter(|a| a.size > 0)
        .map(|a| Rect {
            t0: a.ts,
            t1: a.te.max(a.ts + 1),
            off: a.offset,
            len: a.size,
        })
        .collect();
    let mut packer = TimeSpacePacker::new();
    let ((), took) = tr.span_ops("stalloc-core.packer_place_at", rects.len() as u64, || {
        rects.iter().for_each(|&r| packer.place_at(r))
    });
    l.put("stalloc-core.packer_rects", rects.len() as f64, "count");
    l.put(
        "stalloc-core.packer_place_ns",
        ns(took) / rects.len() as f64,
        "ns",
    );
    let queries: Vec<Rect> = rects
        .iter()
        .step_by((rects.len() / 64).max(1))
        .copied()
        .collect();
    let first = per_call(tr, target, "stalloc-core.packer_find_first_fit", || {
        for q in &queries {
            black_box(packer.find_first_fit(q.t0, q.t1, q.len, u64::MAX));
        }
    });
    l.put(
        "stalloc-core.packer_first_fit_ns",
        first / queries.len() as f64,
        "ns",
    );
    let best = per_call(tr, target, "stalloc-core.packer_find_best_fit", || {
        for q in &queries {
            black_box(packer.find_best_fit(q.t0, q.t1, q.len, u64::MAX));
        }
    });
    l.put(
        "stalloc-core.packer_best_fit_ns",
        best / queries.len() as f64,
        "ns",
    );

    let validate_ns = per_item(tr, target, "stalloc-core.validate", plans, |p| {
        black_box(p.validate()).expect("cold plans validate");
    });
    l.put("stalloc-core.validate_us", validate_ns / 1e3, "us");
    let raws: Vec<Vec<u8>> = profiles.iter().map(encode_profile).collect();
    let fp_job = per_item(tr, target, "stalloc-core.fingerprint_job", profiles, |p| {
        black_box(fingerprint_job(p, &config));
    });
    l.put("stalloc-core.fingerprint_job_us", fp_job / 1e3, "us");
    let fp_body = per_item(
        tr,
        target,
        "stalloc-core.fingerprint_job_body",
        &raws,
        |raw| {
            let body = profile_body(raw).expect("just encoded");
            black_box(fingerprint_job_body(body, &config));
        },
    );
    l.put("stalloc-core.fingerprint_body_us", fp_body / 1e3, "us");
    let diff = per_item(
        tr,
        target,
        "stalloc-core.diff_profiles",
        &pairs,
        |(i, next, _)| {
            black_box(diff_profiles(&profiles[*i], next));
        },
    );
    l.put("stalloc-core.diff_profiles_us", diff / 1e3, "us");
    let apply = per_item(
        tr,
        target,
        "stalloc-core.apply_delta",
        &pairs,
        |(i, _, delta)| {
            black_box(apply_delta(&profiles[*i], delta)).expect("own delta applies");
        },
    );
    l.put("stalloc-core.apply_delta_us", apply / 1e3, "us");

    let mut new_ns = 0.0;
    for plan in plans {
        let copy = plan.clone();
        let (rt, took) = tr.span("stalloc-core.runtime_new", || {
            StallocAllocator::new(copy, RuntimeConfig::default())
        });
        new_ns += ns(took);
        black_box(rt);
    }
    l.put("stalloc-core.runtime_new_us", new_ns / n / 1e3, "us");
    l.put(
        "stalloc-core.runtime_static_ns_per_op",
        probe.static_ns,
        "ns",
    );
    // A ratio, so that workloads without dynamic requests report 0 and
    // not a time that never varies.
    l.put(
        "stalloc-core.runtime_dynamic_cost_ratio",
        probe.dynamic_ns / probe.static_ns,
        "ratio",
    );
    l.put(
        "stalloc-core.runtime_allocs_per_op",
        probe.allocs_per_op,
        "count",
    );
    let c = last.counters;
    l.put(
        "stalloc-core.rt_static_fallback",
        c.static_fallback as f64,
        "count",
    );
    l.put(
        "stalloc-core.rt_dynamic_reused",
        c.dynamic_reused as f64,
        "count",
    );
    l.put(
        "stalloc-core.rt_dynamic_fallback",
        c.dynamic_fallback as f64,
        "count",
    );
    l.put(
        "stalloc-core.rt_fallback_bytes_peak",
        c.fallback_bytes_peak as f64,
        "B",
    );
    l.put(
        "stalloc-core.rt_stomps_avoided",
        c.stomps_avoided as f64,
        "count",
    );
    let analyze_ns = total_ns(tr, "stalloc-core.analyze_plan", plans, |p| {
        analyze_plan(p, 8)
    });
    let mut json_bytes = 0usize;
    let json_ns = total_ns(tr, "stalloc-core.plan_json_roundtrip", plans, |plan| {
        let json = plan.to_json();
        json_bytes += json.len();
        assert_eq!(
            Plan::from_json(&json).as_ref(),
            Ok(plan),
            "JSON round trip differs"
        );
    });
    l.put("stalloc-core.analyze_plan_ms", analyze_ns / 1e6, "ms");
    l.put("stalloc-core.plan_json_roundtrip_ms", json_ns / 1e6, "ms");

    // --- stalloc-solver ------------------------------------------------------
    for ((name, prof), (_, ratio)) in last.strategy_profiles.iter().zip(&last.strategy_pool_ratio) {
        let span_name = format!("stalloc-solver.plan_{name}");
        l.put(
            format!("stalloc-solver.{name}_ms"),
            round_median(tr, &span_name, 1e6),
            "ms",
        );
        l.put(format!("stalloc-solver.{name}_pool_ratio"), *ratio, "ratio");
        l.put(
            format!("stalloc-solver.{name}_placements_tried"),
            prof.placements_tried as f64,
            "count",
        );
        l.put(
            format!("stalloc-solver.{name}_placements_rejected"),
            prof.placements_rejected as f64,
            "count",
        );
    }
    let baseline_prof = last.strategy_profiles[0].1;
    l.put(
        "stalloc-solver.baseline_layout_us",
        baseline_prof.layout_micros as f64,
        "us",
    );
    l.put(
        "stalloc-solver.baseline_finish_us",
        baseline_prof.finish_micros as f64,
        "us",
    );
    let baseline = strategy_for(StrategyChoice::Baseline).expect("registered");
    let baseline_allocs: u64 = profiles
        .iter()
        .map(|p| alloc::count(|| black_box(baseline.plan_profiled(p, &config))).1)
        .sum();
    l.put(
        "stalloc-solver.baseline_allocs",
        baseline_allocs as f64,
        "count",
    );
    let race_ns = total_ns(tr, "stalloc-solver.portfolio_run", profiles, |p| {
        Portfolio::standard().run(p, &config)
    });
    l.put("stalloc-solver.portfolio_race_ms", race_ns / 1e6, "ms");
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    l.put(
        "stalloc-solver.portfolio_race_threads",
        parallelism as f64,
        "count",
    );
    let (mut patch_ns, mut reuse, mut pool_ratio) = (0.0, 0.0, 0.0);
    for (i, next, _) in &pairs {
        let (patched, took) = tr.span("stalloc-solver.patch_plan", || {
            patch_plan(&profiles[*i], &plans[*i], next).expect("plan matches its profile")
        });
        patch_ns += ns(took);
        reuse += patched.1.reuse_ratio();
        let cold = synthesize_strategy(next, &config);
        pool_ratio += patched.0.pool_size as f64 / cold.pool_size as f64;
    }
    let k = pairs.len() as f64;
    l.put("stalloc-solver.patch_plan_ms", patch_ns / k / 1e6, "ms");
    l.put("stalloc-solver.patch_reuse_ratio", reuse / k, "ratio");
    l.put("stalloc-solver.patch_pool_ratio", pool_ratio / k, "ratio");
    // Stage 0 → stage 1 of the first job's real pipeline family.
    let stage1 = {
        let job = w.jobs[0].job.clone().with_stage(1);
        let trace = job
            .build_trace()
            .expect("stage 1 exists: every job has pp >= 2");
        profile_trace(&trace, 1).expect("iteration 1")
    };
    let (staged, took) = tr.span("stalloc-solver.patch_plan_stage", || {
        patch_plan(&profiles[0], &plans[0], &stage1).expect("plan matches its profile")
    });
    l.put("stalloc-solver.patch_stage_ms", ns(took) / 1e6, "ms");
    l.put(
        "stalloc-solver.patch_stage_reuse_ratio",
        staged.1.reuse_ratio(),
        "ratio",
    );

    // --- stalloc-store -------------------------------------------------------
    let stpls: Vec<Vec<u8>> = plans.iter().map(encode_plan).collect();
    let enc_plan = per_item(tr, target, "stalloc-store.encode_plan", plans, |p| {
        black_box(encode_plan(p));
    });
    let dec_plan = per_item(tr, target, "stalloc-store.decode_plan", &stpls, |b| {
        black_box(decode_plan(b)).expect("own bytes decode");
    });
    let dec_allocs: u64 = stpls
        .iter()
        .map(|b| alloc::count(|| black_box(decode_plan(b))).1)
        .sum();
    let enc_prof = per_item(tr, target, "stalloc-store.encode_profile", profiles, |p| {
        black_box(encode_profile(p));
    });
    let dec_prof = per_item(tr, target, "stalloc-store.decode_profile", &raws, |b| {
        black_box(decode_profile(b)).expect("own bytes decode");
    });
    let prfds: Vec<Vec<u8>> = pairs
        .iter()
        .map(|(_, _, d)| encode_profile_delta(d))
        .collect();
    let enc_delta = per_item(
        tr,
        target,
        "stalloc-store.encode_profile_delta",
        &pairs,
        |(_, _, d)| {
            black_box(encode_profile_delta(d));
        },
    );
    let dec_delta = per_item(
        tr,
        target,
        "stalloc-store.decode_profile_delta",
        &prfds,
        |b| {
            black_box(decode_profile_delta(b)).expect("own bytes decode");
        },
    );
    l.put("stalloc-store.encode_plan_us", enc_plan / 1e3, "us");
    l.put("stalloc-store.decode_plan_us", dec_plan / 1e3, "us");
    l.put(
        "stalloc-store.decode_plan_allocs",
        dec_allocs as f64 / n,
        "count",
    );
    l.put("stalloc-store.encode_profile_us", enc_prof / 1e3, "us");
    l.put("stalloc-store.decode_profile_us", dec_prof / 1e3, "us");
    l.put("stalloc-store.encode_delta_us", enc_delta / 1e3, "us");
    l.put("stalloc-store.decode_delta_us", dec_delta / 1e3, "us");
    l.put(
        "stalloc-store.profile_bytes",
        last.profile_bytes as f64,
        "B",
    );
    l.put(
        "stalloc-store.delta_bytes",
        prfds.iter().map(Vec::len).sum::<usize>() as f64 / k,
        "B",
    );
    l.put("stalloc-store.plan_json_bytes", json_bytes as f64, "B");

    let fps: Vec<Fingerprint> = profiles
        .iter()
        .map(|p| fingerprint_job(p, &config))
        .collect();
    let lru: ShardedLru<Arc<Plan>> = ShardedLru::new(128);
    let shared: Vec<Arc<Plan>> = plans.iter().cloned().map(Arc::new).collect();
    for (fp, plan) in fps.iter().zip(&shared) {
        lru.insert(*fp, Arc::clone(plan));
    }
    let mut turn = 0usize;
    let get = per_call(tr, target, "stalloc-store.lru_get", || {
        turn = (turn + 1) % fps.len();
        black_box(lru.get(fps[turn]));
    });
    let mut fresh = 0u64;
    let insert = per_call(tr, target, "stalloc-store.lru_insert", || {
        fresh += 1;
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&fresh.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        lru.insert(Fingerprint(bytes), Arc::clone(&shared[0]));
    });
    l.put("stalloc-store.lru_get_ns", get, "ns");
    l.put("stalloc-store.lru_insert_ns", insert, "ns");

    let store_dir = work_dir.join("ledger-store");
    let store = PlanStore::open(&store_dir).expect("store dir under the work dir");
    let (mut put_ns, mut get_ns) = (0.0, 0.0);
    for (fp, plan) in fps.iter().zip(plans) {
        let (entry, took) = tr.span("stalloc-store.put", || store.put(*fp, plan));
        entry.expect("put into a fresh dir");
        put_ns += ns(took);
    }
    for (fp, plan) in fps.iter().zip(plans) {
        let (found, took) = tr.span("stalloc-store.get", || store.get(*fp));
        assert_eq!(
            found.expect("readable").as_ref(),
            Some(plan),
            "store returns the plan"
        );
        get_ns += ns(took);
    }
    l.put("stalloc-store.store_put_us", put_ns / n / 1e3, "us");
    l.put("stalloc-store.store_get_us", get_ns / n / 1e3, "us");
    // The same calls with 256 entries in the index: `put` rewrites it.
    let synthetic = |i: u64| {
        let mut bytes = [0xabu8; 16];
        bytes[..8].copy_from_slice(&i.to_le_bytes());
        Fingerprint(bytes)
    };
    for i in fps.len() as u64..256 {
        store.put(synthetic(i), &plans[small]).expect("populate");
    }
    let (mut put_ns, mut get_ns) = (0.0, 0.0);
    for i in 0..16u64 {
        let (entry, took) = tr.span("stalloc-store.put_at256", || {
            store.put(synthetic(1000 + i), &plans[small])
        });
        entry.expect("put");
        put_ns += ns(took);
        let (found, took) = tr.span("stalloc-store.get_at256", || store.get(synthetic(1000 + i)));
        black_box(found.expect("readable"));
        get_ns += ns(took);
    }
    l.put(
        "stalloc-store.store_put_at256_us",
        put_ns / 16.0 / 1e3,
        "us",
    );
    l.put(
        "stalloc-store.store_get_at256_us",
        get_ns / 16.0 / 1e3,
        "us",
    );
    std::fs::remove_dir_all(&store_dir).ok();

    // --- stalloc-served ------------------------------------------------------
    let all = |f: fn(&RoundOut) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let tier = |f: fn(&RoundOut) -> &Vec<Sample>| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| f(r).iter().map(|&(_, us)| us))
            .collect()
    };
    let (hit, patched) = (tier(|r| &r.rtts.lru), tier(|r| &r.rtts.patched));
    let hit_p50 = p50(&hit);
    l.put("stalloc-served.rtt_hit_p99_us", quantile(&hit, 0.99), "us");
    l.put("stalloc-served.rtt_hit_samples", hit.len() as f64, "count");
    l.put(
        "stalloc-served.rtt_patched_p99_us",
        quantile(&patched, 0.99),
        "us",
    );
    l.put(
        "stalloc-served.rtt_patched_samples",
        patched.len() as f64,
        "count",
    );
    l.put(
        "stalloc-served.rtt_miss_p50_us",
        p50(&all(|r| &r.miss_warm_us)),
        "us",
    );
    // The program reports these in whole microseconds: means, not
    // medians, so that the figure keeps the resolution of its samples.
    l.put(
        "stalloc-served.server_hit_mean_us",
        mean(&all(|r| &r.server_hit_us)),
        "us",
    );
    for phase in ["encode", "write", "await", "read", "decode"] {
        let samples: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.client_phase_us.get(phase).into_iter().flatten().copied())
            .collect();
        l.put(
            format!("stalloc-served.client_{phase}_mean_us"),
            mean(&samples),
            "us",
        );
    }
    // Server phases as shares of the daemon's busy time over the round
    // (a phase no request entered has share 0).
    let metrics = last
        .serve_metrics
        .as_ref()
        .expect("traced rounds ask for Metrics");
    let phase_sum = |p: Phase| metrics.phase(p.name()).map_or(0, |h| h.sum) as f64;
    let busy: f64 = Phase::ALL.into_iter().map(phase_sum).sum();
    for phase in Phase::ALL {
        l.put(
            format!("stalloc-served.phase_{}_share", phase.name()),
            phase_sum(phase) / busy,
            "ratio",
        );
    }
    l.put("stalloc-served.server_busy_ms", busy / 1e3, "ms");
    let total: usize = rounds.iter().map(|r| r.rtts.total()).sum();
    let share =
        |f: fn(&RoundOut) -> usize| rounds.iter().map(f).sum::<usize>() as f64 / total as f64;
    l.put(
        "stalloc-served.share_lru",
        share(|r| r.rtts.lru.len()),
        "ratio",
    );
    l.put(
        "stalloc-served.share_store",
        share(|r| r.rtts.store.len()),
        "ratio",
    );
    l.put(
        "stalloc-served.share_patched",
        share(|r| r.rtts.patched.len()),
        "ratio",
    );
    l.put(
        "stalloc-served.share_miss",
        share(|r| r.rtts.miss.len()),
        "ratio",
    );
    l.put(
        "stalloc-served.delta_patched_ratio",
        rounds.iter().map(|r| r.delta_patched).sum::<u64>() as f64
            / rounds.iter().map(|r| r.delta_requests).sum::<u64>() as f64,
        "ratio",
    );
    l.put(
        "stalloc-served.errors",
        rounds.iter().map(|r| r.serve_stats.errors).sum::<u64>() as f64,
        "count",
    );
    l.put(
        "stalloc-served.rejected",
        rounds.iter().map(|r| r.serve_stats.rejected).sum::<u64>() as f64,
        "count",
    );

    let frame_payload = &stpls[small];
    let frame = per_call(tr, target, "stalloc-served.frame_roundtrip", || {
        let mut wire = Vec::with_capacity(frame_payload.len() + 16);
        write_frame(&mut wire, frame_payload).expect("write to memory");
        black_box(read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME)).expect("own frame reads");
    });
    l.put("stalloc-served.frame_roundtrip_us", frame / 1e3, "us");

    // One memory-only daemon: ping floor, allocations per hit, JSON wire.
    let ping_p50;
    {
        let server = PlanServer::start(memory_daemon()).expect("loopback daemon");
        let mut client = PlanClient::connect(server.addr()).expect("connect");
        let pings: Vec<f64> = (0..2000)
            .map(|_| {
                tr.span("stalloc-served.ping", || client.ping())
                    .1
                    .as_nanos() as f64
                    / 1e3
            })
            .collect();
        ping_p50 = p50(&pings);
        l.put("stalloc-served.rtt_ping_p50_us", ping_p50, "us");
        client.plan(&profiles[small], &config).expect("warm");
        let (_, heap) = alloc::count(|| {
            for _ in 0..50 {
                client.plan(&profiles[small], &config).expect("hit");
            }
        });
        l.put(
            "stalloc-served.hit_allocs_per_req",
            heap as f64 / 50.0,
            "count",
        );
        drop(client);
        // One JSON round trip on the workloads' own profiles takes 1.4 s
        // (GPT-2 VR) to 38 s (MoE) today, which no run budget fits: the
        // JSON wire is measured on one fixed small profile everywhere.
        let tiny = {
            let job = TrainJob::new(
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 4, 1),
                OptimConfig::naive(),
            )
            .with_mbs(1)
            .with_seq(256)
            .with_microbatches(4)
            .with_iterations(2);
            profile_trace(&job.build_trace().expect("valid job"), 1).expect("iteration 1")
        };
        let mut json_client = PlanClient::connect(server.addr())
            .expect("connect")
            .with_encoding(PlanEncoding::Json)
            .with_profile_encoding(ProfileEncoding::Json);
        let tiny_plan = json_client.plan(&tiny, &config).expect("warm").plan;
        let json_rtts: Vec<f64> = (0..12)
            .map(|_| {
                let (answer, took) = tr.span("stalloc-served.plan_json", || {
                    json_client.plan(&tiny, &config)
                });
                assert_eq!(answer.expect("JSON hit").plan, tiny_plan);
                ns(took) / 1e3
            })
            .collect();
        l.put("stalloc-served.rtt_json_p50_us", p50(&json_rtts), "us");
        l.put(
            "stalloc-served.rtt_json_samples",
            json_rtts.len() as f64,
            "count",
        );
        drop(json_client);
        server.shutdown();
    }
    // Store tier alone: a daemon with the LRU off answers every repeat
    // from disk.
    {
        let dir = work_dir.join("ledger-served-store");
        let server = PlanServer::start(ServeConfig {
            lru_capacity: 0,
            store_dir: Some(dir.clone()),
            ..memory_daemon()
        })
        .expect("loopback daemon");
        let mut client = PlanClient::connect(server.addr()).expect("connect");
        for p in profiles {
            client.plan(p, &config).expect("cold");
        }
        let mut store_rtts = Vec::new();
        for _ in 0..3 {
            for p in profiles {
                let (answer, took) =
                    tr.span("stalloc-served.plan_store", || client.plan(p, &config));
                assert_eq!(answer.expect("store hit").source, PlanSource::Store);
                store_rtts.push(ns(took) / 1e3);
            }
        }
        l.put("stalloc-served.rtt_store_p50_us", p50(&store_rtts), "us");
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    // The whole round once more with a disk store behind the daemon's LRU,
    // in a fresh dir: `put` on the warm-up, patched and miss paths, store
    // lookups for what the LRU dropped. What `setup_s`, `rtt_patched_p50_us`
    // and `mix_req_per_s` would read if the rounds had a store dir.
    {
        let dir = work_dir.join("ledger-store-round");
        let quiet = Tracer::new(false);
        let (out, _) = run_round(w, seed, u32::MAX, &quiet, reference, false, Some(dir));
        checks.merge(&out.checks);
        l.put("stalloc-served.store_setup_s", out.timing.setup_s, "s");
        l.put(
            "stalloc-served.store_rtt_patched_p50_us",
            out.timing.rtt_patched_p50_us,
            "us",
        );
        l.put(
            "stalloc-served.store_mix_req_per_s",
            out.timing.mix_req_per_s,
            "1/s",
        );
        l.put(
            "stalloc-served.store_share_store",
            out.rtts.store.len() as f64 / out.rtts.total() as f64,
            "ratio",
        );
    }
    // A real stage-0 → stage-1 delta through the daemon, five fresh
    // daemons (the second identical delta would be an LRU hit).
    let staged_rtts: Vec<f64> = (0..5)
        .map(|_| {
            let server = PlanServer::start(memory_daemon()).expect("loopback daemon");
            let mut client = PlanClient::connect(server.addr()).expect("connect");
            client.plan(&profiles[0], &config).expect("cold base");
            let (answer, took) = tr.span("stalloc-served.plan_delta_stage", || {
                client.plan_delta(&profiles[0], &stage1, &config)
            });
            assert_eq!(answer.expect("stage delta").source, PlanSource::Patched);
            drop(client);
            server.shutdown();
            ns(took) / 1e3
        })
        .collect();
    l.put(
        "stalloc-served.rtt_patched_stage_p50_us",
        p50(&staged_rtts),
        "us",
    );
    // What a hit costs beyond the library calls on its path, each timed
    // alone above: ping (wire + wake-up), profile encode, fingerprint
    // from bytes, LRU lookup, plan decode, client-side validate.
    let attributed = ping_p50 + (enc_prof + fp_body + get + dec_plan + validate_ns) / 1e3;
    l.put(
        "stalloc-served.rtt_hit_unattributed_us",
        hit_p50 - attributed,
        "us",
    );

    // --- stalloc-obs -----------------------------------------------------------
    let hist = LatencyHistogram::new();
    let mut value = 0u64;
    let record = per_call(tr, target, "stalloc-obs.histogram_record", || {
        value += 17;
        hist.record(black_box(value));
    });
    l.put("stalloc-obs.hist_record_ns", record, "ns");
    let ring = SpanRing::new(256, 16);
    let span_ns = per_call(tr, target, "stalloc-obs.request_span", || {
        let mut span = RequestSpan::new("Plan");
        for phase in Phase::ALL {
            span.record(phase, black_box(3));
        }
        ring.push(span);
    });
    l.put("stalloc-obs.request_span_ns", span_ns, "ns");

    // --- bench -------------------------------------------------------------------
    let traced_wall: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    l.put(
        "bench.rounds",
        (rounds.len() + untraced_wall.len()) as f64,
        "count",
    );
    l.put(
        "bench.trace_overhead_ratio",
        median(&traced_wall) / median(untraced_wall),
        "ratio",
    );
    l.put("bench.own_time_share", tr.own_time_share(), "ratio");
    l.put("bench.generator_threads", 1.0, "count");
    l.put("bench.peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
    l.put("bench.wall_s", run_start.elapsed().as_secs_f64(), "s");
    l
}
