//! One round: rebuild the world from the seed, then run the script.
//!
//! traces → profiles → reference replay → cold plans (timed) → all four
//! strategies (timed) → checked STAlloc replay → unchecked replay (timed)
//! → encode artifacts → fresh daemon, fresh client → warm → first tenth of
//! the traffic untimed → the rest timed.
//!
//! Every round of a run gets the same inputs, so its timings are samples
//! of one quantity and the run reports one quartile of them (`main.rs`):
//! a stall costs one round, and thread placement is re-rolled with each
//! fresh daemon.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use stalloc::harness::{self, replay, AllocatorKind, ReplayOptions, ReplayReport};
use stalloc::stalloc_core::{
    fingerprint_job, profile_trace, Fingerprint, Plan, PlanSource, ProfiledRequests, RuntimeConfig,
    RuntimeCounters, ServeMetrics, ServeStats, StallocAllocator, SynthConfig,
};
use stalloc::stalloc_served::{ClientError, PlanClient, PlanServer, RemotePlan, ServeConfig};
use stalloc::stalloc_solver::{registry, synthesize_strategy, SolverProfile};
use stalloc::stalloc_store::{decode_plan, decode_profile, encode_plan, encode_profile};
use stalloc::trace_gen::Trace;

use crate::oracle::{check_no_overlap, liveness_lower_bound};
use crate::trace::{Tracer, ROUND_SPAN};
use crate::util::{geo_mean, median, zipf_weights, Rng};
use crate::workloads::Workload;

/// The reference allocators replayed beside STAlloc. Torch 2.3 is the
/// denominator of `frag_reduction` and runs every round; the others feed
/// layer metrics only and run in the traced run.
/// `(name, span name, kind)`.
pub const REFERENCE_ALLOCATORS: [(&str, &str, AllocatorKind); 4] = [
    (
        "torch23",
        "allocators.replay_torch23",
        AllocatorKind::Torch23,
    ),
    (
        "torch20",
        "allocators.replay_torch20",
        AllocatorKind::Torch20,
    ),
    (
        "torch-es",
        "allocators.replay_torch-es",
        AllocatorKind::TorchEs,
    ),
    (
        "gmlake",
        "allocators.replay_gmlake",
        AllocatorKind::GmLake(512 << 20),
    ),
];

/// Span names of the four strategies, in `registry()` order.
const STRATEGY_SPANS: [&str; 4] = [
    "stalloc-solver.plan_baseline",
    "stalloc-solver.plan_bestfit",
    "stalloc-solver.plan_tmp-order",
    "stalloc-solver.plan_lookahead",
];

/// The unchecked replay is repeated until it has run this long.
const REPLAY_FLOOR: Duration = Duration::from_millis(50);

/// Passed / attempted correctness checks, with the first few failures.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages
            .extend(other.messages.iter().take(room).cloned());
    }
}

/// What round 0 established with the benchmark's own oracles. Later
/// rounds rebuild the same world and are held to it by equality, which
/// is cheap; the oracle sweeps themselves are the benchmark's work, not
/// the program's, and run once.
pub struct Reference {
    pub lower_bounds: Vec<u64>,
    pub plans: Vec<Plan>,
    /// Pool size per strategy (registry order) per profile.
    pub strategy_pools: Vec<Vec<u64>>,
}

/// The values that must repeat bit-for-bit for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Deterministic {
    pub efficiency: f64,
    pub frag_reduction: f64,
    pub reserved_gib: f64,
    pub pool_ratio: f64,
    pub best_pool_ratio: f64,
    pub tflops: f64,
    pub plan_bytes: f64,
}

/// `(profile index, microseconds)` of one timed request.
pub type Sample = (usize, f64);

/// Client-observed round trips of the timed traffic, keyed by the tier
/// that answered.
#[derive(Debug, Default, Clone)]
pub struct Rtts {
    pub lru: Vec<Sample>,
    pub store: Vec<Sample>,
    pub patched: Vec<Sample>,
    pub miss: Vec<Sample>,
}

/// The typical round trip of a tier when profiles differ in size: each
/// profile's median, averaged with the profile's sample count as weight.
/// A plain median over a mix of a 1 ms and a 3 ms profile lands in the
/// gap between them and jumps with the draw; this does not.
pub fn typical(samples: &[Sample]) -> Option<f64> {
    let mut by_profile: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(profile, us) in samples {
        by_profile.entry(profile).or_default().push(us);
    }
    let weighted: f64 = by_profile
        .values()
        .map(|v| v.len() as f64 * median(v))
        .sum();
    (!samples.is_empty()).then(|| weighted / samples.len() as f64)
}

impl Rtts {
    fn of(&mut self, source: PlanSource) -> &mut Vec<Sample> {
        match source {
            PlanSource::Lru => &mut self.lru,
            PlanSource::Store => &mut self.store,
            PlanSource::Patched => &mut self.patched,
            PlanSource::Synthesized | PlanSource::Coalesced => &mut self.miss,
        }
    }

    pub fn total(&self) -> usize {
        self.lru.len() + self.store.len() + self.patched.len() + self.miss.len()
    }
}

/// The seven timing metrics of one round.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub setup_s: f64,
    pub plan_ms: f64,
    pub solve_all_ms: f64,
    pub replay_ns_per_op: f64,
    /// NaN when no timed request of the round was answered by that tier.
    pub rtt_hit_p50_us: f64,
    pub rtt_patched_p50_us: f64,
    pub mix_req_per_s: f64,
}

impl Timing {
    /// `name value` pairs on one line, the format of the `# round` lines.
    pub fn line(&self) -> String {
        format!(
            "setup_s {:.4} plan_ms {:.3} solve_all_ms {:.3} replay_ns_per_op {:.3} \
             rtt_hit_p50_us {:.3} rtt_patched_p50_us {:.3} mix_req_per_s {:.3}",
            self.setup_s,
            self.plan_ms,
            self.solve_all_ms,
            self.replay_ns_per_op,
            self.rtt_hit_p50_us,
            self.rtt_patched_p50_us,
            self.mix_req_per_s
        )
    }
}

pub struct RoundOut {
    pub timing: Timing,
    pub wall_s: f64,
    pub rtts: Rtts,
    pub deterministic: Deterministic,
    pub checks: Checks,
    // Read off what the program already reports; used by the ledger.
    pub delta_requests: u64,
    pub delta_patched: u64,
    pub server_hit_us: Vec<f64>,
    pub client_phase_us: BTreeMap<&'static str, Vec<f64>>,
    pub miss_warm_us: Vec<f64>,
    pub strategy_profiles: Vec<(&'static str, SolverProfile)>,
    pub strategy_pool_ratio: Vec<(&'static str, f64)>,
    pub counters: RuntimeCounters,
    pub reference_efficiency: Vec<(&'static str, f64)>,
    /// Σ simulated driver time of a steady iteration under STAlloc.
    pub sim_overhead_us: f64,
    pub events: u64,
    pub statics: u64,
    pub dynamics: u64,
    pub profile_bytes: u64,
    pub serve_stats: ServeStats,
    pub serve_metrics: Option<ServeMetrics>,
}

/// The artifacts of one round that the ledger measures further.
pub struct World {
    pub traces: Vec<Trace>,
    pub profiles: Vec<ProfiledRequests>,
    pub plans: Vec<Plan>,
}

/// One request of the traffic script, by profile index.
#[derive(Clone, Copy)]
enum Request {
    /// `plan` of a profile the daemon has planned: a repeat, or the touch
    /// before a delta.
    Known(usize),
    /// `plan_delta` from the profile to a fresh perturbation of it.
    Delta(usize),
    /// `plan` of a fresh perturbation.
    Novel(usize),
}

/// Splits `count` over ranks in proportion to `weights` (which sum to 1)
/// by largest remainder, so the split is the same for every seed.
fn apportion(count: usize, weights: &[f64]) -> Vec<usize> {
    let exact: Vec<f64> = weights.iter().map(|w| w * count as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let missing = count - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

/// The round's traffic. Class counts and per-profile counts are exact
/// (popularity decides how many slots a profile gets, not a draw), so
/// every seed sends the same mix; the seed decides the order. A delta
/// slot is two requests: it touches its base first, because with the
/// working set larger than the LRU the daemon may have dropped the base
/// profile and the delta would degrade to a cold miss.
fn script(w: &Workload, profiles: usize, rng: &mut Rng) -> Vec<Request> {
    let popularity = zipf_weights(profiles, w.zipf);
    let (deltas, novels) = (w.delta_slots(), w.novel_slots());
    let mut slots = Vec::with_capacity(w.slots);
    let mut fill = |count: usize, make: fn(usize) -> Request| {
        for (profile, n) in apportion(count, &popularity).into_iter().enumerate() {
            slots.extend((0..n).map(|_| make(profile)));
        }
    };
    fill(deltas, Request::Delta);
    fill(novels, Request::Novel);
    fill(w.slots - deltas - novels, Request::Known);
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .flat_map(|slot| match slot {
            Request::Delta(p) => vec![Request::Known(p), slot],
            _ => vec![slot],
        })
        .collect()
}

/// A neighbour of `base`: ⌈1 %⌉ of its iteration statics grown by
/// `salt × 512` bytes at seeded sites. `salt` is unique within a round,
/// so the fingerprint is always new to the daemon.
pub fn perturb(base: &ProfiledRequests, salt: u64, rng: &mut Rng) -> ProfiledRequests {
    let mut next = base.clone();
    let iter_len = next.statics.len() - next.init_count;
    for _ in 0..iter_len.div_ceil(100) {
        let site = next.init_count + rng.below(iter_len);
        next.statics[site].size += 512 * salt;
    }
    next
}

fn geo_ratio(pools: impl Iterator<Item = u64>, bounds: &[u64]) -> f64 {
    let ratios: Vec<f64> = pools
        .zip(bounds)
        .map(|(pool, &lb)| pool as f64 / lb as f64)
        .collect();
    geo_mean(&ratios)
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn millis(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Runs one round of `w`. `extras` (the traced run) also replays the
/// three reference allocators that only feed layer metrics and asks the
/// daemon for its phase histograms. With `store_dir` the daemon keeps a
/// disk store there (the ledger's store round); the dir must not exist
/// and is removed again.
pub fn run_round(
    w: &Workload,
    seed: u64,
    round: u32,
    tr: &Tracer,
    reference: &mut Option<Reference>,
    extras: bool,
    store_dir: Option<PathBuf>,
) -> (RoundOut, World) {
    tr.set_round(round);
    let round_start = std::time::Instant::now();
    let round_span = tr.enter(ROUND_SPAN);
    let section = tr.enter("bench.inputs");
    let mut rng = Rng::new(seed);
    let mut checks = Checks::default();
    let mut setup = Duration::ZERO;
    let config = SynthConfig::default();

    // --- traces and profiles -------------------------------------------
    let mut traces = Vec::new();
    let mut profiles = Vec::new();
    for j in &w.jobs {
        let (trace, took) = tr.span("trace-gen.build_trace", || {
            j.job.build_trace().expect("workload jobs validate")
        });
        setup += took;
        let (profile, took) = tr.span("stalloc-core.profile_trace", || {
            profile_trace(&trace, 1).expect("every trace has iteration 1")
        });
        setup += took;
        traces.push(trace);
        profiles.push(profile);
    }

    // --- reference allocators ------------------------------------------
    let kinds = if extras {
        &REFERENCE_ALLOCATORS[..]
    } else {
        &REFERENCE_ALLOCATORS[..1]
    };
    let mut reference_reports: Vec<(&'static str, Vec<ReplayReport>)> = Vec::new();
    for &(name, span_name, kind) in kinds {
        let mut reports = Vec::new();
        for (j, trace) in w.jobs.iter().zip(&traces) {
            let mut alloc = harness::build_allocator(kind, trace);
            let (report, took) = tr.span_ops(span_name, trace.events.len() as u64, || {
                replay(trace, &j.device, alloc.as_mut(), &ReplayOptions::default())
            });
            setup += took;
            checks.check(!report.oom, || format!("{name} OOM on {}", j.label));
            reports.push(report);
        }
        reference_reports.push((name, reports));
    }

    // --- cold plans: the paper's T_plan (timed) --------------------------
    drop(section);
    let section = tr.enter("bench.plan");
    let mut plan_time = Duration::ZERO;
    let mut plans = Vec::new();
    for p in &profiles {
        let (plan, took) = tr.span("stalloc-solver.synthesize_strategy", || {
            synthesize_strategy(p, &config)
        });
        plan_time += took;
        plans.push(plan);
    }

    // --- all four strategies, one thread (timed) -------------------------
    let mut solve_time = Duration::ZERO;
    let mut strategy_profiles: Vec<(&'static str, SolverProfile)> = Vec::new();
    let mut strategy_pools: Vec<Vec<u64>> = Vec::new();
    let mut strategy_plans: Vec<Vec<Plan>> = Vec::new();
    for (s, span_name) in registry().into_iter().zip(STRATEGY_SPANS) {
        let mut total = SolverProfile::default();
        let mut pools = Vec::new();
        let mut kept = Vec::new();
        for p in &profiles {
            let ((plan, prof), took) = tr.span(span_name, || s.plan_profiled(p, &config));
            solve_time += took;
            total.merge(&prof);
            pools.push(plan.pool_size);
            if reference.is_none() {
                kept.push(plan);
            }
        }
        strategy_profiles.push((s.name(), total));
        strategy_pools.push(pools);
        strategy_plans.push(kept);
    }

    // --- oracles (round 0) or equality with round 0 ----------------------
    drop(section);
    let section = tr.enter("bench.oracles");
    let fps: Vec<Fingerprint> = profiles
        .iter()
        .map(|p| fingerprint_job(p, &config))
        .collect();
    match reference {
        None => {
            let lower_bounds: Vec<u64> = profiles.iter().map(liveness_lower_bound).collect();
            let candidates = plans.iter().chain(strategy_plans.iter().flatten());
            for (i, plan) in candidates.enumerate() {
                let lb = lower_bounds[i % profiles.len()];
                let sound = check_no_overlap(plan);
                checks.check(sound.is_ok(), || format!("cold plan {i}: {sound:?}"));
                checks.check(plan.pool_size >= lb, || {
                    format!("cold plan {i}: pool {} below bound {lb}", plan.pool_size)
                });
            }
            *reference = Some(Reference {
                lower_bounds,
                plans: plans.clone(),
                strategy_pools: strategy_pools.clone(),
            });
        }
        Some(r) => {
            checks.check(r.plans == plans, || "cold plans differ from round 0".into());
            checks.check(r.strategy_pools == strategy_pools, || {
                "strategy pools differ from round 0".into()
            });
        }
    }
    let reference = reference.as_ref().expect("set above");
    let bounds = &reference.lower_bounds;

    // --- checked STAlloc replay ------------------------------------------
    drop(section);
    let section = tr.enter("bench.replay");
    let mut stalloc_reports = Vec::new();
    let mut counters = RuntimeCounters::default();
    for ((j, trace), plan) in w.jobs.iter().zip(&traces).zip(&plans) {
        let mut alloc = StallocAllocator::new(plan.clone(), RuntimeConfig::default());
        let ops = trace.events.len() as u64;
        let (outcome, took) = tr.span_ops("harness.replay_checked", ops, || {
            catch_unwind(AssertUnwindSafe(|| {
                replay(trace, &j.device, &mut alloc, &ReplayOptions::default())
            }))
        });
        setup += took;
        match outcome {
            Ok(report) => {
                checks.check(!report.oom, || format!("STAlloc OOM on {}", j.label));
                let c = alloc.counters();
                counters.static_planned += c.static_planned;
                counters.static_fallback += c.static_fallback;
                counters.dynamic_reused += c.dynamic_reused;
                counters.dynamic_fallback += c.dynamic_fallback;
                counters.lookahead_matches += c.lookahead_matches;
                counters.stomps_avoided += c.stomps_avoided;
                counters.fallback_bytes_peak += c.fallback_bytes_peak;
                stalloc_reports.push(report);
            }
            Err(_) => checks.check(false, || format!("replay oracle panicked on {}", j.label)),
        }
    }

    // --- unchecked replay: runtime cost per alloc/free (timed) -----------
    let unchecked = ReplayOptions {
        check_overlaps: false,
        ..ReplayOptions::default()
    };
    let (mut replay_time, mut replay_ops) = (Duration::ZERO, 0u64);
    while replay_time < REPLAY_FLOOR {
        for ((j, trace), plan) in w.jobs.iter().zip(&traces).zip(&plans) {
            let mut alloc = StallocAllocator::new(plan.clone(), RuntimeConfig::default());
            let (report, took) = tr.span("harness.replay_unchecked", || {
                replay(trace, &j.device, &mut alloc, &unchecked)
            });
            replay_time += took;
            replay_ops += report.alloc_ops + report.free_ops;
        }
    }

    // --- encode artifacts --------------------------------------------------
    drop(section);
    let section = tr.enter("bench.artifacts");
    let mut plan_bytes = 0u64;
    let mut profile_bytes = 0u64;
    for (p, plan) in profiles.iter().zip(&plans) {
        let (stpl, took) = tr.span("stalloc-store.encode_plan", || encode_plan(plan));
        setup += took;
        let (prof, took) = tr.span("stalloc-store.encode_profile", || encode_profile(p));
        setup += took;
        plan_bytes += stpl.len() as u64;
        profile_bytes += prof.len() as u64;
        checks.check(decode_plan(&stpl).as_ref() == Ok(plan), || {
            "STPL round trip differs".into()
        });
        checks.check(decode_profile(&prof).as_ref() == Ok(p), || {
            "PROF round trip differs".into()
        });
    }

    // --- fresh daemon and client ------------------------------------------
    // Memory only in the rounds behind the end-to-end metrics. With a store
    // dir `put` (four fsyncs) sits on the warm-up, patched and miss paths,
    // and on the sizing machine its latency climbs by half over a few
    // runs and drags the CPU-bound timings of the process along: measured
    // on `fleet-churn`, every timing metric spread 30-66 % over ten runs.
    drop(section);
    let section = tr.enter("bench.daemon");
    let inserted = profiles.len() + w.delta_slots() + w.novel_slots() + 8;
    let serve_config = ServeConfig {
        workers: 1,
        // The LRU splits its capacity over 8 shards by fingerprint byte;
        // 4× what the round inserts keeps every shard below its cap.
        lru_capacity: w.churn_lru.unwrap_or(4 * inserted),
        store_dir: store_dir.clone(),
        ..ServeConfig::default()
    };
    let ((server, mut client), took) = tr.span("stalloc-served.start", || {
        let server = PlanServer::start(serve_config).expect("loopback daemon starts");
        let client = PlanClient::connect(server.addr()).expect("loopback connect");
        (server, client)
    });
    setup += took;

    // --- warm: every profile once (the daemon's cold misses) -------------
    let mut miss_warm_us = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let (answer, took) = tr.span("stalloc-served.plan_warm", || client.plan(p, &config));
        setup += took;
        miss_warm_us.push(micros(took));
        check_served(&mut checks, &answer, &plans[i], fps[i], "warm");
    }

    // --- traffic ------------------------------------------------------------
    drop(section);
    let section = tr.enter("bench.traffic");
    let requests = script(w, profiles.len(), &mut rng);
    let untimed = requests.len() / 10;
    let mut rtts = Rtts::default();
    let mut busy = Duration::ZERO;
    let mut server_hit_us = Vec::new();
    let mut client_phase_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut salt = 0u64;
    let (mut delta_requests, mut delta_patched) = (0u64, 0u64);
    for (i, request) in requests.into_iter().enumerate() {
        tr.set_request(i as u64 + 1);
        let (profile, answer, took) = match request {
            Request::Known(p) => {
                let (answer, took) =
                    tr.span("stalloc-served.plan", || client.plan(&profiles[p], &config));
                check_served(&mut checks, &answer, &plans[p], fps[p], "repeat");
                (p, answer, took)
            }
            Request::Delta(p) => {
                salt += 1;
                let next = perturb(&profiles[p], salt, &mut rng);
                let (answer, took) = tr.span("stalloc-served.plan_delta", || {
                    client.plan_delta(&profiles[p], &next, &config)
                });
                delta_requests += 1;
                if matches!(&answer, Ok(r) if r.source == PlanSource::Patched) {
                    delta_patched += 1;
                }
                check_perturbed(&mut checks, &answer, &next, &plans[p], &config);
                (p, answer, took)
            }
            Request::Novel(p) => {
                salt += 1;
                let next = perturb(&profiles[p], salt, &mut rng);
                let (answer, took) = tr.span("stalloc-served.plan", || client.plan(&next, &config));
                check_perturbed(&mut checks, &answer, &next, &plans[p], &config);
                (p, answer, took)
            }
        };
        if i < untimed {
            setup += took;
            continue;
        }
        busy += took;
        let Ok(r) = answer else { continue };
        rtts.of(r.source).push((profile, micros(took)));
        if r.source == PlanSource::Lru {
            server_hit_us.push(r.micros as f64);
            if let Some(span) = client.last_span() {
                for (phase, us) in span.entered() {
                    client_phase_us
                        .entry(phase.name())
                        .or_default()
                        .push(us as f64);
                }
            }
        }
    }
    tr.set_request(0);
    checks.check(delta_patched * 10 >= delta_requests * 9, || {
        format!("only {delta_patched} of {delta_requests} deltas were patched")
    });

    let serve_metrics = extras.then(|| client.metrics().expect("Metrics verb"));
    let serve_stats = server.stats();
    drop(client);
    tr.span("stalloc-served.shutdown", || server.shutdown());
    if let Some(dir) = &store_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    drop(section);
    drop(round_span);

    // --- the numbers that must repeat -------------------------------------
    let torch23 = &reference_reports[0].1;
    let frag = |reports: &[ReplayReport]| reports.iter().map(|r| r.frag_bytes()).sum::<u64>();
    let efficiencies: Vec<f64> = stalloc_reports.iter().map(|r| r.efficiency()).collect();
    let tflops: Vec<f64> = w
        .jobs
        .iter()
        .zip(&traces)
        .zip(&stalloc_reports)
        .map(|((j, t), r)| harness::estimate(&t.meta, &j.device, r.steady_overhead_ns).tflops)
        .collect();
    let best_pools = (0..profiles.len()).map(|i| {
        strategy_pools
            .iter()
            .map(|pools| pools[i])
            .min()
            .expect("four strategies")
    });
    let deterministic = Deterministic {
        efficiency: geo_mean(&efficiencies),
        frag_reduction: 1.0 - frag(&stalloc_reports) as f64 / frag(torch23) as f64,
        reserved_gib: stalloc_reports.iter().map(|r| r.peak_reserved).sum::<u64>() as f64
            / (1u64 << 30) as f64,
        pool_ratio: geo_ratio(plans.iter().map(|p| p.pool_size), bounds),
        best_pool_ratio: geo_ratio(best_pools, bounds),
        tflops: tflops.iter().sum::<f64>() / tflops.len() as f64,
        plan_bytes: plan_bytes as f64,
    };

    let timing = Timing {
        setup_s: setup.as_secs_f64(),
        plan_ms: millis(plan_time),
        solve_all_ms: millis(solve_time),
        replay_ns_per_op: replay_time.as_nanos() as f64 / replay_ops as f64,
        rtt_hit_p50_us: typical(&rtts.lru).unwrap_or(f64::NAN),
        rtt_patched_p50_us: typical(&rtts.patched).unwrap_or(f64::NAN),
        mix_req_per_s: rtts.total() as f64 / busy.as_secs_f64(),
    };
    let out = RoundOut {
        timing,
        wall_s: round_start.elapsed().as_secs_f64(),
        rtts,
        deterministic,
        checks,
        delta_requests,
        delta_patched,
        server_hit_us,
        client_phase_us,
        miss_warm_us,
        strategy_pool_ratio: strategy_profiles
            .iter()
            .zip(&strategy_pools)
            .map(|((name, _), pools)| (*name, geo_ratio(pools.iter().copied(), bounds)))
            .collect(),
        strategy_profiles,
        counters,
        reference_efficiency: reference_reports
            .iter()
            .map(|(name, reports)| {
                let e: Vec<f64> = reports.iter().map(|r| r.efficiency()).collect();
                (*name, geo_mean(&e))
            })
            .collect(),
        sim_overhead_us: stalloc_reports
            .iter()
            .map(|r| r.steady_overhead_ns as f64 / 1e3)
            .sum(),
        events: traces.iter().map(|t| t.events.len() as u64).sum(),
        statics: profiles.iter().map(|p| p.statics.len() as u64).sum(),
        dynamics: profiles.iter().map(|p| p.dynamics.len() as u64).sum(),
        profile_bytes,
        serve_stats,
        serve_metrics,
    };
    (
        out,
        World {
            traces,
            profiles,
            plans,
        },
    )
}

/// Every response: the codec round trip reproduces the plan.
fn check_codec(checks: &mut Checks, plan: &Plan) {
    checks.check(decode_plan(&encode_plan(plan)).as_ref() == Ok(plan), || {
        "served plan changes under an STPL round trip".into()
    });
}

/// A request for a profile planned locally: the served plan and its
/// fingerprint must equal the local ones, whichever tier answered.
fn check_served(
    checks: &mut Checks,
    answer: &Result<RemotePlan, ClientError>,
    local: &Plan,
    fp: Fingerprint,
    what: &str,
) {
    match answer {
        Ok(r) => {
            checks.check(r.plan == *local && r.fingerprint == fp, || {
                format!(
                    "{what}: served plan ({:?}) differs from the local one",
                    r.source
                )
            });
            check_codec(checks, &r.plan);
        }
        Err(e) => checks.check(false, || format!("{what}: request failed: {e}")),
    }
}

/// A request for a perturbed profile. Patched: sound under the
/// benchmark's own oracles, at most twice the cold pool of the base it
/// was perturbed from (the perturbation adds a few hundred KiB to pools
/// of GiB, so the base's cold pool stands in for its own; the ledger's
/// `patch_pool_ratio` synthesises the real one). Anything else:
/// equal to a local cold synthesis.
fn check_perturbed(
    checks: &mut Checks,
    answer: &Result<RemotePlan, ClientError>,
    next: &ProfiledRequests,
    base_plan: &Plan,
    config: &SynthConfig,
) {
    let r = match answer {
        Ok(r) => r,
        Err(e) => return checks.check(false, || format!("perturbed request failed: {e}")),
    };
    checks.check(r.fingerprint == fingerprint_job(next, config), || {
        "perturbed: fingerprint differs from the local one".into()
    });
    if r.source == PlanSource::Patched {
        let sound = check_no_overlap(&r.plan);
        checks.check(sound.is_ok(), || format!("patched plan: {sound:?}"));
        let lb = liveness_lower_bound(next);
        checks.check(
            r.plan.pool_size >= lb && r.plan.pool_size <= 2 * base_plan.pool_size,
            || {
                format!(
                    "patched pool {} outside [{lb}, 2 × {}]",
                    r.plan.pool_size, base_plan.pool_size
                )
            },
        );
    } else {
        checks.check(r.plan == synthesize_strategy(next, config), || {
            format!("perturbed ({:?}): differs from local synthesis", r.source)
        });
    }
    check_codec(checks, &r.plan);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_exact_and_follows_the_weights() {
        assert_eq!(apportion(10, &[0.25; 4]).iter().sum::<usize>(), 10);
        let skewed = apportion(80, &zipf_weights(32, 1.1));
        assert_eq!(skewed.iter().sum::<usize>(), 80);
        assert!(skewed[0] > skewed[7] && skewed[7] >= skewed[31]);
    }

    #[test]
    fn typical_round_trip_weighs_profile_medians_by_count() {
        let samples = [(0, 1.0), (0, 3.0), (0, 2.0), (1, 10.0)];
        assert_eq!(typical(&samples), Some((3.0 * 2.0 + 10.0) / 4.0));
        assert_eq!(typical(&[]), None);
    }
}
