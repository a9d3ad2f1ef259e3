//! Experiment registry: one function per table/figure of the paper's
//! evaluation (§2 motivation + §9). Each reads its traces and replays
//! from one [`Lab`] and returns renderable [`Table`]s; [`ALL`] names
//! them, and the `bench` crate's one binary runs them by name over one
//! `Lab`.

use gpu_sim::DeviceSpec;
use trace_gen::{OptimConfig, TensorCategory, TraceEvent, TrainJob};

use crate::configs;
use crate::lab::Lab;
use crate::runner::AllocatorKind::{
    self, GmLake, Stalloc, StallocNoReuse, Torch20, Torch23, Torch26, TorchEs,
};
use crate::runner::RunResult;
use crate::table::{gib, pct, Table};

fn a800() -> DeviceSpec {
    DeviceSpec::a800_80g()
}

type Experiment = fn(&mut Lab) -> Vec<Table>;
type Job = fn(OptimConfig, bool) -> TrainJob;

/// The three models of Figs. 8 and 12 and Table 2, by the name their rows
/// carry: `(name, job(optim, vpp))`.
const MODELS: [(&str, Job); 3] = [
    ("GPT-2", configs::gpt2_job),
    ("Llama2-7B", configs::llama2_job),
    ("Qwen1.5-MoE", configs::moe_job),
];

/// Every experiment by the name `cargo run -p bench -- NAME` takes, in
/// the order `-- all` prints them.
pub const ALL: [(&str, Experiment); 16] = [
    ("fig1b", |lab| vec![fig1b(lab)]),
    ("fig2", |lab| vec![fig2(lab)]),
    ("fig3", |lab| vec![fig3(lab)]),
    ("fig4", |lab| vec![fig4(lab)]),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", |lab| vec![fig10(lab)]),
    ("fig11", |lab| vec![fig11(lab)]),
    ("fig12", |lab| vec![fig12(lab)]),
    ("fig13", |lab| vec![fig13(lab)]),
    ("table1", |lab| vec![table1(lab)]),
    ("table2", |lab| vec![table2(lab)]),
    ("table3", |lab| vec![table3(lab)]),
    ("ablations", |lab| vec![ablations(lab)]),
    ("strategies", |lab| vec![strategy_comparison(lab)]),
    // A live plan server, not a replay: it reads nothing from the lab.
    ("delta_replan", |_| vec![delta_replan()]),
];

/// Figure 1(b): memory vs throughput of Llama2-7B configurations on 8 GPUs;
/// the best configurations are feasible only with STAlloc.
pub fn fig1b(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 1(b): Llama2-7B configurations on 8xA800 - memory vs throughput",
        [
            "config",
            "M_a (GiB)",
            "Torch reserved",
            "Torch OK?",
            "STAlloc reserved",
            "STAlloc OK?",
            "TFLOPS (model)",
        ],
    );
    for (label, job) in configs::fig1b_jobs() {
        let torch = lab.run(&job, &a800(), Torch23);
        let st = lab.run(&job, &a800(), Stalloc);
        t.push_row(vec![
            label,
            gib(torch.report.peak_requested),
            gib(torch.report.peak_reserved),
            fits_cell(&torch, "yes"),
            gib(st.report.peak_reserved),
            fits_cell(&st, "yes"),
            tflops_cell(&st),
        ]);
    }
    t
}

/// `"OOM"`, or `fits` when the run fitted the device.
fn fits_cell(r: &RunResult, fits: &str) -> String {
    if r.report.oom { "OOM" } else { fits }.to_string()
}

/// Modelled TFLOPS with one decimal, `"-"` after an OOM.
fn tflops_cell(r: &RunResult) -> String {
    r.throughput
        .map(|x| format!("{:.1}", x.tflops))
        .unwrap_or_else(|| "-".into())
}

/// Figure 2: PyTorch memory efficiency of GPT-2 under no optimization,
/// virtual pipeline, and recomputation.
pub fn fig2(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 2: GPT-2 memory efficiency under PyTorch (8 GPUs)",
        ["config", "allocated (GiB)", "reserved (GiB)", "efficiency"],
    );
    for (label, optim, vpp) in [
        ("1F1B (no opt)", OptimConfig::naive(), false),
        ("Virtual Pipeline", OptimConfig::naive(), true),
        ("Recomputation", OptimConfig::r(), false),
    ] {
        let job = configs::gpt2_job(optim, vpp);
        let r = lab.run(&job, &a800(), Torch23);
        t.push_row(vec![
            label.into(),
            gib(r.report.peak_requested),
            gib(r.report.peak_reserved),
            pct(r.report.efficiency()),
        ]);
    }
    t
}

/// Figure 3: allocation-size distribution — the spatial regularity.
pub fn fig3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 3: distinct allocation sizes >512 B in one iteration (Llama2-7B)",
        [
            "config",
            "requests/iter",
            "distinct sizes",
            "top-5 sizes (MiB, share)",
        ],
    );
    for (label, optim, vpp) in [
        ("None", OptimConfig::naive(), false),
        ("Recomputation", OptimConfig::r(), false),
        ("Virtual Pipeline", OptimConfig::naive(), true),
    ] {
        let trace = lab.trace(&configs::llama2_job(optim, vpp));
        let (s, e) = trace.iteration_range(1).unwrap();
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut total = 0u64;
        for ev in &trace.events[s..e] {
            if let TraceEvent::Alloc { size, .. } = ev {
                if *size > 512 {
                    *counts.entry(*size).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        let mut top: Vec<(u64, u64)> = counts.iter().map(|(&s, &c)| (c, s)).collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let top5: Vec<String> = top
            .iter()
            .take(5)
            .map(|&(c, s)| {
                format!(
                    "{:.1} ({:.0}%)",
                    s as f64 / (1 << 20) as f64,
                    100.0 * c as f64 / total as f64
                )
            })
            .collect();
        t.push_row(vec![
            label.into(),
            total.to_string(),
            counts.len().to_string(),
            top5.join(" "),
        ]);
    }
    t
}

/// Figure 4: tensor lifetime classification and the effect of optimization
/// techniques on it.
pub fn fig4(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 4: tensor lifetime classes per iteration (GPT-2)",
        [
            "config",
            "persistent (GiB)",
            "scoped (GiB)",
            "transient (GiB)",
            "scoped share of bytes",
        ],
    );
    // Allocated bytes per class: persistent, scoped, transient.
    let class_bytes = |events: &[TraceEvent]| {
        let mut bytes = [0u64; 3];
        for ev in events {
            if let TraceEvent::Alloc { size, category, .. } = ev {
                let idx = match category {
                    TensorCategory::Persistent => 0,
                    TensorCategory::Scoped => 1,
                    TensorCategory::Transient => 2,
                };
                bytes[idx] += size;
            }
        }
        bytes
    };
    for (label, optim) in [
        ("Naive", OptimConfig::naive()),
        ("Recompute", OptimConfig::r()),
        ("Recompute+Offload", OptimConfig::zor()),
    ] {
        let trace = lab.trace(&configs::gpt2_job(optim, false));
        let (s, e) = trace.iteration_range(1).unwrap();
        // Persistent counted from init; scoped/transient from iteration 1.
        let persistent = class_bytes(&trace.events[..e])[0];
        let [_, scoped, transient] = class_bytes(&trace.events[s..e]);
        let share = scoped as f64 / (scoped + transient).max(1) as f64;
        t.push_row(vec![
            label.into(),
            gib(persistent),
            gib(scoped),
            gib(transient),
            pct(share),
        ]);
    }
    t
}

/// Each result's memory efficiency, `"OOM"` where it ran out.
fn efficiency_row(results: &[RunResult]) -> Vec<String> {
    let cell = |r: &RunResult| fits_cell(r, &pct(r.report.efficiency()));
    results.iter().map(cell).collect()
}

/// One row per `(label, job)` on the A800 and one column per allocator
/// of the paper lineup; `cells` renders a row from its results.
fn lineup_table(
    lab: &mut Lab,
    title: &str,
    key: &str,
    jobs: impl IntoIterator<Item = (String, TrainJob)>,
    cells: impl Fn(&[RunResult]) -> Vec<String>,
) -> Table {
    let kinds = AllocatorKind::paper_lineup();
    let mut headers = vec![key.to_string()];
    headers.extend(kinds.iter().map(|k| k.label()));
    let mut t = Table::new(title, headers);
    for (label, job) in jobs {
        let mut row = vec![label];
        row.extend(cells(&lab.lineup(&job, &a800(), &kinds)));
        t.push_row(row);
    }
    t
}

/// Figure 8: memory efficiency of all allocators across the six
/// optimization combinations, for GPT-2 (a), Llama2-7B (b), Qwen-MoE (c).
pub fn fig8(lab: &mut Lab) -> Vec<Table> {
    let panels = ["(a): GPT-2", "(b): Llama2-7B", "(c): Qwen1.5-MoE-A2.7B"];
    let tables = panels.into_iter().zip(MODELS).map(|(panel, (_, job))| {
        let jobs = configs::fig8_configs()
            .into_iter()
            .map(|(label, optim, vpp)| (label.to_string(), job(optim, vpp)));
        let title = format!("Figure 8{panel} memory efficiency");
        lineup_table(lab, &title, "config", jobs, efficiency_row)
    });
    tables.collect()
}

/// Figure 9: scaling studies on AMD MI210 (a) and NVIDIA H200 (b:
/// recomputation, c: virtual pipeline).
pub fn fig9(lab: &mut Lab) -> Vec<Table> {
    let mut out = Vec::new();

    // (a) AMD: no VMM -> only Torch vs STAlloc, as in the paper.
    let mi210 = DeviceSpec::mi210_64g();
    let mut ta = Table::new(
        "Figure 9(a): AMD MI210, recomputation",
        ["model", "GPUs", "Torch", "STAlloc"],
    );
    for (moe, gpus) in [(false, 32), (false, 64), (true, 32), (true, 64)] {
        let job = configs::amd_job(moe, gpus);
        let model = if moe { "Qwen1.5-MoE" } else { "Llama2-7B" };
        let mut row = vec![model.to_string(), gpus.to_string()];
        let kinds = [Torch23, Stalloc];
        row.extend(efficiency_row(&lab.lineup(&job, &mi210, &kinds)));
        ta.push_row(row);
    }
    out.push(ta);

    // (b, c) H200 scaling.
    let h200 = DeviceSpec::h200_141g();
    let scale_models = [
        (trace_gen::ModelSpec::qwen25_7b(), [8u32, 16]),
        (trace_gen::ModelSpec::qwen25_14b(), [16, 32]),
        (trace_gen::ModelSpec::qwen25_32b(), [32, 64]),
        (trace_gen::ModelSpec::qwen25_72b(), [64, 128]),
    ];
    let kinds = [Torch26, TorchEs, Stalloc];
    for (recompute, title) in [
        (true, "Figure 9(b): H200 scaling, recomputation"),
        (false, "Figure 9(c): H200 scaling, virtual pipeline"),
    ] {
        let mut tb = Table::new(title, ["model", "GPUs", "Torch 2.6", "Torch ES", "STAlloc"]);
        for (model, gpu_list) in &scale_models {
            for &gpus in gpu_list {
                let job = configs::h200_job(model, gpus, recompute);
                let mut row = vec![model.name.clone(), gpus.to_string()];
                row.extend(efficiency_row(&lab.lineup(&job, &h200, &kinds)));
                tb.push_row(row);
            }
        }
        out.push(tb);
    }
    out
}

/// Figure 10: memory efficiency vs micro-batch size (Llama2-7B +
/// recomputation).
pub fn fig10(lab: &mut Lab) -> Table {
    let jobs =
        [1u32, 2, 4, 8, 16, 32, 64].map(|mbs| (mbs.to_string(), configs::mbs_sweep_job(mbs)));
    lineup_table(
        lab,
        "Figure 10: Llama2-7B + recomputation, micro-batch sweep",
        "mbs",
        jobs,
        efficiency_row,
    )
}

/// Figure 11: Colossal-AI flavour (GPT-2, ZeRO-3 + offload).
pub fn fig11(lab: &mut Lab) -> Table {
    let jobs = [16, 128].map(|batch| (format!("batch {batch}"), configs::colossal_job(batch)));
    lineup_table(
        lab,
        "Figure 11: Colossal-AI (GPT-2, ZeRO-3 + offload) memory efficiency",
        "config",
        jobs,
        efficiency_row,
    )
}

/// Figure 12: normalized training throughput (recomputation configs).
pub fn fig12(lab: &mut Lab) -> Table {
    let jobs = MODELS.map(|(name, job)| (name.to_string(), job(OptimConfig::r(), false)));
    // GMLake normalizes against Torch 2.0; ES/STAlloc against 2.3.
    let normalized = |results: &[RunResult]| {
        let tflops = |r: &RunResult| r.throughput.map(|t| t.tflops);
        let base = |kind| results.iter().find(|r| r.kind == kind).and_then(tflops);
        let (base20, base23) = (base(Torch20).unwrap_or(1.0), base(Torch23).unwrap_or(1.0));
        let cell = |r| match (tflops(r), r.kind) {
            (None, _) => "OOM".into(),
            (Some(x), Torch20 | GmLake(_)) => pct(x / base20),
            (Some(x), _) => pct(x / base23),
        };
        results.iter().map(cell).collect()
    };
    lineup_table(
        lab,
        "Figure 12: normalized throughput vs PyTorch baseline (R configs)",
        "model",
        jobs,
        normalized,
    )
}

/// Figure 13: performance breakdown of the static and dynamic allocators on
/// the MoE model.
pub fn fig13(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 13: Qwen1.5-MoE breakdown - caching vs static-only vs full STAlloc",
        [
            "config",
            "Caching Allocator",
            "STAlloc w/o reuse",
            "STAlloc",
        ],
    );
    let kinds = [Torch23, StallocNoReuse, Stalloc];
    for (label, optim, vpp) in configs::fig8_configs() {
        let job = configs::moe_job(optim, vpp);
        let mut row = vec![label.to_string()];
        row.extend(efficiency_row(&lab.lineup(&job, &a800(), &kinds)));
        t.push_row(row);
    }
    t
}

/// Table 1: Qwen2.5-14B on 16 GPUs — feasibility and throughput of the
/// original VPP configuration vs the fallbacks.
pub fn table1(lab: &mut Lab) -> Table {
    let h200 = DeviceSpec::h200_141g();
    let mut t = Table::new(
        "Table 1: Qwen2.5-14B on 16 H200 GPUs",
        [
            "config",
            "PyTorch",
            "PyTorch ES",
            "STAlloc",
            "TFLOPS (model)",
        ],
    );
    for (label, job) in configs::table1_jobs() {
        let torch = lab.run(&job, &h200, Torch26);
        let es = lab.run(&job, &h200, TorchEs);
        let st = lab.run(&job, &h200, Stalloc);
        t.push_row(vec![
            label.to_string(),
            fits_cell(&torch, "ok"),
            fits_cell(&es, "ok"),
            fits_cell(&st, "ok"),
            tflops_cell(&st),
        ]);
    }
    t
}

/// Table 2: profiling and plan-synthesis cost vs request count. The
/// traces come from the lab; profiling and synthesis are timed here.
pub fn table2(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 2: profile and plan synthesis cost",
        [
            "config",
            "requests/iter",
            "T_profile (ms)",
            "T_plan (ms)",
            "pool (GiB)",
            "packing eff",
        ],
    );
    let optims = [("N", OptimConfig::naive()), ("R", OptimConfig::r())];
    let jobs = MODELS.into_iter().flat_map(|(name, job)| {
        optims.map(|(tag, optim)| (format!("{name}-{tag}"), job(optim, false)))
    });
    for (label, job) in jobs {
        let trace = lab.trace(&job);
        let n = trace.allocs_in_iteration(1);
        let t0 = std::time::Instant::now();
        let profile = stalloc_core::profile_trace(trace, 1).unwrap();
        let t_profile = t0.elapsed();
        let t1 = std::time::Instant::now();
        let plan = stalloc_core::synthesize(&profile, &stalloc_core::SynthConfig::default());
        let t_plan = t1.elapsed();
        t.push_row(vec![
            label,
            n.to_string(),
            format!("{:.1}", t_profile.as_secs_f64() * 1e3),
            format!("{:.1}", t_plan.as_secs_f64() * 1e3),
            gib(plan.pool_size),
            format!("{:.3}", plan.stats.packing_efficiency()),
        ]);
    }
    t
}

/// Table 3: composition of allocation types on the MoE model, with and
/// without dynamic reuse.
pub fn table3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Table 3: Qwen1.5-MoE allocation composition (GiB)",
        [
            "config",
            "Total",
            "Static",
            "Dyn fallback w/o reuse",
            "Dyn fallback with reuse",
        ],
    );
    for (label, optim, vpp) in configs::fig8_configs() {
        let job = configs::moe_job(optim, vpp);
        let noreuse = lab.run(&job, &a800(), StallocNoReuse);
        let full = lab.run(&job, &a800(), Stalloc);
        let static_bytes = full.plan_stats.map(|s| s.peak_static_demand).unwrap_or(0);
        t.push_row(vec![
            label.to_string(),
            gib(full.report.peak_requested),
            gib(static_bytes),
            gib(noreuse.counters.map(|c| c.fallback_bytes_peak).unwrap_or(0)),
            gib(full.counters.map(|c| c.fallback_bytes_peak).unwrap_or(0)),
        ]);
    }
    t
}

/// Strategy-portfolio comparison: packing efficiency and synthesis time
/// of every registered solver strategy across the model zoo, plus the
/// portfolio's (deterministic) winner per workload.
pub fn strategy_comparison(lab: &mut Lab) -> Table {
    use stalloc_core::{profile_trace, registry, Portfolio};

    let mut headers: Vec<String> = vec!["workload".into()];
    headers.extend(registry().iter().map(|s| format!("{} eff (ms)", s.name())));
    headers.push("portfolio winner".into());
    let mut t = Table::new(
        "Strategy portfolio: packing efficiency per strategy (higher is better)",
        headers,
    );
    let jobs = [
        ("GPT-2-N", configs::gpt2_job(OptimConfig::naive(), false)),
        ("GPT-2-VPP", configs::gpt2_job(OptimConfig::naive(), true)),
        ("Llama2-7B-R", configs::llama2_job(OptimConfig::r(), false)),
        (
            "Qwen1.5-MoE-N",
            configs::moe_job(OptimConfig::naive(), false),
        ),
    ];
    for (label, job) in jobs {
        let profile = profile_trace(lab.trace(&job), 1).unwrap();
        let config = stalloc_core::SynthConfig::default();
        // One real race per workload: the table's cells and its winner
        // column come from the same `CandidateReport`s the portfolio
        // itself produced, so the table can never disagree with what
        // `--strategy portfolio` would actually pick.
        let outcome = Portfolio::standard().run(&profile, &config);
        let mut row = vec![label.to_string()];
        for c in &outcome.candidates {
            row.push(if c.valid {
                format!(
                    "{:.4} ({:.0})",
                    c.packing_efficiency,
                    c.elapsed.as_secs_f64() * 1e3
                )
            } else {
                "invalid".to_string()
            });
        }
        row.push(
            outcome
                .candidates
                .iter()
                .find(|c| c.winner)
                .map(|c| c.strategy.name().to_string())
                .unwrap_or_else(|| "none (baseline fallback)".to_string()),
        );
        t.push_row(row);
    }
    t
}

/// Incremental re-planning lineup: serves a Chronos-style per-stage
/// profile family through one in-process plan server and returns its
/// final metrics — stage 0 lands cold, every later stage arrives as a
/// `PlanDelta` edit script against its predecessor and is patched from
/// the cached plan, and a repeat pass hits the LRU. The three tiers'
/// latency histograms are the measurement: `patched` must sit strictly
/// between `lru` and `miss`.
pub fn delta_replan_metrics() -> stalloc_core::ServeMetrics {
    use stalloc_core::{profile_trace, SynthConfig};
    use stalloc_served::{PlanClient, PlanServer, ServeConfig};

    let family: Vec<stalloc_core::ProfiledRequests> = trace_gen::TrainJob::new(
        trace_gen::ModelSpec::gpt2_345m(),
        trace_gen::ParallelConfig::new(1, 4, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(8)
    .with_iterations(2)
    .stage_family()
    .iter()
    .map(|job| profile_trace(&job.build_trace().expect("valid job"), 1).expect("profiled"))
    .collect();

    let server = PlanServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("loopback server");
    let mut client = PlanClient::connect(server.addr()).expect("connect");
    let config = SynthConfig::default();

    // Stage 0 is the family's one cold synthesis; it also teaches the
    // server the base profile the first delta refers to.
    client.plan(&family[0], &config).expect("cold plan");
    // Each later stage rides as an edit script against its predecessor;
    // the server patches the predecessor's plan instead of synthesizing
    // (and learns the applied profile, so the chain never re-sends a
    // full profile).
    for pair in family.windows(2) {
        let r = client
            .plan_delta(&pair[0], &pair[1], &config)
            .expect("delta plan");
        assert_eq!(r.source, stalloc_core::PlanSource::Patched, "stage patched");
    }
    // A second pass over the whole family is pure LRU traffic.
    for profile in &family {
        client.plan(profile, &config).expect("warm plan");
    }
    let metrics = server.metrics();
    server.shutdown();
    metrics
}

/// The re-planning lineup as a renderable table: one row per cache
/// tier (`lru` / `patched` / `miss`), its request count and latency
/// percentiles, from one live [`delta_replan_metrics`] run.
pub fn delta_replan() -> Table {
    let metrics = delta_replan_metrics();
    let mut t = Table::new(
        "Incremental re-planning: server-side latency per tier \
         (GPT-2 Chronos stage family, pp=4)",
        ["tier", "requests", "p50 (µs)", "p90 (µs)", "p99 (µs)"],
    );
    for tier in &metrics.tiers {
        let Some((p50, p90, p99)) = tier.hist.percentiles() else {
            continue; // tier never exercised
        };
        t.push_row(vec![
            tier.name.clone(),
            tier.hist.total().to_string(),
            p50.to_string(),
            p90.to_string(),
            p99.to_string(),
        ]);
    }
    t
}

/// Ablation study of the §5.1 pipeline's mechanisms. Every cell is the
/// pool of the stage functions themselves (`build_phase_groups` →
/// `assemble`) under one disabled switch — not of
/// `synthesize`, which ships `min(pipeline, refinement sweep)` and so
/// printed the flag-independent sweep's pool wherever a switch made the
/// pipeline worse than it. The sweep has its own column: the shipped
/// pool is the minimum of "full" and "refine sweep".
pub fn ablations(lab: &mut Lab) -> Table {
    use stalloc_core::plan::global::{assemble, refine_first_fit};
    use stalloc_core::plan::phase_group::build_phase_groups;
    use stalloc_core::{finish_plan, profile_trace, StrategyChoice, SynthConfig};
    let mut t = Table::new(
        "Ablations: plan pool size under disabled mechanisms (GiB; lower is better)",
        [
            "workload",
            "full",
            "no gap insertion",
            "ascending sizes",
            "refine sweep",
        ],
    );
    let jobs = [
        ("GPT-2-R", configs::gpt2_job(OptimConfig::r(), false)),
        ("Llama2-7B-VR", configs::llama2_job(OptimConfig::r(), true)),
        ("Qwen-MoE-R", configs::moe_job(OptimConfig::r(), false)),
    ];
    for (label, job) in jobs {
        let profile = profile_trace(lab.trace(&job), 1).unwrap();
        let reqs = &profile.statics;
        let groups = build_phase_groups(reqs);
        let pool = |cfg: SynthConfig| -> String {
            let layout = assemble(&groups, reqs, &cfg);
            let plan = finish_plan(&profile, StrategyChoice::Baseline, layout);
            plan.validate().expect("sound");
            gib(plan.pool_size)
        };
        t.push_row(vec![
            label.to_string(),
            pool(SynthConfig::default()),
            pool(SynthConfig {
                enable_gap_insertion: false,
                ..SynthConfig::default()
            }),
            pool(SynthConfig {
                ascending_sizes: true,
                ..SynthConfig::default()
            }),
            gib(refine_first_fit(reqs).1),
        ]);
    }
    t
}
