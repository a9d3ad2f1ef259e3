//! Experiment registry: one function per table/figure of the paper's
//! evaluation (§2 motivation + §9). Each returns renderable [`Table`]s;
//! [`ALL`] names them, and the `bench` crate's one binary runs them by
//! name.

use gpu_sim::DeviceSpec;
use trace_gen::{OptimConfig, TensorCategory, Trace, TraceEvent};

use crate::configs;
use crate::runner::{run, run_lineup, AllocatorKind};
use crate::table::{gib, pct, Table};

fn a800() -> DeviceSpec {
    DeviceSpec::a800_80g()
}

type Experiment = fn() -> Vec<Table>;

/// Every experiment by the name `cargo run -p bench -- NAME` takes, in
/// the order `-- all` prints them.
pub const ALL: [(&str, Experiment); 16] = [
    ("fig1b", || vec![fig1b()]),
    ("fig2", || vec![fig2()]),
    ("fig3", || vec![fig3()]),
    ("fig4", || vec![fig4()]),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", || vec![fig10()]),
    ("fig11", || vec![fig11()]),
    ("fig12", || vec![fig12()]),
    ("fig13", || vec![fig13()]),
    ("table1", || vec![table1()]),
    ("table2", || vec![table2()]),
    ("table3", || vec![table3()]),
    ("ablations", || vec![ablations()]),
    ("strategies", || vec![strategy_comparison()]),
    ("delta_replan", || vec![delta_replan()]),
];

/// Figure 1(b): memory vs throughput of Llama2-7B configurations on 8 GPUs;
/// the best configurations are feasible only with STAlloc.
pub fn fig1b() -> Table {
    let mut t = Table::new(
        "Figure 1(b): Llama2-7B configurations on 8xA800 - memory vs throughput",
        &[
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
        let trace = job.build_trace().expect("valid job");
        let torch = run(&trace, &a800(), AllocatorKind::Torch23);
        let st = run(&trace, &a800(), AllocatorKind::Stalloc);
        let tput = st
            .throughput
            .map(|x| format!("{:.1}", x.tflops))
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![
            label,
            gib(torch.report.peak_requested),
            gib(torch.report.peak_reserved),
            if torch.report.oom {
                "OOM".into()
            } else {
                "yes".into()
            },
            gib(st.report.peak_reserved),
            if st.report.oom {
                "OOM".into()
            } else {
                "yes".into()
            },
            tput,
        ]);
    }
    t
}

/// Figure 2: PyTorch memory efficiency of GPT-2 under no optimization,
/// virtual pipeline, and recomputation.
pub fn fig2() -> Table {
    let mut t = Table::new(
        "Figure 2: GPT-2 memory efficiency under PyTorch (8 GPUs)",
        &["config", "allocated (GiB)", "reserved (GiB)", "efficiency"],
    );
    for (label, optim, vpp) in [
        ("1F1B (no opt)", OptimConfig::naive(), false),
        ("Virtual Pipeline", OptimConfig::naive(), true),
        ("Recomputation", OptimConfig::r(), false),
    ] {
        let trace = configs::gpt2_job(optim, vpp).build_trace().unwrap();
        let r = run(&trace, &a800(), AllocatorKind::Torch23);
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
pub fn fig3() -> Table {
    let mut t = Table::new(
        "Figure 3: distinct allocation sizes >512 B in one iteration (Llama2-7B)",
        &[
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
        let trace = configs::llama2_job(optim, vpp).build_trace().unwrap();
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
pub fn fig4() -> Table {
    let mut t = Table::new(
        "Figure 4: tensor lifetime classes per iteration (GPT-2)",
        &[
            "config",
            "persistent (GiB)",
            "scoped (GiB)",
            "transient (GiB)",
            "scoped share of bytes",
        ],
    );
    for (label, optim) in [
        ("Naive", OptimConfig::naive()),
        ("Recompute", OptimConfig::r()),
        ("Recompute+Offload", OptimConfig::zor()),
    ] {
        let trace = configs::gpt2_job(optim, false).build_trace().unwrap();
        let (s, e) = trace.iteration_range(1).unwrap();
        let mut bytes = [0u64; 3];
        for ev in &trace.events[..e] {
            if let TraceEvent::Alloc { size, category, .. } = ev {
                let idx = match category {
                    TensorCategory::Persistent => 0,
                    TensorCategory::Scoped => 1,
                    TensorCategory::Transient => 2,
                };
                bytes[idx] += size;
            }
        }
        // Persistent counted from init; scoped/transient from iteration 1.
        let mut iter_bytes = [0u64; 3];
        for ev in &trace.events[s..e] {
            if let TraceEvent::Alloc { size, category, .. } = ev {
                let idx = match category {
                    TensorCategory::Persistent => 0,
                    TensorCategory::Scoped => 1,
                    TensorCategory::Transient => 2,
                };
                iter_bytes[idx] += size;
            }
        }
        let persistent = bytes[0];
        let scoped = iter_bytes[1];
        let transient = iter_bytes[2];
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

fn efficiency_cell(r: &crate::runner::RunResult) -> String {
    if r.report.oom {
        "OOM".into()
    } else {
        pct(r.report.efficiency())
    }
}

fn lineup_table(title: &str, traces: Vec<(String, Trace)>, spec: &DeviceSpec) -> Table {
    let kinds = AllocatorKind::paper_lineup();
    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(kinds.iter().map(|k| k.label()));
    let mut t = Table {
        title: title.into(),
        headers,
        rows: Vec::new(),
    };
    for (label, trace) in traces {
        let results = run_lineup(&trace, spec, &kinds);
        let mut row = vec![label];
        row.extend(results.iter().map(efficiency_cell));
        t.push_row(row);
    }
    t
}

/// Figure 8: memory efficiency of all allocators across the six
/// optimization combinations, for GPT-2 (a), Llama2-7B (b), Qwen-MoE (c).
pub fn fig8() -> Vec<Table> {
    let mut out = Vec::new();
    let build = |f: &dyn Fn(OptimConfig, bool) -> trace_gen::TrainJob| -> Vec<(String, Trace)> {
        configs::fig8_configs()
            .into_iter()
            .map(|(label, optim, vpp)| (label.to_string(), f(optim, vpp).build_trace().unwrap()))
            .collect()
    };
    out.push(lineup_table(
        "Figure 8(a): GPT-2 memory efficiency",
        build(&configs::gpt2_job),
        &a800(),
    ));
    out.push(lineup_table(
        "Figure 8(b): Llama2-7B memory efficiency",
        build(&configs::llama2_job),
        &a800(),
    ));
    out.push(lineup_table(
        "Figure 8(c): Qwen1.5-MoE-A2.7B memory efficiency",
        build(&configs::moe_job),
        &a800(),
    ));
    out
}

/// Figure 9: scaling studies on AMD MI210 (a) and NVIDIA H200 (b:
/// recomputation, c: virtual pipeline).
pub fn fig9() -> Vec<Table> {
    let mut out = Vec::new();

    // (a) AMD: no VMM -> only Torch vs STAlloc, as in the paper.
    let mi210 = DeviceSpec::mi210_64g();
    let mut ta = Table::new(
        "Figure 9(a): AMD MI210, recomputation",
        &["model", "GPUs", "Torch", "STAlloc"],
    );
    for (moe, gpus) in [(false, 32), (false, 64), (true, 32), (true, 64)] {
        let trace = configs::amd_job(moe, gpus).build_trace().unwrap();
        let torch = run(&trace, &mi210, AllocatorKind::Torch23);
        let st = run(&trace, &mi210, AllocatorKind::Stalloc);
        ta.push_row(vec![
            if moe {
                "Qwen1.5-MoE".into()
            } else {
                "Llama2-7B".into()
            },
            gpus.to_string(),
            efficiency_cell(&torch),
            efficiency_cell(&st),
        ]);
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
    for (recompute, title) in [
        (true, "Figure 9(b): H200 scaling, recomputation"),
        (false, "Figure 9(c): H200 scaling, virtual pipeline"),
    ] {
        let mut tb = Table::new(
            title,
            &["model", "GPUs", "Torch 2.6", "Torch ES", "STAlloc"],
        );
        for (model, gpu_list) in &scale_models {
            for &gpus in gpu_list {
                let trace = configs::h200_job(model, gpus, recompute)
                    .build_trace()
                    .unwrap();
                let torch = run(&trace, &h200, AllocatorKind::Torch26);
                let es = run(&trace, &h200, AllocatorKind::TorchEs);
                let st = run(&trace, &h200, AllocatorKind::Stalloc);
                tb.push_row(vec![
                    model.name.clone(),
                    gpus.to_string(),
                    efficiency_cell(&torch),
                    efficiency_cell(&es),
                    efficiency_cell(&st),
                ]);
            }
        }
        out.push(tb);
    }
    out
}

/// Figure 10: memory efficiency vs micro-batch size (Llama2-7B +
/// recomputation).
pub fn fig10() -> Table {
    let kinds = AllocatorKind::paper_lineup();
    let mut headers: Vec<String> = vec!["mbs".into()];
    headers.extend(kinds.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Figure 10: Llama2-7B + recomputation, micro-batch sweep".into(),
        headers,
        rows: Vec::new(),
    };
    for mbs in [1u32, 2, 4, 8, 16, 32, 64] {
        let trace = configs::mbs_sweep_job(mbs).build_trace().unwrap();
        let results = run_lineup(&trace, &a800(), &kinds);
        let mut row = vec![mbs.to_string()];
        row.extend(results.iter().map(efficiency_cell));
        t.push_row(row);
    }
    t
}

/// Figure 11: Colossal-AI flavour (GPT-2, ZeRO-3 + offload).
pub fn fig11() -> Table {
    let traces = vec![
        (
            "batch 16".to_string(),
            configs::colossal_job(16).build_trace().unwrap(),
        ),
        (
            "batch 128".to_string(),
            configs::colossal_job(128).build_trace().unwrap(),
        ),
    ];
    lineup_table(
        "Figure 11: Colossal-AI (GPT-2, ZeRO-3 + offload) memory efficiency",
        traces,
        &a800(),
    )
}

/// Figure 12: normalized training throughput (recomputation configs).
pub fn fig12() -> Table {
    let kinds = AllocatorKind::paper_lineup();
    let mut headers: Vec<String> = vec!["model".into()];
    headers.extend(kinds.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Figure 12: normalized throughput vs PyTorch baseline (R configs)".into(),
        headers,
        rows: Vec::new(),
    };
    let jobs: Vec<(&str, trace_gen::TrainJob)> = vec![
        ("GPT-2", configs::gpt2_job(OptimConfig::r(), false)),
        ("Llama2-7B", configs::llama2_job(OptimConfig::r(), false)),
        ("Qwen1.5-MoE", configs::moe_job(OptimConfig::r(), false)),
    ];
    for (label, job) in jobs {
        let trace = job.build_trace().unwrap();
        let results = run_lineup(&trace, &a800(), &kinds);
        // GMLake normalizes against Torch 2.0; ES/STAlloc against 2.3.
        let base20 = results
            .iter()
            .find(|r| r.kind == AllocatorKind::Torch20)
            .and_then(|r| r.throughput.map(|t| t.tflops))
            .unwrap_or(1.0);
        let base23 = results
            .iter()
            .find(|r| r.kind == AllocatorKind::Torch23)
            .and_then(|r| r.throughput.map(|t| t.tflops))
            .unwrap_or(1.0);
        let mut row = vec![label.to_string()];
        for r in &results {
            let cell = match (r.throughput, r.kind) {
                (None, _) => "OOM".into(),
                (Some(tp), AllocatorKind::Torch20) => pct(tp.tflops / base20),
                (Some(tp), AllocatorKind::GmLake(_)) => pct(tp.tflops / base20),
                (Some(tp), _) => pct(tp.tflops / base23),
            };
            row.push(cell);
        }
        t.push_row(row);
    }
    t
}

/// Figure 13: performance breakdown of the static and dynamic allocators on
/// the MoE model.
pub fn fig13() -> Table {
    let mut t = Table::new(
        "Figure 13: Qwen1.5-MoE breakdown - caching vs static-only vs full STAlloc",
        &[
            "config",
            "Caching Allocator",
            "STAlloc w/o reuse",
            "STAlloc",
        ],
    );
    for (label, optim, vpp) in configs::fig8_configs() {
        let trace = configs::moe_job(optim, vpp).build_trace().unwrap();
        let caching = run(&trace, &a800(), AllocatorKind::Torch23);
        let noreuse = run(&trace, &a800(), AllocatorKind::StallocNoReuse);
        let full = run(&trace, &a800(), AllocatorKind::Stalloc);
        t.push_row(vec![
            label.to_string(),
            efficiency_cell(&caching),
            efficiency_cell(&noreuse),
            efficiency_cell(&full),
        ]);
    }
    t
}

/// Table 1: Qwen2.5-14B on 16 GPUs — feasibility and throughput of the
/// original VPP configuration vs the fallbacks.
pub fn table1() -> Table {
    let h200 = DeviceSpec::h200_141g();
    let mut t = Table::new(
        "Table 1: Qwen2.5-14B on 16 H200 GPUs",
        &[
            "config",
            "PyTorch",
            "PyTorch ES",
            "STAlloc",
            "TFLOPS (model)",
        ],
    );
    for (label, job) in configs::table1_jobs() {
        let trace = job.build_trace().unwrap();
        let torch = run(&trace, &h200, AllocatorKind::Torch26);
        let es = run(&trace, &h200, AllocatorKind::TorchEs);
        let st = run(&trace, &h200, AllocatorKind::Stalloc);
        let ok = |r: &crate::runner::RunResult| {
            if r.report.oom {
                "OOM".to_string()
            } else {
                "ok".to_string()
            }
        };
        let tput = st
            .throughput
            .map(|x| format!("{:.1}", x.tflops))
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![label.to_string(), ok(&torch), ok(&es), ok(&st), tput]);
    }
    t
}

/// Table 2: profiling and plan-synthesis cost vs request count.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: profile and plan synthesis cost",
        &[
            "config",
            "requests/iter",
            "T_profile (ms)",
            "T_plan (ms)",
            "pool (GiB)",
            "packing eff",
        ],
    );
    let jobs: Vec<(&str, trace_gen::TrainJob)> = vec![
        ("GPT-2-N", configs::gpt2_job(OptimConfig::naive(), false)),
        ("GPT-2-R", configs::gpt2_job(OptimConfig::r(), false)),
        (
            "Llama2-7B-N",
            configs::llama2_job(OptimConfig::naive(), false),
        ),
        ("Llama2-7B-R", configs::llama2_job(OptimConfig::r(), false)),
        (
            "Qwen1.5-MoE-N",
            configs::moe_job(OptimConfig::naive(), false),
        ),
        ("Qwen1.5-MoE-R", configs::moe_job(OptimConfig::r(), false)),
    ];
    for (label, job) in jobs {
        let trace = job.build_trace().unwrap();
        let n = trace.allocs_in_iteration(1);
        let t0 = std::time::Instant::now();
        let profile = stalloc_core::profile_trace(&trace, 1).unwrap();
        let t_profile = t0.elapsed();
        let t1 = std::time::Instant::now();
        let plan = stalloc_core::synthesize(&profile, &stalloc_core::SynthConfig::default());
        let t_plan = t1.elapsed();
        t.push_row(vec![
            label.to_string(),
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
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: Qwen1.5-MoE allocation composition (GiB)",
        &[
            "config",
            "Total",
            "Static",
            "Dyn fallback w/o reuse",
            "Dyn fallback with reuse",
        ],
    );
    for (label, optim, vpp) in configs::fig8_configs() {
        let trace = configs::moe_job(optim, vpp).build_trace().unwrap();
        let noreuse = run(&trace, &a800(), AllocatorKind::StallocNoReuse);
        let full = run(&trace, &a800(), AllocatorKind::Stalloc);
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
pub fn strategy_comparison() -> Table {
    use stalloc_core::profile_trace;
    use stalloc_solver::registry;

    let mut headers: Vec<String> = vec!["workload".into()];
    headers.extend(registry().iter().map(|s| format!("{} eff (ms)", s.name())));
    headers.push("portfolio winner".into());
    let mut t = Table {
        title: "Strategy portfolio: packing efficiency per strategy (higher is better)".into(),
        headers,
        rows: Vec::new(),
    };
    let jobs: Vec<(&str, trace_gen::TrainJob)> = vec![
        ("GPT-2-N", configs::gpt2_job(OptimConfig::naive(), false)),
        ("GPT-2-VPP", configs::gpt2_job(OptimConfig::naive(), true)),
        ("Llama2-7B-R", configs::llama2_job(OptimConfig::r(), false)),
        (
            "Qwen1.5-MoE-N",
            configs::moe_job(OptimConfig::naive(), false),
        ),
    ];
    for (label, job) in jobs {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let config = stalloc_core::SynthConfig::default();
        // One real race per workload: the table's cells and its winner
        // column come from the same `CandidateReport`s the portfolio
        // itself produced, so the table can never disagree with what
        // `--strategy portfolio` would actually pick.
        let outcome = stalloc_solver::Portfolio::standard().run(&profile, &config);
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
        &["tier", "requests", "p50 (µs)", "p90 (µs)", "p99 (µs)"],
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
pub fn ablations() -> Table {
    use stalloc_core::plan::global::{assemble, refine_first_fit};
    use stalloc_core::plan::phase_group::build_phase_groups;
    use stalloc_core::{finish_plan, profile_trace, StrategyChoice, SynthConfig};
    let mut t = Table::new(
        "Ablations: plan pool size under disabled mechanisms (GiB; lower is better)",
        &[
            "workload",
            "full",
            "no gap insertion",
            "ascending sizes",
            "refine sweep",
        ],
    );
    let jobs: Vec<(&str, trace_gen::TrainJob)> = vec![
        ("GPT-2-R", configs::gpt2_job(OptimConfig::r(), false)),
        ("Llama2-7B-VR", configs::llama2_job(OptimConfig::r(), true)),
        ("Qwen-MoE-R", configs::moe_job(OptimConfig::r(), false)),
    ];
    for (label, job) in jobs {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
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
