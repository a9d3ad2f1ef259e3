//! The reproduction's tables as assertions on their *shape*: no paper
//! number is in the repository, so these check orderings between cells
//! of the tables `cargo run --release -p bench` prints, not values.
//!
//! Asserted: every ablation column is strictly worse (a larger pool) than
//! "full" on at least one row — a mechanism whose removal never costs
//! anything has no column; Table 1 keeps its OOM row — the original
//! VPP configuration of Qwen2.5-14B runs out of memory under both PyTorch
//! allocators and fits under STAlloc; in every efficiency cell of
//! Figs. 8–11 STAlloc is at least as efficient as the best baseline, or
//! the cell is in [`allowed_losses`], a table that may only shrink; and
//! the tables share one result set — Fig. 13's caching and STAlloc
//! columns are Fig. 8(c)'s, and Table 3 replays nothing Figs. 8 and 13
//! have not.
//!
//! Still open: a Figure 1(b) row Torch cannot fit and STAlloc can.

use std::sync::{Mutex, MutexGuard, OnceLock};

use gpu_sim::DeviceSpec;
use harness::configs::{gpt2_job, h200_job, llama2_job, moe_job};
use harness::experiments::{fig10, fig11, fig13, fig8, fig9, table3};
use harness::{AllocatorKind, Lab, RunResult, Table};
use trace_gen::{ModelSpec, OptimConfig, TrainJob};

/// One result set for the Figs. 8–13 tests, so a figure two tests read
/// is replayed once. Nothing else replays into it: every cell in it is
/// one of those figures'. A test that panicked holding it left it valid
/// (each update is one push), so the next test takes it over.
fn lab() -> MutexGuard<'static, Lab> {
    static LAB: OnceLock<Mutex<Lab>> = OnceLock::new();
    let lab = LAB.get_or_init(Mutex::default).lock();
    lab.unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn every_ablation_column_is_worse_than_full_somewhere() {
    let table = harness::experiments::ablations(&mut Lab::default());
    let pools = |c: usize| -> Vec<f64> {
        let cell = |row: &Vec<String>| row[c].parse().expect("a GiB cell");
        table.rows.iter().map(cell).collect()
    };
    let full = pools(table.headers.iter().position(|h| h == "full").unwrap());
    // Column 0 names the workload; the refinement sweep is no ablation.
    let ablated: Vec<usize> = (1..table.headers.len())
        .filter(|&c| !["full", "refine sweep"].contains(&table.headers[c].as_str()))
        .collect();
    assert!(ablated.len() >= 2, "{:?}", table.headers);
    for c in ablated {
        let pool = pools(c);
        assert!(
            pool.iter().zip(&full).any(|(p, f)| p > f),
            "'{}' never costs pool over 'full': {pool:?} vs {full:?}",
            table.headers[c]
        );
    }
}

fn column(table: &Table, name: &str) -> usize {
    table
        .headers
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("no {name} column in {:?}", table.headers))
}

#[test]
fn table1_original_vpp_fits_only_under_stalloc() {
    let table = harness::experiments::table1(&mut Lab::default());
    let row = table
        .rows
        .iter()
        .find(|row| row[0] == "Original (VPP)")
        .expect("Table 1 has its Original (VPP) row");
    let cells: Vec<&str> = ["PyTorch", "PyTorch ES", "STAlloc"]
        .iter()
        .map(|c| row[column(&table, c)].as_str())
        .collect();
    assert_eq!(cells, ["OOM", "OOM", "ok"], "Original (VPP) row: {row:?}");
}

/// The Figs. 8–11 cells where STAlloc is less efficient than the best
/// baseline. Each must still lose, so the table can only shrink. They
/// are not a packing problem: the plan that ships is the baseline
/// pipeline's rather than the best strategy's, and the init-time
/// requests that predate the profiled window fall back to the caching
/// allocator instead of the idle pool.
fn allowed_losses() -> Vec<(&'static str, TrainJob)> {
    let (n, zr, zor) = (OptimConfig::naive(), OptimConfig::zr(), OptimConfig::zor());
    let vpp = |model: ModelSpec, gpus| h200_job(&model, gpus, false);
    vec![
        ("8(a) V", gpt2_job(n, true)),
        ("8(a) ZOR", gpt2_job(zor, false)),
        ("8(b) ZR", llama2_job(zr, false)),
        ("8(b) ZOR", llama2_job(zor, false)),
        ("8(c) V", moe_job(n, true)),
        ("9(c) Qwen2.5-7B, 8 GPUs", vpp(ModelSpec::qwen25_7b(), 8)),
        ("9(c) Qwen2.5-7B, 16 GPUs", vpp(ModelSpec::qwen25_7b(), 16)),
        (
            "9(c) Qwen2.5-32B, 32 GPUs",
            vpp(ModelSpec::qwen25_32b(), 32),
        ),
        (
            "9(c) Qwen2.5-32B, 64 GPUs",
            vpp(ModelSpec::qwen25_32b(), 64),
        ),
    ]
}

#[test]
fn stalloc_is_at_least_the_best_baseline_in_every_efficiency_cell() {
    let mut lab = lab();
    fig8(&mut lab);
    fig9(&mut lab);
    fig10(&mut lab);
    fig11(&mut lab);
    // The raw efficiency of a run; an OOM loses to any run that fits.
    let efficiency = |r: &RunResult| {
        if r.report.oom {
            -1.0
        } else {
            r.report.efficiency()
        }
    };
    // Every other allocator in a row is a baseline, except STAlloc's
    // own ablation, which Fig. 13 adds to Fig. 8(c)'s rows.
    let baseline = |r: &RunResult| {
        !matches!(
            r.kind,
            AllocatorKind::Stalloc | AllocatorKind::StallocNoReuse
        )
    };
    let cells: Vec<(&TrainJob, &DeviceSpec, f64)> = lab
        .results()
        .filter(|(.., r)| r.kind == AllocatorKind::Stalloc)
        .map(|(job, spec, r)| (job, spec, efficiency(r)))
        .collect();
    let mut losing = Vec::new();
    for (job, spec, stalloc) in cells {
        let best = lab
            .results()
            .filter(|(j, s, r)| *j == job && *s == spec && baseline(r))
            .map(|(.., r)| efficiency(r))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best > f64::NEG_INFINITY, "a row without baselines");
        if stalloc < best {
            losing.push((job.clone(), format!("{stalloc:.6} < {best:.6}")));
        }
    }
    let allowed = allowed_losses();
    for (job, why) in &losing {
        assert!(
            allowed.iter().any(|(_, j)| j == job),
            "STAlloc loses a cell not in the allow-table ({why}): {} {} on {:?}",
            job.model.name,
            job.label(),
            job.parallel
        );
    }
    for (name, job) in &allowed {
        assert!(
            losing.iter().any(|(j, _)| j == job),
            "{name} no longer loses: delete it from the allow-table"
        );
    }
}

#[test]
fn the_tables_share_one_result_set() {
    let mut lab = lab();
    let moe = fig8(&mut lab).pop().expect("Fig. 8 has panel (c)");
    let breakdown = fig13(&mut lab);
    let cells = |t: &Table, c: &str| -> Vec<String> {
        let c = column(t, c);
        t.rows.iter().map(|row| row[c].clone()).collect()
    };
    for (from, to) in [("Torch 2.3", "Caching Allocator"), ("STAlloc", "STAlloc")] {
        assert_eq!(cells(&moe, from), cells(&breakdown, to), "{from} vs {to}");
    }
    let before = lab.replays();
    table3(&mut lab);
    assert_eq!(lab.replays(), before, "Table 3 replayed a cell again");
}
