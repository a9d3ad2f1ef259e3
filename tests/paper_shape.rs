//! The reproduction's tables as assertions on their *shape*: no paper
//! number is in the repository, so these check orderings between cells
//! of the tables `cargo run --release -p bench` prints, not values.
//!
//! Asserted: every ablation column is strictly worse (a larger pool) than
//! "full" on at least one row — a mechanism whose removal never costs
//! anything has no column; and Table 1 keeps its OOM row — the original
//! VPP configuration of Qwen2.5-14B runs out of memory under both PyTorch
//! allocators and fits under STAlloc.
//!
//! Still open: STAlloc at least the best baseline in every efficiency
//! cell, or the cell listed with its reason in one allow-table that may
//! only shrink; a Figure 1(b) row Torch cannot fit and STAlloc can.

#[test]
fn every_ablation_column_is_worse_than_full_somewhere() {
    let table = harness::experiments::ablations();
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

#[test]
fn table1_original_vpp_fits_only_under_stalloc() {
    let table = harness::experiments::table1();
    let column = |name: &str| {
        table
            .headers
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no {name} column in {:?}", table.headers))
    };
    let row = table
        .rows
        .iter()
        .find(|row| row[0] == "Original (VPP)")
        .expect("Table 1 has its Original (VPP) row");
    let cells: Vec<&str> = ["PyTorch", "PyTorch ES", "STAlloc"]
        .iter()
        .map(|c| row[column(c)].as_str())
        .collect();
    assert_eq!(cells, ["OOM", "OOM", "ok"], "Original (VPP) row: {row:?}");
}
