//! The paper's tables and figures behind one table-driven binary:
//! `cargo run -p bench --release -- <figN|tableN|…|all>` regenerates the
//! named table/figure of `harness::experiments::ALL` (no argument lists
//! the names).
//!
//! Timings live elsewhere: the repository's one measuring system is the
//! standalone `benchmark/` package (see its README and `BENCHMARK.json`).
