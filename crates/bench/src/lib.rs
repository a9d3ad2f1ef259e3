//! The paper's tables and figures as binaries:
//! `cargo run -p bench --release --bin <figN|tableN|all_experiments>`
//! regenerates the corresponding table/figure from `harness::experiments`.
//!
//! Timings live elsewhere: the repository's one measuring system is the
//! standalone `benchmark/` package (see its README and `BENCHMARK.json`).
