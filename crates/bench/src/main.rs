//! The paper's tables and figures behind one binary: `cargo run
//! --release -p bench -- NAME` prints one experiment of
//! `harness::experiments::ALL` as markdown over one `harness::Lab`;
//! `-- all` prints every one in table order, then the wall time and the
//! lab's `replays R for C cells, T traces` on stderr; no argument lists
//! the names. Timings live in the standalone `benchmark/` package (its
//! README and `BENCHMARK.json`).

use harness::{experiments::ALL, Lab};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let start = std::time::Instant::now();
    let mut lab = Lab::default();
    let tables: Vec<_> = ALL
        .iter()
        .filter(|(n, _)| name == "all" || name == *n)
        .flat_map(|(_, run)| run(&mut lab))
        .collect();
    if tables.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: bench <all|{}>", names.join("|"));
        std::process::exit(2);
    }
    let text: Vec<String> = tables.iter().map(|t| t.render()).collect();
    print!("{}", text.join("\n"));
    if name == "all" {
        eprintln!("\ntotal wall time: {:.1}s", start.elapsed().as_secs_f64());
        eprintln!("{lab}");
    } else if tables.len() > 1 {
        // The multi-panel figures have always ended on a blank line.
        println!();
    }
}
