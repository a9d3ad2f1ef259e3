//! `cargo run --release -p bench -- NAME` prints one experiment of
//! `harness::experiments::ALL` as markdown; `-- all` prints every one,
//! in table order, and the total wall time (under ten seconds).

use harness::experiments::ALL;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let start = std::time::Instant::now();
    let tables: Vec<_> = ALL
        .iter()
        .filter(|(n, _)| name == "all" || name == *n)
        .flat_map(|(_, run)| run())
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
    } else if tables.len() > 1 {
        // The multi-panel figures have always ended on a blank line.
        println!();
    }
}
