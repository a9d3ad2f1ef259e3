//! Runs every table/figure reproduction and prints the tables as
//! markdown. Takes under ten seconds in release mode.
fn main() {
    use harness::experiments as ex;
    let start = std::time::Instant::now();
    print!("{}", ex::fig1b().render());
    println!();
    print!("{}", ex::fig2().render());
    println!();
    print!("{}", ex::fig3().render());
    println!();
    print!("{}", ex::fig4().render());
    println!();
    for t in ex::fig8() {
        println!("{}", t.render());
    }
    for t in ex::fig9() {
        println!("{}", t.render());
    }
    print!("{}", ex::fig10().render());
    println!();
    print!("{}", ex::fig11().render());
    println!();
    print!("{}", ex::fig12().render());
    println!();
    print!("{}", ex::fig13().render());
    println!();
    print!("{}", ex::table1().render());
    println!();
    print!("{}", ex::table2().render());
    println!();
    print!("{}", ex::table3().render());
    println!();
    print!("{}", ex::ablations().render());
    println!();
    print!("{}", ex::strategy_comparison().render());
    println!();
    print!("{}", ex::delta_replan().render());
    eprintln!("\ntotal wall time: {:.1}s", start.elapsed().as_secs_f64());
}
