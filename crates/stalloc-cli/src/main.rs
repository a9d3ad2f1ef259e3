//! `stalloc` — the standalone STAlloc workflow tool (paper §8 describes the
//! plan synthesizer as a standalone tool; this binary wraps the whole
//! offline pipeline plus replay-based evaluation).
//!
//! `stalloc --help` lists the commands and `stalloc <command> --help`
//! each one's arguments — both rendered from the one table in
//! [`commands`], so this header keeps no synopsis of its own to go
//! stale. Flags and positionals go in any order; `serve` runs the
//! plan-synthesis daemon that `plan --remote` talks to.

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod args;
mod commands;
mod files;
mod render;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
