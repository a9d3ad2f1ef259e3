//! `stalloc serve`: the plan-synthesis daemon `plan --remote` talks to.

use std::path::PathBuf;

use stalloc_served::{PlanServer, ServeConfig};

use super::Command;
use crate::args::{Args, FlagSpec};
use crate::render::out;

pub const SERVE: Command = Command {
    name: "serve",
    summary: "run the plan-synthesis daemon over a shared plan cache",
    help: "\
usage: stalloc serve [flags]
  --addr A          bind address (default 127.0.0.1:4547; port 0 picks
                    a free port, printed on startup)
  --workers N       worker threads (default 4)
  --cache DIR       shared on-disk plan store (default: in-memory only)
  --queue N         accept-queue bound before Busy rejections (default 64)
  --lru N           in-process LRU capacity in plans (default 128; 0 off)
  --max-frame-mib N largest accepted request frame (default 64)
  --trace-log FILE  append one JSON line per served request (seq, verb,
                    cache tier, total and per-phase µs) — `tail -f`
                    friendly; off by default
  --trace-log-max-bytes N
                    rotate the trace log when it would exceed N bytes
                    (FILE → FILE.1, one rotated file kept; default:
                    unbounded)
  --metrics-addr A  also serve Prometheus text-format metrics over HTTP
                    at A (`GET /metrics`; port 0 picks a free port,
                    printed on startup); off by default
  --slowest N       retain the N slowest-ever request spans for the
                    `Metrics` verb / `stalloc stats --slowest`
                    (default 16; 0 disables the list)

serves the length-prefixed JSONL plan protocol until killed; identical
concurrent jobs are deduplicated to one synthesis (single-flight);
`stalloc stats ADDR` shows its live counters and latency histograms,
`stalloc top ADDR` keeps a refreshing dashboard on them",
    spec: FlagSpec {
        value_flags: &[
            "addr",
            "workers",
            "cache",
            "queue",
            "lru",
            "max-frame-mib",
            "trace-log",
            "trace-log-max-bytes",
            "metrics-addr",
            "slowest",
        ],
        ..FlagSpec::NONE
    },
    run: serve,
};

fn serve(args: &Args) -> Result<(), String> {
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:4547").to_string(),
        workers: args.num("workers", 4usize)?,
        queue_depth: args.num("queue", 64usize)?,
        lru_capacity: args.num("lru", 128usize)?,
        max_frame: args.num("max-frame-mib", 64usize)? << 20,
        store_dir: args.get("cache").map(PathBuf::from),
        trace_log: args.get("trace-log").map(PathBuf::from),
        trace_log_max_bytes: match args.get("trace-log-max-bytes") {
            Some(_) => Some(args.num("trace-log-max-bytes", 0u64)?),
            None => None,
        },
        metrics_addr: args.get("metrics-addr").map(String::from),
        slowest: args.num("slowest", 16usize)?,
        ..ServeConfig::default()
    };
    if config.trace_log_max_bytes.is_some() && config.trace_log.is_none() {
        return Err("--trace-log-max-bytes requires --trace-log".into());
    }
    let cache_desc = match &config.store_dir {
        Some(d) => format!("store {}", d.display()),
        None => "in-memory only".to_string(),
    };
    let trace_desc = match &config.trace_log {
        Some(p) => format!(", trace log {}", p.display()),
        None => String::new(),
    };
    let handle = PlanServer::start(config.clone()).map_err(|e| e.to_string())?;
    let metrics_desc = match handle.metrics_http_addr() {
        Some(a) => format!(", metrics http://{a}/metrics"),
        None => String::new(),
    };
    out(&format!(
        "stalloc serve: listening on {} ({} workers, queue {}, lru {}, {}{}{})\n",
        handle.addr(),
        config.workers,
        config.queue_depth,
        config.lru_capacity,
        cache_desc,
        trace_desc,
        metrics_desc
    ))?;
    handle.join();
    Ok(())
}
