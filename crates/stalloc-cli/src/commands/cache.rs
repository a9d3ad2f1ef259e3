//! `stalloc cache`: inspect and maintain a plan cache directory.

use std::fmt::Display;
use std::fs;

use stalloc_store::{decode_plan, PlanStore, FORMAT_VERSION};

use super::Command;
use crate::args::{nearest, Args, FlagSpec};
use crate::render::{gib, out, Table};

pub const CACHE: Command = Command {
    name: "cache",
    summary: "inspect a plan cache directory (ls | gc | clear)",
    help: "\
usage: stalloc cache <ls|gc|clear> --dir DIR
  ls     list cached plans (fingerprint, size, pool, created)
         --long  also decode each artifact: strategy, codec version,
                 encoded plan size
  gc     remove corrupt or misnamed artifacts and stale temp files
  clear  remove every cached plan",
    spec: FlagSpec {
        value_flags: &["dir"],
        bool_flags: &["long"],
        positionals: Some(("ls|gc|clear", "an action")),
    },
    run: cache,
};

fn cache(args: &Args) -> Result<(), String> {
    let store = || PlanStore::open(args.require("dir")?).map_err(|e| e.to_string());
    match args.pos(0) {
        "ls" => list(&store()?, args.flag("long")),
        "gc" => {
            let r = store()?.gc().map_err(|e| e.to_string())?;
            out(&format!(
                "gc: removed {} corrupt file(s) + {} stale temp file(s); reclaimed {} bytes\n",
                r.orphan_files, r.temp_files, r.reclaimed_bytes
            ))
        }
        "clear" => {
            let store = store()?;
            let n = store.clear().map_err(|e| e.to_string())?;
            out(&format!(
                "cleared {n} plan(s) from {}\n",
                store.dir().display()
            ))
        }
        other => Err(match nearest(other, ["ls", "gc", "clear", "help"]) {
            Some(s) => format!("unknown cache action '{other}' (did you mean '{s}'?)"),
            None => format!("unknown cache action '{other}'"),
        }),
    }
}

fn list(store: &PlanStore, long: bool) -> Result<(), String> {
    let entries = store.entries().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return out(&format!("(empty cache at {})\n", store.dir().display()));
    }
    // `--long` shows all eight columns, the plain listing the first five.
    let columns = if long { 8 } else { 5 };
    let header = [
        "fingerprint",
        "bytes",
        "pool (GiB)",
        "statics",
        "created",
        "strategy",
        "codec",
        "plan bytes",
    ];
    let mut table = Table::new(&header[..columns]);
    for e in &entries {
        let pool = format!("{:.3}", gib(e.pool_size));
        let [strategy, codec, plan_bytes] = if long {
            artifact_detail(store, &e.fingerprint)
        } else {
            Default::default()
        };
        let cells: [&dyn Display; 8] = [
            &e.fingerprint,
            &e.bytes,
            &pool,
            &e.static_requests,
            &e.created_unix,
            &strategy,
            &codec,
            &plan_bytes,
        ];
        table.row(&cells[..columns]);
    }
    out(&format!("{}{} plan(s)\n", table.render(""), entries.len()))
}

/// `ls --long`'s extra cells. The entry is the summary; the artifact's
/// own bytes know the strategy and their length. A plan that decodes
/// has the one codec version `decode_plan` accepts.
fn artifact_detail(store: &PlanStore, fingerprint: &str) -> [String; 3] {
    stalloc_core::Fingerprint::from_hex(fingerprint)
        .and_then(|fp| fs::read(store.plan_path(fp)).ok())
        .and_then(|bytes| {
            let strategy = decode_plan(&bytes).ok()?.stats.strategy.name();
            Some([
                strategy.to_string(),
                FORMAT_VERSION.to_string(),
                bytes.len().to_string(),
            ])
        })
        .unwrap_or(["?", "?", "?"].map(String::from))
}

#[cfg(test)]
mod tests {
    use super::super::{argv, dispatch};
    use crate::files::read_plan;
    use stalloc_store::{PlanStore, MAGIC};
    use std::fs;

    #[test]
    fn binary_plans_and_cache_workflow() {
        let dir = std::env::temp_dir().join(format!("stalloc-cli-bin-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_p = dir.join("t.json").to_string_lossy().to_string();
        let prof_p = dir.join("p.prof").to_string_lossy().to_string();
        let bin_p = dir.join("pl.stplan").to_string_lossy().to_string();
        let hit_p = dir.join("pl-hit.stplan").to_string_lossy().to_string();
        let cache_d = dir.join("cache").to_string_lossy().to_string();

        dispatch(&argv(&format!(
            "trace --model gpt2 --pp 2 --mbs 1 --seq 256 --microbatches 4 \
             --iterations 2 --output {trace_p}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "profile --input {trace_p} --output {prof_p}"
        )))
        .unwrap();

        // First cached plan: miss; second: hit.
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {bin_p} --cache {cache_d}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "plan --input {prof_p} --output {hit_p} --cache {cache_d}"
        )))
        .unwrap();
        let store = PlanStore::open(&cache_d).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1, "same job cached once");

        // The artifact is an STPL plan, the hit wrote the same bytes, and
        // `show` reads it.
        let bin = fs::read(&bin_p).unwrap();
        assert!(bin.starts_with(&MAGIC));
        assert_eq!(fs::read(&hit_p).unwrap(), bin);
        read_plan(&bin_p).unwrap();
        dispatch(&argv(&format!("show --input {bin_p} --rows 4 --cols 20"))).unwrap();

        // cache ls / ls --long / gc / clear run end to end.
        dispatch(&argv(&format!("cache ls --dir {cache_d}"))).unwrap();
        dispatch(&argv(&format!("cache ls --long --dir {cache_d}"))).unwrap();
        dispatch(&argv(&format!("cache gc --dir {cache_d}"))).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1, "gc keeps live entries");
        dispatch(&argv(&format!("cache clear --dir {cache_d}"))).unwrap();
        assert!(store.entries().unwrap().is_empty());

        fs::remove_dir_all(&dir).ok();
    }
}
