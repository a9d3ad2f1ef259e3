//! Everything the tool prints: stdout that survives a closed pipe,
//! `--output` files, human units, and aligned tables. Commands build
//! text and hand it over here; none of them touches stdout itself.

use std::fmt::Display;
#[cfg(not(test))]
use std::io::{ErrorKind, Write};

/// Writes `text` to stdout and flushes it, so a streaming command's
/// lines (`serve`'s banner, `top`'s frames) reach a pipe as they are
/// produced.
pub fn out(text: &str) -> Result<(), String> {
    write_stdout(text.as_bytes())
}

/// Sends `body` where `--output` says: to FILE, then `wrote FILE
/// (N bytes[, note])` on stderr — or, without the flag, to stdout.
pub fn emit(output: Option<&str>, body: &[u8], note: &str) -> Result<(), String> {
    let Some(file) = output else {
        return write_stdout(body);
    };
    std::fs::write(file, body).map_err(|e| format!("{file}: {e}"))?;
    let sep = if note.is_empty() { "" } else { ", " };
    eprintln!("wrote {file} ({} bytes{sep}{note})", body.len());
    Ok(())
}

/// A reader that went away (`stalloc … | head -1`) is not a failure:
/// the process ends there, quietly, with status 0.
#[cfg(not(test))]
fn write_stdout(bytes: &[u8]) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(bytes).and_then(|()| stdout.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// Bytes as a GiB count (callers pick the precision).
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Human bytes: `512 B`, `1.5 KiB`, `2.3 MiB`, `1.20 GiB`.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1 << 10 {
        format!("{b} B")
    } else if b < 1 << 20 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else if b < 1 << 30 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.2} GiB", gib(b))
    }
}

/// Human latency: `42µs`, `1.2ms`, `3.10s`.
pub fn fmt_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// An aligned text table. The header and every row take the same
/// layout — first column left-aligned, the rest right-aligned, each as
/// wide as its widest cell — so no caller spells a column format.
pub struct Table {
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            rows: vec![header.iter().map(|h| h.to_string()).collect()],
        }
    }

    pub fn row(&mut self, cells: &[&dyn Display]) {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// One line per row, header first, each behind `indent`.
    pub fn render(&self, indent: &str) -> String {
        let width = |col: usize| {
            let cells = self.rows.iter().filter_map(|row| row.get(col));
            cells.map(|cell| cell.chars().count()).max().unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.rows[0].len()).map(width).collect();
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(indent);
            for (col, (cell, &w)) in row.iter().zip(&widths).enumerate() {
                out.push_str(&match col {
                    0 => format!("{cell:<w$}"),
                    _ => format!("  {cell:>w$}"),
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Unit tests print through the macro libtest captures.
#[cfg(test)]
fn write_stdout(bytes: &[u8]) -> Result<(), String> {
    print!("{}", String::from_utf8_lossy(bytes));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(1288490189), "1.20 GiB");
    }

    #[test]
    fn fmt_micros_picks_units() {
        assert_eq!(fmt_micros(0), "0µs");
        assert_eq!(fmt_micros(999), "999µs");
        assert_eq!(fmt_micros(1_500), "1.5ms");
        assert_eq!(fmt_micros(999_949), "999.9ms");
        assert_eq!(fmt_micros(2_345_678), "2.35s");
    }

    #[test]
    fn table_aligns_every_row_like_the_header() {
        let mut t = Table::new(&["tier", "count", "p50"]);
        t.row(&[&"lru", &9, &"70µs"]);
        t.row(&[&"store_lookup", &12345678, &"-"]);
        assert_eq!(
            t.render("  "),
            "  tier             count   p50\n  \
               lru                  9  70µs\n  \
               store_lookup  12345678     -\n"
        );
    }

    #[test]
    fn emit_writes_the_file_it_is_given() {
        let path = std::env::temp_dir().join(format!("stalloc-cli-emit-{}", std::process::id()));
        let file = path.to_string_lossy().to_string();
        emit(Some(&file), b"body\n", "a note").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"body\n");
        std::fs::remove_file(&path).ok();
        assert!(emit(Some("/nonexistent-dir/x"), b"", "").is_err());
    }
}
