//! Figure 4: SLOC breakdown for Hare components.
//!
//! The paper reports (for its C/C++ prototype): Messaging 1,536; Syscall
//! Interception 2,542; Client Library 2,607; File System Server 5,960;
//! Scheduling 930; Total 13,575. This binary counts the corresponding Rust
//! components of this reproduction (non-blank, non-comment lines, test
//! modules excluded from the per-component counts).

use std::path::{Path, PathBuf};

/// Whether a trimmed line declares a module (`mod x {`, `pub(crate) mod
/// x;`, ...).
fn is_mod_line(t: &str) -> bool {
    t.split_whitespace()
        .find(|w| !w.starts_with("pub"))
        .is_some_and(|w| w == "mod")
}

/// Counts non-blank, non-comment source lines of one file, stopping at a
/// `#[cfg(test)]` module (tests are not part of the system SLOC the paper
/// counts). A `#[cfg(test)]` on any other item (a test-only accessor) does
/// not end the count.
fn sloc_of(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut n = 0;
    let mut lines = text.lines().map(str::trim).peekable();
    while let Some(t) = lines.next() {
        if t == "#[cfg(test)]" && lines.peek().is_some_and(|next| is_mod_line(next)) {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        n += 1;
    }
    n
}

/// File stems of the out-of-line test modules a directory's sources
/// declare (`#[cfg(test)] mod tests;` in `mod.rs` puts them in `tests.rs`).
fn test_module_stems(files: &[PathBuf]) -> Vec<String> {
    let mut stems = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).unwrap_or_default();
        let mut lines = text.lines().map(str::trim).peekable();
        while let Some(t) = lines.next() {
            if t != "#[cfg(test)]" {
                continue;
            }
            if let Some(decl) = lines.peek().filter(|next| is_mod_line(next)) {
                if let Some(name) = decl.strip_suffix(';') {
                    stems.extend(name.split_whitespace().last().map(str::to_string));
                }
            }
        }
    }
    stems
}

fn sloc_of_tree(root: &Path) -> usize {
    let mut total = 0;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut files = Vec::new();
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "tests") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
        let test_mods = test_module_stems(&files);
        total += files
            .iter()
            .filter(|p| {
                let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                !test_mods.iter().any(|t| t == stem)
            })
            .map(|p| sloc_of(p))
            .sum::<usize>();
    }
    total
}

fn main() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Map this reproduction's crates onto the paper's five components.
    let components: &[(&str, &[&str], usize)] = &[
        ("Messaging", &["crates/msg/src"], 1536),
        (
            // The paper's interception layer redirects syscalls into the
            // client library; our equivalent boundary is the fsapi traits
            // plus the simulated-hardware layers the prototype got from
            // Linux for free.
            "Syscall interface + simulated hw",
            &["crates/fsapi/src", "crates/nccmem/src", "crates/vtime/src"],
            2542,
        ),
        ("Client Library", &["crates/core/src/client"], 2607),
        (
            "File System Server",
            &[
                "crates/core/src/server",
                "crates/core/src/proto.rs",
                "crates/core/src/machine.rs",
                "crates/core/src/rpc.rs",
                "crates/core/src/instance.rs",
                "crates/core/src/config.rs",
                "crates/core/src/types.rs",
            ],
            5960,
        ),
        ("Scheduling", &["crates/sched/src"], 930),
    ];

    let mut table = hare_bench::Table::new(&["Component", "Paper SLOC", "This repo SLOC"]);
    let mut paper_total = 0;
    let mut ours_total = 0;
    for (name, paths, paper) in components {
        let ours: usize = paths
            .iter()
            .map(|p| {
                let full = repo.join(p);
                if full.is_dir() {
                    sloc_of_tree(&full)
                } else {
                    sloc_of(&full)
                }
            })
            .sum();
        paper_total += paper;
        ours_total += ours;
        table.row(vec![name.to_string(), paper.to_string(), ours.to_string()]);
    }
    table.row(vec![
        "Total".into(),
        paper_total.to_string(),
        ours_total.to_string(),
    ]);
    println!("Figure 4: SLOC breakdown for Hare components");
    println!("(paper prototype is C/C++; this reproduction is Rust)\n");
    table.print();
}
