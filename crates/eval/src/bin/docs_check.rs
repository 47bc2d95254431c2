//! docs_check: the CI linter keeping the prose docs honest.
//!
//! Usage:
//!   docs_check [--root DIR] [files...]
//!
//! Checks, per markdown file (default: `README.md`,
//! `docs/OPERATIONS.md`, `docs/CHECKPOINTS.md` under the root):
//!
//! 1. **Fences** — every ``` code fence is closed.
//! 2. **Links** — every relative markdown link target exists on disk
//!    (absolute URLs and `#fragment` links are skipped).
//! 3. **Flags** — every `--flag` token the docs mention is actually
//!    defined by one of the workspace binaries (a quoted `"--flag"`
//!    literal somewhere under `crates/*/src/bin/*.rs`), or is on the
//!    small allowlist of cargo's own flags. Docs drifting ahead of —
//!    or behind — the shipped CLI fail CI with the file, line, and
//!    offending token.
//! 4. **Environment variables** — every quoted `"QPD_…"` literal under
//!    `crates/*/src` and `shims/*/src` has a row in the environment
//!    table of `docs/OPERATIONS.md`, and every `QPD_…` token the docs
//!    mention is such a literal: a variable the code reads cannot go
//!    undocumented, nor can the docs name one the code does not read.
//! 5. **Dead modules** — every `pub mod` declared in a
//!    `crates/*/src/lib.rs` is referenced from some other `.rs` file
//!    under `crates`, `src`, `tests`, `examples` or `perfbench/src`: a
//!    `module::` path, or a name its crate re-exports from it. Comment
//!    lines and the `pub mod` / `pub use` statements themselves do not
//!    count, so a module that only re-exports into nothing is dead.
//!
//! Exit code 1 on any finding, 2 on usage errors, 0 when clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Flags legitimately mentioned in docs that are not defined by a
/// workspace binary (cargo's own surface).
const ALLOWED: &[&str] = &["--release", "--no-deps", "--open", "--no-run", "--all-targets"];

/// Extracts every quoted `"--flag"` literal from one source file.
fn quoted_flags(source: &str, into: &mut BTreeSet<String>) {
    let bytes = source.as_bytes();
    let mut i = 0;
    while let Some(at) = source[i..].find("\"--") {
        let start = i + at + 1;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        if bytes.get(end) == Some(&b'"') && end > start + 2 {
            into.insert(source[start..end].to_string());
        }
        i = end;
    }
}

/// Every flag the workspace binaries define: quoted literals in
/// `crates/*/src/bin/*.rs`.
fn binary_flags(root: &Path) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        fail(format!("no crates/ directory under {}", root.display()));
    };
    for krate in entries.flatten() {
        let bin_dir = krate.path().join("src").join("bin");
        let Ok(bins) = std::fs::read_dir(&bin_dir) else { continue };
        for bin in bins.flatten() {
            let path = bin.path();
            if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
                quoted_flags(&source, &mut flags);
            }
        }
    }
    if flags.is_empty() {
        fail("found no CLI flags under crates/*/src/bin — wrong --root?");
    }
    flags
}

/// The `QPD_[A-Z0-9_]*` run `text` starts with.
fn env_name(text: &str) -> &str {
    let len = text
        .bytes()
        .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
        .count();
    &text[..len]
}

/// Extracts every quoted `"QPD_…"` literal from one source file.
fn quoted_env_vars(source: &str, into: &mut BTreeSet<String>) {
    for (at, _) in source.match_indices("\"QPD_") {
        let name = env_name(&source[at + 1..]);
        if name.len() > "QPD_".len() && source[at + 1 + name.len()..].starts_with('"') {
            into.insert(name.to_string());
        }
    }
}

/// Every `.rs` file under `dir` (recursively) with its text; a missing
/// `dir` has none.
fn rust_sources(dir: &Path, into: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
            into.push((path, source));
        }
    }
}

/// Every `QPD_…` variable the code reads: quoted literals in the `.rs`
/// files under `crates/*/src` and `shims/*/src`.
fn source_env_vars(root: &Path) -> BTreeSet<String> {
    let mut sources = Vec::new();
    for top in ["crates", "shims"] {
        let Ok(members) = std::fs::read_dir(root.join(top)) else { continue };
        for member in members.flatten() {
            rust_sources(&member.path().join("src"), &mut sources);
        }
    }
    let mut vars = BTreeSet::new();
    for (_, source) in &sources {
        quoted_env_vars(source, &mut vars);
    }
    vars
}

/// `QPD_…` tokens mentioned in one line of documentation (a bare
/// `QPD_` prefix names no variable and is skipped).
fn doc_env_vars(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    line.match_indices("QPD_")
        .filter(|&(at, _)| {
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
        })
        .map(|(at, _)| env_name(&line[at..]))
        .filter(|name| name.len() > "QPD_".len())
        .collect()
}

/// Pushes a finding for every variable in `vars` without a row in the
/// environment table of `docs/OPERATIONS.md` (a line opening with
/// ``| `QPD_…` |``).
fn env_table_findings(root: &Path, vars: &BTreeSet<String>, findings: &mut Vec<String>) {
    let path = root.join("docs").join("OPERATIONS.md");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let rows: BTreeSet<&str> =
        text.lines().filter_map(|l| l.strip_prefix("| `")).map(env_name).collect();
    for var in vars.iter().filter(|v| !rows.contains(v.as_str())) {
        findings.push(format!(
            "{}: `{var}` is read by the code but has no row in the environment table",
            path.display()
        ));
    }
}

/// `--flag` tokens mentioned in one line of documentation.
fn doc_flags(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = line[i..].find("--") {
        let start = i + at;
        // A real flag token starts at a word boundary (not `a--b`, not
        // a `---` rule) and continues with [a-z0-9-].
        let boundary = start == 0
            || bytes[start - 1].is_ascii_whitespace()
            || matches!(bytes[start - 1], b'`' | b'(' | b'[' | b'"' | b'\'');
        let mut end = start + 2;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        if boundary && end > start + 2 {
            out.push(line[start..end].to_string());
        }
        i = end.max(start + 2);
    }
    out
}

/// Relative link targets of one line: `](target)` with URLs and pure
/// fragments skipped.
fn doc_links(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = line[i..].find("](") {
        let start = i + at + 2;
        let Some(len) = line[start..].find(')') else { break };
        let target = &line[start..start + len];
        i = start + len;
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with('#')
            || target.is_empty()
        {
            continue;
        }
        // Drop a trailing fragment: FILE.md#section checks FILE.md.
        let path = target.split('#').next().unwrap_or(target);
        out.push(path.to_string());
    }
    out
}

/// `source` without its comment lines and without its `pub mod NAME;` and
/// `pub use …;` statements: the lines that can *use* a name.
fn code_uses(source: &str) -> String {
    let mut out = String::new();
    let mut in_use = false;
    for line in source.lines() {
        let trimmed = line.trim_start();
        in_use |= trimmed.starts_with("pub use ");
        let declaration = trimmed.starts_with("pub mod ") && trimmed.ends_with(';');
        if in_use || declaration || trimmed.starts_with("//") {
            in_use &= !line.contains(';');
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Whether `code` names `word` as a whole identifier; with `path`, only
/// as the head of a `word::` path outside `std`, `core` and `alloc` (so
/// `std::error::Error` does not reference a crate's `error` module).
fn mentions(code: &str, word: &str, path: bool) -> bool {
    let ident = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    let bytes = code.as_bytes();
    code.match_indices(word).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + word.len()..]);
        let tail_ok = if path {
            after.starts_with("::")
                && !["std::", "core::", "alloc::"].iter().any(|p| before.ends_with(p))
        } else {
            !after.as_bytes().first().is_some_and(ident)
        };
        tail_ok && !at.checked_sub(1).is_some_and(|i| ident(&bytes[i]))
    })
}

/// The names one `pub use module::TAIL;` statement re-exports, given its
/// `TAIL`: the last segment of each imported path, or its `as` alias.
fn reexported_names(tail: &str) -> impl Iterator<Item = &str> {
    tail.split([',', '{', '}'])
        .map(|part| match part.split_once(" as ") {
            Some((_, alias)) => alias.trim(),
            None => part.rsplit_once("::").map_or(part, |(_, name)| name).trim(),
        })
        .filter(|name| !name.is_empty())
}

/// Pushes a finding for every `pub mod` of a `crates/*/src/lib.rs` that
/// no other Rust file references (rule 5 of the module docs).
fn dead_module_findings(root: &Path, findings: &mut Vec<String>) {
    let mut sources = Vec::new();
    for top in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_sources(&root.join(top), &mut sources);
    }
    let uses: Vec<String> = sources.iter().map(|(_, source)| code_uses(source)).collect();
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|member| member.path().join("src"))
        .collect();
    members.sort();
    for src in members {
        let lib = src.join("lib.rs");
        let Some((_, source)) = sources.iter().find(|(path, _)| *path == lib) else { continue };
        for line in source.lines() {
            let Some(name) = line.trim().strip_prefix("pub mod ").and_then(|l| l.strip_suffix(';'))
            else {
                continue;
            };
            let export = format!("pub use {name}::");
            let reexports: Vec<&str> = source
                .match_indices(&export)
                .flat_map(|(at, _)| {
                    let tail = &source[at + export.len()..];
                    reexported_names(&tail[..tail.find(';').unwrap_or(tail.len())])
                })
                .collect();
            let own = |path: &Path| {
                path == src.join(format!("{name}.rs")) || path.starts_with(src.join(name))
            };
            let used = sources.iter().zip(&uses).any(|((path, _), code)| {
                !own(path)
                    && (mentions(code, name, true)
                        || reexports.iter().any(|r| mentions(code, r, false)))
            });
            if !used {
                findings.push(format!(
                    "{}: `pub mod {name}` has no reference outside its own file",
                    lib.display()
                ));
            }
        }
    }
}

fn check_file(
    path: &Path,
    known: &BTreeSet<String>,
    env: &BTreeSet<String>,
    findings: &mut Vec<String>,
) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut fence_open: Option<usize> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim_start().starts_with("```") {
            fence_open = match fence_open {
                None => Some(ln),
                Some(_) => None,
            };
            continue;
        }
        for link in doc_links(line) {
            if !dir.join(&link).exists() {
                findings.push(format!("{}:{ln}: broken link `{link}`", path.display()));
            }
        }
        for flag in doc_flags(line) {
            if !known.contains(&flag) && !ALLOWED.contains(&flag.as_str()) {
                findings.push(format!(
                    "{}:{ln}: `{flag}` is not a flag of any workspace binary",
                    path.display()
                ));
            }
        }
        for var in doc_env_vars(line) {
            if !env.contains(var) {
                findings.push(format!(
                    "{}:{ln}: `{var}` is not an environment variable the code reads",
                    path.display()
                ));
            }
        }
    }
    if let Some(open) = fence_open {
        findings.push(format!("{}:{open}: unclosed code fence", path.display()));
    }
}

fn main() {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().unwrap_or_else(|| fail("--root needs a value")))
            }
            other if !other.starts_with("--") => files.push(PathBuf::from(other)),
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    if files.is_empty() {
        files = ["README.md", "docs/OPERATIONS.md", "docs/CHECKPOINTS.md"]
            .iter()
            .map(|f| root.join(f))
            .collect();
    }
    let known = binary_flags(&root);
    let env = source_env_vars(&root);
    let mut findings = Vec::new();
    env_table_findings(&root, &env, &mut findings);
    dead_module_findings(&root, &mut findings);
    for file in &files {
        check_file(file, &known, &env, &mut findings);
    }
    if findings.is_empty() {
        println!("docs_check: {} file(s) clean ({} known flags)", files.len(), known.len());
    } else {
        for f in &findings {
            eprintln!("docs_check: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_flags_find_real_tokens_and_skip_rules() {
        assert_eq!(doc_flags("use `--shard i/N` and --merge."), vec!["--shard", "--merge"]);
        assert!(doc_flags("a---rule and em—dash and a--b").is_empty());
    }

    #[test]
    fn doc_links_skip_urls_and_fragments() {
        let line = "[a](docs/X.md) [b](https://x.y) [c](#frag) [d](F.md#sec)";
        assert_eq!(doc_links(line), vec!["docs/X.md", "F.md"]);
    }

    #[test]
    fn quoted_flag_extraction_matches_match_arms() {
        let mut flags = BTreeSet::new();
        quoted_flags(r#"match a { "--seed" => x, "--out-dir" => y, "--" => z }"#, &mut flags);
        assert!(flags.contains("--seed") && flags.contains("--out-dir"));
        assert!(!flags.contains("--"));
    }

    /// A fixture tree: one variable read in a crate, one in a shim, and
    /// docs with one table row and one prose mention of an unread name.
    #[test]
    fn env_vars_need_a_table_row_and_a_reader() {
        let root = std::env::temp_dir().join(format!("qpd_docs_check_{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        // Spelled `Q_` here so this file's own literals stay out of the
        // real tree's scan.
        let source = |text: &str| text.replace("\"Q_", "\"QPD_");
        write("crates/a/src/bin/tool.rs", &source(r#"var("Q_ALPHA"); "Q_"; "Q_ALPHA_X"#));
        write("shims/b/src/lib.rs", &source(r#"const V: &str = "Q_BETA";"#));
        write(
            "docs/OPERATIONS.md",
            "| Variable | Effect |\n|---|---|\n| `QPD_ALPHA` | read by the tool |\n\n\
             Set `QPD_GAMMA=1` (or QPD_ALPHA); MY_QPD_X and `QPD_*` are not tokens.\n",
        );
        let env = source_env_vars(&root);
        assert_eq!(env.iter().map(|v| &v[4..]).collect::<Vec<_>>(), ["ALPHA", "BETA"]);
        let mut findings = Vec::new();
        env_table_findings(&root, &env, &mut findings);
        check_file(&root.join("docs/OPERATIONS.md"), &BTreeSet::new(), &env, &mut findings);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0]
            .ends_with("`QPD_BETA` is read by the code but has no row in the environment table"));
        assert!(
            findings[1].ends_with(":5: `QPD_GAMMA` is not an environment variable the code reads")
        );
    }

    /// A fixture crate with a module used by path, one used through a
    /// renamed re-export, one referenced only from its own file, its
    /// re-export and a comment, and one whose name only occurs under
    /// `std::`.
    #[test]
    fn dead_modules_are_named_and_used_ones_are_not() {
        let root = std::env::temp_dir().join(format!("qpd_docs_check_mods_{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/lib.rs",
            "pub mod live;\npub mod renamed;\npub mod dead;\npub mod error;\n\
             pub use renamed::{\n    Other,\n    Thing as Alias,\n};\npub use dead::Ghost;\n",
        );
        write("crates/a/src/live.rs", "pub fn f() {}\n");
        write("crates/a/src/renamed.rs", "pub struct Thing;\npub struct Other;\n");
        write(
            "crates/a/src/dead.rs",
            "pub struct Ghost;\nfn own() -> crate::dead::Ghost { Ghost }\n",
        );
        write("crates/a/src/error.rs", "pub struct Error;\n");
        write("examples/e.rs", "fn main() {\n    a::live::f();\n}\n");
        write(
            "tests/t.rs",
            "// Mentions of dead::Ghost in comments do not count.\n\
             use std::error::Error;\nfn t() -> a::Alias {\n    a::Alias\n}\n",
        );
        let mut findings = Vec::new();
        dead_module_findings(&root, &mut findings);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(
            findings[0].ends_with("lib.rs: `pub mod dead` has no reference outside its own file")
        );
        assert!(
            findings[1].ends_with("lib.rs: `pub mod error` has no reference outside its own file")
        );
    }
}
