//! Regrowth guard for the library surface: every `pub fn`,
//! `pub const fn`, `pub unsafe fn` and `pub const` in `crates/*/src`
//! (outside `#[cfg(test)]` code) must have a caller.
//!
//! A caller is a mention of the item's name in
//! - non-test code of another file of the same crate,
//! - any code, tests included, of another crate under `crates/*/src`,
//! - `tests/`, `examples/`, `crates/bench/benches/` or `sperkebench/src`.
//!
//! The item's own file, its own crate's `#[cfg(test)]` code, comments,
//! string and char literals and `use`/`pub use` statements never count.
//! An item used only inside its own file should not be `pub`; an item
//! nothing calls should not exist. Types are out of scope: a result type
//! reached only through a public signature is rightly public.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One scanned source file: which crate it belongs to (`None` outside
/// `crates/*/src`) and the identifiers its counted code mentions.
struct Source {
    path: PathBuf,
    krate: Option<String>,
    /// Identifiers outside `#[cfg(test)]` code.
    idents: BTreeSet<String>,
    /// Identifiers inside `#[cfg(test)]` code.
    test_idents: BTreeSet<String>,
    /// `(line, name)` of every public function or constant outside
    /// `#[cfg(test)]` code (only collected under `crates/*/src`).
    items: Vec<(usize, String)>,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `src` with every comment and the contents of every string and char
/// literal replaced by spaces (newlines kept, so lines still line up).
fn mask(src: &str) -> Vec<char> {
    let s: Vec<char> = src.chars().collect();
    let mut out = s.clone();
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != '\n' {
                *c = ' ';
            }
        }
    };
    let mut i = 0;
    while i < s.len() {
        let prev_ident = i > 0 && is_ident(s[i - 1]);
        match s[i] {
            '/' if s.get(i + 1) == Some(&'/') => {
                let end = (i..s.len()).find(|&j| s[j] == '\n').unwrap_or(s.len());
                blank(&mut out, i, end);
                i = end;
            }
            '/' if s.get(i + 1) == Some(&'*') => {
                let (mut depth, mut j) = (1, i + 2);
                while j < s.len() && depth > 0 {
                    if s[j] == '/' && s.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if s[j] == '*' && s.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            'r' | 'b' if !prev_ident && raw_string_hashes(&s, i).is_some() => {
                let (open, hashes) = raw_string_hashes(&s, i).expect("checked above");
                let mut j = open + 1;
                while j < s.len() {
                    if s[j] == '"' && (1..=hashes).all(|h| s.get(j + h) == Some(&'#')) {
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, open + 1, j.min(s.len()));
                i = j + 1 + hashes;
            }
            '"' => {
                let mut j = i + 1;
                while j < s.len() && s[j] != '"' {
                    j += if s[j] == '\\' { 2 } else { 1 };
                }
                blank(&mut out, i + 1, j.min(s.len()));
                i = j + 1;
            }
            '\'' if !prev_ident || (s[i - 1] == 'b' && (i < 2 || !is_ident(s[i - 2]))) => {
                // A char or byte literal ('x', b'\n', '\u{..}'); otherwise
                // a lifetime.
                let end = if s.get(i + 1) == Some(&'\\') {
                    (i + 2..s.len()).find(|&j| s[j] == '\'')
                } else if s.get(i + 2) == Some(&'\'') {
                    Some(i + 2)
                } else {
                    None
                };
                match end {
                    Some(e) => {
                        blank(&mut out, i + 1, e);
                        i = e + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// For a raw string starting at `i` (`r"`, `r#"`, `br"`, ...), the index
/// of its opening quote and its number of `#`s.
fn raw_string_hashes(s: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if s[j] == 'b' {
        j += 1;
    }
    if s.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let hashes = s[j..].iter().take_while(|&&c| c == '#').count();
    (s.get(j + hashes) == Some(&'"')).then_some((j + hashes, hashes))
}

/// Index just past the item that starts at `from`: its matching closing
/// brace, or its `;` when that comes before any `{`.
fn item_end(s: &[char], from: usize) -> usize {
    let mut depth = 0usize;
    for (j, &c) in s.iter().enumerate().skip(from) {
        match c {
            ';' if depth == 0 => return j + 1,
            '{' => depth += 1,
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    s.len()
}

/// Per char of the masked source, whether it lies in `#[cfg(test)]` code.
fn test_regions(s: &[char]) -> Vec<bool> {
    let attr: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut in_test = vec![false; s.len()];
    let mut i = 0;
    while i + attr.len() <= s.len() {
        if s[i..i + attr.len()] == attr[..] {
            let end = item_end(s, i + attr.len());
            in_test[i..end].iter_mut().for_each(|t| *t = true);
            i = end;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Blanks every `use` / `pub use` / `pub(crate) use` statement.
fn blank_use_statements(s: &mut [char]) {
    let mut j = 0;
    while j < s.len() {
        // `j` is at a line start: skip the indentation, then any
        // visibility, and look for `use`.
        while j < s.len() && (s[j] == ' ' || s[j] == '\t') {
            j += 1;
        }
        let head: String = s[j..s.len().min(j + 48)].iter().collect();
        let after_vis = match head.strip_prefix("pub") {
            Some(r) if r.starts_with('(') => r.find(')').map(|p| &r[p + 1..]),
            Some(r) if r.starts_with(' ') => Some(r),
            _ => Some(head.as_str()),
        };
        if after_vis.is_some_and(|r| r.trim_start().starts_with("use ")) {
            let end = (j..s.len())
                .find(|&k| s[k] == ';')
                .map_or(s.len(), |k| k + 1);
            s[j..end]
                .iter_mut()
                .filter(|c| **c != '\n')
                .for_each(|c| *c = ' ');
            j = end;
        }
        j = (j..s.len())
            .find(|&k| s[k] == '\n')
            .map_or(s.len(), |k| k + 1);
    }
}

/// The name of the `pub fn`/`pub const fn`/`pub unsafe fn`/`pub const`
/// item a line declares, if any.
fn pub_item(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "unsafe fn ", "fn ", "const "]
        .iter()
        .find_map(|kw| rest.strip_prefix(kw))?;
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

fn scan(path: PathBuf, krate: Option<String>) -> Source {
    let text = fs::read_to_string(&path).expect("readable source file");
    let mut masked = mask(&text);
    let in_test = test_regions(&masked);
    let mut items = Vec::new();
    if krate.is_some() {
        let mut offset = 0;
        let lines: String = masked.iter().collect();
        for (n, line) in lines.split('\n').enumerate() {
            if !in_test.get(offset).copied().unwrap_or(false) {
                if let Some(name) = pub_item(line) {
                    items.push((n + 1, name));
                }
            }
            offset += line.chars().count() + 1;
        }
    }
    blank_use_statements(&mut masked);
    let (mut idents, mut test_idents) = (BTreeSet::new(), BTreeSet::new());
    let mut i = 0;
    while i < masked.len() {
        if is_ident(masked[i]) {
            let start = i;
            while i < masked.len() && is_ident(masked[i]) {
                i += 1;
            }
            let word: String = masked[start..i].iter().collect();
            if in_test[start] {
                test_idents.insert(word);
            } else {
                idents.insert(word);
            }
        } else {
            i += 1;
        }
    }
    Source {
        path,
        krate,
        idents,
        test_idents,
        items,
    }
}

fn sources(root: &Path) -> Vec<Source> {
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .expect("crate dir name")
            .to_string_lossy()
            .into_owned();
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        out.extend(files.into_iter().map(|f| scan(f, Some(name.clone()))));
    }
    for dir in [
        "tests",
        "examples",
        "crates/bench/benches",
        "sperkebench/src",
    ] {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        out.extend(files.into_iter().map(|f| scan(f, None)));
    }
    out
}

/// Every public function or constant in `crates/*/src` whose name no
/// caller mentions, as `path:line name`.
fn uncalled(root: &Path) -> Vec<String> {
    let all = sources(root);
    let mut found = Vec::new();
    for (k, file) in all.iter().enumerate() {
        for (line, name) in &file.items {
            let called = all.iter().enumerate().any(|(g, other)| {
                if g == k {
                    return false;
                }
                match &other.krate {
                    Some(c) if Some(c) == file.krate.as_ref() => other.idents.contains(name),
                    _ => other.idents.contains(name) || other.test_idents.contains(name),
                }
            });
            if !called {
                let rel = file.path.strip_prefix(root).unwrap_or(&file.path);
                found.push(format!("{}:{line} {name}", rel.display()));
            }
        }
    }
    found
}

#[test]
fn every_public_function_and_constant_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = uncalled(root);
    assert!(
        found.is_empty(),
        "{} public functions or constants have no caller outside their own \
         file and their crate's unit tests; make each private if its own \
         file uses it, else delete it:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_scanner_ignores_comments_literals_use_lines_and_test_code() {
    let src = "pub fn live() {}\n\
               // dead_in_comment()\n\
               /* dead_in_block /* nested */ */\n\
               let s = \"dead_in_string\"; let r = r#\"dead_raw\"#; let c = '\\'';\n\
               pub use crate::{\n    dead_in_use,\n};\n\
               fn f<'a>(x: &'a u8) -> char { 'x' }\n\
               #[cfg(test)]\nmod tests { fn t() { dead_in_test(); } }\n\
               pub const fn kept() {}\n";
    let masked = mask(src);
    let in_test = test_regions(&masked);
    let mut blanked = masked.clone();
    blank_use_statements(&mut blanked);
    let outside: String = blanked
        .iter()
        .zip(&in_test)
        .map(|(&c, &t)| if t { ' ' } else { c })
        .collect();
    for dead in [
        "dead_in_comment",
        "dead_in_block",
        "dead_in_string",
        "dead_raw",
        "dead_in_use",
        "dead_in_test",
    ] {
        assert!(!outside.contains(dead), "{dead} leaked into counted code");
    }
    assert!(
        outside.contains("fn f<'a>(x: &'a u8)"),
        "lifetimes survive masking"
    );
    let inside: String = masked
        .iter()
        .zip(&in_test)
        .filter(|(_, &t)| t)
        .map(|(&c, _)| c)
        .collect();
    assert!(inside.contains("dead_in_test"));
    assert_eq!(pub_item("    pub const fn kept() {}"), Some("kept".into()));
    assert_eq!(pub_item("pub const LIMIT: u8 = 1;"), Some("LIMIT".into()));
    assert_eq!(pub_item("pub unsafe fn raw() {}"), Some("raw".into()));
    assert_eq!(pub_item("pub struct Kept;"), None);
    assert_eq!(pub_item("pub(crate) fn inner() {}"), None);
}
