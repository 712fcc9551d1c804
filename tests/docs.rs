//! The documents name only things that exist.
//!
//! Three checks, each over text a reader follows by hand:
//!
//! * **(a) Rust paths.** Every backticked path with a `::` (`Type::method`,
//!   `crate::module::Item`) in README.md, docs/ARCHITECTURE.md and
//!   docs/REPRODUCING.md names something declared in the workspace source:
//!   an item, an associated item, an enum variant or a field, each segment a
//!   member of the one before. Paths into `std`, `core` and the vendored
//!   crates are skipped, and so is a line that says "until PR N" (a
//!   historical mention).
//! * **(b) Markdown links.** Every relative link in those documents reaches
//!   a file, and its `#anchor`, if any, a heading of that file.
//! * **(c) `§` references.** Every `path.md § "Heading"` in the sources
//!   under `crates/`, `src/`, `vendor/` and `examples/`, in the root
//!   `Cargo.toml` and in the verify skill names an existing document and one
//!   of its headings, word for word, on one line; and every `*.md` file those
//!   sources name exists.
//!
//! The source index is lexical: comments, strings and macro bodies are
//! skipped, declarations are read by keyword, and each name is filed under
//! the module, type, trait or enum it is declared in (union over same-named
//! owners, which errs towards resolving). The planted-name tests at the end
//! hold each check to a name, anchor or reference that went stale here.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

/// The documents whose Rust paths and links are checked.
const DOCS: [&str; 3] = ["README.md", "docs/ARCHITECTURE.md", "docs/REPRODUCING.md"];

/// Where `§` references and document names are checked, besides the verify
/// skill.
const SOURCE_ROOTS: [&str; 5] = ["crates", "src", "vendor", "examples", "Cargo.toml"];

/// The verify skill's notes point into ARCHITECTURE by `§` reference.
const SKILL: &str = ".claude/skills/verify/SKILL.md";

/// First segments that are not this workspace's: `std`, `core`, the vendored
/// crates, primitive types and the std types the documents name without
/// their crate.
#[rustfmt::skip]
const FOREIGN: &[&str] = &[
    "std", "core", "alloc", "rand", "rayon", "proptest",
    "u8", "u16", "u32", "u64", "usize", "i32", "i64", "f64",
    "Vec", "String", "Option", "Box", "Arc", "HashMap", "VecDeque", "BinaryHeap",
];

/// The workspace crates, by directory under `crates/`; each answers to its
/// library name (`spectralfly_graph`) and its short name (`graph`).
const CRATES: [&str; 5] = ["ff", "graph", "topology", "simnet", "exp"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir` (or `dir` itself) with one of `exts`, skipping
/// build output.
fn files(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    if dir.is_file() {
        if dir
            .extension()
            .is_some_and(|e| exts.iter().any(|x| e == *x))
        {
            out.push(dir.to_path_buf());
        }
        return;
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        files(&path, exts, out);
    }
}

// ---------------------------------------------------------------------------
// The source index
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Rust source as identifiers and punctuation: comments, string, char and
/// number literals, and lifetimes are dropped.
fn lex(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let ident_start = |ch: char| ch.is_alphabetic() || ch == '_';
    let ident_char = |ch: char| ch.is_alphanumeric() || ch == '_';
    // The end of a string literal whose body starts at `i`.
    let skip_str = |mut i: usize| {
        while i < c.len() && c[i] != '"' {
            i += if c[i] == '\\' { 2 } else { 1 };
        }
        i + 1
    };
    // The end of a raw string whose `#`s start at `i`.
    let skip_raw = |mut i: usize| {
        let hashes = c[i..].iter().take_while(|&&h| h == '#').count();
        i += hashes + 1;
        loop {
            if i >= c.len() {
                return i;
            }
            if c[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#') {
                return i + 1 + hashes;
            }
            i += 1;
        }
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        let ch = c[i];
        if ch.is_whitespace() {
            i += 1;
        } else if ch == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if ch == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if ch == '"' {
            i = skip_str(i + 1);
        } else if ch == 'r'
            && (at(i + 1) == '"' || (at(i + 1) == '#' && matches!(at(i + 2), '"' | '#')))
        {
            i = skip_raw(i + 1);
        } else if ch == 'b' && at(i + 1) == 'r' && matches!(at(i + 2), '"' | '#') {
            i = skip_raw(i + 2);
        } else if ch == 'b' && at(i + 1) == '"' {
            i = skip_str(i + 2);
        } else if ch == '\'' || (ch == 'b' && at(i + 1) == '\'') {
            let q = if ch == 'b' { i + 1 } else { i };
            if at(q + 1) == '\\' {
                // An escaped char literal: up to its closing quote.
                i = q + 3;
                while i < c.len() && c[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(q + 2) == '\'' {
                i = q + 3;
            } else {
                // A lifetime or label: the quote and its name.
                i = q + 1;
                while i < c.len() && ident_char(c[i]) {
                    i += 1;
                }
            }
        } else if ch == 'r' && at(i + 1) == '#' && ident_start(at(i + 2)) {
            i += 2;
        } else if ident_start(ch) {
            let start = i;
            while i < c.len() && ident_char(c[i]) {
                i += 1;
            }
            out.push(Tok::Ident(c[start..i].iter().collect()));
        } else if ch.is_ascii_digit() {
            while i < c.len() && ident_char(c[i]) {
                i += 1;
            }
        } else {
            out.push(Tok::Punct(ch));
            i += 1;
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// A module, or anything whose members are looked up by name: an impl's
    /// or a trait's associated items.
    Owner,
    /// A struct or struct-like variant body: its fields.
    Fields,
    /// An enum body: its variants.
    Variants,
    /// A function body or any other block: nothing declared in it is
    /// filed.
    Block,
}

#[derive(Clone, Debug)]
struct Scope {
    kind: Kind,
    name: String,
    /// The bracket depth the scope opened at (a variant list ignores the
    /// commas inside a tuple variant).
    depth: usize,
}

/// Every declared name, filed under the simple name of its owner.
#[derive(Default)]
struct Index {
    members: HashMap<String, HashSet<String>>,
    /// `(into, from)`: glob re-exports and `as` renames, merged at the end.
    merges: Vec<(String, String)>,
}

impl Index {
    fn file(&mut self, owner: &str, name: &str) {
        if name != "_" {
            let set = self.members.entry(owner.to_string()).or_default();
            set.insert(name.to_string());
        }
    }

    fn known(&self, name: &str) -> bool {
        self.members.contains_key(name) || self.members.values().any(|m| m.contains(name))
    }

    fn has_member(&self, owner: &str, name: &str) -> bool {
        let Some(set) = self.members.get(owner) else {
            return false;
        };
        match name.strip_suffix('*') {
            Some(prefix) => set.iter().any(|m| m.starts_with(prefix)),
            None => set.contains(name),
        }
    }

    /// Index one source file whose top level is module `module`.
    fn add_source(&mut self, module: &str, src: &str) {
        let toks = lex(src);
        let ident = |k: usize| match toks.get(k) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        };
        let punct = |k: usize, p: char| toks.get(k) == Some(&Tok::Punct(p));
        let mut stack = vec![Scope {
            kind: Kind::Owner,
            name: module.to_string(),
            depth: 0,
        }];
        let mut pending: Option<(Kind, String)> = None;
        let mut depth = 0usize;
        let mut prev: Option<Tok> = None;
        let mut k = 0;
        while k < toks.len() {
            let top = stack.last().unwrap().clone();
            let owner = (top.kind == Kind::Owner).then(|| top.name.clone());
            match &toks[k] {
                Tok::Punct('#')
                    if punct(k + 1, '[') || (punct(k + 1, '!') && punct(k + 2, '[')) =>
                {
                    // An attribute: nothing in it is declared.
                    k = skip_group(&toks, if punct(k + 1, '!') { k + 2 } else { k + 1 });
                    continue;
                }
                Tok::Punct('{') => {
                    let (kind, name) = pending.take().unwrap_or((Kind::Block, String::new()));
                    stack.push(Scope { kind, name, depth });
                }
                Tok::Punct('}') if stack.len() > 1 => {
                    stack.pop();
                }
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth = depth.saturating_sub(1),
                Tok::Punct(';') if depth == top.depth => pending = None,
                Tok::Punct('!') if prev == Some(Tok::Ident("macro_rules".into())) => {
                    if let (Some(owner), Some(name)) = (&owner, ident(k + 1)) {
                        self.file(owner, name);
                    }
                    // The macro body is patterns, not declarations.
                    k = skip_group(&toks, k + 2);
                    prev = None;
                    continue;
                }
                Tok::Ident(word) => match word.as_str() {
                    "mod" | "fn" | "struct" | "union" | "enum" | "trait" => {
                        if let Some(name) = ident(k + 1) {
                            if let Some(owner) = &owner {
                                self.file(owner, name);
                            }
                            let kind = match word.as_str() {
                                "mod" | "trait" => Kind::Owner,
                                "struct" | "union" => Kind::Fields,
                                "enum" => Kind::Variants,
                                _ => Kind::Block,
                            };
                            pending = Some((kind, name.to_string()));
                            k += 1;
                        }
                    }
                    "type" | "static" | "const" => {
                        let mut n = k + 1;
                        if ident(n) == Some("mut") {
                            n += 1;
                        }
                        if let (Some(owner), Some(name)) = (&owner, ident(n)) {
                            if !matches!(name, "fn" | "unsafe" | "async" | "extern") {
                                self.file(owner, name);
                            }
                            // An alias answers for its target's members.
                            if word == "type" && punct(n + 1, '=') {
                                let target = toks[n + 2..]
                                    .iter()
                                    .take_while(|t| !matches!(t, Tok::Punct('<' | ';')))
                                    .filter_map(|t| match t {
                                        Tok::Ident(s) => Some(s.clone()),
                                        _ => None,
                                    })
                                    .last();
                                if let Some(target) = target {
                                    self.merges.push((name.to_string(), target));
                                }
                            }
                        }
                    }
                    "impl" if item_position(prev.as_ref()) => {
                        let (name, end) = impl_self_type(&toks, k + 1);
                        pending = Some((Kind::Owner, name));
                        k = end;
                        prev = None;
                        continue;
                    }
                    "use"
                        if matches!(&prev, Some(Tok::Ident(p)) if p == "pub")
                            || prev == Some(Tok::Punct(')')) =>
                    {
                        let mut leaves = Vec::new();
                        k = use_tree(&toks, k + 1, &mut Vec::new(), &mut leaves);
                        if let Some(owner) = &owner {
                            for (path, alias) in leaves {
                                let last = path.last().cloned().unwrap_or_default();
                                match alias.as_deref() {
                                    Some("*") => self.merges.push((owner.clone(), last)),
                                    Some(alias) => {
                                        self.file(owner, alias);
                                        self.merges.push((alias.to_string(), last));
                                    }
                                    None => self.file(owner, &last),
                                }
                            }
                        }
                        prev = None;
                        continue;
                    }
                    _ => {
                        let single_colon = punct(k + 1, ':') && !punct(k + 2, ':');
                        let after_colon = prev == Some(Tok::Punct(':'));
                        if top.kind == Kind::Fields
                            && depth == top.depth
                            && single_colon
                            && !after_colon
                        {
                            self.file(&top.name, word);
                        }
                        let starts_variant = matches!(prev, Some(Tok::Punct('{' | ',')));
                        if top.kind == Kind::Variants && depth == top.depth && starts_variant {
                            self.file(&top.name, word);
                            if punct(k + 1, '{') {
                                pending = Some((Kind::Fields, word.clone()));
                            }
                        }
                    }
                },
                _ => {}
            }
            prev = Some(toks[k].clone());
            k += 1;
        }
    }

    /// Fold glob re-exports and renames into their owners until nothing
    /// changes.
    fn merge(&mut self) {
        loop {
            let mut changed = false;
            for (into, from) in self.merges.clone() {
                let add: Vec<String> = self
                    .members
                    .get(&from)
                    .into_iter()
                    .flatten()
                    .cloned()
                    .collect();
                let set = self.members.entry(into).or_default();
                for name in add {
                    changed |= set.insert(name);
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Whether an `impl` after `prev` starts an item rather than naming an
/// `impl Trait` type.
fn item_position(prev: Option<&Tok>) -> bool {
    match prev {
        None => true,
        Some(Tok::Punct(p)) => matches!(p, '}' | ';' | '{' | ']'),
        Some(Tok::Ident(w)) => matches!(w.as_str(), "unsafe" | "default"),
    }
}

/// The index past the group (`{…}`, `(…)` or `[…]`) that opens at `k`.
fn skip_group(toks: &[Tok], mut k: usize) -> usize {
    let mut depth = 0;
    while k < toks.len() {
        match toks[k] {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// The simple name of the type an `impl` header starting at `k` is for, and
/// the index of the header's opening brace.
fn impl_self_type(toks: &[Tok], mut k: usize) -> (String, usize) {
    let mut angle = 0i32;
    let mut name = String::new();
    while k < toks.len() {
        match &toks[k] {
            Tok::Punct('{') if angle == 0 => break,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if toks.get(k.wrapping_sub(1)) != Some(&Tok::Punct('-')) => angle -= 1,
            Tok::Ident(w) if angle == 0 && w == "where" => {
                while k < toks.len() && toks[k] != Tok::Punct('{') {
                    k += 1;
                }
                break;
            }
            // After `for` the self type starts afresh.
            Tok::Ident(w) if angle == 0 && w == "for" => name.clear(),
            Tok::Ident(w) if angle == 0 && !matches!(w.as_str(), "dyn" | "mut" | "const") => {
                name = w.clone()
            }
            _ => {}
        }
        k += 1;
    }
    (name, k)
}

/// Parse a `use` tree from `k` to its `;`, collecting `(path, alias)` per
/// leaf (`Some("*")` for a glob); returns the index past the `;`.
fn use_tree(
    toks: &[Tok],
    mut k: usize,
    prefix: &mut Vec<String>,
    leaves: &mut Vec<(Vec<String>, Option<String>)>,
) -> usize {
    let base = prefix.len();
    while k < toks.len() {
        match &toks[k] {
            Tok::Punct(';') => return k + 1,
            Tok::Punct('}') => {
                prefix.truncate(base);
                return k + 1;
            }
            Tok::Punct(',') => prefix.truncate(base),
            Tok::Punct('{') => {
                let mut inner = prefix.clone();
                k = use_tree(toks, k + 1, &mut inner, leaves);
                continue;
            }
            Tok::Punct('*') => leaves.push((prefix.clone(), Some("*".into()))),
            Tok::Ident(w) if w == "as" => {
                if let Some(Tok::Ident(alias)) = toks.get(k + 1) {
                    leaves.pop();
                    leaves.push((prefix.clone(), Some(alias.clone())));
                }
                k += 2;
                continue;
            }
            Tok::Ident(w) => {
                if w == "self" {
                    leaves.push((prefix.clone(), None));
                } else {
                    prefix.push(w.clone());
                    // A leaf unless a `::` follows.
                    if toks.get(k + 1) != Some(&Tok::Punct(':')) {
                        leaves.push((prefix.clone(), None));
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// The module a source file's top level is: a crate root is its crate,
/// `mod.rs` its directory, anything else its stem.
fn module_of(path: &Path, crate_name: &str) -> String {
    let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
    match stem.as_str() {
        "lib" | "main" => crate_name.to_string(),
        "mod" => path
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned(),
        _ => stem,
    }
}

/// The whole workspace's declarations, once per test binary.
static INDEX: LazyLock<Index> = LazyLock::new(|| {
    let mut index = Index::default();
    let mut sources: Vec<(String, PathBuf)> = Vec::new();
    for name in CRATES {
        sources.push((
            format!("spectralfly_{name}"),
            root().join("crates").join(name).join("src"),
        ));
    }
    sources.push(("spectralfly_suite".into(), root().join("src")));
    sources.push(("examples".into(), root().join("examples")));
    for shim in ["rand", "rayon", "proptest"] {
        sources.push((shim.into(), root().join("vendor").join(shim).join("src")));
    }
    for (crate_name, dir) in sources {
        let mut rs = Vec::new();
        files(&dir, &["rs"], &mut rs);
        for path in rs {
            index.add_source(&module_of(&path, &crate_name), &read(&path));
        }
    }
    for name in CRATES {
        index
            .merges
            .push((name.to_string(), format!("spectralfly_{name}")));
    }
    index.merge();
    index
});

// ---------------------------------------------------------------------------
// (a) Rust paths
// ---------------------------------------------------------------------------

/// `text` without its `<…>` generic arguments.
fn strip_generics(text: &str) -> String {
    let mut out = String::new();
    let mut depth = 0;
    let mut last = ' ';
    for ch in text.chars() {
        match ch {
            '<' if depth > 0 || last.is_alphanumeric() || last == '_' => depth += 1,
            '>' if depth > 0 => depth -= 1,
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
        last = ch;
    }
    out
}

/// A character of a Rust path (`*` for a documented glob, `enumerate_*`).
fn path_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_' || ch == ':' || ch == '*'
}

/// The `::` paths in one code span; `a::{b, c}` is `a::b` and `a::c`.
fn span_paths(span: &str) -> Vec<String> {
    let text = strip_generics(span);
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some(open) = rest.find("::{") {
        let prefix_start = rest[..open]
            .rfind(|ch: char| !path_char(ch))
            .map_or(0, |p| p + 1);
        let prefix = &rest[prefix_start..open];
        let close = rest[open..].find('}').map_or(rest.len(), |c| open + c);
        for item in rest[open + 3..close].split(',') {
            let item: String = item
                .trim()
                .chars()
                .take_while(|&ch| path_char(ch))
                .collect();
            out.push(format!("{prefix}::{item}"));
        }
        out.extend(plain_paths(&rest[..prefix_start]));
        rest = &rest[(close + 1).min(rest.len())..];
    }
    out.extend(plain_paths(rest));
    out.retain(|p| p.split("::").count() > 1 && p.split("::").all(|s| !s.is_empty()));
    out
}

fn plain_paths(text: &str) -> Vec<String> {
    text.split(|ch: char| !path_char(ch))
        .filter(|word| word.contains("::"))
        .map(|word| word.trim_matches(':').to_string())
        .filter(|word| word.starts_with(|ch: char| ch.is_alphabetic() || ch == '_'))
        .collect()
}

/// Whether every segment of `path` is declared in the one before.
fn resolves(index: &Index, path: &str) -> bool {
    let segs: Vec<&str> = path.split("::").collect();
    if FOREIGN.contains(&segs[0]) {
        return true;
    }
    let mut owner = match segs[0] {
        "crate" | "self" | "super" => None,
        first if index.known(first) => Some(first),
        _ => return false,
    };
    for seg in &segs[1..] {
        let ok = match owner {
            None => index.known(seg),
            Some(o) => index.has_member(o, seg),
        };
        if !ok {
            return false;
        }
        owner = Some(seg);
    }
    true
}

/// `(line, code span)` for every inline code span outside fenced blocks; a
/// span may wrap onto the next line of its paragraph.
fn code_spans(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut open: Option<(usize, String)> = None;
    for (n, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            open = None;
            continue;
        }
        if fenced || line.trim().is_empty() {
            open = None;
            continue;
        }
        if let Some((_, span)) = &mut open {
            span.push(' ');
        }
        for ch in line.chars() {
            match (ch, &mut open) {
                ('`', Some(_)) => out.extend(open.take()),
                ('`', None) => open = Some((n + 1, String::new())),
                (_, Some((_, span))) => span.push(ch),
                (_, None) => {}
            }
        }
    }
    out
}

/// The backticked Rust paths of `doc` that do not resolve, as
/// `name:line: path`.
fn stale_paths(name: &str, doc: &str, index: &Index) -> Vec<String> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut stale = Vec::new();
    for (line, span) in code_spans(doc) {
        if lines[line - 1].to_lowercase().contains("until pr ") {
            continue;
        }
        for path in span_paths(&span) {
            if !resolves(index, &path) {
                stale.push(format!("{name}:{line}: `{path}`"));
            }
        }
    }
    stale
}

// ---------------------------------------------------------------------------
// (b) Markdown links
// ---------------------------------------------------------------------------

/// GitHub's anchor for a heading: lowercase, punctuation dropped, spaces as
/// hyphens.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .to_lowercase()
        .chars()
        .filter(|&ch| ch.is_alphanumeric() || ch == ' ' || ch == '-' || ch == '_')
        .map(|ch| if ch == ' ' { '-' } else { ch })
        .collect()
}

/// The headings of a markdown document, outside fenced blocks.
fn headings(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            let text = line.trim_start_matches('#');
            if text.starts_with(' ') {
                out.push(text.trim().trim_end_matches('#').trim().to_string());
            }
        }
    }
    out
}

/// Every anchor a document's headings make, duplicates numbered.
fn anchors(doc: &str) -> HashSet<String> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut out = HashSet::new();
    for heading in headings(doc) {
        let base = slug(&heading.replace('`', ""));
        let n = seen.entry(base.clone()).or_insert(0);
        out.insert(if *n == 0 {
            base.clone()
        } else {
            format!("{base}-{n}")
        });
        *n += 1;
    }
    out
}

/// The link targets of a markdown document, outside fenced blocks and code
/// spans.
fn link_targets(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (n, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let prose: String = line.split('`').step_by(2).collect::<Vec<_>>().join("``");
        let mut rest = prose.as_str();
        while let Some(at) = rest.find("](") {
            let tail = &rest[at + 2..];
            let end = tail.find(')').unwrap_or(tail.len());
            out.push((n + 1, tail[..end].trim().to_string()));
            rest = &tail[end..];
        }
    }
    out
}

/// The relative links of `doc` (at `path` under the repository root) whose
/// file or heading anchor does not exist.
fn dead_links(path: &str, doc: &str) -> Vec<String> {
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    let mut dead = Vec::new();
    for (line, target) in link_targets(doc) {
        if target.contains("://") || target.starts_with("mailto:") {
            continue;
        }
        let (file, anchor) = match target.split_once('#') {
            Some((file, anchor)) => (file, Some(anchor)),
            None => (target.as_str(), None),
        };
        let file_path = root().join(dir).join(file);
        let text = if file.is_empty() {
            Some(doc.to_string())
        } else {
            fs::read_to_string(&file_path).ok()
        };
        if !file.is_empty() && !file_path.exists() {
            dead.push(format!("{path}:{line}: ({target}): no such file"));
        } else if let Some(anchor) = anchor {
            if !text.is_some_and(|t| anchors(&t).contains(anchor)) {
                dead.push(format!("{path}:{line}: ({target}): no such heading"));
            }
        }
    }
    dead
}

// ---------------------------------------------------------------------------
// (c) `§` references and document names in the sources
// ---------------------------------------------------------------------------

/// The `§` references and `*.md` names in `text` (from the file `name`) that
/// do not resolve against the documents under the repository root.
fn dead_references(name: &str, text: &str) -> Vec<String> {
    let path_char = |ch: char| ch.is_alphanumeric() || matches!(ch, '_' | '.' | '/' | '-');
    let mut dead = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let at = format!("{name}:{}", n + 1);
        let mut rest = line;
        while let Some(i) = rest.find(".md") {
            let start = rest[..i]
                .rfind(|ch: char| !path_char(ch))
                .map_or(0, |p| p + 1);
            let doc = &rest[start..i + 3];
            let after = &rest[i + 3..];
            rest = after;
            if after.starts_with(|ch: char| ch.is_alphanumeric()) || doc == ".md" {
                continue;
            }
            let Ok(body) = fs::read_to_string(root().join(doc)) else {
                dead.push(format!("{at}: {doc}: no such document"));
                continue;
            };
            let Some(reference) = after.strip_prefix(" § ") else {
                continue;
            };
            let heading = reference
                .strip_prefix('"')
                .and_then(|r| r.split_once('"'))
                .map(|(heading, _)| heading);
            match heading {
                None => dead.push(format!("{at}: {doc} § must quote its heading on one line")),
                Some(heading) if !headings(&body).iter().any(|h| h == heading) => {
                    dead.push(format!("{at}: {doc} § \"{heading}\": no such heading"))
                }
                Some(_) => {}
            }
        }
    }
    dead
}

fn report(what: &str, failures: Vec<String>) {
    assert!(failures.is_empty(), "{what}:\n{}", failures.join("\n"));
}

#[test]
fn documented_rust_paths_resolve() {
    let mut stale = Vec::new();
    for doc in DOCS {
        stale.extend(stale_paths(doc, &read(&root().join(doc)), &INDEX));
    }
    report(
        "backticked Rust paths that name nothing in the source",
        stale,
    );
}

#[test]
fn markdown_links_resolve() {
    let mut dead = Vec::new();
    for doc in DOCS {
        dead.extend(dead_links(doc, &read(&root().join(doc))));
    }
    report("relative links to no file or heading", dead);
}

#[test]
fn section_references_resolve() {
    let mut sources = Vec::new();
    for dir in SOURCE_ROOTS {
        files(&root().join(dir), &["rs", "toml"], &mut sources);
    }
    if root().join(SKILL).exists() {
        sources.push(root().join(SKILL));
    }
    let mut dead = Vec::new();
    for path in sources {
        let name = path.strip_prefix(root()).unwrap().display().to_string();
        dead.extend(dead_references(&name, &read(&path)));
    }
    report("document references that do not resolve", dead);
}

#[test]
fn planted_stale_names_are_reported() {
    let doc = "`Simulator::try_run_with_offered_load` and `PathOracle::min_ports` resolve;\n\
               `Simulator::run_with_offered_load` went in PR 34, and\n\
               `PathOracle::min_ports_u8` was renamed in PR 32.\n\
               Until PR 34 `Simulator::run_with_offered_load` was one (a historical line\n\
               that says until PR 34 is skipped).\n\
               ```\nSimulator::not_checked_in_a_fence\n```\n";
    assert_eq!(
        stale_paths("planted", doc, &INDEX),
        [
            "planted:2: `Simulator::run_with_offered_load`",
            "planted:3: `PathOracle::min_ports_u8`",
        ]
    );
    // Each segment must be a member of the one before, and a brace group
    // expands.
    for (path, ok) in [
        ("spectralfly_simnet::SimError::Deadlock", true),
        ("simnet::engine::SimError", true),
        ("SimConfig::seed", true),
        ("DistanceMatrix::MAX_DISTANCE", true),
        ("graph::layout", true),
        ("SimConfig::deadline", false),
        ("spectralfly_graph::Simulator", false),
        ("NextHopTable::row", false),
    ] {
        assert_eq!(resolves(&INDEX, path), ok, "{path}");
    }
    assert_eq!(
        span_paths("graph::{metrics, spectral}"),
        ["graph::metrics", "graph::spectral"]
    );
}

#[test]
fn planted_dead_anchor_is_reported() {
    let doc = "[ok](docs/ARCHITECTURE.md#the-layer-cake), [ok](#top), [ok](Cargo.toml)\n\
               [dead](README.md#engine-performance)\n\
               [dead](NOTES.md#parallel-sweeps)\n\
               # Top\n";
    assert_eq!(
        dead_links("planted.md", doc),
        [
            "planted.md:2: (README.md#engine-performance): no such heading",
            "planted.md:3: (NOTES.md#parallel-sweeps): no such file",
        ]
    );
    assert_eq!(
        slug("Appendix A — the machine room, the benchmark"),
        "appendix-a--the-machine-room-the-benchmark"
    );
}

#[test]
fn planted_dead_section_reference_is_reported() {
    let text = "// docs/ARCHITECTURE.md § \"The layer cake\" resolves.\n\
                // docs/ARCHITECTURE.md § \"The event core\" is a stale prefix.\n\
                // NOTES.md § \"Parallel sweeps\" names a missing document.\n\
                // docs/ARCHITECTURE.md § \"Spec grammar\n";
    assert_eq!(
        dead_references("planted.rs", text),
        [
            "planted.rs:2: docs/ARCHITECTURE.md § \"The event core\": no such heading",
            "planted.rs:3: NOTES.md: no such document",
            "planted.rs:4: docs/ARCHITECTURE.md § must quote its heading on one line",
        ]
    );
}
