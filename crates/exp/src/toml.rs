//! A minimal TOML-subset reader/writer for manifests and baselines.
//!
//! The container this workspace builds in has no crates.io access, so — like
//! the `vendor/` shims — the manifest format is served by a small exact parser
//! instead of the `toml` crate. The accepted subset is what the manifests,
//! their baselines and the benchmark workloads use, and no more:
//!
//! * table headers `[a.b]` of bare segments,
//! * `key = value` pairs (keys bare or `"quoted"`),
//! * values: basic strings with `\" \\ \n \t` escapes, integers (decimal
//!   or `0x` hex), floats, and single-line arrays of those,
//! * `#` comments and blank lines.
//!
//! Errors are typed and carry the **line and byte offset** of the offending
//! text, mirroring the fault-spec parse errors
//! ([`spectralfly_simnet::fault::FaultError::BadSpec`]), so a manifest typo
//! points at itself instead of at the runner.

/// A parsed TOML-subset value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer (decimal or `0x` hex in the source).
    Int(i64),
    /// A float.
    Float(f64),
    /// A single-line array of scalar values.
    Array(Vec<Value>),
}

impl Value {
    /// The value's type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Array(_) => "array",
        }
    }

    /// Render the value back to TOML source.
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => render_str(s),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => render_float(*f),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }
}

/// Whether `s` can stand unquoted as a key or table name: `[A-Za-z0-9_-]+`.
pub fn is_bare_key(s: &str) -> bool {
    let bare = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    !s.is_empty() && s.chars().all(bare)
}

/// Render a string as a quoted TOML basic string.
pub fn render_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float so it re-parses as a float (always keeps a decimal point
/// or exponent), bit-exactly for the values the manifests use.
pub fn render_float(f: f64) -> String {
    let s = format!("{f}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// A `key = value` pair with the byte offset of its key in the source.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// The key (unquoted form).
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// Byte offset of the key within the document (for error reporting).
    pub offset: usize,
    /// 1-based source line of the key.
    pub line: usize,
}

/// One `[a.b]` table: its dotted path and its entries, in source order.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// The header path segments (`["experiment", "fig6"]` for
    /// `[experiment.fig6]`). The implicit root table has an empty path.
    pub path: Vec<String>,
    /// The table's `key = value` entries in source order.
    pub entries: Vec<Entry>,
    /// Byte offset of the header within the document.
    pub offset: usize,
    /// 1-based source line of the header.
    pub line: usize,
}

impl Table {
    /// Look up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }

    /// The table path rendered as `a.b`.
    pub fn path_str(&self) -> String {
        self.path.join(".")
    }
}

/// A parsed document: the ordered list of tables (the implicit root table
/// first, when it has entries).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    /// Tables in source order.
    pub tables: Vec<Table>,
}

impl Document {
    /// The first table with exactly this dotted path, if any.
    pub fn table(&self, path: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.path_str() == path)
    }

    /// Every table whose path starts with `prefix.` (one extra segment),
    /// e.g. `tables_under("experiment")` yields `[experiment.fig6]`,
    /// `[experiment.fig8]`, … in source order.
    pub fn tables_under<'d>(&'d self, prefix: &str) -> Vec<&'d Table> {
        self.tables
            .iter()
            .filter(|t| t.path.len() == 2 && t.path[0] == prefix)
            .collect()
    }
}

/// A parse error, pointing at the offending text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// Byte offset of the offending text within the document.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TOML parse error at line {} (byte {}): {}",
            self.line, self.offset, self.reason
        )
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, offset: usize, reason: impl Into<String>) -> TomlError {
    TomlError {
        line,
        offset,
        reason: reason.into(),
    }
}

/// Parse a document.
pub fn parse(src: &str) -> Result<Document, TomlError> {
    let mut doc = Document::default();
    let mut current = Table {
        path: Vec::new(),
        entries: Vec::new(),
        offset: 0,
        line: 1,
    };
    let mut offset = 0usize;
    for (idx, raw_line) in src.split('\n').enumerate() {
        let line_no = idx + 1;
        let line_start = offset;
        offset += raw_line.len() + 1;
        let lead = raw_line.len() - raw_line.trim_start().len();
        let at = line_start + lead;
        let comment = unquoted(raw_line, '#').next();
        let trimmed = raw_line[..comment.unwrap_or(raw_line.len())].trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return Err(err(line_no, at, "table header is missing its closing ']'"));
            };
            if !current.path.is_empty() || !current.entries.is_empty() {
                doc.tables.push(std::mem::replace(
                    &mut current,
                    Table {
                        path: Vec::new(),
                        entries: Vec::new(),
                        offset: at,
                        line: line_no,
                    },
                ));
            }
            current.path = parse_path(header, line_no, at)?;
            current.offset = at;
            current.line = line_no;
            if doc.tables.iter().any(|t| t.path == current.path) {
                return Err(err(
                    line_no,
                    at,
                    format!("duplicate table [{}]", current.path.join(".")),
                ));
            }
            continue;
        }
        let Some(eq) = unquoted(trimmed, '=').next() else {
            return Err(err(
                line_no,
                at,
                format!("expected `key = value` or a [table] header, got {trimmed:?}"),
            ));
        };
        let key_src = trimmed[..eq].trim();
        let val_src = trimmed[eq + 1..].trim();
        let key = parse_key(key_src, line_no, at)?;
        if current.entries.iter().any(|e| e.key == key) {
            return Err(err(line_no, at, format!("duplicate key {key:?}")));
        }
        let value = parse_value(val_src, line_no, at)?;
        current.entries.push(Entry {
            key,
            value,
            offset: at,
            line: line_no,
        });
    }
    if !current.path.is_empty() || !current.entries.is_empty() {
        doc.tables.push(current);
    }
    Ok(doc)
}

/// Byte offsets of every `sep` in `s` that lies outside a `"quoted"` string
/// (a `\"` escape does not close one): where a comment starts, where a key
/// ends, where an array item ends.
fn unquoted(s: &str, sep: char) -> impl Iterator<Item = usize> + '_ {
    let (mut in_str, mut escape) = (false, false);
    s.char_indices().filter_map(move |(i, c)| {
        let hit = c == sep && !in_str;
        match c {
            '\\' if in_str && !escape => escape = true,
            '"' if !escape => in_str = !in_str,
            _ => escape = false,
        }
        hit.then_some(i)
    })
}

fn parse_path(header: &str, line: usize, at: usize) -> Result<Vec<String>, TomlError> {
    let segments: Vec<String> = header.split('.').map(str::to_string).collect();
    match segments.iter().find(|s| !is_bare_key(s)) {
        None => Ok(segments),
        Some(bad) => Err(err(
            line,
            at,
            format!(
                "invalid table name {bad:?} in [{header}]: header segments are bare [A-Za-z0-9_-]+"
            ),
        )),
    }
}

fn parse_key(src: &str, line: usize, at: usize) -> Result<String, TomlError> {
    if src.starts_with('"') {
        parse_string(src, line, at)
    } else if is_bare_key(src) {
        Ok(src.to_string())
    } else {
        Err(err(
            line,
            at,
            format!("invalid key {src:?}: bare keys are [A-Za-z0-9_-]+, others must be quoted"),
        ))
    }
}

fn parse_value(src: &str, line: usize, at: usize) -> Result<Value, TomlError> {
    let src = src.trim();
    if src.is_empty() {
        return Err(err(line, at, "missing value after `=`"));
    }
    if let Some(body) = src.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(err(
                line,
                at,
                "array is missing its closing ']' (arrays must be single-line)",
            ));
        };
        let (mut items, mut start) = (Vec::new(), 0);
        for end in unquoted(body, ',').chain([body.len()]) {
            let item = body[start..end].trim();
            start = end + 1;
            if item.is_empty() {
                continue;
            }
            let v = parse_value(item, line, at)?;
            if matches!(v, Value::Array(_)) {
                return Err(err(line, at, "nested arrays are not supported"));
            }
            items.push(v);
        }
        return Ok(Value::Array(items));
    }
    if src.starts_with('"') {
        return parse_string(src, line, at).map(Value::Str);
    }
    if let Some(hex) = src.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16)
            .map(Value::Int)
            .map_err(|e| err(line, at, format!("bad hex integer {src:?}: {e}")));
    }
    if !src.contains(['.', 'e', 'E']) {
        if let Ok(i) = src.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(f) = src.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(
        line,
        at,
        format!("unrecognized value {src:?} (expected string, number, or array)"),
    ))
}

fn parse_string(src: &str, line: usize, at: usize) -> Result<String, TomlError> {
    let inner = src
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, at, format!("unterminated string {src:?}")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(err(
                line,
                at,
                format!("unescaped '\"' inside string {src:?}"),
            ));
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(err(
                    line,
                    at,
                    format!("unsupported escape \\{} in {src:?}", other.unwrap_or(' ')),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_scalars() {
        let doc = parse(
            r#"
# a comment
top = "level"

[manifest]
name = "smoke"   # trailing comment
count = 42
hexseed = 0x5EED
ratio = 1.5

[experiment.fig6]
loads = [0.1, 0.5]
names = ["a", "b,c"]
empty = []
"#,
        )
        .unwrap();
        assert_eq!(doc.tables.len(), 3);
        assert_eq!(doc.tables[0].path, Vec::<String>::new());
        assert_eq!(doc.tables[0].get("top"), Some(&Value::Str("level".into())));
        let m = doc.table("manifest").unwrap();
        assert_eq!(m.get("name"), Some(&Value::Str("smoke".into())));
        assert_eq!(m.get("count"), Some(&Value::Int(42)));
        assert_eq!(m.get("hexseed"), Some(&Value::Int(0x5EED)));
        assert_eq!(m.get("ratio"), Some(&Value::Float(1.5)));
        let e = doc.table("experiment.fig6").unwrap();
        assert_eq!(
            e.get("loads"),
            Some(&Value::Array(vec![Value::Float(0.1), Value::Float(0.5)]))
        );
        assert_eq!(
            e.get("names"),
            Some(&Value::Array(vec![
                Value::Str("a".into()),
                Value::Str("b,c".into())
            ]))
        );
        assert_eq!(e.get("empty"), Some(&Value::Array(vec![])));
        assert_eq!(doc.tables_under("experiment").len(), 1);
    }

    #[test]
    fn errors_carry_line_and_offset() {
        let src = "a = 1\nb = @nonsense\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(&src[e.offset..e.offset + 1], "b");
        assert!(e.to_string().contains("line 2"), "{e}");

        let e = parse("[unclosed\n").unwrap_err();
        assert!(e.reason.contains("closing ']'"), "{e}");

        let e = parse("[t]\nx = 1\nx = 2\n").unwrap_err();
        assert!(e.reason.contains("duplicate key"), "{e}");

        let e = parse("[t]\na=1\n[t]\n").unwrap_err();
        assert!(e.reason.contains("duplicate table"), "{e}");

        let e = parse("k = \"open\n").unwrap_err();
        assert!(e.reason.contains("unterminated"), "{e}");
    }

    #[test]
    fn values_render_back_to_parseable_source() {
        let cases = vec![
            Value::Str("with \"quotes\" and \\ and\nnewline".into()),
            Value::Int(-7),
            Value::Int(0x5EED),
            Value::Float(0.25),
            Value::Float(3.0),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        ];
        for v in cases {
            let src = format!("k = {}\n", v.render());
            let doc = parse(&src).unwrap();
            assert_eq!(doc.tables[0].get("k"), Some(&v), "{src}");
        }
    }

    #[test]
    fn quoted_keys_and_dotted_headers() {
        let doc = parse("[results]\n\"exp/a=1,b=2 # x\" = \"0xdead\" # c\n").unwrap();
        let t = doc.table("results").unwrap();
        assert_eq!(t.get("exp/a=1,b=2 # x"), Some(&Value::Str("0xdead".into())));
        let doc = parse("[structure.table-1]\nseed = 1\n").unwrap();
        assert_eq!(doc.table("structure.table-1").unwrap().path.len(), 2);
        // Header segments are bare: quoted, empty or spaced ones are refused.
        for header in ["[structure.\"table-1\"]", "[]", "[a..b]", "[a. b]"] {
            let e = parse(&format!("{header}\nseed = 1\n")).unwrap_err();
            assert!(e.reason.contains("invalid table name"), "{header}: {e}");
        }
    }

    /// Syntax no manifest, baseline or workload uses is refused, not read.
    #[test]
    fn unused_syntax_is_rejected() {
        for value in ["true", "false", "1_000", "0X5EED", "0x5E_ED", "1_0.5"] {
            let e = parse(&format!("k = {value}\n")).unwrap_err();
            assert!(
                e.reason.contains("hex integer") || e.reason.contains("unrecognized value"),
                "{value}: {e}"
            );
        }
    }
}
