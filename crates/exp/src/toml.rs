//! A minimal TOML-subset reader/writer for manifests and baselines.
//!
//! The container this workspace builds in has no crates.io access, so — like
//! the `vendor/` shims — the manifest format is served by a small exact parser
//! instead of the `toml` crate. The accepted subset is deliberately plain:
//!
//! * table headers `[a.b]` (segments bare or `"quoted"`),
//! * `key = value` pairs (keys bare or `"quoted"`),
//! * values: basic strings with `\" \\ \n \t` escapes, booleans, integers
//!   (decimal or `0x` hex), floats, and single-line arrays of those,
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
    /// A boolean.
    Bool(bool),
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
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    /// Render the value back to TOML source.
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => render_str(s),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => render_float(*f),
            Value::Bool(b) => b.to_string(),
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

/// Render a key or table name: bare where it can be, quoted otherwise.
pub fn render_key(s: &str) -> String {
    if is_bare_key(s) {
        s.to_string()
    } else {
        render_str(s)
    }
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
        let trimmed = strip_comment(raw_line);
        let lead = raw_line.len() - raw_line.trim_start().len();
        let at = line_start + lead;
        let trimmed = trimmed.trim();
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
        let Some(eq) = find_top_level_eq(trimmed) else {
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

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escape => escape = true,
            '"' if !escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escape = false,
        }
    }
    line
}

/// Find the `=` separating key from value (keys may be quoted and contain `=`).
fn find_top_level_eq(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str && !escape => escape = true,
            '"' if !escape => {
                in_str = !in_str;
                escape = false;
            }
            '=' if !in_str => return Some(i),
            _ => escape = false,
        }
    }
    None
}

fn parse_path(header: &str, line: usize, at: usize) -> Result<Vec<String>, TomlError> {
    let mut segments = Vec::new();
    for seg in split_dotted(header) {
        segments.push(parse_key(seg.trim(), line, at)?);
    }
    if segments.is_empty() {
        return Err(err(line, at, "empty table header"));
    }
    Ok(segments)
}

/// Split a dotted path at dots outside quotes.
fn split_dotted(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_str = false;
    let mut escape = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str && !escape => escape = true,
            '"' if !escape => {
                in_str = !in_str;
                escape = false;
            }
            '.' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escape = false,
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_key(src: &str, line: usize, at: usize) -> Result<String, TomlError> {
    if src.starts_with('"') {
        match parse_value(src, line, at)? {
            Value::Str(s) => Ok(s),
            _ => unreachable!("quoted key parses as a string"),
        }
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
        let mut items = Vec::new();
        for item in split_top_level_commas(body) {
            let item = item.trim();
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
    match src {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(hex) = src.strip_prefix("0x").or_else(|| src.strip_prefix("0X")) {
        return i64::from_str_radix(&hex.replace('_', ""), 16)
            .map(Value::Int)
            .map_err(|e| err(line, at, format!("bad hex integer {src:?}: {e}")));
    }
    let plain = src.replace('_', "");
    if !plain.contains('.') && !plain.contains('e') && !plain.contains('E') {
        if let Ok(i) = plain.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(f) = plain.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(
        line,
        at,
        format!("unrecognized value {src:?} (expected string, number, boolean, or array)"),
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

/// Split at commas outside quotes (array elements may be quoted strings with
/// commas inside).
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_str = false;
    let mut escape = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str && !escape => escape = true,
            '"' if !escape => {
                in_str = !in_str;
                escape = false;
            }
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escape = false,
        }
    }
    out.push(&s[start..]);
    out
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
flag = true

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
        assert_eq!(m.get("flag"), Some(&Value::Bool(true)));
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
            Value::Bool(false),
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
        let doc = parse("[results]\n\"exp/a=1,b=2\" = \"0xdead\"\n").unwrap();
        let t = doc.table("results").unwrap();
        assert_eq!(t.get("exp/a=1,b=2"), Some(&Value::Str("0xdead".into())));
        let doc = parse("[structure.\"table-1\"]\nseed = 1\n").unwrap();
        assert!(doc.table("structure.table-1").is_some());
    }
}
