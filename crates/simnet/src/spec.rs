//! The one spec grammar: every pattern, job-mix, fault-plan, fault-script and
//! topology string in the repository is tokenized and parsed here, and the
//! registries consume the resulting AST. The grammar, the three combinators
//! (`+` composition, `x N` repetition, `@ placement`), the unit suffixes and
//! the error shape are specified once, in `docs/ARCHITECTURE.md` under
//! "Spec grammar".
//!
//! Parsing is strict — balanced parentheses, no empty argument, nothing after
//! the last term — and total: every input yields a tree or a [`SpecError`]
//! naming the byte offset (always a char boundary) where it went wrong.

use std::fmt;

/// A spec string that does not follow the grammar: which string, where, why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The whole spec string as supplied.
    pub spec: String,
    /// Byte offset into `spec` of the offending token (a char boundary).
    pub offset: usize,
    /// What was wrong there.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed spec {:?} (at byte {}): {}",
            self.spec, self.offset, self.reason
        )
    }
}

impl std::error::Error for SpecError {}

/// The registry key of a name: trimmed, lowercased, `_` and spaces mapped to
/// `-` — so `UGAL_L`, `ugal l` and `ugal-l` select the same entry.
pub fn normalize(name: &str) -> String {
    name.trim()
        .chars()
        .map(|c| match c {
            '_' | ' ' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect()
}

/// A numeric argument, with its optional unit suffix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Num<'a> {
    /// The literal as written, without the unit (`"0.05"`, `"1e3"`) — parse
    /// this for exact integers.
    pub text: &'a str,
    /// `text` as a float (always finite).
    pub value: f64,
    /// The unit suffix as written (`"us"`, `"khz"`); empty when absent.
    pub unit: &'a str,
    /// Byte offset of the literal in the spec.
    pub offset: usize,
}

/// One argument of a [`Call`].
#[derive(Clone, Debug, PartialEq)]
pub enum Arg<'a> {
    /// A number, possibly unit-suffixed.
    Num(Num<'a>),
    /// A nested spec; a bare word is a call without arguments.
    Call(Call<'a>),
}

impl Arg<'_> {
    /// Byte offset of the argument in the spec.
    pub fn offset(&self) -> usize {
        match self {
            Arg::Num(n) => n.offset,
            Arg::Call(c) => c.start,
        }
    }

    /// The value of a plain (unit-less) number; `None` for anything else.
    pub fn number(&self) -> Option<f64> {
        match self {
            Arg::Num(n) if n.unit.is_empty() => Some(n.value),
            _ => None,
        }
    }
}

/// `name` or `name(arg, …)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Call<'a> {
    /// The spec string this call was parsed from.
    pub src: &'a str,
    /// The name as written (see [`Call::key`] for the registry key).
    pub name: &'a str,
    /// The arguments, in order.
    pub args: Vec<Arg<'a>>,
    /// Byte offset of the name's first byte.
    pub start: usize,
    /// Byte offset one past the closing `)` (or the name, without arguments).
    pub end: usize,
}

impl<'a> Call<'a> {
    /// The call exactly as written in the spec.
    pub fn text(&self) -> &'a str {
        &self.src[self.start..self.end]
    }

    /// The normalized name — the registry key.
    pub fn key(&self) -> String {
        normalize(self.name)
    }

    /// A [`SpecError`] at `offset` of the spec this call belongs to.
    pub fn error(&self, offset: usize, reason: impl Into<String>) -> SpecError {
        SpecError {
            spec: self.src.to_string(),
            offset,
            reason: reason.into(),
        }
    }

    /// The arguments as plain numbers; a nested spec or a unit-suffixed
    /// number is an error at its offset.
    pub fn numbers(&self) -> Result<Vec<f64>, SpecError> {
        let plain = |a: &Arg| {
            a.number()
                .ok_or_else(|| self.error(a.offset(), "expected a plain number"))
        };
        self.args.iter().map(plain).collect()
    }
}

/// One `+`-separated term: `call [x N] [@ placement]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Term<'a> {
    /// What the term names.
    pub call: Call<'a>,
    /// The `x N` repetition count (tenant ranks, topology concentration).
    pub times: Option<u64>,
    /// The `@ placement` call.
    pub at: Option<Call<'a>>,
}

/// Parse a composed spec: `term + term + …`.
pub fn parse(src: &str) -> Result<Vec<Term<'_>>, SpecError> {
    sequence(src, b'+', |p| {
        let call = p.call(0)?;
        let times = p.peek_times()?.map(|(count, after)| {
            *p = after;
            count
        });
        let at = match p.accept(b'@')? {
            Some(_) => Some(p.call(0)?),
            None => None,
        };
        Ok(Term { call, times, at })
    })
}

/// Parse a comma-separated list of `name(arg, …)` specs (a CLI axis value).
pub fn parse_list(src: &str) -> Result<Vec<Call<'_>>, SpecError> {
    sequence(src, b',', |p| p.call(0))
}

/// Parse a single `name(arg, …)` spec — no combinators, nothing after it.
pub fn parse_call(src: &str) -> Result<Call<'_>, SpecError> {
    let mut p = Parser { src, pos: 0 };
    let call = p.call(0)?;
    match p.next()? {
        (_, Tok::End) => Ok(call),
        (at, _) => Err(p.error(at, "expected the end of the spec")),
    }
}

/// `item (sep item)*` up to the end of `src`.
fn sequence<'a, T>(
    src: &'a str,
    sep: u8,
    mut item: impl FnMut(&mut Parser<'a>) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let mut p = Parser { src, pos: 0 };
    let mut items = Vec::new();
    loop {
        items.push(item(&mut p)?);
        match p.next()? {
            (_, Tok::Punct(c)) if c == sep => {}
            (_, Tok::End) => return Ok(items),
            (at, _) => {
                let sep = sep as char;
                return Err(p.error(at, format!("expected '{sep}' or the end of the spec")));
            }
        }
    }
}

/// Nested calls deeper than this are rejected, bounding parser recursion.
const MAX_DEPTH: usize = 16;

#[derive(Clone, Copy)]
enum Tok<'a> {
    Word,
    Num(Num<'a>),
    /// One of `( ) , + @`.
    Punct(u8),
    End,
}

/// End of the run of bytes satisfying `keep` that starts at `from`.
fn scan(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    from + bytes[from..].iter().take_while(|&&b| keep(b)).count()
}

/// Tokenizer and recursive-descent parser over one spec string. `Copy`, so
/// lookahead is "advance a copy, commit it if it fits". `pos` only ever moves
/// over ASCII bytes and therefore always sits on a char boundary.
#[derive(Clone, Copy)]
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, offset: usize, reason: impl Into<String>) -> SpecError {
        SpecError {
            spec: self.src.to_string(),
            offset,
            reason: reason.into(),
        }
    }

    /// Consume the next token, returning it with its byte offset; the token's
    /// text is `src[offset..pos]`.
    fn next(&mut self) -> Result<(usize, Tok<'a>), SpecError> {
        let bytes = self.src.as_bytes();
        let start = scan(bytes, self.pos, |b| b.is_ascii_whitespace());
        self.pos = start;
        let Some(&first) = bytes.get(start) else {
            return Ok((start, Tok::End));
        };
        let tok = match first {
            b'(' | b')' | b',' | b'+' | b'@' => {
                self.pos += 1;
                Tok::Punct(first)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                self.pos = scan(bytes, start, |b| {
                    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
                });
                Tok::Word
            }
            b if b.is_ascii_digit() || b == b'.' || b == b'-' => {
                let mut end = scan(bytes, start + usize::from(b == b'-'), |b| {
                    b.is_ascii_digit() || b == b'.'
                });
                if matches!(bytes.get(end), Some(b'e' | b'E')) {
                    let sign = usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
                    if bytes.get(end + 1 + sign).is_some_and(u8::is_ascii_digit) {
                        end = scan(bytes, end + 1 + sign, |b| b.is_ascii_digit());
                    }
                }
                self.pos = scan(bytes, end, |b| b.is_ascii_alphabetic());
                let text = &self.src[start..end];
                let Some(value) = text.parse::<f64>().ok().filter(|v| v.is_finite()) else {
                    return Err(self.error(start, "malformed number"));
                };
                Tok::Num(Num {
                    text,
                    value,
                    unit: &self.src[end..self.pos],
                    offset: start,
                })
            }
            _ => return Err(self.error(start, "unexpected character")),
        };
        Ok((start, tok))
    }

    /// Consume the next token if it is the punctuation `want`.
    fn accept(&mut self, want: u8) -> Result<Option<usize>, SpecError> {
        let mut ahead = *self;
        match ahead.next()? {
            (at, Tok::Punct(c)) if c == want => {
                *self = ahead;
                Ok(Some(at))
            }
            _ => Ok(None),
        }
    }

    /// If `x N` / `xN` comes next: the count, and the parser advanced past it.
    fn peek_times(&self) -> Result<Option<(u64, Parser<'a>)>, SpecError> {
        let mut ahead = *self;
        let (at, Tok::Word) = ahead.next()? else {
            return Ok(None);
        };
        let digits = match self.src[at..ahead.pos].strip_prefix(['x', 'X']) {
            Some("") => match ahead.next()? {
                (_, Tok::Num(n)) if n.unit.is_empty() => n.text,
                (at, _) => return Err(self.error(at, "expected a count after 'x'")),
            },
            Some(rest) if rest.bytes().all(|b| b.is_ascii_digit()) => rest,
            _ => return Ok(None),
        };
        let count = digits
            .parse()
            .map_err(|_| self.error(at, "the count after 'x' is not an integer"))?;
        Ok(Some((count, ahead)))
    }

    fn call(&mut self, depth: usize) -> Result<Call<'a>, SpecError> {
        let (start, first) = self.next()?;
        if !matches!(first, Tok::Word) {
            return Err(self.error(start, "expected a name"));
        }
        // A name may be several words (`bit shuffle` is `bit-shuffle`); an
        // `x N` repetition ends it.
        let mut ahead = *self;
        while matches!(ahead.next()?, (_, Tok::Word)) && self.peek_times()?.is_none() {
            *self = ahead;
        }
        let mut call = Call {
            src: self.src,
            name: &self.src[start..self.pos],
            args: Vec::new(),
            start,
            end: self.pos,
        };
        let Some(open) = self.accept(b'(')? else {
            return Ok(call);
        };
        if depth == MAX_DEPTH {
            return Err(self.error(open, format!("specs nest at most {MAX_DEPTH} deep")));
        }
        loop {
            let mut ahead = *self;
            call.args.push(match ahead.next()? {
                (_, Tok::Num(n)) => {
                    *self = ahead;
                    Arg::Num(n)
                }
                (_, Tok::Word) => Arg::Call(self.call(depth + 1)?),
                (at, Tok::Punct(b',' | b')')) => return Err(self.error(at, "empty argument")),
                (at, _) => return Err(self.error(at, "expected an argument")),
            });
            match self.next()? {
                (_, Tok::Punct(b',')) => {}
                (_, Tok::Punct(b')')) => {
                    call.end = self.pos;
                    return Ok(call);
                }
                (at, Tok::End) => {
                    return Err(
                        self.error(at, format!("missing ')' to close the '(' at byte {open}"))
                    )
                }
                (at, _) => return Err(self.error(at, "expected ',' or ')'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_nest_and_keep_their_spans() {
        let src = " at(5us, Links(0.05)) + churn(200khz, 8us)";
        let terms = parse(src).unwrap();
        assert_eq!(terms.len(), 2);
        let at = &terms[0].call;
        assert_eq!(
            (at.key().as_str(), at.text()),
            ("at", "at(5us, Links(0.05))")
        );
        let Arg::Num(t) = &at.args[0] else { panic!() };
        assert_eq!((t.text, t.value, t.unit, t.offset), ("5", 5.0, "us", 4));
        let Arg::Call(model) = &at.args[1] else {
            panic!()
        };
        assert_eq!((model.key().as_str(), model.start), ("links", 9));
        assert_eq!(model.numbers().unwrap(), vec![0.05]);
        assert_eq!(terms[1].call.text(), "churn(200khz, 8us)");
        // Unit-suffixed numbers are not plain numbers.
        assert_eq!(terms[1].call.numbers().unwrap_err().offset, 30);
    }

    #[test]
    fn numbers_lex_with_signs_exponents_and_units() {
        for (src, text, value, unit) in [
            ("f(-1)", "-1", -1.0, ""),
            ("f(.5)", ".5", 0.5, ""),
            ("f(1e3ns)", "1e3", 1000.0, "ns"),
            ("f(2.5E-3)", "2.5E-3", 0.0025, ""),
            ("f(1e+2GHz)", "1e+2", 100.0, "GHz"),
            ("f(10mhz)", "10", 10.0, "mhz"),
            ("f(5em)", "5", 5.0, "em"),
        ] {
            let call = parse_call(src).unwrap();
            let Arg::Num(n) = &call.args[0] else { panic!() };
            assert_eq!((n.text, n.value, n.unit), (text, value, unit), "{src}");
        }
        for src in ["f(-)", "f(.)", "f(1.2.3)", "f(1e999)", "f(--1)"] {
            assert_eq!(parse_call(src).unwrap_err().offset, 2, "{src}");
        }
    }

    #[test]
    fn combinators_attach_to_their_term() {
        let terms = parse("a x 4 + b(1) x8 @ random + c @group(4) + Bit Shuffle X2").unwrap();
        let shape: Vec<_> = terms
            .iter()
            .map(|t| (t.call.key(), t.times, t.at.as_ref().map(|p| p.text())))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("a".to_string(), Some(4), None),
                ("b".to_string(), Some(8), Some("random")),
                ("c".to_string(), None, Some("group(4)")),
                ("bit-shuffle".to_string(), Some(2), None),
            ]
        );
    }

    #[test]
    fn strict_rules_reject_with_the_offending_offset() {
        for (src, offset) in [
            ("", 0),
            ("  ", 2),
            ("f(", 2),
            ("f(1", 3),
            ("f(1))", 4),
            ("f(1,)", 4),
            ("f(,1)", 2),
            ("f()", 2),
            ("f(1)(2)", 4),
            ("f(1) g", 5),
            ("f + ", 4),
            ("f +  + g", 5),
            ("f x", 3),
            ("f x 2.5", 2),
            ("f(1) x2x3", 5),
            ("f x 2 x 3", 6),
            ("f @ p x 2", 6),
            ("f @", 3),
            ("(f)", 0),
            ("f(é)", 2),
            ("hé(1)", 1),
            ("f(1)\0", 4),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.offset, offset, "{src:?}: {err}");
            assert!(src.is_char_boundary(err.offset), "{src:?}");
            assert_eq!(err.spec, src);
        }
        let deep = "f(".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().reason.contains("nest"));
    }

    #[test]
    fn single_calls_and_lists_take_no_combinators() {
        assert_eq!(
            parse_call(" hotspot(8, 0.2) ").unwrap().text(),
            "hotspot(8, 0.2)"
        );
        assert_eq!(parse_call("a, b").unwrap_err().offset, 1);
        assert_eq!(parse_call("a + b").unwrap_err().offset, 2);
        assert_eq!(parse_call("a x 4").unwrap_err().offset, 2);
        let list = parse_list("hotspot(8,0.2), adversarial ,random").unwrap();
        let texts: Vec<_> = list.iter().map(Call::text).collect();
        assert_eq!(texts, vec!["hotspot(8,0.2)", "adversarial", "random"]);
        assert_eq!(parse_list("a,,b").unwrap_err().offset, 2);
    }

    #[test]
    fn names_fold_case_and_separators() {
        assert_eq!(normalize(" UGAL_L "), "ugal-l");
        assert_eq!(normalize("bit shuffle"), "bit-shuffle");
    }
}
