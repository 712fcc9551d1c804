//! The one spec grammar and the one registry behind it: every pattern,
//! job-mix, fault-plan, fault-script and topology string in the repository is
//! tokenized and parsed here, and every family of names those strings select
//! from — routing algorithms, traffic patterns, fault models, jobs, topology
//! families — is a [`Registry`] resolved here. The grammar, the three
//! combinators (`+` composition, `x N` repetition, `@ placement`), the unit
//! suffixes, the registry contract and the error shape are specified once, in
//! docs/ARCHITECTURE.md § "Spec grammar".
//!
//! Parsing is strict — balanced parentheses, no empty argument, nothing after
//! the last term — and total: every input yields a tree or a [`SpecError`]
//! naming the byte offset (always a char boundary) where it went wrong.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

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

// ---------------------------------------------------------------------------
// The registry every family of names is kept in, and the errors of resolving
// a spec against one.
// ---------------------------------------------------------------------------

/// How one family of registered names calls itself in error messages.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// The noun of `unknown <noun> "name"; registered: …`.
    pub unknown: &'static str,
    /// The noun of `invalid arguments for <noun> "name": …`.
    pub args: &'static str,
}

impl Family {
    /// A [`ResolveError::BadArgs`] of this family.
    pub fn bad_args<X>(&self, name: &str, reason: impl Into<String>) -> ResolveError<X> {
        ResolveError::BadArgs {
            family: self.args,
            name: name.to_string(),
            reason: reason.into(),
        }
    }

    /// A reader over the arguments `name` was called with.
    pub fn args<'a, A>(&self, name: &'a str, args: &'a [A]) -> ArgReader<'a, A> {
        ArgReader {
            family: *self,
            name,
            args,
        }
    }
}

/// Why a spec could not be resolved against a [`Registry`] — the one error
/// shape of every family. `X` is what a family can fail with beyond that
/// (fault plans add run feasibility); most have nothing, and [`Self::Other`]
/// is then uninhabited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolveError<X = Infallible> {
    /// The spec's base name is not in the registry.
    Unknown {
        /// The family's noun ([`Family::unknown`]).
        family: &'static str,
        /// The (normalized) name that failed to resolve.
        name: String,
        /// Primary names currently registered, for the error message.
        registered: Vec<String>,
    },
    /// The spec string does not follow the grammar.
    BadSpec(SpecError),
    /// The spec parsed but its arguments (or the context they are applied to)
    /// are invalid for the entry.
    BadArgs {
        /// The family's noun ([`Family::args`]).
        family: &'static str,
        /// The entry (or composition element) that rejected its arguments.
        name: String,
        /// What was wrong with them.
        reason: String,
    },
    /// A failure of the family's own.
    Other(X),
}

/// `unknown <family> "name"; registered: a, b, c` — the one spelling of a
/// registry miss.
pub(crate) fn write_unknown(
    f: &mut fmt::Formatter<'_>,
    family: &str,
    name: &str,
    registered: &[String],
) -> fmt::Result {
    let registered = registered.join(", ");
    write!(f, "unknown {family} {name:?}; registered: {registered}")
}

impl<X: fmt::Display> fmt::Display for ResolveError<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Unknown {
                family,
                name,
                registered,
            } => write_unknown(f, family, name, registered),
            ResolveError::BadSpec(e) => e.fmt(f),
            ResolveError::BadArgs {
                family,
                name,
                reason,
            } => write!(f, "invalid arguments for {family} {name:?}: {reason}"),
            ResolveError::Other(e) => e.fmt(f),
        }
    }
}

impl<X: fmt::Debug + fmt::Display> std::error::Error for ResolveError<X> {}

impl<X> From<SpecError> for ResolveError<X> {
    fn from(e: SpecError) -> Self {
        ResolveError::BadSpec(e)
    }
}

/// A string-keyed registry of `F`s (factories, usually): the one container
/// behind every family of names.
///
/// Names are matched after [`normalize`], so `UGAL-L`, `ugal_l` and `ugal l`
/// select the same entry. An alias is a redirect to a primary name and is not
/// listed by [`Registry::names`]. A name selects one entry for the registry's
/// lifetime: adding it again, as a primary name or as an alias, is a
/// [`DuplicateName`].
pub struct Registry<F: ?Sized> {
    /// normalized primary name → entry.
    entries: BTreeMap<String, Arc<F>>,
    /// normalized alias → normalized primary name.
    aliases: BTreeMap<String, String>,
}

/// A name (normalized) added to a [`Registry`] that already selects an entry
/// there, as a primary name or as an alias.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuplicateName(pub String);

impl fmt::Display for DuplicateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name {:?} is already registered", self.0)
    }
}

impl std::error::Error for DuplicateName {}

impl<F: ?Sized> Clone for Registry<F> {
    fn clone(&self) -> Self {
        Registry {
            entries: self.entries.clone(),
            aliases: self.aliases.clone(),
        }
    }
}

impl<F: ?Sized> fmt::Debug for Registry<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.entries.keys().chain(self.aliases.keys()))
            .finish()
    }
}

impl<F: ?Sized> Registry<F> {
    /// An empty registry.
    pub fn empty() -> Self {
        Registry {
            entries: BTreeMap::new(),
            aliases: BTreeMap::new(),
        }
    }

    /// The normalized `name`, if it selects nothing yet.
    fn fresh(&self, name: &str) -> Result<String, DuplicateName> {
        let key = normalize(name);
        if self.contains(&key) {
            return Err(DuplicateName(key));
        }
        Ok(key)
    }

    /// Add the entry under the primary name `name`.
    pub fn insert(&mut self, name: &str, entry: Arc<F>) -> Result<(), DuplicateName> {
        self.entries.insert(self.fresh(name)?, entry);
        Ok(())
    }

    /// Add `name` as an alias of `target` (a primary name, or an alias, which
    /// is followed first — alias chains cannot form).
    ///
    /// # Panics
    /// If `target` is not registered: a caller contract, since an alias to
    /// nothing is a bug in the code that registers it.
    pub fn alias(&mut self, name: &str, target: &str) -> Result<(), DuplicateName> {
        let Some(primary) = self.entry(target).map(|(primary, _)| primary.clone()) else {
            panic!("alias target {target:?} is not registered");
        };
        self.aliases.insert(self.fresh(name)?, primary);
        Ok(())
    }

    /// The primary key and entry `name` selects: its own, or those of the
    /// alias target it names — one hop.
    fn entry(&self, name: &str) -> Option<(&String, &Arc<F>)> {
        let key = normalize(name);
        (self.entries.get_key_value(&key))
            .or_else(|| self.entries.get_key_value(self.aliases.get(&key)?))
    }

    /// The entry `name` selects, if any.
    pub fn get(&self, name: &str) -> Option<Arc<F>> {
        self.entry(name).map(|(_, entry)| entry.clone())
    }

    /// [`Registry::get`], or the `family`'s [`ResolveError::Unknown`] listing
    /// the registered names.
    pub fn lookup<X>(&self, family: &Family, name: &str) -> Result<Arc<F>, ResolveError<X>> {
        self.get(name).ok_or_else(|| ResolveError::Unknown {
            family: family.unknown,
            name: normalize(name),
            registered: self.names(),
        })
    }

    /// Whether `name` selects an entry.
    pub fn contains(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// The primary names, sorted (aliases are redirects and are not listed).
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }
}

/// An argument a factory can read as a plain number: a parsed `f64`, or an
/// [`Arg`] that is one.
pub trait AsNumber {
    /// The plain number this argument is, if it is one.
    fn as_number(&self) -> Option<f64>;
}

impl AsNumber for f64 {
    fn as_number(&self) -> Option<f64> {
        Some(*self)
    }
}

impl AsNumber for Arg<'_> {
    fn as_number(&self) -> Option<f64> {
        self.number()
    }
}

/// The arguments one entry was called with, read with the checks every
/// factory needs; each failure is the family's [`ResolveError::BadArgs`]
/// naming the entry. Argument positions in messages count from 1.
pub struct ArgReader<'a, A> {
    family: Family,
    name: &'a str,
    args: &'a [A],
}

impl<A: AsNumber> ArgReader<'_, A> {
    /// A `BadArgs` error for this entry.
    pub fn bad<X>(&self, reason: impl Into<String>) -> ResolveError<X> {
        self.family.bad_args(self.name, reason)
    }

    fn count_is<X>(&self, ok: bool, takes: fmt::Arguments<'_>) -> Result<(), ResolveError<X>> {
        if ok {
            Ok(())
        } else {
            Err(self.bad(format!("takes {takes}, got {}", self.args.len())))
        }
    }

    /// The entry takes no arguments.
    pub fn no_args<X>(&self) -> Result<(), ResolveError<X>> {
        self.count_is(self.args.is_empty(), format_args!("no arguments"))
    }

    /// The entry takes exactly `n` arguments.
    pub fn exactly_n_args<X>(&self, n: usize) -> Result<(), ResolveError<X>> {
        self.count_is(
            self.args.len() == n,
            format_args!("exactly {n} argument(s)"),
        )
    }

    /// The entry takes at most `max` arguments, spelled `at_most` in the
    /// message (`"3 arguments"`, `"one argument (group size)"`).
    pub fn max_args<X>(&self, max: usize, at_most: &str) -> Result<(), ResolveError<X>> {
        self.count_is(self.args.len() <= max, format_args!("at most {at_most}"))
    }

    /// Argument `idx` as a plain number, `default` when absent.
    pub fn number<X>(&self, idx: usize, default: f64) -> Result<f64, ResolveError<X>> {
        match self.args.get(idx) {
            None => Ok(default),
            Some(arg) => arg
                .as_number()
                .ok_or_else(|| self.bad(format!("argument {} is not a number", idx + 1))),
        }
    }

    /// Argument `idx`, if present, as a positive integer (`what` names it in
    /// the message); values past `u64::MAX` saturate.
    pub fn positive_int<X>(&self, idx: usize, what: &str) -> Result<Option<u64>, ResolveError<X>> {
        if idx >= self.args.len() {
            return Ok(None);
        }
        let v = self.number(idx, f64::NAN)?;
        if !v.is_finite() || v < 1.0 || v.fract() != 0.0 {
            return Err(self.bad(format!("{what} must be a positive integer, got {v}")));
        }
        Ok(Some(v as u64))
    }

    /// Argument `idx` (`default` when absent) as a fraction in `(0, 1]`, or in
    /// `[0, 1]` with `zero_ok`; the default is held to the same range, so a
    /// `NaN` default makes the argument required.
    pub fn fraction<X>(
        &self,
        idx: usize,
        default: f64,
        what: &str,
        zero_ok: bool,
    ) -> Result<f64, ResolveError<X>> {
        let v = self.number(idx, default)?;
        if v <= 1.0 && (v > 0.0 || (zero_ok && v == 0.0)) {
            return Ok(v);
        }
        let open = if zero_ok { '[' } else { '(' };
        Err(self.bad(format!("{what} must be in {open}0, 1], got {v}")))
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

    const FRUIT: Family = Family {
        unknown: "fruit",
        args: "fruit recipe",
    };

    fn fruit() -> Registry<str> {
        let mut r = Registry::empty();
        r.insert("Blood_Orange", Arc::from("orange")).unwrap();
        r.insert("lime", Arc::from("lime")).unwrap();
        r.alias("Sanguinello", "blood orange").unwrap();
        r
    }

    #[test]
    fn registry_lookup_normalizes_spelling_and_follows_aliases() {
        let r = fruit();
        for spelling in [
            "blood-orange",
            " Blood Orange ",
            "BLOOD_ORANGE",
            "sanguinello",
        ] {
            assert_eq!(&*r.get(spelling).unwrap(), "orange", "{spelling}");
            assert!(r.contains(spelling), "{spelling}");
        }
        assert!(r.get("lemon").is_none() && !r.contains("lemon"));
        // Primaries only, sorted.
        assert_eq!(r.names(), vec!["blood-orange", "lime"]);
    }

    #[test]
    fn registry_refuses_a_name_it_already_selects() {
        let mut r = fruit();
        // A primary name, an alias, in any spelling: each selects one entry
        // for good, and the refused call changes nothing.
        for name in ["blood orange", "LIME", "sanguinello"] {
            let taken = DuplicateName(normalize(name));
            assert_eq!(r.insert(name, Arc::from("tarocco")), Err(taken.clone()));
            assert_eq!(r.alias(name, "lime"), Err(taken));
        }
        assert_eq!(&*r.get("sanguinello").unwrap(), "orange");
        assert_eq!(
            r.insert("lime", Arc::from("key lime"))
                .unwrap_err()
                .to_string(),
            "name \"lime\" is already registered"
        );
        // An alias of an alias points at the primary: no chain to walk.
        r.alias("moro", "sanguinello").unwrap();
        assert_eq!(&*r.get("moro").unwrap(), "orange");
        assert_eq!(r.names(), vec!["blood-orange", "lime"]);
    }

    #[test]
    #[should_panic(expected = "alias target \"lemon\" is not registered")]
    fn registry_alias_needs_a_registered_target() {
        let _ = fruit().alias("citron", "lemon");
    }

    #[test]
    fn unknown_lookups_list_the_registered_names() {
        let err: ResolveError = fruit().lookup(&FRUIT, " Le_Mon ").unwrap_err();
        assert_eq!(
            err,
            ResolveError::Unknown {
                family: "fruit",
                name: "le-mon".to_string(),
                registered: vec!["blood-orange".to_string(), "lime".to_string()],
            }
        );
        assert_eq!(
            err.to_string(),
            "unknown fruit \"le-mon\"; registered: blood-orange, lime"
        );
    }

    #[test]
    fn arg_reader_checks_counts_and_ranges() {
        let reason = |r: Result<f64, ResolveError>| match r.unwrap_err() {
            ResolveError::BadArgs {
                family: "fruit recipe",
                name,
                reason,
            } if name == "jam" => reason,
            other => panic!("{other:?}"),
        };
        let unit = |r: Result<(), ResolveError>| reason(r.map(|()| 0.0));
        let nums = [3.0, 0.5, 0.0, -2.0, 2.5];
        let args = FRUIT.args("jam", &nums);
        assert_eq!(unit(args.no_args()), "takes no arguments, got 5");
        assert_eq!(
            unit(args.exactly_n_args(2)),
            "takes exactly 2 argument(s), got 5"
        );
        assert_eq!(
            unit(args.max_args(4, "4 jars (sealed)")),
            "takes at most 4 jars (sealed), got 5"
        );
        assert!(
            args.exactly_n_args::<Infallible>(5).is_ok()
                && args.max_args::<Infallible>(5, "").is_ok()
        );
        assert!(FRUIT
            .args("jam", &[] as &[f64])
            .no_args::<Infallible>()
            .is_ok());

        assert_eq!(args.number::<Infallible>(0, 9.0), Ok(3.0));
        assert_eq!(args.number::<Infallible>(7, 9.0), Ok(9.0));
        assert_eq!(args.positive_int::<Infallible>(0, "jars"), Ok(Some(3)));
        assert_eq!(args.positive_int::<Infallible>(7, "jars"), Ok(None));
        for idx in [1, 2, 3, 4] {
            let got = reason(args.positive_int(idx, "jars").map(|_| 0.0));
            assert_eq!(
                got,
                format!("jars must be a positive integer, got {}", nums[idx])
            );
        }
        assert_eq!(
            args.fraction::<Infallible>(1, f64::NAN, "sugar", false),
            Ok(0.5)
        );
        assert_eq!(
            args.fraction::<Infallible>(2, f64::NAN, "sugar", true),
            Ok(0.0)
        );
        assert_eq!(args.fraction::<Infallible>(7, 1.0, "sugar", false), Ok(1.0));
        assert_eq!(
            reason(args.fraction(2, f64::NAN, "sugar", false)),
            "sugar must be in (0, 1], got 0"
        );
        assert_eq!(
            reason(args.fraction(0, f64::NAN, "sugar", true)),
            "sugar must be in [0, 1], got 3"
        );
        // A NaN default makes the argument required.
        assert_eq!(
            reason(args.fraction(7, f64::NAN, "sugar", false)),
            "sugar must be in (0, 1], got NaN"
        );

        // Parsed arguments: a nested spec or a unit-suffixed number is not a
        // number.
        let call = parse_call("jam(2, pectin, 5us)").unwrap();
        let args = FRUIT.args("jam", &call.args);
        assert_eq!(args.number::<Infallible>(0, 0.0), Ok(2.0));
        for idx in [1, 2] {
            let got = reason(args.number(idx, 0.0));
            assert_eq!(got, format!("argument {} is not a number", idx + 1));
        }
        assert_eq!(
            args.bad::<Infallible>("too sweet").to_string(),
            "invalid arguments for fruit recipe \"jam\": too sweet"
        );
    }
}
