//! # spectralfly-bench
//!
//! The command-line surface of the reproduction: `repro` (the manifest runner —
//! every simulation figure, sweep and structural table is a section of
//! `manifests/paper.toml`) and the two layout figure binaries. This library
//! holds what those binaries share: one strict flag parser and uniform table
//! printing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::str::FromStr;

/// A binary's parsed command line. Every flag is declared up front, so an
/// unknown flag, a flag without its value and a malformed value all end the
/// process with the usage text and exit code 2 instead of silently running
/// the default.
#[derive(Debug)]
pub struct Cli {
    usage: String,
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Cli {
    /// Parse the process arguments: `valued` flags take one value
    /// (`--seed 7`), `switches` take none (`--smoke`), everything not starting
    /// with `--` is positional. Exits with code 2 on a violation.
    pub fn parse(usage: &str, valued: &[&str], switches: &[&str]) -> Cli {
        Cli::try_parse(std::env::args().skip(1), usage, valued, switches)
            .unwrap_or_else(|reason| exit_with_usage(usage, &reason))
    }

    /// [`Cli::parse`] over an explicit argument list, the violation returned.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        usage: &str,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            usage: usage.to_string(),
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if valued.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                cli.values.push((arg, value));
            } else if switches.contains(&arg.as_str()) {
                cli.switches.push(arg);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                cli.positional.push(arg);
            }
        }
        Ok(cli)
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of `name`, if the flag was given (the last one wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        let given = self.values.iter().rev().find(|(flag, _)| flag == name);
        given.map(|(_, value)| value.as_str())
    }

    /// The value of `name` parsed as a `T`, or `default` when the flag is
    /// absent. A value that does not parse exits with code 2.
    pub fn number<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("{name}: {v:?} is not a valid value"))),
        }
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Reject the command line after the fact: usage text, exit code 2.
    pub fn fail(&self, reason: &str) -> ! {
        exit_with_usage(&self.usage, reason)
    }
}

fn exit_with_usage(usage: &str, reason: &str) -> ! {
    eprintln!("error: {reason}\nusage: {usage}");
    std::process::exit(2)
}

/// The LPS↔SlimFly size pairs of Table II / Fig. 11.
pub fn table2_pairs() -> Vec<((u64, u64), u64)> {
    vec![((11, 7), 9), ((19, 7), 13), ((23, 11), 17), ((29, 13), 23)]
}

/// Print a markdown-style table: a header row and aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", spectralfly_exp::render_table(title, header, rows));
}

/// Format a float with 3 significant decimals for table output.
pub fn fmt(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::try_parse(args, "demo", &["--seed", "--out"], &["--smoke"])
    }

    #[test]
    fn declared_flags_parse_and_the_last_value_wins() {
        let cli = parse(&["run", "--seed", "7", "--smoke", "m.toml", "--seed", "9"]).unwrap();
        assert_eq!(cli.positional(), ["run", "m.toml"]);
        assert!(cli.flag("--smoke"));
        assert_eq!(cli.number("--seed", 1u64), 9);
        assert_eq!(cli.value("--out"), None);
        assert_eq!(
            cli.number("--out", 3usize),
            3,
            "absent flags take the default"
        );
    }

    #[test]
    fn undeclared_flags_and_missing_values_are_violations() {
        assert_eq!(parse(&["--smokes"]).unwrap_err(), "unknown flag --smokes");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--seed", "--smoke"]).unwrap_err(),
            "--seed needs a value",
            "a flag is never swallowed as another flag's value"
        );
    }
}
