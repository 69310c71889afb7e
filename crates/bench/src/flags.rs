//! The bench bins' command lines, declared: each bin names the flags it
//! takes and reads them back through [`Flags`]. An argument the bin did
//! not declare, a flag without its value, a value that is not a number
//! and a repeated flag are usage errors (exit 2, the offender named) —
//! `table1 --quik` must not quietly run the 30 s paper-scale table.

use Arity::{Number, Optional, Switch};

/// The value shape of a declared flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// `--flag`: no value.
    Switch,
    /// `--flag <n>`: one unsigned integer.
    Number,
    /// `--flag [<path>]`: the next argument when it is not a flag.
    Optional,
}

/// What a bin declares: every flag it takes, with its value shape.
pub type Declared = &'static [(&'static str, Arity)];

/// The flags of one invocation, checked against the bin's declaration.
#[derive(Debug)]
pub struct Flags {
    declared: Declared,
    found: Vec<(&'static str, Option<String>)>,
}

/// Checks `argv` (without the program name) against `declared`.
pub fn parse(declared: Declared, argv: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let mut found: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut args = argv.into_iter().peekable();
    while let Some(arg) = args.next() {
        let Some(&(name, arity)) = declared.iter().find(|(name, _)| *name == arg) else {
            let what = if arg.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("{what} `{arg}`"));
        };
        if found.iter().any(|(seen, _)| *seen == name) {
            return Err(format!("{name} given twice"));
        }
        let value = match arity {
            Switch => None,
            Number | Optional => args.next_if(|v| !v.starts_with("--")),
        };
        if arity == Number {
            let Some(v) = &value else {
                return Err(format!("{name} needs a value"));
            };
            v.parse::<usize>().map_err(|e| format!("{name} {v}: {e}"))?;
        }
        found.push((name, value));
    }
    Ok(Flags { declared, found })
}

impl Flags {
    /// The flags of this process, or exit status 2 with the offending
    /// argument and the declared flags on stderr.
    pub fn from_env(declared: Declared) -> Flags {
        parse(declared, std::env::args().skip(1)).unwrap_or_else(|e| {
            let names: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
            eprintln!("{e}\nflags: {}", names.join(" "));
            std::process::exit(2)
        })
    }

    /// The value slot of `name` when it was given.
    ///
    /// # Panics
    ///
    /// When the bin did not declare `name` as an `arity` flag: it is
    /// reading a flag [`parse`] never accepts.
    fn given(&self, name: &str, arity: Arity) -> Option<&Option<String>> {
        assert!(
            self.declared.contains(&(name, arity)),
            "{name} is not declared as {arity:?}"
        );
        self.found.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the [`Arity::Switch`] `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given(name, Switch).is_some()
    }

    /// The value of the [`Arity::Number`] flag `name`.
    pub fn number(&self, name: &str) -> Option<usize> {
        let value = self.given(name, Number)?.as_deref();
        value.map(|v| v.parse().expect("checked by parse"))
    }

    /// The [`Arity::Optional`] flag `name`: `None` = absent, `Some(None)`
    /// = given bare, `Some(Some(v))` = given with a value.
    pub fn optional(&self, name: &str) -> Option<Option<&str>> {
        self.given(name, Optional).map(|v| v.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARED: Declared = &[("--quick", Switch), ("--k", Number), ("--json", Optional)];

    fn parsed(line: &str) -> Result<Flags, String> {
        parse(DECLARED, line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn declared_flags_read_back() {
        let flags = parsed("--json out.json --k 3 --quick").unwrap();
        assert!(flags.switch("--quick"));
        assert_eq!(flags.number("--k"), Some(3));
        assert_eq!(flags.optional("--json"), Some(Some("out.json")));
        let flags = parsed("--json --quick").unwrap();
        assert_eq!(flags.optional("--json"), Some(None));
        let flags = parsed("").unwrap();
        assert!(!flags.switch("--quick"));
        assert_eq!(flags.number("--k"), None);
        assert_eq!(flags.optional("--json"), None);
    }

    #[test]
    fn misread_command_lines_name_the_offender() {
        for (line, message) in [
            ("--quik", "unknown flag `--quik`"),
            ("--check", "unknown flag `--check`"),
            ("extra", "unexpected argument `extra`"),
            ("--quick on", "unexpected argument `on`"),
            ("--k", "--k needs a value"),
            ("--k --quick", "--k needs a value"),
            ("--k two", "--k two: invalid digit found in string"),
            ("--k -1", "--k -1: invalid digit found in string"),
            ("--quick --quick", "--quick given twice"),
            ("--json a --json b", "--json given twice"),
        ] {
            assert_eq!(parsed(line).unwrap_err(), message, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "--real is not declared as Switch")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parsed("").unwrap().switch("--real");
    }
}
