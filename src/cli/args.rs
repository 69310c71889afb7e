//! The `bonsai` command line, declared once: [`COMMANDS`] has one row per
//! subcommand — its positional arguments, its purpose and every flag it
//! takes — and everything else follows from the rows. [`parse`] accepts
//! exactly what a row declares (an argument that starts with `--` is a
//! flag of the row or an error, never a value and never ignored),
//! [`Matches`] is the only way the binary reads a flag, and [`synopsis`] /
//! [`help`] are the text printed after a usage error and by `bonsai help`
//! — README and `docs/OPERATIONS.md` quote them verbatim
//! (`tests/cli_args.rs` fails when either drifts).

use std::fmt::{self, Display};
use std::str::FromStr;
use Arity::{Optional, Repeated, Rest, Switch, Value};

/// How many values a flag takes, and how often it may be given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// `--flag`: no value, at most once.
    Switch,
    /// `--flag <v>`: one value, at most once.
    Value,
    /// `--flag [<v>]`: the next argument when it is not a flag, at most once.
    Optional,
    /// `--flag <v>`: one value, any number of times.
    Repeated,
    /// `--flag <v>...`: every argument up to the next flag (at least one),
    /// at most once.
    Rest,
}

/// One declared flag.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// Its value shape.
    pub arity: Arity,
    /// What the synopsis and the error messages call its value.
    pub value: &'static str,
}

/// One row of the table: a subcommand.
#[derive(Debug)]
pub struct Command {
    /// The subcommand as typed.
    pub name: &'static str,
    /// Its positional arguments as the synopsis spells them, one word
    /// each: `<required>`, `[optional]`, `[any number]...`.
    pub args: &'static str,
    /// One line on what it does.
    pub purpose: &'static str,
    /// Every flag it takes, in synopsis order ([`TRACE`] goes without
    /// saying).
    pub flags: &'static [Flag],
}

const fn flag(name: &'static str, arity: Arity, value: &'static str) -> Flag {
    Flag { name, arity, value }
}

/// Taken by every subcommand: append one JSON line per span/event of the
/// run to `<path>` (`docs/OBSERVABILITY.md`).
pub const TRACE: Flag = flag("--trace", Value, "<path>");

const STRIP: Flag = flag("--strip-unused-communities", Switch, "");
const FAILURES: Flag = flag("--failures", Value, "<k>");
const THREADS: Flag = flag("--threads", Value, "<n>");
const PRUNED: Flag = flag("--pruned", Switch, "");
const SOCKET: Flag = flag("--socket", Value, "<path>");
const TCP: Flag = flag("--tcp", Value, "<addr>");
const JSON: Flag = flag("--json", Optional, "<path>");

/// The whole command line of `bonsai`.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "compress",
        args: "<network>",
        purpose: "one abstract network per destination class, and a Table 1 row",
        flags: &[flag("--out", Value, "<dir>"), STRIP],
    },
    Command {
        name: "print",
        args: "<network>",
        purpose: "the canonical config text (materializes a gen: spec)",
        flags: &[],
    },
    Command {
        name: "roles",
        args: "<network>",
        purpose: "count the distinct device roles",
        flags: &[STRIP, flag("--ignore-static", Switch, "")],
    },
    Command {
        name: "check",
        args: "<network>",
        purpose: "verify CP-equivalence of every class's abstraction",
        flags: &[STRIP],
    },
    Command {
        name: "ecs",
        args: "<network>",
        purpose: "list the destination equivalence classes",
        flags: &[],
    },
    Command {
        name: "failures",
        args: "[network]",
        purpose: "sweep every <= k link-failure scenario, or --merge shard runs",
        flags: &[
            FAILURES,
            THREADS,
            PRUNED,
            flag("--no-share", Switch, ""),
            flag("--chunk-size", Value, "<n>"),
            flag("--shard", Value, "<i>/<n>"),
            flag("--aggregate", Switch, ""),
            flag("--query", Value, "<src>:<dst>"),
            JSON,
            flag("--merge", Rest, "<shard.json>"),
            STRIP,
        ],
    },
    Command {
        name: "diff",
        args: "<old> <new>",
        purpose: "re-verify only the classes a config delta touched",
        flags: &[FAILURES, THREADS, JSON, STRIP],
    },
    Command {
        name: "serve",
        args: "<network>",
        purpose: "run bonsaid on the listeners until a shutdown request",
        flags: &[
            SOCKET,
            TCP,
            FAILURES,
            THREADS,
            PRUNED,
            flag("--snapshot", Value, "<path>"),
            flag("--max-inflight", Value, "<n>"),
            flag("--max-request-bytes", Value, "<n>"),
            flag("--max-batch", Value, "<n>"),
            flag("--max-requests", Value, "<n>"),
            flag("--idle-timeout", Value, "<secs>"),
            STRIP,
        ],
    },
    Command {
        name: "query",
        args: "[request]...",
        purpose: "ask a running bonsaid: raw JSON requests, then the flags here",
        flags: &[
            SOCKET,
            TCP,
            flag("--ping", Switch, ""),
            flag("--reach", Value, "<src>:<dst>"),
            flag("--sweep", Value, "<src>:<dst>"),
            flag("--path", Value, "<src>:<dst>"),
            flag("--via", Repeated, "<node>"),
            flag("--all-pairs", Switch, ""),
            flag("--fail", Repeated, "<u>:<v>"),
            flag("--stats", Switch, ""),
            flag("--reload", Value, "<path>"),
            flag("--shutdown", Switch, ""),
        ],
    },
    Command {
        name: "metrics",
        args: "",
        purpose: "Prometheus scrape of a running bonsaid, or of this process",
        flags: &[SOCKET, TCP, flag("--fallback", Switch, "")],
    },
];

impl Command {
    /// The row named `name`.
    pub fn named(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|row| row.name == name)
    }

    /// The declaration of `name` for this row ([`TRACE`] for every row).
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        let row: &'static [Flag] = self.flags;
        row.iter()
            .chain(std::iter::once(&TRACE))
            .find(|f| f.name == name)
    }
}

/// Width the synopses wrap at.
const WIDTH: usize = 80;
/// `bonsai <name, padded> `: where every continuation line starts.
const INDENT: usize = 16;

/// The row's usage text: the command line it accepts, wrapped, then its
/// purpose.
pub fn synopsis(row: &Command) -> String {
    let flags = row.flags.iter().map(|f| match f.arity {
        Switch => format!("[{}]", f.name),
        Value => format!("[{} {}]", f.name, f.value),
        Optional => format!("[{} [{}]]", f.name, f.value),
        Repeated => format!("[{} {}]...", f.name, f.value),
        Rest => format!("[{} {}...]", f.name, f.value),
    });
    let words = row.args.split_whitespace().map(str::to_string);
    let mut text = format!("bonsai {:<8}", row.name);
    let mut column = text.len();
    for word in words.chain(flags) {
        if column + 1 + word.len() > WIDTH {
            text.push('\n');
            text.push_str(&" ".repeat(INDENT - 1));
            column = INDENT - 1;
        }
        text.push(' ');
        text.push_str(&word);
        column += 1 + word.len();
    }
    format!("{text}\n{:INDENT$}# {}\n", "", row.purpose)
}

/// What `bonsai help` prints: every row's [`synopsis`].
pub fn help() -> String {
    let mut text = String::from("usage: bonsai <command> [arguments]\n\n");
    for row in COMMANDS {
        text.push_str(&synopsis(row));
    }
    text.push_str(&format!(
        "\n<network> is a config file, a directory of .cfg files, or a generator spec\n\
         (gen:fattree4, gen:datacenter, ...). Every command also takes {} {}:\n\
         one JSON line per span of the run (docs/OBSERVABILITY.md).\n\
         `bonsai help` prints this; `bonsai <command> --help` one entry of it.\n",
        TRACE.name, TRACE.value,
    ));
    text
}

/// A command line the table rejects (exit status 2): what is wrong with
/// it, then the usage text it should have followed.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// What a whole argument vector asks for.
#[derive(Debug)]
pub enum Invocation {
    /// `help`, `--help` or `<command> --help`: print this and succeed.
    Help(String),
    /// Run the subcommand of [`Matches::command`].
    Run(Matches),
}

/// Resolves `argv` (without the program name) against the table: the
/// subcommand first — before any of its arguments is looked at, let alone
/// a file read — then [`parse`].
pub fn resolve(argv: &[String]) -> Result<Invocation, UsageError> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(UsageError(format!("missing command\n\n{}", help())));
    };
    if name == "help" || name == "--help" {
        return Ok(Invocation::Help(help()));
    }
    let row = Command::named(name)
        .ok_or_else(|| UsageError(format!("unknown command `{name}`\n\n{}", help())))?;
    if rest.iter().any(|a| a == "--help") {
        return Ok(Invocation::Help(synopsis(row)));
    }
    parse(row, rest).map(Invocation::Run)
}

/// The arguments of one subcommand, checked against its row.
#[derive(Debug)]
pub struct Matches {
    row: &'static Command,
    positionals: Vec<String>,
    found: Vec<(&'static Flag, Vec<String>)>,
}

/// Checks `argv` (the arguments after the subcommand) against `row`.
/// Rejects a flag the row does not declare, a missing value — a value
/// never starts with `--` — a second occurrence of a flag that is not
/// [`Arity::Repeated`], and too few or too many positional arguments.
pub fn parse(row: &'static Command, argv: &[String]) -> Result<Matches, UsageError> {
    let mut m = Matches {
        row,
        positionals: Vec::new(),
        found: Vec::new(),
    };
    let mut args = argv.iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            m.positionals.push(arg.clone());
            continue;
        }
        let Some(flag) = row.flag(arg) else {
            return Err(m.usage(format!("unknown flag `{arg}` for `bonsai {}`", row.name)));
        };
        let wanted = match flag.arity {
            Switch => 0,
            Value | Repeated | Optional => 1,
            Rest => usize::MAX,
        };
        let values: Vec<String> = std::iter::from_fn(|| args.next_if(|v| !v.starts_with("--")))
            .take(wanted)
            .cloned()
            .collect();
        if values.is_empty() && !matches!(flag.arity, Switch | Optional) {
            return Err(m.usage(format!("{} needs a value", flag.name)));
        }
        match m.found.iter_mut().find(|(f, _)| f.name == flag.name) {
            None => m.found.push((flag, values)),
            Some((_, seen)) if flag.arity == Repeated => seen.extend(values),
            Some(_) => return Err(m.usage(format!("{} given twice", flag.name))),
        }
    }
    // `<required>`, `[optional]`, `[any number]...`: the accepted counts
    // are read off the synopsis, so the two cannot disagree.
    let words: Vec<&str> = row.args.split_whitespace().collect();
    let required = words.iter().filter(|w| w.starts_with('<')).count();
    if let Some(missing) = words[..required].get(m.positionals.len()) {
        return Err(m.usage(format!("missing {missing}")));
    }
    if !row.args.ends_with("...") {
        if let Some(extra) = m.positionals.get(words.len()) {
            return Err(m.usage(format!("unexpected argument `{extra}`")));
        }
    }
    Ok(m)
}

impl Matches {
    /// The row these arguments were checked against.
    pub fn command(&self) -> &'static Command {
        self.row
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// `message`, then the row's synopsis: the error of a cross-flag rule
    /// the subcommand checks itself.
    pub fn usage(&self, message: impl Display) -> UsageError {
        UsageError(format!("{message}\n\n{}", synopsis(self.row)))
    }

    /// The values given for `name`; `None` when the flag is absent.
    ///
    /// # Panics
    ///
    /// When the row does not declare `name` with one of `arities`: the
    /// binary is reading a flag the parser never accepts.
    fn given(&self, name: &str, arities: &[Arity]) -> Option<&[String]> {
        let declared = self.row.flag(name).map(|f| f.arity);
        assert!(
            declared.is_some_and(|a| arities.contains(&a)),
            "`bonsai {}` reads {name} as one of {arities:?}, its row declares {declared:?}",
            self.row.name,
        );
        self.found
            .iter()
            .find(|(f, _)| f.name == name)
            .map(|(_, values)| values.as_slice())
    }

    /// Whether the [`Arity::Switch`] `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given(name, &[Switch]).is_some()
    }

    /// The value of the [`Arity::Value`] flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given(name, &[Value]).map(|values| values[0].as_str())
    }

    /// [`Matches::value`] parsed as a `T`; `default` when the flag is
    /// absent.
    pub fn parsed<T>(&self, name: &str, default: T) -> Result<T, UsageError>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| self.usage(format!("{name}: {e}"))),
        }
    }

    /// The [`Arity::Optional`] flag `name`: `None` = absent, `Some(None)`
    /// = given bare, `Some(Some(v))` = given with a value.
    pub fn optional(&self, name: &str) -> Option<Option<&str>> {
        self.given(name, &[Optional])
            .map(|values| values.first().map(String::as_str))
    }

    /// Every value of the [`Arity::Repeated`] or [`Arity::Rest`] flag
    /// `name`, in order; empty when the flag is absent.
    pub fn values(&self, name: &str) -> &[String] {
        self.given(name, &[Repeated, Rest]).unwrap_or(&[])
    }

    /// Every value of `name` split at its first `:` (`--fail <u>:<v>`).
    pub fn pairs(&self, name: &str) -> Result<Vec<(&str, &str)>, UsageError> {
        let values = self.given(name, &[Value, Repeated]);
        let flag = self.row.flag(name).expect("checked by `given`");
        values
            .unwrap_or(&[])
            .iter()
            .map(|v| {
                v.split_once(':')
                    .ok_or_else(|| self.usage(format!("{name} expects {}, got `{v}`", flag.value)))
            })
            .collect()
    }

    /// The one value of `name` split at its first `:` (`--reach
    /// <src>:<dst>`); `None` when the flag is absent.
    pub fn pair(&self, name: &str) -> Result<Option<(&str, &str)>, UsageError> {
        Ok(self.pairs(name)?.pop())
    }
}
