//! One declared command line per binary.
//!
//! Each binary declares its commands as [`Command`]s: the words that select
//! one (`"replay record"`, or just the binary's name), the placeholders of
//! its positionals, and its [`Flag`]s. This module reads the process's
//! arguments against that declaration, renders the usage line from it, and
//! words every usage error one way, ending with the usage line:
//! `` unknown flag `--x` `` (or `` unknown command `x` ``), `--seed needs <n>`
//! for a missing value, `` --seed needs a number, got `x` `` for a bad one,
//! and `` --profile needs smoke|paper, got `x` `` for a value outside the
//! choices its placeholder lists. Defaults stay with the binary that uses
//! them; the census (`tests/census.rs`) works out which test or `ci.sh`
//! stage runs each flag.

use std::fmt::Debug;
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::str::FromStr;

/// The master seed of a run or a matrix.
pub const SEED: Flag = Flag::value("--seed", "<n>");
/// Compare what is built with what is committed, and fail on a difference.
pub const CHECK: Flag = Flag::switch("--check");
/// Rewrite the committed artifacts instead of comparing with them.
pub const BLESS: Flag = Flag::switch("--bless");
/// Where the command writes its main artifact.
pub const OUT: Flag = Flag::value("--out", "<path>");

/// One flag: its name and the placeholders of the values it takes.
#[derive(Debug)]
pub struct Flag {
    name: &'static str,
    /// `""` for a switch; otherwise one word per value (`"<base> <cand>"`).
    /// A word of choices (`smoke|paper`) admits only those.
    values: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, values: "" }
    }

    /// A flag that takes one value per word of `values`.
    pub const fn value(name: &'static str, values: &'static str) -> Flag {
        Flag { name, values }
    }
}

/// One command: the words that select it, its positionals and its flags.
#[derive(Debug)]
pub struct Command {
    /// The binary's name, then the subcommand's (`"replay record"`).
    name: &'static str,
    /// One placeholder per positional; one containing `...` takes any
    /// number of them.
    positionals: &'static str,
    flags: &'static [Flag],
}

impl Command {
    /// Declares a command.
    pub const fn new(
        name: &'static str,
        positionals: &'static str,
        flags: &'static [Flag],
    ) -> Command {
        Command {
            name,
            positionals,
            flags,
        }
    }

    /// The subcommand's word, or `""` for a binary's own command line.
    pub fn sub(&self) -> &'static str {
        self.name.split_once(' ').map_or("", |(_, sub)| sub)
    }

    /// `usage: <name> <positionals> [<flag> <values>]...`.
    pub fn usage(&self) -> String {
        format!("usage: {}", self.line())
    }

    /// The name, positionals and flags, wrapped before a flag that would
    /// run past 80 columns.
    fn line(&self) -> String {
        let mut line = format!("{} {}", self.name, self.positionals);
        line.truncate(line.trim_end().len());
        let mut width = line.len() + "usage: ".len();
        for flag in self.flags {
            let flag = format!("[{} {}]", flag.name, flag.values).replace(" ]", "]");
            if width + 1 + flag.len() > 80 {
                line += "\n   ";
                width = 3;
            }
            line += &format!(" {flag}");
            width += 1 + flag.len();
        }
        line
    }

    /// Reads `args` (what follows the command's own words). A flag given
    /// twice keeps its last value.
    pub fn parse(&'static self, args: &[String]) -> Result<Args, String> {
        let fail = |problem: String| format!("{problem}\n{}", self.usage());
        let mut parsed = Args {
            command: self,
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut words = args.iter();
        while let Some(word) = words.next() {
            let Some(flag) = self.flags.iter().find(|f| f.name == word) else {
                if word.starts_with("--") || self.positionals.is_empty() {
                    return Err(fail(format!("unknown flag `{word}`")));
                }
                parsed.positionals.push(word.clone());
                continue;
            };
            let (name, choices) = (flag.name, flag.values);
            let arity = choices.split_whitespace().count();
            let values: Vec<String> = words.by_ref().take(arity).cloned().collect();
            if values.len() < arity {
                return Err(fail(format!("{name} needs {choices}")));
            }
            if let [value] = values.as_slice() {
                if choices.contains('|') && !choices.split('|').any(|c| c == value) {
                    return Err(fail(format!("{name} needs {choices}, got `{value}`")));
                }
            }
            parsed.given.push((name, values));
        }
        let wanted = self.positionals.split_whitespace().count();
        if !self.positionals.contains("...") && parsed.positionals.len() != wanted {
            return Err(fail(format!("{} needs {}", self.name, self.positionals)));
        }
        Ok(parsed)
    }
}

/// The process's arguments, less the program's name: the one place the
/// binaries read them.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// A binary's exit status: success, a failure it already reported
/// (`Ok(false)`), or an error, printed here.
pub fn exit(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The command of `commands` that `args` selects, with the arguments after
/// its words: the subcommand the first word names, else the binary's own
/// command line, if it declares one.
pub fn select<'a>(
    commands: &'static [Command],
    args: &'a [String],
) -> Result<(&'static Command, &'a [String]), String> {
    let first = args.first().map(String::as_str);
    if let Some(command) = commands.iter().find(|c| Some(c.sub()) == first) {
        return Ok((command, &args[1..]));
    }
    if let Some(command) = commands.iter().find(|c| c.sub().is_empty()) {
        return Ok((command, args));
    }
    let usage = usage(commands);
    Err(match first {
        Some(word) => format!("unknown command `{word}`\n{usage}"),
        None => usage,
    })
}

/// Every command's usage line but the hidden ones (`__`-prefixed).
fn usage(commands: &[Command]) -> String {
    let lines: Vec<String> = commands
        .iter()
        .filter(|c| !c.sub().starts_with("__"))
        .map(Command::line)
        .collect();
    match lines.as_slice() {
        [line] => format!("usage: {line}"),
        lines => format!("usage:\n  {}", lines.join("\n  ")),
    }
}

/// What one command line gave.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, Vec<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// The values `flag` was last given. Panics on a flag the command does
    /// not declare: that is a bug in the binary, not in its input.
    pub fn values(&self, flag: &str) -> Option<&[String]> {
        let command = self.command;
        let declared = command.flags.iter().any(|f| f.name == flag);
        assert!(declared, "`{}` declares no {flag}", command.name);
        let last = self.given.iter().rev().find(|(name, _)| *name == flag);
        last.map(|(_, values)| values.as_slice())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).map(|values| values[0].as_str())
    }

    /// The value of `flag` as a number in `range`, if given.
    pub fn number<T, R>(&self, flag: &str, range: R) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd,
        R: RangeBounds<T> + Debug,
    {
        let Some(value) = self.value(flag) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(n) if range.contains(&n) => Ok(Some(n)),
            _ => {
                let range = format!("{range:?}");
                let within = Some(range).filter(|r| r != "..");
                let within = within.map_or(String::new(), |r| format!(" in {r}"));
                let usage = self.command.usage();
                Err(format!(
                    "{flag} needs a number{within}, got `{value}`\n{usage}"
                ))
            }
        }
    }

    /// The value of `flag`, which the command cannot run without.
    pub fn required<T: FromStr + PartialOrd>(&self, flag: &str) -> Result<T, String> {
        let command = self.command;
        self.number(flag, ..)?
            .ok_or_else(|| format!("{} needs {flag}\n{}", command.name, command.usage()))
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static ANALYZE: Command = Command::new(
        "analyze",
        "",
        &[
            Flag::value("--compare", "<base> <cand>"),
            Flag::value("--profile", "smoke|paper"),
            SEED,
            CHECK,
        ],
    );
    /// Wrapped before the flag that would pass 80 columns.
    const ANALYZE_USAGE: &str = "usage: analyze [--compare <base> <cand>] \
[--profile smoke|paper] [--seed <n>]\n    [--check]";

    static REPLAY: &[Command] = &[
        Command::new("replay run", "", &[Flag::switch("--wire"), SEED]),
        Command::new("replay roundtrip", "", &[CHECK, BLESS]),
    ];

    static CHAOS: &[Command] = &[
        Command::new("chaos", "", &[CHECK]),
        Command::new("chaos __crash-daemon", "<journal-dir>", &[]),
    ];

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn analyze(line: &str) -> Result<Args, String> {
        ANALYZE.parse(&words(line))
    }

    #[test]
    fn a_missing_value_names_its_placeholder() {
        let err = analyze("--check --seed").unwrap_err();
        assert_eq!(err, format!("--seed needs <n>\n{ANALYZE_USAGE}"));
    }

    #[test]
    fn an_unknown_flag_or_a_stray_word_is_an_unknown_flag() {
        for word in ["--bogus", "bogus"] {
            let err = analyze(&format!("--check {word} --seed 1")).unwrap_err();
            assert_eq!(err, format!("unknown flag `{word}`\n{ANALYZE_USAGE}"));
        }
    }

    #[test]
    fn a_bad_integer_or_one_out_of_range_is_refused() {
        let args = analyze("--seed x").expect("parses");
        assert_eq!(
            args.number::<u64, _>("--seed", ..).unwrap_err(),
            format!("--seed needs a number, got `x`\n{ANALYZE_USAGE}")
        );
        let args = analyze("--seed 0").expect("parses");
        assert_eq!(
            args.number::<u64, _>("--seed", 1..=255).unwrap_err(),
            format!("--seed needs a number in 1..=255, got `0`\n{ANALYZE_USAGE}")
        );
        assert_eq!(args.number("--seed", ..), Ok(Some(0u64)));
        assert_eq!(
            analyze("").expect("parses").number("--seed", ..),
            Ok(None::<u64>)
        );
    }

    #[test]
    fn compare_takes_two_values_and_one_is_missing_the_second() {
        let args = analyze("--compare base cand --check").expect("parses");
        assert_eq!(args.values("--compare"), Some(&words("base cand")[..]));
        assert!(args.switch("--check"));
        let err = analyze("--compare base").unwrap_err();
        assert_eq!(
            err,
            format!("--compare needs <base> <cand>\n{ANALYZE_USAGE}")
        );
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let args = analyze("--seed 1 --profile paper --seed 2 --profile smoke").expect("parses");
        assert_eq!(args.number("--seed", ..), Ok(Some(2u64)));
        assert_eq!(args.value("--profile"), Some("smoke"));
    }

    #[test]
    fn a_choice_outside_the_placeholder_is_refused() {
        let err = analyze("--profile bogus").unwrap_err();
        assert_eq!(
            err,
            format!("--profile needs smoke|paper, got `bogus`\n{ANALYZE_USAGE}")
        );
    }

    #[test]
    fn the_first_word_selects_the_subcommand() {
        let argv = words("roundtrip --check");
        let (command, rest) = select(REPLAY, &argv).expect("a subcommand");
        assert_eq!((command.sub(), rest), ("roundtrip", &argv[1..]));
        assert!(command.parse(rest).expect("parses").switch("--check"));

        let both =
            "usage:\n  replay run [--wire] [--seed <n>]\n  replay roundtrip [--check] [--bless]";
        assert_eq!(usage(REPLAY), both);
        assert_eq!(
            select(REPLAY, &words("bogus")).unwrap_err(),
            format!("unknown command `bogus`\n{both}")
        );
        assert_eq!(select(REPLAY, &[]).unwrap_err(), both);

        // A binary with a command line of its own runs it when no
        // subcommand is named; a hidden one checks its positionals and
        // stays out of the usage.
        let argv = words("--check");
        let (command, rest) = select(CHAOS, &argv).expect("the binary's own");
        assert_eq!((command.sub(), rest.len()), ("", 1));
        let argv = words("__crash-daemon dir");
        let (command, rest) = select(CHAOS, &argv).expect("a hidden subcommand");
        let args = command.parse(rest).expect("one positional");
        assert_eq!(args.positionals(), &argv[1..]);
        assert_eq!(
            command.parse(&[]).unwrap_err(),
            "chaos __crash-daemon needs <journal-dir>\nusage: chaos __crash-daemon <journal-dir>"
        );
        assert_eq!(usage(CHAOS), "usage: chaos [--check]");
    }
}
