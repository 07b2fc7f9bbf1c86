//! Minimal argument parsing: `--key value` pairs and `--flag` switches.
//!
//! Kept dependency-free on purpose (the workspace allows only a fixed
//! crate set); the grammar is small enough that a hand-rolled parser is
//! clearer than a macro framework.

use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Splits `argv` into the subcommand and its options.
    ///
    /// Every option must be `--key value` or a known boolean `--flag`
    /// (flags are detected as `--key` followed by another `--…` or the
    /// end of input). Bare tokens are collected as positional operands
    /// (e.g. `metrics-summary trace.jsonl`); commands that take none
    /// reject them via [`Args::expect_no_positionals`].
    pub fn parse(argv: &[String]) -> Result<(String, Self), String> {
        let mut it = argv.iter().peekable();
        let cmd = it
            .next()
            .ok_or_else(|| "missing command".to_string())?
            .clone();
        let mut args = Self::default();
        while let Some(token) = it.next() {
            let key = match token.strip_prefix("--") {
                Some(k) => k,
                None => {
                    args.positionals.push(token.clone());
                    continue;
                }
            };
            if key.is_empty() {
                return Err("empty option name".into());
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked").clone();
                    args.values.insert(key.to_string(), value);
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        Ok((cmd, args))
    }

    /// Positional operand by index.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Errors when positional operands were given to a command that
    /// takes none (preserves the strict `--key value` grammar for the
    /// original subcommands).
    pub fn expect_no_positionals(&self) -> Result<(), String> {
        match self.positionals.first() {
            None => Ok(()),
            Some(p) => Err(format!("unexpected operand {p:?}")),
        }
    }

    /// Errors on the first option or flag not in `accepted`, naming it
    /// and listing the accepted ones, so a command refuses options it
    /// would otherwise silently ignore.
    pub fn expect_only(&self, accepted: &[&str]) -> Result<(), String> {
        let given = self.values.keys().chain(&self.flags);
        match given.into_iter().find(|k| !accepted.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => {
                let list: Vec<String> = accepted.iter().map(|a| format!("--{a}")).collect();
                Err(format!(
                    "unknown option --{k} (accepted: {})",
                    list.join(", ")
                ))
            }
        }
    }

    /// `f64` option by name (error on malformed values).
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// String option by name.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `usize` option by name (error on malformed values).
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects an integer, got {v:?}"))
            })
            .transpose()
    }

    /// `u64` option by name.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects an integer, got {v:?}"))
            })
            .transpose()
    }

    /// Whether a boolean switch was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let (cmd, args) = Args::parse(&strs(&[
            "train",
            "--kind",
            "H",
            "--adversarial",
            "--epochs",
            "6",
        ]))
        .unwrap();
        assert_eq!(cmd, "train");
        assert_eq!(args.get_str("kind"), Some("H"));
        assert!(args.has_flag("adversarial"));
        assert_eq!(args.get_usize("epochs").unwrap(), Some(6));
        assert_eq!(args.get_str("missing"), None);
        assert!(!args.has_flag("missing"));
    }

    #[test]
    fn trailing_flag() {
        let (_, args) = Args::parse(&strs(&["eval", "--model", "m.json", "--json"])).unwrap();
        assert_eq!(args.get_str("model"), Some("m.json"));
        assert!(args.has_flag("json"));
    }

    #[test]
    fn rejects_missing_command() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn collects_positionals_and_commands_can_reject_them() {
        let (cmd, args) = Args::parse(&strs(&["metrics-summary", "trace.jsonl"])).unwrap();
        assert_eq!(cmd, "metrics-summary");
        assert_eq!(args.positional(0), Some("trace.jsonl"));
        assert_eq!(args.positional(1), None);
        // Commands with a pure `--key value` grammar still reject operands.
        let (_, args) = Args::parse(&strs(&["train", "oops"])).unwrap();
        assert!(args.expect_no_positionals().is_err());
        let (_, args) = Args::parse(&strs(&["train", "--epochs", "6"])).unwrap();
        assert!(args.expect_no_positionals().is_ok());
    }

    #[test]
    fn refuses_options_outside_the_accepted_set() {
        let accepted = ["model", "json"];
        let (_, args) = Args::parse(&strs(&["eval", "--model", "m", "--json"])).unwrap();
        assert!(args.expect_only(&accepted).is_ok());
        let (_, args) = Args::parse(&strs(&["eval", "--model", "m", "--jsn"])).unwrap();
        assert_eq!(
            args.expect_only(&accepted).unwrap_err(),
            "unknown option --jsn (accepted: --model, --json)"
        );
    }

    #[test]
    fn parses_f64_options() {
        let (_, args) = Args::parse(&strs(&["bench-gate", "--tolerance", "0.2"])).unwrap();
        assert_eq!(args.get_f64("tolerance").unwrap(), Some(0.2));
        let (_, args) = Args::parse(&strs(&["bench-gate", "--tolerance", "x"])).unwrap();
        assert!(args.get_f64("tolerance").is_err());
    }

    #[test]
    fn rejects_malformed_integers() {
        let (_, args) = Args::parse(&strs(&["train", "--epochs", "six"])).unwrap();
        assert!(args.get_usize("epochs").is_err());
    }
}
