//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` flags plus boolean switches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedArgs {
    /// Every value each flag was given, in order.
    values: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["labelled", "compact", "verify"];

impl ParsedArgs {
    /// Parses a flag list.
    ///
    /// # Errors
    ///
    /// Returns an error on a dangling flag or an argument without `--`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ParsedArgs::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("expected a --flag, got `{a}`"));
            };
            if SWITCHES.contains(&name) {
                out.switches.push(name.to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
            // Repeats accumulate (see `Self::all`); which flags may repeat
            // is the command's call, so the scalar accessors read the
            // last value.
            out.values.entry(name.to_string()).or_default().push(value.clone());
        }
        Ok(out)
    }

    /// The last value of a flag.
    fn last(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error when missing.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.last(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.last(name)
    }

    /// Every value a repeatable flag was given, in order (empty when the
    /// flag is absent) — e.g. `fam serve --data a.csv --data b.csv`.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.values.get(name).map(|v| v.iter().map(String::as_str).collect()).unwrap_or_default()
    }

    /// Optional parsed flag with default.
    ///
    /// # Errors
    ///
    /// Returns an error when present but unparsable.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.last(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }

    /// Required parsed flag.
    ///
    /// # Errors
    ///
    /// Returns an error when missing or unparsable.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.required(name)?;
        v.parse().map_err(|_| format!("flag --{name}: cannot parse `{v}`"))
    }

    /// Every flag given, value flags (once each, in name order) and then
    /// switches.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.switches).map(String::as_str)
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Comma-separated list of indices.
    ///
    /// # Errors
    ///
    /// Returns an error when missing or unparsable.
    pub fn index_list(&self, name: &str) -> Result<Vec<usize>, String> {
        let raw = self.required(name)?;
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("flag --{name}: `{s}` is not an index"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = ParsedArgs::parse(&argv("--data a.csv --k 3 --data b.csv --data c.csv")).unwrap();
        assert_eq!(a.all("data"), vec!["a.csv", "b.csv", "c.csv"]);
        assert_eq!(a.all("k"), vec!["3"]);
        assert!(a.all("missing").is_empty());
        // Scalar accessors keep last-one-wins.
        assert_eq!(a.required("data").unwrap(), "c.csv");
    }

    #[test]
    fn parses_values_and_switches() {
        let a = ParsedArgs::parse(&argv("--n 100 --labelled --corr anti")).unwrap();
        assert_eq!(a.required("n").unwrap(), "100");
        assert_eq!(a.optional("corr"), Some("anti"));
        assert!(a.switch("labelled"));
        assert!(!a.switch("compact"));
        assert_eq!(a.parsed_or("n", 0usize).unwrap(), 100);
        assert_eq!(a.parsed_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(ParsedArgs::parse(&argv("n 100")).is_err());
        assert!(ParsedArgs::parse(&argv("--n")).is_err());
        let a = ParsedArgs::parse(&argv("--n ten")).unwrap();
        assert!(a.parsed::<usize>("n").is_err());
        assert!(a.required("k").is_err());
    }

    #[test]
    fn parses_index_lists() {
        // A space inside the list makes the remainder a dangling token.
        assert!(ParsedArgs::parse(&argv("--selection 1,5, 9")).is_err());
        let a = ParsedArgs::parse(&argv("--selection 1,5,9")).unwrap();
        assert_eq!(a.index_list("selection").unwrap(), vec![1, 5, 9]);
        let a = ParsedArgs::parse(&argv("--selection 1,x")).unwrap();
        assert!(a.index_list("selection").is_err());
    }
}
