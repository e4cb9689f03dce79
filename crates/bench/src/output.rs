//! Output and command-line helpers shared by the experiment binaries.

use serde::Serialize;

/// Formats a fraction as a percentage with one decimal, the way the
/// paper prints rates ("93,4 %" style, anglicised).
pub fn format_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Wrapper every experiment binary uses to read its flags and emit its
/// result: a human-readable table on stdout and, when `--json` is
/// passed, a trailing machine-readable JSON line (consumed to update
/// `EXPERIMENTS.md`).
#[derive(Debug)]
pub struct ExperimentOutput {
    args: Vec<String>,
}

impl ExperimentOutput {
    /// Captures the process's CLI args (`--json` toggles the JSON
    /// trailer).
    pub fn from_args() -> Self {
        ExperimentOutput {
            args: std::env::args().collect(),
        }
    }

    /// `true` when the bare flag `name` (e.g. `--smoke`) was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The text following `name`, if the flag was passed with a value.
    pub fn arg_str(&self, name: &str) -> Option<String> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).cloned()
    }

    /// The number following `name`; `None` when the flag is absent, so
    /// the caller's default applies.
    ///
    /// # Panics
    ///
    /// When a value is present but is not a `u64`: a mistyped value
    /// must not quietly regenerate the default experiment under the
    /// paper's heading.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.arg_str(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name}: expected an unsigned integer, got {v:?}"))
        })
    }

    /// Prints the human-readable section header.
    pub fn section(&self, title: &str) {
        println!();
        println!("== {title} ==");
    }

    /// Emits the machine-readable trailer when enabled.
    pub fn finish<T: Serialize>(&self, payload: &T) {
        if self.flag("--json") {
            println!(
                "JSON: {}",
                serde_json::to_string(payload).expect("experiment payload serialises")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(format_pct(0.934), "93.4%");
        assert_eq!(format_pct(0.5), "50.0%");
        assert_eq!(format_pct(0.0), "0.0%");
    }

    fn parsed(args: &[&str]) -> ExperimentOutput {
        ExperimentOutput {
            args: args.iter().map(|a| a.to_string()).collect(),
        }
    }

    #[test]
    fn absent_flag_yields_the_default_present_value_parses() {
        let out = parsed(&[
            "fig3",
            "--impressions",
            "400",
            "--smoke",
            "--table",
            "t.txt",
        ]);
        assert_eq!(out.arg("--impressions"), Some(400));
        assert_eq!(out.arg("--seed"), None);
        assert_eq!(out.arg_str("--table").as_deref(), Some("t.txt"));
        assert!(out.flag("--smoke"));
        assert!(!out.flag("--json"));
    }

    #[test]
    #[should_panic(expected = "--impressions: expected an unsigned integer, got \"40O\"")]
    fn mistyped_value_panics_with_flag_and_text() {
        parsed(&["fig3", "--impressions", "40O"]).arg("--impressions");
    }
}
