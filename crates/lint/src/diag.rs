//! Diagnostics: the linter's output records and their render formats —
//! rustc-style text, JSONL, and SARIF 2.1.0 for editor/CI ingestion.

use std::fmt;

use relia_core::json::escape;

/// One finding: a rule violation (or a meta problem with a pragma).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, as walked (workspace-relative when the
    /// walk root is the workspace).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule identifier (`unit-leak`, `unwrap-in-lib`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The rustc-style one-line text form:
    /// `path:line:col: rule-id: message`.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// One JSON object (for `--format json` JSONL output).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(&self.file),
            self.line,
            self.col,
            self.rule,
            escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

/// Renders a full report as a single SARIF 2.1.0 document. The driver
/// advertises every registered rule (plus the two pragma meta rules) so
/// viewers can resolve `ruleId` references; each diagnostic becomes one
/// `error`-level result with a physical location.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut rules = String::new();
    let meta = [
        ("stale-allow", "allow pragma suppresses nothing"),
        ("bad-pragma", "malformed or unknown-rule allow pragma"),
    ];
    let all = crate::rules::RULES
        .iter()
        .map(|r| (r.id, r.summary))
        .chain(meta);
    for (i, (id, summary)) in all.enumerate() {
        if i > 0 {
            rules.push(',');
        }
        rules.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            escape(id),
            escape(summary)
        ));
    }
    let mut results = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            escape(d.rule),
            escape(&d.message),
            escape(&d.file),
            d.line,
            d.col
        ));
    }
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"relia-lint\",\"rules\":[{rules}]}}}},\"results\":[{results}]}}]}}"
    )
}

/// Sorts diagnostics into the stable report order: file, then line, then
/// column, then rule id.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Diagnostic {
        Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            rule: "float-eq",
            message: "float `==` comparison".into(),
        }
    }

    #[test]
    fn text_form_is_rustc_style() {
        assert_eq!(
            d().render_text(),
            "crates/x/src/lib.rs:3:9: float-eq: float `==` comparison"
        );
    }

    #[test]
    fn json_form_escapes() {
        let mut diag = d();
        diag.message = "bad \"quote\"\n".into();
        let json = diag.render_json();
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("\\n"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn sarif_form_names_driver_rules_and_locations() {
        let doc = render_sarif(&[d()]);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"name\":\"relia-lint\""));
        assert!(doc.contains("\"ruleId\":\"float-eq\""));
        assert!(doc.contains("\"id\":\"lock-order-inversion\""));
        assert!(doc.contains("\"startLine\":3"));
        assert!(doc.contains("\"startColumn\":9"));
        // An empty report is still a valid document.
        assert!(render_sarif(&[]).contains("\"results\":[]"));
    }

    #[test]
    fn sort_orders_by_file_line_col() {
        let mut v = vec![
            Diagnostic { line: 9, ..d() },
            Diagnostic {
                file: "a.rs".into(),
                ..d()
            },
            d(),
        ];
        sort(&mut v);
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[1].line, 3);
        assert_eq!(v[2].line, 9);
    }
}
