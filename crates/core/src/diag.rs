//! Diagnostic infrastructure shared by every static-analysis layer.
//!
//! The paper's consistency test (§3.2) and ordering rules (§4.1) report
//! findings; so do the dataflow lints over the lowered IR and FAS source in
//! `gabm-lint`. All of them speak the same vocabulary defined here: a
//! stable [`Code`], a [`Severity`], a [`Location`] naming the offending
//! symbol, net, or source span, and optional explanatory notes (the
//! dimension-inference chain, the full cycle path of an algebraic loop).

use crate::diagram::{NetId, SymbolId};
use crate::json::Value;
use std::fmt;

/// Stable diagnostic codes. The numeric ranges partition by analysis
/// layer: `GABM0xx` with xx < 20 are diagram-level (§3.2/§4.1), 02x are
/// lowered-IR dataflow lints, 03x are FAS source lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// GABM001 — a net is driven by more than one output port.
    MultipleDrivers,
    /// GABM002 — a consumed net is bound to no output port.
    UndrivenNet,
    /// GABM003 — an input port is unconnected.
    UnconnectedInput,
    /// GABM004 — an output port is unconnected.
    UnconnectedOutput,
    /// GABM005 — a symbol is not connected at all.
    DisconnectedSymbol,
    /// GABM006 — a required property is missing.
    MissingProperty,
    /// GABM007 — a net mixes incompatible physical quantities.
    DimensionConflict,
    /// GABM008 — an algebraic loop (combinational cycle) was found.
    AlgebraicLoop,
    /// GABM009 — a symbol's outputs never reach a generator or the
    /// diagram interface (dead code in the diagram).
    DeadSymbol,
    /// GABM010 — a declared parameter is referenced nowhere.
    UnusedParameter,
    /// GABM011 — a limiter's lower bound exceeds its upper bound.
    DegenerateLimiter,
    /// GABM012 — a function input carries a physical dimension.
    DimensionedFunctionInput,
    /// GABM020 — an IR statement reads a variable before any statement
    /// defines it.
    IrUseBeforeDef,
    /// GABM021 — an IR assignment whose target is never read or imposed.
    IrDeadAssignment,
    /// GABM022 — constant folding found a division by zero or a domain
    /// error in the lowered code.
    IrConstFoldError,
    /// GABM030 — a FAS variable is used before its `make` definition.
    FasUseBeforeDef,
    /// GABM031 — a FAS variable is assigned but never used.
    FasUnusedVariable,
    /// GABM032 — a FAS conditional branch can never execute.
    FasDeadBranch,
    /// GABM033 — a FAS expression divides by a constant zero.
    FasDivisionByZero,
    /// GABM034 — a FAS intrinsic is called with a constant argument
    /// outside its domain.
    FasDomainError,
    /// GABM035 — `limit(x, lo, hi)` with constant `lo > hi`.
    FasDegenerateLimit,
}

impl Code {
    /// The stable code string, e.g. `"GABM001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::MultipleDrivers => "GABM001",
            Code::UndrivenNet => "GABM002",
            Code::UnconnectedInput => "GABM003",
            Code::UnconnectedOutput => "GABM004",
            Code::DisconnectedSymbol => "GABM005",
            Code::MissingProperty => "GABM006",
            Code::DimensionConflict => "GABM007",
            Code::AlgebraicLoop => "GABM008",
            Code::DeadSymbol => "GABM009",
            Code::UnusedParameter => "GABM010",
            Code::DegenerateLimiter => "GABM011",
            Code::DimensionedFunctionInput => "GABM012",
            Code::IrUseBeforeDef => "GABM020",
            Code::IrDeadAssignment => "GABM021",
            Code::IrConstFoldError => "GABM022",
            Code::FasUseBeforeDef => "GABM030",
            Code::FasUnusedVariable => "GABM031",
            Code::FasDeadBranch => "GABM032",
            Code::FasDivisionByZero => "GABM033",
            Code::FasDomainError => "GABM034",
            Code::FasDegenerateLimit => "GABM035",
        }
    }

    /// Default severity of findings with this code.
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::UnconnectedOutput
            | Code::DisconnectedSymbol
            | Code::DeadSymbol
            | Code::UnusedParameter
            | Code::IrDeadAssignment
            | Code::FasUnusedVariable
            | Code::FasDeadBranch => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Whether `gabm lint --fix` can attach a machine-applicable [`Fix`]
    /// to findings with this code (for at least some shapes of the
    /// finding; e.g. GABM022 is fixable for degenerate `limit` bounds but
    /// not for a division by zero).
    pub fn has_autofix(&self) -> bool {
        matches!(
            self,
            Code::UnconnectedOutput
                | Code::DisconnectedSymbol
                | Code::DeadSymbol
                | Code::UnusedParameter
                | Code::DegenerateLimiter
                | Code::IrDeadAssignment
                | Code::IrConstFoldError
                | Code::FasUnusedVariable
                | Code::FasDeadBranch
                | Code::FasDegenerateLimit
        )
    }

    /// Every code, in numeric order.
    pub const ALL: &'static [Code] = &[
        Code::MultipleDrivers,
        Code::UndrivenNet,
        Code::UnconnectedInput,
        Code::UnconnectedOutput,
        Code::DisconnectedSymbol,
        Code::MissingProperty,
        Code::DimensionConflict,
        Code::AlgebraicLoop,
        Code::DeadSymbol,
        Code::UnusedParameter,
        Code::DegenerateLimiter,
        Code::DimensionedFunctionInput,
        Code::IrUseBeforeDef,
        Code::IrDeadAssignment,
        Code::IrConstFoldError,
        Code::FasUseBeforeDef,
        Code::FasUnusedVariable,
        Code::FasDeadBranch,
        Code::FasDivisionByZero,
        Code::FasDomainError,
        Code::FasDegenerateLimit,
    ];

    /// One-line summary of what the code means.
    pub fn summary(&self) -> &'static str {
        match self {
            Code::MultipleDrivers => "net driven by more than one output port",
            Code::UndrivenNet => "consumed net bound to no output port",
            Code::UnconnectedInput => "unconnected input port",
            Code::UnconnectedOutput => "unconnected output port",
            Code::DisconnectedSymbol => "symbol not connected at all",
            Code::MissingProperty => "required property missing",
            Code::DimensionConflict => "incompatible physical quantities on one net",
            Code::AlgebraicLoop => "combinational cycle not broken by a delay",
            Code::DeadSymbol => "symbol output reaches no generator or interface",
            Code::UnusedParameter => "declared parameter never referenced",
            Code::DegenerateLimiter => "limiter lower bound exceeds upper bound",
            Code::DimensionedFunctionInput => "function input must be dimensionless",
            Code::IrUseBeforeDef => "IR variable read before definition",
            Code::IrDeadAssignment => "IR assignment never read",
            Code::IrConstFoldError => "constant folding found an arithmetic error",
            Code::FasUseBeforeDef => "variable used before its make definition",
            Code::FasUnusedVariable => "variable assigned but never used",
            Code::FasDeadBranch => "conditional branch can never execute",
            Code::FasDivisionByZero => "division by constant zero",
            Code::FasDomainError => "intrinsic called outside its domain",
            Code::FasDegenerateLimit => "limit() with constant lo > hi",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The artifact cannot be code-generated / executed.
    Error,
    /// Suspicious but tolerated.
    Warning,
    /// Purely advisory; never affects exit codes, even under
    /// `--deny-warnings`.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
            Severity::Note => f.write_str("note"),
        }
    }
}

/// Where a finding is anchored.
#[derive(Debug, Clone, PartialEq)]
pub enum Location {
    /// No specific location.
    None,
    /// A diagram symbol.
    Symbol(SymbolId),
    /// A diagram net.
    Net(NetId),
    /// A port of a diagram symbol.
    Port {
        /// Owning symbol.
        symbol: SymbolId,
        /// Port name.
        port: String,
    },
    /// A lowered-IR statement (index into `CodeIr::statements`).
    Statement(usize),
    /// A source position (1-based line and column).
    Source {
        /// Line number.
        line: usize,
        /// Column number.
        col: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::None => Ok(()),
            Location::Symbol(s) => write!(f, "symbol {}", s.0),
            Location::Net(n) => write!(f, "net {}", n.0),
            Location::Port { symbol, port } => write!(f, "port '{port}' of symbol {}", symbol.0),
            Location::Statement(i) => write!(f, "statement {i}"),
            Location::Source { line, col } => write!(f, "{line}:{col}"),
        }
    }
}

/// One primitive edit of a [`Fix`]. Text edits address FAS source by
/// byte span; the structured variants address diagrams and lowered IR,
/// which have no flat text form.
#[derive(Debug, Clone, PartialEq)]
pub enum FixEdit {
    /// Replace `source[start..end]` (byte offsets) with `text`. An empty
    /// `text` deletes the span.
    ReplaceText {
        /// Start byte offset (inclusive).
        start: usize,
        /// End byte offset (exclusive).
        end: usize,
        /// Replacement text.
        text: String,
    },
    /// Remove a diagram symbol and every net binding that references it.
    RemoveSymbol {
        /// The symbol to remove.
        symbol: SymbolId,
    },
    /// Swap the values of two properties on a diagram symbol.
    SwapProperties {
        /// The symbol holding the properties.
        symbol: SymbolId,
        /// First property name.
        first: String,
        /// Second property name.
        second: String,
    },
    /// Remove a diagram parameter declaration.
    RemoveParameter {
        /// Parameter name.
        name: String,
    },
    /// Remove a lowered-IR statement (index into `CodeIr::statements`).
    RemoveIrStatement {
        /// Statement index.
        index: usize,
    },
    /// Swap the `lo`/`hi` bounds of an IR `Limit` statement.
    SwapIrLimitBounds {
        /// Statement index.
        index: usize,
    },
}

/// A machine-applicable repair attached to a [`Diagnostic`]. All edits
/// of one fix are applied atomically or not at all; the applier rejects
/// fixes whose edits overlap edits already accepted in the same round.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    /// Human-readable description of what applying the fix does.
    pub label: String,
    /// The edits, in no particular order.
    pub edits: Vec<FixEdit>,
}

impl Fix {
    /// Builds a fix from a label and its edits.
    pub fn new(label: impl Into<String>, edits: Vec<FixEdit>) -> Self {
        Fix {
            label: label.into(),
            edits,
        }
    }

    /// Machine-readable form, nested under a diagnostic's `"fix"` key.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("label".to_string(), Value::String(self.label.clone())),
            (
                "edits".to_string(),
                Value::Array(self.edits.iter().map(FixEdit::to_json).collect()),
            ),
        ])
    }
}

impl FixEdit {
    /// Machine-readable form: an object with a single variant-name key.
    pub fn to_json(&self) -> Value {
        let tagged = |tag: &str, fields: Vec<(&str, Value)>| {
            Value::Object(vec![(tag.to_string(), Value::object(fields))])
        };
        match self {
            FixEdit::ReplaceText { start, end, text } => tagged(
                "ReplaceText",
                vec![
                    ("start", Value::Number(*start as f64)),
                    ("end", Value::Number(*end as f64)),
                    ("text", Value::String(text.clone())),
                ],
            ),
            FixEdit::RemoveSymbol { symbol } => tagged(
                "RemoveSymbol",
                vec![("symbol", Value::Number(symbol.0 as f64))],
            ),
            FixEdit::SwapProperties {
                symbol,
                first,
                second,
            } => tagged(
                "SwapProperties",
                vec![
                    ("symbol", Value::Number(symbol.0 as f64)),
                    ("first", Value::string(first)),
                    ("second", Value::string(second)),
                ],
            ),
            FixEdit::RemoveParameter { name } => {
                tagged("RemoveParameter", vec![("name", Value::string(name))])
            }
            FixEdit::RemoveIrStatement { index } => tagged(
                "RemoveIrStatement",
                vec![("index", Value::Number(*index as f64))],
            ),
            FixEdit::SwapIrLimitBounds { index } => tagged(
                "SwapIrLimitBounds",
                vec![("index", Value::Number(*index as f64))],
            ),
        }
    }
}

/// One finding of an analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Anchor.
    pub location: Location,
    /// Explanatory notes (inference chains, cycle paths, …).
    pub notes: Vec<String>,
    /// Actionable suggestions (candidate connections, renames, …) —
    /// advisory only, never machine-applied; rendered as `help:` lines.
    pub help: Vec<String>,
    /// Machine-applicable repair, when a safe one exists.
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity and no notes.
    pub fn new(code: Code, message: impl Into<String>, location: Location) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            location,
            notes: Vec::new(),
            help: Vec::new(),
            fix: None,
        }
    }

    /// Appends an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Appends an actionable (but not machine-applicable) suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help.push(help.into());
        self
    }

    /// Attaches a machine-applicable fix.
    pub fn with_fix(mut self, fix: Fix) -> Self {
        self.fix = Some(fix);
        self
    }

    /// Offending symbol, when the location names one.
    pub fn symbol(&self) -> Option<SymbolId> {
        match &self.location {
            Location::Symbol(s) | Location::Port { symbol: s, .. } => Some(*s),
            _ => None,
        }
    }

    /// Offending net, when the location names one.
    pub fn net(&self) -> Option<NetId> {
        match &self.location {
            Location::Net(n) => Some(*n),
            _ => None,
        }
    }

    /// Machine-readable form, used by `gabm lint --format json`.
    pub fn to_json(&self) -> Value {
        let mut obj = vec![
            ("code".to_string(), Value::String(self.code.as_str().into())),
            (
                "severity".to_string(),
                Value::String(self.severity.to_string()),
            ),
            ("message".to_string(), Value::String(self.message.clone())),
            ("location".to_string(), self.location_json()),
        ];
        if !self.notes.is_empty() {
            obj.push((
                "notes".to_string(),
                Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
            ));
        }
        if !self.help.is_empty() {
            obj.push((
                "help".to_string(),
                Value::Array(self.help.iter().cloned().map(Value::String).collect()),
            ));
        }
        if let Some(fix) = &self.fix {
            obj.push(("fix".to_string(), fix.to_json()));
        }
        Value::Object(obj)
    }

    fn location_json(&self) -> Value {
        match &self.location {
            Location::None => Value::Null,
            Location::Symbol(s) => {
                Value::Object(vec![("symbol".to_string(), Value::Number(s.0 as f64))])
            }
            Location::Net(n) => Value::Object(vec![("net".to_string(), Value::Number(n.0 as f64))]),
            Location::Port { symbol, port } => Value::Object(vec![
                ("symbol".to_string(), Value::Number(symbol.0 as f64)),
                ("port".to_string(), Value::String(port.clone())),
            ]),
            Location::Statement(i) => {
                Value::Object(vec![("statement".to_string(), Value::Number(*i as f64))])
            }
            Location::Source { line, col } => Value::Object(vec![
                ("line".to_string(), Value::Number(*line as f64)),
                ("col".to_string(), Value::Number(*col as f64)),
            ]),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if self.location != Location::None {
            write!(f, "\n  --> {}", self.location)?;
        }
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        for help in &self.help {
            write!(f, "\n  help: {help}")?;
        }
        if let Some(fix) = &self.fix {
            write!(f, "\n  fix: {}", fix.label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = Code::ALL;
        let mut strs: Vec<&str> = all.iter().map(Code::as_str).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), all.len(), "codes must be unique");
        for c in all {
            assert!(c.as_str().starts_with("GABM"));
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn rendering_includes_code_location_and_notes() {
        let d = Diagnostic::new(
            Code::MultipleDrivers,
            "net 3 driven by 2 output ports",
            Location::Net(NetId(3)),
        )
        .with_note("first driver: symbol 1")
        .with_help("disconnect one of the drivers");
        let text = d.to_string();
        assert!(text.contains("error[GABM001]"));
        assert!(text.contains("net 3"));
        assert!(text.contains("note: first driver"));
        assert!(text.contains("help: disconnect one of the drivers"));
    }

    #[test]
    fn json_form_is_parseable() {
        let d = Diagnostic::new(
            Code::FasDivisionByZero,
            "division by zero",
            Location::Source { line: 4, col: 9 },
        );
        let v = d.to_json();
        let text = v.to_string();
        let back = Value::parse(&text).expect("valid JSON");
        assert_eq!(back.get("code").and_then(Value::as_str), Some("GABM033"));
        assert_eq!(
            back.get("location")
                .and_then(|l| l.get("line"))
                .and_then(Value::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn diagnostic_json_is_pinned_including_fix() {
        let d = Diagnostic::new(
            Code::FasDegenerateLimit,
            "limit(b, 10, -10) has lo > hi",
            Location::Source { line: 4, col: 1 },
        )
        .with_note("constant bounds fold to 10 > -10")
        .with_help("write the smaller bound first: limit(b, -10, 10)")
        .with_fix(Fix::new(
            "swap the limit bounds",
            vec![
                FixEdit::ReplaceText {
                    start: 50,
                    end: 52,
                    text: "-10".into(),
                },
                FixEdit::ReplaceText {
                    start: 54,
                    end: 57,
                    text: "10".into(),
                },
            ],
        ));
        assert_eq!(
            d.to_json().to_string(),
            concat!(
                r#"{"code":"GABM035","severity":"error","message":"limit(b, 10, -10) has lo > hi","#,
                r#""location":{"line":4,"col":1},"notes":["constant bounds fold to 10 > -10"],"#,
                r#""help":["write the smaller bound first: limit(b, -10, 10)"],"#,
                r#""fix":{"label":"swap the limit bounds","edits":["#,
                r#"{"ReplaceText":{"start":50,"end":52,"text":"-10"}},"#,
                r#"{"ReplaceText":{"start":54,"end":57,"text":"10"}}]}}"#
            )
        );
    }

    #[test]
    fn every_location_and_edit_has_a_pinned_json_form() {
        let locations = [
            Location::None,
            Location::Symbol(SymbolId(2)),
            Location::Net(NetId(7)),
            Location::Port {
                symbol: SymbolId(1),
                port: "in".into(),
            },
            Location::Statement(5),
            Location::Source { line: 9, col: 3 },
        ];
        let located: Vec<String> = locations
            .into_iter()
            .map(|loc| {
                let d = Diagnostic::new(Code::MultipleDrivers, "m", loc);
                d.to_json().get("location").unwrap().to_string()
            })
            .collect();
        assert_eq!(
            located,
            [
                "null",
                r#"{"symbol":2}"#,
                r#"{"net":7}"#,
                r#"{"symbol":1,"port":"in"}"#,
                r#"{"statement":5}"#,
                r#"{"line":9,"col":3}"#,
            ]
        );
        let edits = [
            FixEdit::ReplaceText {
                start: 0,
                end: 4,
                text: "x".into(),
            },
            FixEdit::RemoveSymbol {
                symbol: SymbolId(3),
            },
            FixEdit::SwapProperties {
                symbol: SymbolId(1),
                first: "min".into(),
                second: "max".into(),
            },
            FixEdit::RemoveParameter { name: "tau".into() },
            FixEdit::RemoveIrStatement { index: 4 },
            FixEdit::SwapIrLimitBounds { index: 2 },
        ];
        let edited: Vec<String> = edits.iter().map(|e| e.to_json().to_string()).collect();
        assert_eq!(
            edited,
            [
                r#"{"ReplaceText":{"start":0,"end":4,"text":"x"}}"#,
                r#"{"RemoveSymbol":{"symbol":3}}"#,
                r#"{"SwapProperties":{"symbol":1,"first":"min","second":"max"}}"#,
                r#"{"RemoveParameter":{"name":"tau"}}"#,
                r#"{"RemoveIrStatement":{"index":4}}"#,
                r#"{"SwapIrLimitBounds":{"index":2}}"#,
            ]
        );
    }

    #[test]
    fn note_severity_renders() {
        assert_eq!(Severity::Note.to_string(), "note");
    }

    #[test]
    fn autofix_availability_matches_fixer() {
        assert!(Code::FasDegenerateLimit.has_autofix());
        assert!(Code::DeadSymbol.has_autofix());
        assert!(!Code::AlgebraicLoop.has_autofix());
        assert!(!Code::FasUseBeforeDef.has_autofix());
    }
}
