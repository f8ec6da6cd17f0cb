//! Machine-applicable fix synthesis and application.
//!
//! The reporting half of the method (§3.2's consistency test) tells the
//! modeller what is wrong; this module is the repairing half: it attaches
//! a [`Fix`] to every finding where a safe, behaviour-preserving (or
//! behaviour-restoring) edit exists, and applies non-overlapping fixes
//! until a fixpoint is reached.
//!
//! Three edit vocabularies, one per representation:
//!
//! * **FAS source** — byte-span text edits ([`FixEdit::ReplaceText`]),
//!   synthesized here from the token stream so spans are exact even with
//!   trailing comments and multi-line statements;
//! * **diagrams** — structured symbol/net edits applied through
//!   [`FunctionalDiagram`]'s mutation API;
//! * **lowered IR** — statement-index edits on [`CodeIr`].
//!
//! Application is atomic per fix and conservative across fixes: a fix
//! whose edits overlap edits already accepted in the same round is
//! refused and picked up (or invalidated) by the next re-lint round.

use gabm_codegen::{CodeIr, IrRhs, IrStatement};
use gabm_core::diag::{Code, Diagnostic, Fix, FixEdit, Location};
use gabm_core::diagram::{FunctionalDiagram, SymbolId};
use gabm_fas::lexer::{tokenize, Spanned, Token};
use gabm_fas::{FasError, Pos};

/// Upper bound on fix→re-lint rounds; reaching it means a fix oscillates,
/// which would be a bug in fix synthesis.
const MAX_ROUNDS: usize = 16;

/// What a fixpoint run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixOutcome {
    /// Number of fix→re-lint rounds executed (0 if nothing was fixable).
    pub rounds: usize,
    /// Fixes applied across all rounds.
    pub applied: usize,
    /// Fixes refused because their edits overlapped an accepted fix (they
    /// are retried on the next round, so a non-zero count here with a
    /// clean final lint is normal).
    pub refused: usize,
    /// Distinct diagnostic codes repaired, in first-seen order.
    pub fixed_codes: Vec<Code>,
    /// Diagnostics still present after the final re-lint.
    pub remaining: Vec<Diagnostic>,
}

impl FixOutcome {
    fn record(&mut self, code: Code) {
        if !self.fixed_codes.contains(&code) {
            self.fixed_codes.push(code);
        }
        self.applied += 1;
    }
}

// ---------------------------------------------------------------------------
// FAS source: fix synthesis from the token stream
// ---------------------------------------------------------------------------

/// Byte offset of the start of every line (index 0 = line 1).
fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Context shared by the per-diagnostic FAS fix builders.
struct FasSpans<'a> {
    src: &'a str,
    tokens: Vec<Spanned<'a>>,
    starts: Vec<usize>,
}

/// Keywords that begin or close a statement; a statement's token extent
/// runs from its first token to the next boundary keyword.
const BOUNDARY_KEYWORDS: &[&str] = &["make", "if", "else", "endif", "endanalog"];

impl<'a> FasSpans<'a> {
    fn new(src: &'a str) -> Option<Self> {
        let tokens = tokenize(src).ok()?;
        Some(FasSpans {
            src,
            tokens,
            starts: line_starts(src),
        })
    }

    /// Byte offset of a token position.
    fn offset(&self, pos: Pos) -> usize {
        self.starts[pos.line - 1] + pos.col - 1
    }

    /// Byte offset one past the end of `line` (after its `\n`).
    fn line_end(&self, line: usize) -> usize {
        if line < self.starts.len() {
            self.starts[line]
        } else {
            self.src.len()
        }
    }

    /// Index of the token at exactly this source position.
    fn token_at(&self, line: usize, col: usize) -> Option<usize> {
        self.tokens
            .iter()
            .position(|t| t.pos.line == line && t.pos.col == col)
    }

    /// Index of the first boundary keyword at or after `from`.
    fn next_boundary(&self, from: usize) -> usize {
        (from..self.tokens.len())
            .find(|&i| match &self.tokens[i].token {
                Token::Ident(s) => BOUNDARY_KEYWORDS.contains(s),
                Token::Eof => true,
                _ => false,
            })
            .unwrap_or(self.tokens.len() - 1)
    }

    /// Deletion span for the statement whose first token is `start`: from
    /// that token through either the start of the next boundary token (if
    /// it shares a line with the statement's last token) or the end of the
    /// last token's line, newline included.
    fn stmt_deletion_span(&self, start: usize) -> (usize, usize) {
        let s = self.offset(self.tokens[start].pos);
        let boundary = self.next_boundary(start + 1);
        let last = &self.tokens[boundary - 1];
        let bnd = &self.tokens[boundary];
        if matches!(bnd.token, Token::Eof) || bnd.pos.line > last.pos.line {
            (s, self.line_end(last.pos.line))
        } else {
            (s, self.offset(bnd.pos))
        }
    }

    /// For the `if` statement whose `if` token is `start`, the indices of
    /// its `then`, optional depth-0 `else`, and matching `endif` tokens.
    fn if_shape(&self, start: usize) -> Option<(usize, Option<usize>, usize)> {
        let mut then_idx = None;
        let mut else_idx = None;
        let mut depth = 0usize;
        for i in start + 1..self.tokens.len() {
            let Token::Ident(s) = &self.tokens[i].token else {
                continue;
            };
            match *s {
                "if" => depth += 1,
                "then" if depth == 0 && then_idx.is_none() => then_idx = Some(i),
                "else" if depth == 0 => else_idx = Some(i),
                "endif" => {
                    if depth == 0 {
                        return Some((then_idx?, else_idx, i));
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        None
    }

    /// Trimmed text span starting at token `first` and ending before token
    /// `stop` (used for `limit` argument swapping).
    fn arg_span(&self, first: usize, stop: usize) -> (usize, usize) {
        let s = self.offset(self.tokens[first].pos);
        let e = self.offset(self.tokens[stop].pos);
        let trimmed = self.src[s..e].trim_end();
        (s, s + trimmed.len())
    }
}

/// Attaches text-span fixes to FAS diagnostics that support them
/// (GABM031 unused variable, GABM032 dead branch, GABM035 degenerate
/// limit). Diagnostics whose repair would be ambiguous — e.g. more than
/// one `limit` call in the offending statement — are left without a fix.
pub fn attach_fas_fixes(src: &str, diags: &mut [Diagnostic]) {
    let Some(spans) = FasSpans::new(src) else {
        return;
    };
    for diag in diags.iter_mut() {
        let Location::Source { line, col } = diag.location else {
            continue;
        };
        let Some(start) = spans.token_at(line, col) else {
            continue;
        };
        diag.fix = match diag.code {
            Code::FasUnusedVariable => {
                let (s, e) = spans.stmt_deletion_span(start);
                Some(Fix::new(
                    "delete the unused assignment",
                    vec![FixEdit::ReplaceText {
                        start: s,
                        end: e,
                        text: String::new(),
                    }],
                ))
            }
            Code::FasDeadBranch => dead_branch_fix(&spans, start, &diag.message),
            Code::FasDegenerateLimit => degenerate_limit_fix(&spans, start),
            _ => continue,
        };
    }
}

/// Unwraps an `if` whose condition folds to a constant: the taken branch
/// is kept in place, the keywords and the dead branch are deleted.
fn dead_branch_fix(spans: &FasSpans<'_>, start: usize, message: &str) -> Option<Fix> {
    let (then_idx, else_idx, endif_idx) = spans.if_shape(start)?;
    let dead_then = message.contains("the then branch");
    let if_off = spans.offset(spans.tokens[start].pos);
    let endif_off = spans.offset(spans.tokens[endif_idx].pos);
    let endif_end = endif_off + "endif".len();
    let delete = |s: usize, e: usize| FixEdit::ReplaceText {
        start: s,
        end: e,
        text: String::new(),
    };
    let edits = if dead_then {
        match else_idx {
            // `if (c) then DEAD else KEPT endif` → keep the else branch:
            // delete through the first kept token, and the `endif`.
            Some(e) => vec![
                delete(if_off, spans.offset(spans.tokens[e + 1].pos)),
                delete(endif_off, endif_end),
            ],
            // No else branch: the whole block is dead text.
            None => vec![delete(if_off, endif_end)],
        }
    } else {
        // `if (c) then KEPT [else DEAD] endif` → keep the then branch.
        let kept_start = spans.offset(spans.tokens[then_idx + 1].pos);
        let mut edits = vec![delete(if_off, kept_start)];
        match else_idx {
            Some(e) => edits.push(delete(spans.offset(spans.tokens[e].pos), endif_end)),
            None => edits.push(delete(endif_off, endif_end)),
        }
        edits
    };
    Some(Fix::new(
        if dead_then {
            "delete the dead then branch and unwrap the if"
        } else {
            "delete the dead else branch and unwrap the if"
        },
        edits,
    ))
}

/// Swaps the `lo`/`hi` argument texts of the single `limit` call in the
/// statement at token `start`. Returns `None` (no fix) when the statement
/// holds more than one `limit` call: the diagnostic's statement-level
/// anchor cannot tell them apart.
fn degenerate_limit_fix(spans: &FasSpans<'_>, start: usize) -> Option<Fix> {
    let boundary = spans.next_boundary(start + 1);
    let mut calls = Vec::new();
    for i in start..boundary.saturating_sub(1) {
        if let Token::Ident(s) = &spans.tokens[i].token {
            if *s == "limit" && matches!(spans.tokens[i + 1].token, Token::LParen) {
                calls.push(i);
            }
        }
    }
    let [call] = calls[..] else {
        return None; // zero or ambiguous: several limit calls in one statement
    };
    // Split the argument list at depth-1 commas.
    let mut depth = 0usize;
    let mut commas = Vec::new();
    let mut rparen = None;
    for i in call + 1..spans.tokens.len() {
        match spans.tokens[i].token {
            Token::LParen => depth += 1,
            Token::RParen => {
                depth -= 1;
                if depth == 0 {
                    rparen = Some(i);
                    break;
                }
            }
            Token::Comma if depth == 1 => commas.push(i),
            _ => {}
        }
    }
    let rparen = rparen?;
    let [c1, c2] = commas[..] else {
        return None; // not a 3-argument call shape
    };
    let (lo_s, lo_e) = spans.arg_span(c1 + 1, c2);
    let (hi_s, hi_e) = spans.arg_span(c2 + 1, rparen);
    let lo_text = spans.src[lo_s..lo_e].to_string();
    let hi_text = spans.src[hi_s..hi_e].to_string();
    Some(Fix::new(
        "swap the limit bounds",
        vec![
            FixEdit::ReplaceText {
                start: lo_s,
                end: lo_e,
                text: hi_text,
            },
            FixEdit::ReplaceText {
                start: hi_s,
                end: hi_e,
                text: lo_text,
            },
        ],
    ))
}

// ---------------------------------------------------------------------------
// Application: one round of non-overlapping fixes
// ---------------------------------------------------------------------------

fn spans_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Applies one round of text fixes to FAS source. Fixes whose spans
/// overlap an already-accepted fix are refused (returned in `.1`); edits
/// are applied back to front so earlier spans stay valid.
fn apply_text_round(src: &str, diags: &[Diagnostic], outcome: &mut FixOutcome) -> Option<String> {
    let mut accepted: Vec<(usize, usize)> = Vec::new();
    let mut edits: Vec<(usize, usize, &str)> = Vec::new();
    let mut any = false;
    for diag in diags {
        let Some(fix) = &diag.fix else { continue };
        let spans: Vec<(usize, usize)> = fix
            .edits
            .iter()
            .filter_map(|e| match e {
                FixEdit::ReplaceText { start, end, .. } => Some((*start, *end)),
                _ => None,
            })
            .collect();
        if spans.len() != fix.edits.len() {
            continue; // not a text fix
        }
        let ok = spans.iter().all(|s| {
            s.0 <= s.1
                && s.1 <= src.len()
                && accepted.iter().all(|a| !spans_overlap(*a, *s))
                && spans
                    .iter()
                    .filter(|o| *o != s)
                    .all(|o| !spans_overlap(*o, *s))
        });
        if !ok {
            outcome.refused += 1;
            continue;
        }
        accepted.extend(&spans);
        for e in &fix.edits {
            if let FixEdit::ReplaceText { start, end, text } = e {
                edits.push((*start, *end, text));
            }
        }
        outcome.record(diag.code);
        any = true;
    }
    if !any {
        return None;
    }
    edits.sort_by_key(|e| std::cmp::Reverse(e.0));
    let mut out = src.to_string();
    for (s, e, text) in edits {
        out.replace_range(s..e, text);
    }
    Some(out)
}

/// Applies fixable FAS diagnostics to `src` and re-lints until no fix
/// applies, returning the repaired source and what happened.
///
/// # Errors
///
/// A [`FasError`] if the original source does not parse, or — which would
/// be a fix-synthesis bug — if an applied round produces source that no
/// longer parses.
pub fn fix_fas_source(src: &str) -> Result<(String, FixOutcome), FasError> {
    let mut current = src.to_string();
    let mut outcome = FixOutcome::default();
    loop {
        let diags = crate::registry::lint_fas_source(&current)?;
        if outcome.rounds >= MAX_ROUNDS {
            outcome.remaining = diags;
            return Ok((current, outcome));
        }
        match apply_text_round(&current, &diags, &mut outcome) {
            Some(next) => {
                outcome.rounds += 1;
                current = next;
            }
            None => {
                outcome.remaining = diags;
                return Ok((current, outcome));
            }
        }
    }
}

/// Applies one round of structured diagram fixes: property swaps and
/// parameter removals first (they do not renumber anything), then symbol
/// removals in descending id order so earlier removals cannot shift the
/// ids later removals refer to.
fn apply_diagram_round(
    d: &mut FunctionalDiagram,
    diags: &[Diagnostic],
    outcome: &mut FixOutcome,
) -> bool {
    let mut removals: Vec<(SymbolId, Code)> = Vec::new();
    let mut any = false;
    for diag in diags {
        let Some(fix) = &diag.fix else { continue };
        for edit in &fix.edits {
            match edit {
                FixEdit::SwapProperties {
                    symbol,
                    first,
                    second,
                } => {
                    let swapped = d.swap_properties(*symbol, first, second).is_ok();
                    if swapped {
                        outcome.record(diag.code);
                        any = true;
                    }
                }
                FixEdit::RemoveParameter { name } => {
                    let removed = d.remove_parameter(name);
                    if removed {
                        outcome.record(diag.code);
                        any = true;
                    }
                }
                FixEdit::RemoveSymbol { symbol } => {
                    let seen = removals.iter().any(|(s, _)| s == symbol);
                    if !seen {
                        removals.push((*symbol, diag.code));
                    }
                }
                _ => {}
            }
        }
    }
    removals.sort_by_key(|r| std::cmp::Reverse(r.0));
    for (symbol, code) in removals {
        if d.remove_symbol(symbol).is_ok() {
            outcome.record(code);
            any = true;
        }
    }
    any
}

/// Applies fixable diagram diagnostics in place and re-lints until no fix
/// applies. Only diagram-layer edits are applied: IR findings surfaced by
/// `lint_diagram` describe the *lowered* form and cannot be routed back
/// into the diagram mechanically.
pub fn fix_diagram(d: &mut FunctionalDiagram) -> FixOutcome {
    let mut outcome = FixOutcome::default();
    loop {
        let diags = crate::registry::lint_diagram(d);
        if outcome.rounds >= MAX_ROUNDS {
            outcome.remaining = diags;
            return outcome;
        }
        if !apply_diagram_round(d, &diags, &mut outcome) {
            outcome.remaining = diags;
            return outcome;
        }
        outcome.rounds += 1;
    }
}

/// Applies one round of IR statement fixes: bound swaps first (they keep
/// every index valid), then removals in descending index order.
fn apply_ir_round(ir: &mut CodeIr, diags: &[Diagnostic], outcome: &mut FixOutcome) -> bool {
    let mut removals: Vec<(usize, Code)> = Vec::new();
    let mut any = false;
    for diag in diags {
        let Some(fix) = &diag.fix else { continue };
        for edit in &fix.edits {
            match edit {
                FixEdit::SwapIrLimitBounds { index } => {
                    if let Some(IrStatement::Assign {
                        rhs: IrRhs::Limit { lo, hi, .. },
                        ..
                    }) = ir.statements.get_mut(*index)
                    {
                        std::mem::swap(lo, hi);
                        outcome.record(diag.code);
                        any = true;
                    }
                }
                FixEdit::RemoveIrStatement { index } => {
                    let seen = removals.iter().any(|(i, _)| i == index);
                    if !seen {
                        removals.push((*index, diag.code));
                    }
                }
                _ => {}
            }
        }
    }
    removals.sort_by_key(|r| std::cmp::Reverse(r.0));
    for (index, code) in removals {
        if index < ir.statements.len() {
            ir.statements.remove(index);
            outcome.record(code);
            any = true;
        }
    }
    any
}

/// Applies fixable IR diagnostics in place and re-lints until no fix
/// applies (dead assignments cascade: removing one may orphan its inputs).
pub fn fix_code_ir(ir: &mut CodeIr) -> FixOutcome {
    let mut outcome = FixOutcome::default();
    loop {
        let diags = crate::registry::lint_code_ir(ir);
        if outcome.rounds >= MAX_ROUNDS {
            outcome.remaining = diags;
            return outcome;
        }
        if !apply_ir_round(ir, &diags, &mut outcome) {
            outcome.remaining = diags;
            return outcome;
        }
        outcome.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::symbol::{PropertyValue, SymbolKind};

    fn wrap(body: &str) -> String {
        format!("model t pin(a, b) param(g=1.0) analog\n{body}\nendanalog endmodel\n")
    }

    #[test]
    fn unused_variable_is_deleted() {
        let src = wrap("make x = g * volt.value(a)\nmake scratch = x * 2\nmake curr.on(b) = x");
        let (fixed, outcome) = fix_fas_source(&src).unwrap();
        assert!(!fixed.contains("scratch"), "{fixed}");
        assert_eq!(outcome.fixed_codes, vec![Code::FasUnusedVariable]);
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn unused_variable_with_trailing_comment_deleted_cleanly() {
        let src = wrap("make x = g\nmake scratch = x * 2 // obsolete\nmake curr.on(b) = x");
        let (fixed, _) = fix_fas_source(&src).unwrap();
        assert!(!fixed.contains("scratch"));
        assert!(!fixed.contains("obsolete"));
        assert!(gabm_fas::parse(&fixed).is_ok());
    }

    #[test]
    fn dead_else_branch_unwrapped() {
        let src =
            wrap("if (1 < 2) then\nmake x = g\nelse\nmake x = -g\nendif\nmake curr.on(b) = x");
        let (fixed, outcome) = fix_fas_source(&src).unwrap();
        assert!(!fixed.contains("if"), "{fixed}");
        assert!(fixed.contains("make x = g"));
        assert!(!fixed.contains("-g"));
        assert!(outcome.fixed_codes.contains(&Code::FasDeadBranch));
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn dead_then_branch_without_else_removes_block() {
        let src = wrap("make x = g\nif (1 >= 2) then\nmake x = 0\nendif\nmake curr.on(b) = x");
        let (fixed, outcome) = fix_fas_source(&src).unwrap();
        assert!(!fixed.contains("if"), "{fixed}");
        assert!(!fixed.contains("endif"));
        assert!(outcome.fixed_codes.contains(&Code::FasDeadBranch));
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn degenerate_limit_bounds_swapped() {
        let src = wrap("make x = limit(volt.value(a), 10, -10)\nmake curr.on(b) = x");
        let (fixed, outcome) = fix_fas_source(&src).unwrap();
        assert!(fixed.contains("limit(volt.value(a), -10, 10)"), "{fixed}");
        assert_eq!(outcome.fixed_codes, vec![Code::FasDegenerateLimit]);
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn ambiguous_double_limit_left_alone() {
        let src = wrap("make x = limit(g, 5, 1) + limit(g, 9, 2)\nmake curr.on(b) = x");
        let diags = crate::registry::lint_fas_source(&src).unwrap();
        for d in diags.iter().filter(|d| d.code == Code::FasDegenerateLimit) {
            assert!(d.fix.is_none(), "ambiguous fix must be refused: {d:?}");
        }
        let (fixed, outcome) = fix_fas_source(&src).unwrap();
        assert_eq!(fixed, src);
        assert_eq!(outcome.applied, 0);
    }

    #[test]
    fn fixpoint_is_idempotent() {
        let src = wrap(
            "make x = g\nmake scratch = x * 2\nif (1 > 2) then\nmake x = 0\nendif\nmake y = limit(x, 3, -3)\nmake curr.on(b) = y",
        );
        let (once, o1) = fix_fas_source(&src).unwrap();
        let (twice, o2) = fix_fas_source(&once).unwrap();
        assert_eq!(once, twice);
        assert!(o1.applied >= 3, "{o1:?}");
        assert_eq!(o2.applied, 0);
    }

    #[test]
    fn diagram_fixpoint_cascades_dead_symbol_into_unused_parameter() {
        let mut d = FunctionalDiagram::new("dead-limiter");
        d.add_parameter("lo", -5.0, gabm_core::Dimension::NONE);
        let pin = d.add_symbol(SymbolKind::Pin { name: "a".into() });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: gabm_core::Dimension::VOLTAGE,
        });
        let g1 = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(2.0))], None);
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Param("lo".into())),
                ("max", PropertyValue::Number(5.0)),
            ],
            None,
        );
        let pin_b = d.add_symbol(SymbolKind::Pin { name: "b".into() });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: gabm_core::Dimension::VOLTAGE,
        });
        d.connect(d.port(pin, "pin").unwrap(), d.port(probe, "pin").unwrap())
            .unwrap();
        // Live chain: probe → g1 → voltage generator on pin b.
        d.connect(d.port(probe, "out").unwrap(), d.port(g1, "in").unwrap())
            .unwrap();
        d.connect(d.port(g1, "out").unwrap(), d.port(gen, "in").unwrap())
            .unwrap();
        d.connect(d.port(gen, "pin").unwrap(), d.port(pin_b, "pin").unwrap())
            .unwrap();
        // Dead side chain: probe → limiter → tail gain, tail output
        // unconnected. The tail is removed via GABM004 (all outputs
        // dangle), the limiter via GABM009 (transitively dead), and
        // removing the limiter (round 1) orphans parameter 'lo'
        // (round 2).
        let tail = d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        d.connect(d.port(probe, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        d.connect(d.port(lim, "out").unwrap(), d.port(tail, "in").unwrap())
            .unwrap();
        let outcome = fix_diagram(&mut d);
        assert_eq!(outcome.rounds, 2, "{outcome:?}");
        assert!(outcome.fixed_codes.contains(&Code::DeadSymbol));
        assert!(outcome.fixed_codes.contains(&Code::UnconnectedOutput));
        assert!(outcome.fixed_codes.contains(&Code::UnusedParameter));
        assert_eq!(d.symbol_count(), 5, "pins, probe, gain, generator survive");
        assert!(d.parameters().is_empty());
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn diagram_swap_and_disconnected_fixes_apply() {
        let mut d = FunctionalDiagram::new("swap");
        let pin = d.add_symbol(SymbolKind::Pin { name: "a".into() });
        let probe = d.add_symbol(SymbolKind::Probe {
            quantity: gabm_core::Dimension::VOLTAGE,
        });
        let lim = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(5.0)),
                ("max", PropertyValue::Number(-5.0)),
            ],
            None,
        );
        let orphan =
            d.add_symbol_with(SymbolKind::Gain, &[("a", PropertyValue::Number(1.0))], None);
        let pin_b = d.add_symbol(SymbolKind::Pin { name: "b".into() });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: gabm_core::Dimension::VOLTAGE,
        });
        d.connect(d.port(pin, "pin").unwrap(), d.port(probe, "pin").unwrap())
            .unwrap();
        d.connect(d.port(probe, "out").unwrap(), d.port(lim, "in").unwrap())
            .unwrap();
        d.connect(d.port(lim, "out").unwrap(), d.port(gen, "in").unwrap())
            .unwrap();
        d.connect(d.port(gen, "pin").unwrap(), d.port(pin_b, "pin").unwrap())
            .unwrap();
        let _ = orphan;
        let outcome = fix_diagram(&mut d);
        assert!(outcome.fixed_codes.contains(&Code::DegenerateLimiter));
        assert!(outcome.fixed_codes.contains(&Code::DisconnectedSymbol));
        assert_eq!(d.symbol_count(), 5);
        let lim_sym = d.symbol(lim).unwrap();
        assert_eq!(
            lim_sym.properties.get("min"),
            Some(&PropertyValue::Number(-5.0))
        );
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
    }

    #[test]
    fn ir_dead_assignments_cascade() {
        use gabm_codegen::IrParam;
        let mut ir = CodeIr {
            model_name: "t".into(),
            pins: vec!["a".into()],
            params: vec![IrParam {
                name: "g".into(),
                default: 1.0,
                from_open_input: false,
            }],
            statements: vec![
                IrStatement::Assign {
                    id: 1,
                    var: "x".into(),
                    rhs: IrRhs::Copy { input: "g".into() },
                },
                // y reads x, nothing reads y: removing y orphans x.
                IrStatement::Assign {
                    id: 2,
                    var: "y".into(),
                    rhs: IrRhs::Copy { input: "x".into() },
                },
                IrStatement::Assign {
                    id: 3,
                    var: "z".into(),
                    rhs: IrRhs::Limit {
                        input: "g".into(),
                        lo: "5".into(),
                        hi: "-5".into(),
                    },
                },
                IrStatement::Impose {
                    id: 4,
                    pin: "a".into(),
                    quantity: gabm_codegen::PinQuantity::Curr,
                    expr: "z".into(),
                },
            ],
        };
        let outcome = fix_code_ir(&mut ir);
        assert!(outcome.fixed_codes.contains(&Code::IrDeadAssignment));
        assert!(outcome.fixed_codes.contains(&Code::IrConstFoldError));
        assert_eq!(ir.statements.len(), 2, "{:?}", ir.statements);
        assert!(outcome.remaining.is_empty(), "{:?}", outcome.remaining);
        if let IrStatement::Assign {
            rhs: IrRhs::Limit { lo, hi, .. },
            ..
        } = &ir.statements[0]
        {
            assert_eq!((lo.as_str(), hi.as_str()), ("-5", "5"));
        } else {
            panic!("limit assign expected first");
        }
    }
}
