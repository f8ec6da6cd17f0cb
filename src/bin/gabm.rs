//! `gabm` — command-line front end for the GABM toolchain.
//!
//! Exposes the static analyser and the bytecode compiler:
//!
//! ```text
//! gabm lint <file.fas | file.json> [--format text|json] [--deny-warnings]
//! gabm lint <file> --fix [--dry-run]
//! gabm lint --construct <input-stage|output-stage|power-supply|slew-rate>
//! gabm lint --list-passes
//! gabm compile <file.fas> [--disasm]
//! gabm trace <out.json>
//! gabm help <command> | --version
//! ```
//!
//! Diagram inputs are recognised by a case-insensitive `.json` extension
//! *or* by content (a leading `{`), so extensionless and unconventionally
//! named files dispatch correctly; everything else is treated as FAS
//! source (§4.2 textual models).
//!
//! `--fix` applies every machine-applicable fix to a fixpoint and writes
//! the repaired input back (`--dry-run` reports without writing).
//!
//! `--trace <out.json>` (env fallback: `GABM_TRACE`) records a Chrome
//! trace-event file of any command — spans from the simulator, bytecode
//! compiler, characterization rigs and worker pool — and `gabm trace`
//! validates such a file; `--trace-summary` prints the text summary.
//!
//! Exit status: `0` clean, `1` diagnostics found (errors always count;
//! warnings only under `--deny-warnings`), `2` usage or I/O failure.

use gabm::core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm::core::json::{from_str, to_string_pretty, Value};
use gabm::lint::{
    fix_diagram, fix_fas_source, lint_diagram, lint_fas_source, passes, render_text, summarize,
    to_json, Diagnostic, FixOutcome,
};
use std::process::ExitCode;

const TOP_USAGE: &str = "\
usage: gabm <command> [options]

commands:
  lint     static analysis of diagrams, codegen IR and FAS source
  compile  compile a FAS model to register bytecode
  trace    validate and summarize a Chrome trace-event file
  help     show help for a command: gabm help <command>

flags:
  --trace <out.json> record a Chrome trace-event file of this invocation
                     (load it in Perfetto / chrome://tracing; env: GABM_TRACE)
  --trace-summary    print a hierarchical span/counter summary on exit
  --version, -V      print the toolchain version
  --help, -h         show this help
";

const LINT_USAGE: &str = "\
usage: gabm lint <file.fas | file.json> [options]
       gabm lint --construct <name> [options]
       gabm lint --list-passes

options:
  --construct <name>   lint a built-in paper construct instead of a file
                       (input-stage, output-stage, power-supply, slew-rate)
  --format <fmt>       output format: text (default) or json
  --deny-warnings      exit non-zero on warnings, not only on errors
  --fix                apply machine-applicable fixes to a fixpoint and
                       write the repaired input back
  --dry-run            with --fix: report the fixes without writing
  --list-passes        list every registered pass and exit
";

const COMPILE_USAGE: &str = "\
usage: gabm compile <file.fas> [options]

Compiles a FAS behavioural model to register bytecode (the form every
FAS model runs in during simulation) and prints a summary of the
compiled program.

options:
  --disasm   print the full disassembled bytecode listing
";

const TRACE_USAGE: &str = "\
usage: gabm trace <file.json>

Validates a Chrome trace-event file (as written by --trace) and prints
what it contains: event counts, threads and the top-level spans. Exits
2 if the file does not parse or is not a trace-event object.
";

enum Format {
    Text,
    Json,
}

struct LintArgs {
    input: Option<String>,
    construct: Option<String>,
    format: Format,
    deny_warnings: bool,
    list_passes: bool,
    fix: bool,
    dry_run: bool,
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut out = LintArgs {
        input: None,
        construct: None,
        format: Format::Text,
        deny_warnings: false,
        list_passes: false,
        fix: false,
        dry_run: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--construct" => {
                let name = it.next().ok_or("--construct requires a name")?;
                out.construct = Some(name.clone());
            }
            "--format" => {
                let fmt = it.next().ok_or("--format requires 'text' or 'json'")?;
                out.format = match fmt.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--deny-warnings" => out.deny_warnings = true,
            "--list-passes" => out.list_passes = true,
            "--fix" => out.fix = true,
            "--dry-run" => out.dry_run = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => {
                if out.input.is_some() {
                    return Err("more than one input file".to_string());
                }
                out.input = Some(other.to_string());
            }
        }
    }
    if out.dry_run && !out.fix {
        return Err("--dry-run only makes sense with --fix".to_string());
    }
    if out.fix && out.construct.is_some() && !out.dry_run {
        return Err(
            "--fix --construct requires --dry-run (a built-in construct cannot be written back)"
                .to_string(),
        );
    }
    Ok(out)
}

/// Builds the requested §3.3 construct with its documented example values.
fn construct_diagram(name: &str) -> Result<gabm::core::FunctionalDiagram, String> {
    let d = match name {
        "input-stage" => InputStageSpec::new("in", 1.0e-6, 5.0e-12).diagram(),
        "output-stage" => OutputStageSpec::new("out", 1.0e-3).diagram(),
        "power-supply" => PowerSupplySpec::new("vdd", "vss", 1.0e-5, 1.0e-6, 2).diagram(),
        "slew-rate" => SlewRateSpec::new(2.0e6, 2.0e6).diagram(),
        other => {
            return Err(format!(
                "unknown construct '{other}' (expected input-stage, output-stage, power-supply or slew-rate)"
            ))
        }
    };
    d.map_err(|e| format!("failed to build construct '{name}': {e}"))
}

/// `true` when the input should be linted as a diagram. The extension is
/// checked case-insensitively, and extensionless or oddly named files are
/// sniffed by content: diagram files are JSON objects, so a leading `{`
/// decides (no FAS source can start with one).
fn is_diagram_input(path: &str, text: &str) -> bool {
    let lower = path.to_ascii_lowercase();
    lower.ends_with(".json") || text.trim_start().starts_with('{')
}

fn lint_input(args: &LintArgs) -> Result<Vec<Diagnostic>, String> {
    if let Some(name) = &args.construct {
        return Ok(lint_diagram(&construct_diagram(name)?));
    }
    let Some(path) = &args.input else {
        return Err("no input file (or --construct) given".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if is_diagram_input(path, &text) {
        let diagram: gabm::core::FunctionalDiagram =
            from_str(&text).map_err(|e| format!("'{path}' is not a diagram: {e}"))?;
        Ok(lint_diagram(&diagram))
    } else {
        lint_fas_source(&text).map_err(|e| format!("'{path}': {e}"))
    }
}

/// Runs the fixer over the input; returns the outcome and whether the
/// repaired form was written back.
fn fix_input(args: &LintArgs) -> Result<(FixOutcome, bool), String> {
    if let Some(name) = &args.construct {
        let mut diagram = construct_diagram(name)?;
        return Ok((fix_diagram(&mut diagram), false));
    }
    let Some(path) = &args.input else {
        return Err("no input file (or --construct) given".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if is_diagram_input(path, &text) {
        let mut diagram: gabm::core::FunctionalDiagram =
            from_str(&text).map_err(|e| format!("'{path}' is not a diagram: {e}"))?;
        let outcome = fix_diagram(&mut diagram);
        let write = !args.dry_run && outcome.applied > 0;
        if write {
            std::fs::write(path, to_string_pretty(&diagram))
                .map_err(|e| format!("cannot write '{path}': {e}"))?;
        }
        Ok((outcome, write))
    } else {
        let (fixed, outcome) = fix_fas_source(&text).map_err(|e| format!("'{path}': {e}"))?;
        let write = !args.dry_run && fixed != text;
        if write {
            std::fs::write(path, fixed).map_err(|e| format!("cannot write '{path}': {e}"))?;
        }
        Ok((outcome, write))
    }
}

/// JSON form of a fix run: the remaining diagnostics plus a `"fix"` object.
fn fix_json(outcome: &FixOutcome, dry_run: bool, written: bool) -> Value {
    let Value::Object(mut fields) = to_json(&outcome.remaining) else {
        unreachable!("to_json always returns an object");
    };
    fields.push((
        "fix".to_string(),
        Value::Object(vec![
            ("applied".to_string(), Value::Number(outcome.applied as f64)),
            ("refused".to_string(), Value::Number(outcome.refused as f64)),
            ("rounds".to_string(), Value::Number(outcome.rounds as f64)),
            (
                "fixed_codes".to_string(),
                Value::Array(
                    outcome
                        .fixed_codes
                        .iter()
                        .map(|c| Value::String(c.as_str().to_string()))
                        .collect(),
                ),
            ),
            ("dry_run".to_string(), Value::Bool(dry_run)),
            ("written".to_string(), Value::Bool(written)),
        ]),
    ));
    Value::Object(fields)
}

fn exit_code_for(diags: &[Diagnostic], deny_warnings: bool) -> ExitCode {
    let (errors, warnings, _notes) = summarize(diags);
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_lint(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_lint_args(args)?;
    if args.list_passes {
        for (layer, name) in passes() {
            println!("{layer}: {name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.fix {
        let (outcome, written) = fix_input(&args)?;
        match args.format {
            Format::Text => {
                println!(
                    "applied {} fix(es) in {} round(s){}{}",
                    outcome.applied,
                    outcome.rounds,
                    if outcome.refused > 0 {
                        format!(", {} refused as ambiguous/overlapping", outcome.refused)
                    } else {
                        String::new()
                    },
                    if args.dry_run {
                        " [dry run — nothing written]"
                    } else if written {
                        " [input updated]"
                    } else {
                        ""
                    },
                );
                print!("{}", render_text(&outcome.remaining));
            }
            Format::Json => println!("{}", fix_json(&outcome, args.dry_run, written)),
        }
        return Ok(exit_code_for(&outcome.remaining, args.deny_warnings));
    }
    let diags = lint_input(&args)?;
    match args.format {
        Format::Text => print!("{}", render_text(&diags)),
        Format::Json => println!("{}", to_json(&diags)),
    }
    Ok(exit_code_for(&diags, args.deny_warnings))
}

/// `gabm compile <file.fas> [--disasm]`.
fn run_compile(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<&str> = None;
    let mut disasm = false;
    for arg in args {
        match arg.as_str() {
            "--disasm" => disasm = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => {
                if input.is_some() {
                    return Err("more than one input file".to_string());
                }
                input = Some(other);
            }
        }
    }
    let Some(path) = input else {
        return Err("no input file given".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let model = gabm::fas::compile(&text).map_err(|e| format!("'{path}': {e}"))?;
    let prog =
        gabm::fasvm::compile_program(&model).map_err(|e| format!("'{path}': bytecode: {e}"))?;
    if disasm {
        print!("{}", prog.disasm());
    } else {
        println!(
            "{}: {} pins, {} params -> {} ops in {} registers",
            prog.name(),
            prog.pins().len(),
            prog.params().len(),
            prog.op_count(),
            prog.reg_count(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `gabm trace <file.json>`: validate a Chrome trace-event file.
fn run_trace(args: &[String]) -> Result<ExitCode, String> {
    let mut input: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => {
                if input.is_some() {
                    return Err("more than one input file".to_string());
                }
                input = Some(other);
            }
        }
    }
    let Some(path) = input else {
        return Err("no input file given".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let value = Value::parse(&text).map_err(|e| format!("'{path}' is not valid JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("'{path}' has no 'traceEvents' array"))?;
    let (mut begins, mut ends, mut counters, mut metas) = (0usize, 0usize, 0usize, 0usize);
    let mut tids = std::collections::BTreeSet::new();
    // A span is top-level when its Begin arrives with no span still open
    // on the same thread.
    let mut depth: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    let mut top_level = std::collections::BTreeSet::new();
    for (k, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("'{path}': event {k} has no 'ph' string"))?;
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "B" => {
                begins += 1;
                tids.insert(tid);
                let d = depth.entry(tid).or_insert(0);
                if *d == 0 {
                    if let Some(name) = ev.get("name").and_then(Value::as_str) {
                        top_level.insert(name.to_string());
                    }
                }
                *d += 1;
            }
            "E" => {
                ends += 1;
                let d = depth.entry(tid).or_insert(0);
                *d = d.saturating_sub(1);
            }
            "C" => counters += 1,
            "M" => metas += 1,
            other => return Err(format!("'{path}': event {k} has unknown phase '{other}'")),
        }
    }
    if begins != ends {
        return Err(format!(
            "'{path}': unbalanced spans ({begins} begin vs {ends} end events)"
        ));
    }
    println!(
        "{path}: ok — {} event(s): {} span(s) on {} thread(s), {} counter(s), {} metadata",
        events.len(),
        begins,
        tids.len(),
        counters,
        metas
    );
    if !top_level.is_empty() {
        let names: Vec<&str> = top_level.iter().map(String::as_str).collect();
        println!("top-level spans: {}", names.join(", "));
    }
    Ok(ExitCode::SUCCESS)
}

/// `gabm help <command>`.
fn run_help(argv: &[String]) -> ExitCode {
    match argv.first().map(String::as_str) {
        None => {
            print!("{TOP_USAGE}");
            ExitCode::SUCCESS
        }
        Some("lint") => {
            print!("{LINT_USAGE}");
            ExitCode::SUCCESS
        }
        Some("compile") => {
            print!("{COMPILE_USAGE}");
            ExitCode::SUCCESS
        }
        Some("trace") => {
            print!("{TRACE_USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n{TOP_USAGE}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let trace_cfg = match gabm::trace::cli::take_trace_flags(&mut argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}\n{TOP_USAGE}");
            return ExitCode::from(2);
        }
    };
    gabm::trace::cli::maybe_enable(&trace_cfg);
    let code = dispatch(&argv);
    if let Err(msg) = gabm::trace::cli::finalize(&trace_cfg) {
        eprintln!("error: {msg}");
        return ExitCode::from(2);
    }
    code
}

fn dispatch(argv: &[String]) -> ExitCode {
    match argv.first().map(String::as_str) {
        Some("lint") => match run_lint(&argv[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("error: {msg}\n{LINT_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compile") => match run_compile(&argv[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("error: {msg}\n{COMPILE_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("trace") => match run_trace(&argv[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("error: {msg}\n{TRACE_USAGE}");
                ExitCode::from(2)
            }
        },
        Some("--version") | Some("-V") => {
            println!("gabm {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") => {
            print!("{TOP_USAGE}");
            ExitCode::SUCCESS
        }
        Some("help") => run_help(&argv[1..]),
        Some(other) if other.starts_with('-') => {
            eprintln!("error: unknown flag '{other}'\n{TOP_USAGE}");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n{TOP_USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprint!("{TOP_USAGE}");
            ExitCode::from(2)
        }
    }
}
