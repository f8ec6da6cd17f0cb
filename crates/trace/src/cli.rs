//! Shared command-line wiring for tracing, used by both the `gabm` and
//! `harness` binaries so flag behaviour — and, crucially, the error
//! messages that *name the offending flag* — stay identical everywhere.

/// Resolved tracing request for one process invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Chrome trace-event JSON output path (`--trace <path>` or the
    /// `GABM_TRACE` environment variable).
    pub out: Option<String>,
    /// Print the plain-text hierarchical summary to stdout
    /// (`--trace-summary`).
    pub summary: bool,
}

impl TraceConfig {
    /// `true` when any trace output was requested.
    pub fn active(&self) -> bool {
        self.out.is_some() || self.summary
    }
}

/// Reads the `GABM_TRACE` environment fallback (an output path; unset or
/// empty means disabled).
pub fn env_trace() -> Option<String> {
    match std::env::var("GABM_TRACE") {
        Ok(v) if !v.is_empty() => Some(v),
        _ => None,
    }
}

/// Removes every `--trace <path>` / `--trace-summary` occurrence from
/// `argv` (any position, so they compose with subcommands and their
/// flags) and resolves the `GABM_TRACE` fallback.
///
/// # Errors
///
/// A message naming the flag when `--trace` is missing its value or the
/// value looks like another flag.
pub fn take_trace_flags(argv: &mut Vec<String>) -> Result<TraceConfig, String> {
    let mut out = None;
    let mut summary = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace" => {
                if i + 1 >= argv.len() {
                    return Err("--trace requires a value".to_string());
                }
                let value = argv.remove(i + 1);
                if value.starts_with('-') {
                    return Err(format!(
                        "invalid value '{value}' for --trace: expected an output file path"
                    ));
                }
                argv.remove(i);
                out = Some(value);
            }
            "--trace-summary" => {
                summary = true;
                argv.remove(i);
            }
            _ => i += 1,
        }
    }
    if out.is_none() {
        out = env_trace();
    }
    Ok(TraceConfig { out, summary })
}

/// Starts collection when the config asks for any output.
pub fn maybe_enable(cfg: &TraceConfig) {
    if cfg.active() {
        crate::enable();
    }
}

/// Stops collection and writes the requested outputs: the Chrome JSON
/// file and/or the text summary on stdout. A no-op for an inactive
/// config.
///
/// # Errors
///
/// A message naming the path when the trace file cannot be written.
pub fn finalize(cfg: &TraceConfig) -> Result<(), String> {
    if !cfg.active() {
        return Ok(());
    }
    let trace = crate::finish();
    if let Some(path) = &cfg.out {
        std::fs::write(path, trace.to_chrome_json(false))
            .map_err(|e| format!("cannot write trace to '{path}': {e}"))?;
    }
    if cfg.summary {
        print!("{}", trace.summary());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_flag_is_taken_anywhere() {
        let mut a = argv(&["compile", "--trace", "out.json", "x.fas"]);
        let cfg = take_trace_flags(&mut a).unwrap();
        assert_eq!(cfg.out.as_deref(), Some("out.json"));
        assert_eq!(a, argv(&["compile", "x.fas"]));

        let mut b = argv(&["--trace-summary", "lint", "y.fas"]);
        let cfg = take_trace_flags(&mut b).unwrap();
        assert!(cfg.summary);
        assert_eq!(b, argv(&["lint", "y.fas"]));
    }

    #[test]
    fn trace_flag_errors_name_the_flag() {
        let mut a = argv(&["compile", "--trace"]);
        let err = take_trace_flags(&mut a).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let mut b = argv(&["--trace", "--deny-warnings"]);
        let err = take_trace_flags(&mut b).unwrap_err();
        assert!(
            err.contains("--trace") && err.contains("--deny-warnings"),
            "{err}"
        );
    }
}
