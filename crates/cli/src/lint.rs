//! `ddc lint` — the repo-invariant semantic analyzer as a shell
//! subcommand (the same engine as the `ddc-lint` binary in
//! `ddc-check`).
//!
//! ```text
//! ddc lint [--root DIR] [--allow FILE] [--rule NAME] [--json FILE]
//! ddc lint --fixtures [--root DIR]
//! ```
//!
//! Errors (and so exits nonzero) on any blocking finding, stale
//! allowlist entry, or expired allowlist lease.

use std::path::PathBuf;

use ddc_check::lint;

/// Runs `ddc lint` with the given arguments, returning the report text.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut fixtures = false;
    let mut pr_override: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--allow" if i + 1 < args.len() => {
                allow_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--rule" if i + 1 < args.len() => {
                rule = Some(args[i + 1].clone());
                i += 2;
            }
            "--json" if i + 1 < args.len() => {
                json_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--pr" if i + 1 < args.len() => {
                pr_override = Some(
                    args[i + 1]
                        .parse()
                        .map_err(|_| format!("--pr expects a number, got `{}`", args[i + 1]))?,
                );
                i += 2;
            }
            "--fixtures" => {
                fixtures = true;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --root DIR, --allow FILE, --rule NAME, \
                     --json FILE, --fixtures, --pr N)"
                ))
            }
        }
    }

    if fixtures {
        let r = lint::run_fixtures(&root.join("crates/check/tests/lint_fixtures"))?;
        let mut out = String::new();
        for (rule, (refound, total)) in &r.per_rule {
            out.push_str(&format!("fixtures [{rule}] {refound}/{total}\n"));
        }
        for (path, line, rule) in &r.missing {
            out.push_str(&format!("MISSED seeded violation {path}:{line} [{rule}]\n"));
        }
        for f in &r.unexpected {
            out.push_str(&format!("unexpected fixture finding {f}\n"));
        }
        out.push_str(&format!(
            "seeded violations re-found: {}/{}",
            r.refound, r.expected
        ));
        return if r.is_clean() { Ok(out) } else { Err(out) };
    }

    let allow_path = allow_path.unwrap_or_else(|| root.join("lint-allow.txt"));
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };
    let current_pr = pr_override.unwrap_or_else(|| lint::current_pr_from_changes(&root));
    let report = lint::run_lints(&root, &allowlist, current_pr, rule.as_deref())?;

    if let Some(p) = &json_path {
        std::fs::write(p, lint::report_json(&report))
            .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
    }

    let mut out = String::new();
    for f in &report.blocking {
        out.push_str(&format!("{f}\n"));
    }
    for i in &report.stale {
        let a = &report.entries[*i];
        out.push_str(&format!(
            "stale allowlist entry (line {}, matched nothing — remove it): {} {} expires={} {}\n",
            a.line, a.rule, a.path, a.expires, a.needle
        ));
    }
    for i in &report.expired {
        let a = &report.entries[*i];
        out.push_str(&format!(
            "expired allowlist entry (line {}, lease ended at PR {}, now PR {current_pr}): \
             {} {} {}\n",
            a.line, a.expires, a.rule, a.path, a.needle
        ));
        if !a.rationale.is_empty() {
            out.push_str(&format!("  original rationale: {}\n", a.rationale));
        }
    }
    out.push_str(&report.summary());
    if report.is_clean() {
        Ok(out)
    } else {
        Err(out)
    }
}
