//! `ddc-lint` — repo-invariant semantic lint suite over the workspace
//! source (see `ddc_check::lint` for the rule set).
//!
//! ```text
//! ddc-lint                      # lint crates/*/src from the cwd
//! ddc-lint --root /path/repo    # explicit repo root
//! ddc-lint --allow lint-allow.txt
//! ddc-lint --rule lock-order    # run a single rule
//! ddc-lint --json findings.json # write the findings artifact
//! ddc-lint --fixtures           # re-find the seeded fixture corpus
//! ddc-lint --pr N               # override the current PR number
//! ```
//!
//! Exits 1 on any blocking finding, stale allowlist entry, or expired
//! allowlist entry — waivers are leases (`expires=<PR>`), and an
//! entry that outlives its lease or the code it excused fails the run
//! with its documented rationale.

use std::path::PathBuf;

use ddc_check::lint;

/// Where the seeded-violation corpus lives relative to the repo root.
const FIXTURES: &str = "crates/check/tests/lint_fixtures";

fn main() {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut fixtures = false;
    let mut pr_override: Option<u64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
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
            "--pr" if i + 1 < args.len() => match args[i + 1].parse() {
                Ok(n) => {
                    pr_override = Some(n);
                    i += 2;
                }
                Err(_) => {
                    eprintln!("ddc-lint: --pr expects a number, got `{}`", args[i + 1]);
                    std::process::exit(2);
                }
            },
            "--fixtures" => {
                fixtures = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "ddc-lint: unknown argument `{other}` (expected --root DIR, --allow FILE, \
                     --rule NAME, --json FILE, --fixtures, --pr N)"
                );
                std::process::exit(2);
            }
        }
    }

    if fixtures {
        run_fixture_mode(&root);
        return;
    }

    let allow_path = allow_path.unwrap_or_else(|| root.join("lint-allow.txt"));
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("ddc-lint: cannot read {}: {e}", allow_path.display());
            std::process::exit(2);
        }
    };
    let current_pr = pr_override.unwrap_or_else(|| lint::current_pr_from_changes(&root));

    match lint::run_lints(&root, &allowlist, current_pr, rule.as_deref()) {
        Ok(report) => {
            if let Some(p) = &json_path {
                if let Err(e) = std::fs::write(p, lint::report_json(&report)) {
                    eprintln!("ddc-lint: cannot write {}: {e}", p.display());
                    std::process::exit(2);
                }
            }
            for f in &report.blocking {
                println!("{f}");
            }
            for i in &report.stale {
                let a = &report.entries[*i];
                eprintln!(
                    "ddc-lint: stale allowlist entry (line {}, matched nothing — remove it): \
                     {} {} expires={} {}",
                    a.line, a.rule, a.path, a.expires, a.needle
                );
            }
            for i in &report.expired {
                let a = &report.entries[*i];
                eprintln!(
                    "ddc-lint: expired allowlist entry (line {}, lease ended at PR {}, now PR \
                     {current_pr} — fix the code or re-justify with a new lease): {} {} {}",
                    a.line, a.expires, a.rule, a.path, a.needle
                );
                if !a.rationale.is_empty() {
                    eprintln!("ddc-lint:   original rationale: {}", a.rationale);
                }
            }
            eprintln!("ddc-lint: {}", report.summary());
            std::process::exit(if report.is_clean() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("ddc-lint: {e}");
            std::process::exit(2);
        }
    }
}

/// `--fixtures`: the analyzer must re-find every seeded violation in
/// the corpus — and nothing else.
fn run_fixture_mode(root: &std::path::Path) {
    match lint::run_fixtures(&root.join(FIXTURES)) {
        Ok(r) => {
            for (rule, (refound, total)) in &r.per_rule {
                println!("ddc-lint: fixtures [{rule}] {refound}/{total}");
            }
            for (path, line, rule) in &r.missing {
                eprintln!("ddc-lint: MISSED seeded violation {path}:{line} [{rule}]");
            }
            for f in &r.unexpected {
                eprintln!("ddc-lint: unexpected fixture finding {f}");
            }
            println!(
                "ddc-lint: seeded violations re-found: {}/{}",
                r.refound, r.expected
            );
            std::process::exit(if r.is_clean() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("ddc-lint: {e}");
            std::process::exit(2);
        }
    }
}
