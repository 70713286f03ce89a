//! nga-lint CLI.
//!
//! ```text
//! cargo run -p nga-lint                # lint, human output, exit 1 on findings
//! cargo run -p nga-lint -- --json     # also write LINT_REPORT.json
//! cargo run -p nga-lint -- --explain no-host-float
//! cargo run -p nga-lint -- --list-rules
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use nga_lint::{config::Config, explain, lint_workspace, rules};

struct Args {
    config: PathBuf,
    json: Option<PathBuf>,
    explain: Option<String>,
    list_rules: bool,
    quiet: bool,
}

#[expect(clippy::disallowed_methods, reason = "the CLI's argument parser")]
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: PathBuf::from("lint.toml"),
        json: None,
        explain: None,
        list_rules: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => {
                args.config = it
                    .next()
                    .ok_or_else(|| "--config needs a path".to_string())?
                    .into();
            }
            "--json" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with('-') => PathBuf::from(it.next().unwrap_or_default()),
                    _ => PathBuf::from("LINT_REPORT.json"),
                };
                args.json = Some(path);
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or_else(|| "--explain needs a rule".to_string())?);
            }
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "nga-lint: workspace invariant checker\n\n\
                     USAGE: nga-lint [--config lint.toml] [--json [PATH]] \
                     [--explain RULE] [--list-rules] [--quiet]\n\n\
                     Exits 0 when the workspace is clean, 1 on any finding, 2 on usage/\n\
                     config errors. Rules: run --list-rules, then --explain <rule>."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nga-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in rules::ALL_RULES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &args.explain {
        return match explain::explain(rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("nga-lint: unknown rule `{rule}` (try --list-rules)");
                ExitCode::from(2)
            }
        };
    }

    let cfg = match Config::load(&args.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nga-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let root = args
        .config
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), PathBuf::from);

    let result = lint_workspace(&root, &cfg);

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("nga-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if !args.quiet {
        for f in &result.findings {
            println!("{f}");
        }
    }
    if result.findings.is_empty() {
        if !args.quiet {
            println!(
                "nga-lint: clean ({} files scanned, {} rules)",
                result.files_scanned,
                rules::ALL_RULES.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "nga-lint: {} finding(s) across {} files scanned — run `--explain <rule>` for the contract",
            result.findings.len(),
            result.files_scanned
        );
        ExitCode::FAILURE
    }
}
