//! CI bench-regression gate.
//!
//! Compares the freshly produced `BENCH.json` (written by the `bench`
//! binary) against a committed previous report (`BENCH_pr8.json` by default)
//! and exits non-zero when the end-to-end time regressed by more than 15% or
//! any verdict count changed (CyEqSet must stay at the paper's 138/148
//! proved pairs).
//!
//! Usage (CI passes the defaults and all four stages):
//!
//! ```text
//! bench_gate [--current PATH] [--previous PATH] [--tolerance PCT] [--strict]
//!            [--stage search] [--stage eval] [--stage parse]
//!            [--stage normalize]
//!
//! bench_gate --current BENCH.json --previous BENCH_pr8.json \
//!            --stage search --stage eval --stage parse --stage normalize
//! ```
//!
//! The performance comparison evaluates both a baseline-normalized view
//! (hardware-independent) and a raw wall-clock view, failing by default only
//! when **both** regress beyond tolerance — a genuine code regression moves
//! both, environment drift moves one. `--strict` requires each view to pass
//! individually (same-machine comparisons). `--stage search` additionally
//! enforces the counterexample-search stage (derived as e2e minus
//! decide-only from both reports) under the same rule, so search-only
//! regressions are caught like decide-only ones. `--stage eval` enforces the
//! evaluator stage (flat-row evaluation normalized by the in-run map-backed
//! oracle), `--stage parse` the stage-① parse cache (warm parse
//! normalized by the in-run cold parse), and `--stage normalize` the shared
//! stage-②+③ normalize/build cache (warm normalize+build normalized by the
//! in-run cold time). The `--stage` flag repeats. See
//! `graphqe_bench::gate` for the exact rules.

#![forbid(unsafe_code)]

use graphqe_bench::gate::{evaluate, GateConfig};
use graphqe_bench::json::Json;

struct Args {
    current: String,
    previous: String,
    config: GateConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        current: "BENCH.json".to_string(),
        previous: "BENCH_pr8.json".to_string(),
        config: GateConfig::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--current" => {
                args.current = argv.next().ok_or("--current needs a path")?;
            }
            "--previous" => {
                args.previous = argv.next().ok_or("--previous needs a path")?;
            }
            "--tolerance" => {
                let raw = argv.next().ok_or("--tolerance needs a percentage")?;
                let percent: f64 =
                    raw.parse().map_err(|e| format!("invalid --tolerance {raw}: {e}"))?;
                if !(0.0..1000.0).contains(&percent) {
                    return Err(format!("--tolerance {percent} out of range"));
                }
                args.config.tolerance = percent / 100.0;
            }
            "--strict" => args.config.strict = true,
            "--stage" => {
                let stage = argv.next().ok_or("--stage needs a stage name")?;
                match stage.as_str() {
                    "search" => args.config.stage_search = true,
                    "eval" => args.config.stage_eval = true,
                    "parse" => args.config.stage_parse = true,
                    "normalize" => args.config.stage_normalize = true,
                    other => {
                        return Err(format!(
                            "unknown stage {other} (expected: search, eval, parse, normalize)"
                        ))
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "bench_gate [--current PATH] [--previous PATH] [--tolerance PCT] [--strict] \
                     [--stage search] [--stage eval] [--stage parse] [--stage normalize]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    Json::parse(&text).map_err(|error| format!("cannot parse {path}: {error}"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("bench_gate: {error}");
            std::process::exit(2);
        }
    };
    let reports = (load(&args.current), load(&args.previous));
    let (current, previous) = match reports {
        (Ok(current), Ok(previous)) => (current, previous),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("bench_gate: {error}");
            std::process::exit(2);
        }
    };

    println!(
        "bench_gate: {} vs {} (tolerance {:.0}%{}{}{}{}{})",
        args.current,
        args.previous,
        args.config.tolerance * 100.0,
        if args.config.strict { ", strict" } else { ", drift-robust" },
        if args.config.stage_search { ", search stage enforced" } else { "" },
        if args.config.stage_eval { ", eval stage enforced" } else { "" },
        if args.config.stage_parse { ", parse stage enforced" } else { "" },
        if args.config.stage_normalize { ", normalize stage enforced" } else { "" },
    );
    let outcome = evaluate(&current, &previous, args.config);
    for line in &outcome.passed {
        println!("  PASS {line}");
    }
    for line in &outcome.failures {
        println!("  FAIL {line}");
    }
    if outcome.is_pass() {
        println!("bench_gate: OK ({} checks)", outcome.passed.len());
    } else {
        println!(
            "bench_gate: FAILED ({} of {} checks)",
            outcome.failures.len(),
            outcome.failures.len() + outcome.passed.len()
        );
        std::process::exit(1);
    }
}
