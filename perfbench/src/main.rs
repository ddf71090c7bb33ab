//! `perfbench`: the seeded end-to-end and per-layer benchmark of the GraphQE
//! prover. See `README.md` next to this crate for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh-stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod client;
mod corpus;
mod gen;
mod host;
mod report;
mod trace;
mod workload;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use graphqe_serve::json::Json;
use report::{json_string, median, LoopFigures, Metric};
use workload::{Bench, Checked, Run, Until, Workload};

const USAGE: &str =
    "usage: perfbench --workload <corpus-replay|fresh-stream|certified|serve-closed-loop> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Measuring processes of an untraced run, one after another. Each sets up
/// once, cold, and measures for `1/PROCESSES` of `--seconds`. `setup_s` is
/// thus the median of that many cold set-ups, and on `fresh-stream`, whose
/// memory grows with every pair proved, one process's peak stays a fifth of
/// a whole run's.
const PROCESSES: u64 = 5;

/// Where each run writes its record (and, traced, its spans).
const OUT_DIR: &str = ".perfbench";

/// Resident-memory ceiling of a measuring process, in MiB. A process above
/// it stops with an error: memory that grows with every pair fails the run
/// instead of exhausting the machine.
const RSS_CEILING_MB: f64 = 4096.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set on the measuring processes an untraced run starts.
    process: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut process) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--process" => process = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        process,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("{error}\n{USAGE}");
        std::process::exit(2);
    });
    match (args.trace, args.process) {
        (true, _) => traced(&args),
        (false, Some(index)) => measuring_process(&args, index),
        (false, None) => untraced(&args),
    }
}

/// One process's share of a run: a set-up, then the closed loop for
/// `1/PROCESSES` of the run. Process `index` draws its inputs from its own
/// seed, so the processes of one run never share a pair sequence.
struct Share {
    bench: Bench,
    setup_s: f64,
    timed: Run,
    figures: LoopFigures,
    peak_rss_mb: f64,
    /// The host's slowdown over the set-up and the timed phase.
    slowdown: f64,
}

fn share(args: &Args, index: u64) -> Share {
    guard_memory();
    let seed = args.seed.wrapping_mul(PROCESSES).wrapping_add(index);
    let start = Instant::now();
    let mut bench = Bench::setup(args.workload, seed, graphqe::machine_parallelism());
    let setup_s = start.elapsed().as_secs_f64();
    let timed =
        bench.run(Until::Timed(Duration::from_millis(args.seconds * 1000 / PROCESSES)), false);
    let peak_rss_mb = timed.peak_rss_mb.expect("a timed phase proves RSS_PAIRS pairs");
    let figures = report::loop_figures(&timed);
    let slowdown = bench.slowdown();
    Share { bench, setup_s, timed, figures, peak_rss_mb, slowdown }
}

/// Watches this process's resident memory and exits with code 3 above
/// [`RSS_CEILING_MB`].
fn guard_memory() {
    std::thread::spawn(|| loop {
        let rss_mb = report::proc_status("VmRSS")
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0);
        if rss_mb > RSS_CEILING_MB {
            eprintln!("resident memory {rss_mb:.0} MiB is above the {RSS_CEILING_MB} MiB ceiling");
            std::process::exit(3);
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// A measuring process: prints its share as one JSON line.
fn measuring_process(args: &Args, index: u64) {
    let Share { bench, setup_s, timed, figures, peak_rss_mb, slowdown } = share(args, index);
    let timed_s = timed.timed.as_secs_f64();
    let checked = bench.check(vec![timed]);
    let correct = bench.warmup_ok() && checked.pinned_ok;
    bench.shutdown();
    println!(
        "{{\"setup_s\":{setup_s},\"timed_s\":{timed_s},\"slowdown\":{slowdown},\"p50_ms\":{},\"p99_ms\":{},\"calls\":{},\
         \"peak_rss_mb\":{peak_rss_mb},\"attempted\":{},\"failed\":{},\"decided\":{},\"intent_mismatch\":{},\
         \"correct\":{correct}}}",
        figures.p50_ms,
        figures.p99_ms,
        figures.calls,
        checked.attempted,
        checked.failed,
        checked.decided,
        checked.intent_mismatch,
    );
}

/// The untraced run: [`PROCESSES`] measuring processes, one at a time, and
/// the end-to-end metrics over them. Throughput is all their pairs over all
/// their timed clock, a latency percentile the mean of theirs; `setup_s` and
/// `peak_rss_mb` are medians, of cold set-ups and of fixed-work readings.
fn untraced(args: &Args) {
    let exe = std::env::current_exe().expect("the path of this executable");
    let mut shares = Vec::new();
    for index in 0..PROCESSES {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--trace", "0"])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args(["--process", &index.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("start a measuring process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let share = stdout.lines().last().and_then(|line| Json::parse(line).ok());
        match share {
            Some(share) if output.status.success() => shares.push(share),
            _ => {
                eprintln!("measuring process {index} failed: {}", output.status);
                std::process::exit(1);
            }
        }
    }
    let field = |share: &Json, key: &str| share.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let median_of =
        |key: &str| median(&mut shares.iter().map(|share| field(share, key)).collect::<Vec<_>>());
    let total = |key: &str| shares.iter().map(|share| field(share, key)).sum::<f64>() as usize;
    let checked = Checked {
        attempted: total("attempted"),
        failed: total("failed"),
        decided: total("decided"),
        pinned_ok: shares
            .iter()
            .all(|share| share.get("correct").and_then(Json::as_bool) == Some(true)),
        intent_mismatch: total("intent_mismatch"),
    };
    // The timed figures, on the reference clock (each process's times over
    // its host slowdown) or on the wall clock.
    let timed_figures = |reference: bool| {
        let times = |key: &str| -> Vec<f64> {
            let scale = |share: &Json| if reference { field(share, "slowdown") } else { 1.0 };
            shares.iter().map(|share| field(share, key) / scale(share)).collect()
        };
        let mean = |key: &str| times(key).iter().sum::<f64>() / shares.len() as f64;
        vec![
            Metric::new(
                "pairs_per_s",
                checked.attempted as f64 / times("timed_s").iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new("latency_p50_ms", mean("p50_ms"), "ms"),
            Metric::new("latency_p99_ms", mean("p99_ms"), "ms"),
            Metric::new("setup_s", median(&mut times("setup_s")), "s"),
        ]
    };
    let mut metrics = timed_figures(true);
    metrics.extend([
        Metric::new(
            "decided_share",
            checked.decided as f64 / checked.attempted.max(1) as f64,
            "share",
        ),
        Metric::new("peak_rss_mb", median_of("peak_rss_mb"), "MiB"),
    ]);
    let mut wall = timed_figures(false);
    wall.push(Metric::new("host_slowdown", median_of("slowdown"), "ratio"));
    let samples =
        format!("{} calls in {PROCESSES} processes, mean of their percentiles", total("calls"));
    finish(args, PROCESSES, &checked, &metrics, &wall, &samples, None);
}

/// The traced run: one process measures its share untraced, then runs the
/// traced phase; it prints the per-layer metrics.
fn traced(args: &Args) {
    let Share { mut bench, timed, figures, .. } = share(args, 0);
    let traced = trace::traced_phase(&mut bench, figures.pairs_per_s);
    let mut checked = bench.check(vec![timed, traced.run]);
    checked.pinned_ok &= bench.warmup_ok();
    bench.shutdown();
    let mut metrics = traced.metrics;
    metrics.push(Metric::new("gen.intent_mismatch", checked.intent_mismatch as f64, "count"));
    let samples = format!("{} calls traced", traced.calls);
    let spans = Some(traced.tracer.to_json_lines());
    finish(args, 1, &checked, &metrics, &[], &samples, spans);
}

/// Prints the report and the result line, and writes the run's record.
/// `wall` holds the untraced run's timed figures on the wall clock and the
/// host slowdown; `metrics` has them on the reference clock.
fn finish(
    args: &Args,
    processes: u64,
    checked: &Checked,
    metrics: &[Metric],
    wall: &[Metric],
    samples: &str,
    spans: Option<String>,
) {
    let threads = graphqe::machine_parallelism();
    let connections = if args.workload == Workload::ServeClosedLoop { threads } else { 1 };
    let machine = format!(
        "{{\"nproc\":{threads},\"cpus_allowed_list\":{},\"threads\":{threads},\"connections\":{connections},\
         \"processes\":{processes},\"seed\":{},\"commit\":{}}}",
        json_string(&report::proc_status("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())),
        args.seed,
        json_string(&report::git_commit()),
    );
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine {machine}");
    for metric in metrics {
        let note = if metric.name.starts_with("latency_") {
            format!(" ({samples})")
        } else {
            String::new()
        };
        println!("{:<28} {:>14.4} {}{note}", metric.name, metric.value, metric.unit);
    }
    for metric in wall {
        let clock = if metric.name == "host_slowdown" { "" } else { " (wall clock)" };
        println!("{:<28} {:>14.4} {}{clock}", metric.name, metric.value, metric.unit);
    }
    let failed_share = checked.failed as f64 / checked.attempted.max(1) as f64;
    println!(
        "{:<28} {:>14.4} share ({} of {} pairs failed; pinned corpus verdicts {})",
        "failed_share",
        failed_share,
        checked.failed,
        checked.attempted,
        if checked.pinned_ok { "hold" } else { "BROKEN" }
    );
    if args.workload == Workload::FreshStream && !args.trace {
        println!("{:<28} {:>14} count", "gen.intent_mismatch", checked.intent_mismatch);
    }
    let metrics_json = report::metrics_json(metrics);
    write_record(args, &machine, &metrics_json, &report::metrics_json(wall), spans);
    let correct = checked.failed == 0 && checked.pinned_ok;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        checked.attempted.max(1),
        checked.failed
    );
}

/// Writes the run's record, and the spans of a traced run, under
/// [`OUT_DIR`]. A write failure is reported and does not fail the run.
fn write_record(
    args: &Args,
    machine: &str,
    metrics_json: &str,
    wall_json: &str,
    spans: Option<String>,
) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\":\"{}\",\"machine\":{machine},\"metrics\":{metrics_json},\"wall_clock\":{wall_json}}}\n",
        args.workload.name()
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| {
            spans.map_or(Ok(()), |spans| std::fs::write(format!("{stem}.spans.jsonl"), spans))
        });
    if let Err(error) = written {
        eprintln!("could not write the record under {OUT_DIR}: {error}");
    }
}
