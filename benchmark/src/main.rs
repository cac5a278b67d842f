//! End-to-end and per-layer benchmark of the respect-origin
//! reproduction. See `README.md` beside this package.
//!
//! Two ways in:
//!
//! - `--workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and ends its output with the one-line
//!   JSON result `BENCHMARK.json`'s contract asks for.
//! - without `--workload`, the suite: each of the six workloads runs
//!   in a child process of its own, one at a time, and a table of
//!   every end-to-end metric follows. `--traced` adds a traced run of
//!   each, `--repeat N` runs the untraced suite N times and compares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crawl;
mod deploy;
mod harness;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;
mod workload;

use report::{RunResult, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::Duration;
use workload::Workload;

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;
/// The repository's customary seed (`repro`'s default is 0x0516).
const DEFAULT_SEED: u64 = 1302;

const USAGE: &str = "usage: origin-benchmark [--seed N] [--seconds S] [--traced] [--repeat N]
       origin-benchmark --workload NAME --seed N --seconds S --trace 0|1
workloads: crawl-small crawl-large crawl-mixed deploy-s5 serve-steady serve-churn";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => {
                args.seconds = number(flag, value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                args.repeat = number(flag, value()?)?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) if why.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process; the last line printed is the
/// JSON result. Returns `Ok(true)` whenever a result was printed: the
/// result's own `correct` carries the verdict.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} trace {} (1 thread; available_parallelism {threads})",
        workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    let result = if args.traced {
        let report = workload::run_traced(workload, args.seed);
        for def in &PER_LAYER {
            println!(
                "  {:<32} {:>16.4} {}",
                def.name, report.values[def.name], def.unit
            );
        }
        print_failures(&report.failures);
        RunResult::new(
            report.attempted,
            report.failures.len() as u64,
            &PER_LAYER,
            &report.values,
        )?
    } else {
        let budget = Duration::from_secs(args.seconds);
        let run = workload::run_untraced(workload, args.seed, budget)?;
        let values = workload::end_to_end(workload, &run);
        println!(
            "  reps {} (fastest {:.4} s, median {:.4} s, quartile spread {:.1}%) of {} {}; set-ups {}",
            run.rep_secs.len(),
            run.rep_best_s(),
            stats::median(&run.rep_secs),
            stats::spread(&run.rep_secs) * 100.0,
            workload.units().0,
            workload.units().1,
            run.setup_secs.len()
        );
        for def in &END_TO_END {
            println!("  {:<18} {:>14.4} {}", def.name, values[def.name], def.unit);
        }
        if let Some(err) = run.first.and_then(|c| c.paper_abs_err_pct) {
            println!("  {:<18} {err:>14.4} %", "paper_abs_err_pct");
        }
        println!(
            "  {:<18} {:>14.4} ({}/{} reps)",
            "failed_share",
            run.failures.len() as f64 / run.rep_secs.len() as f64,
            run.failures.len(),
            run.rep_secs.len()
        );
        if let Some(c) = run.first {
            println!("  {:<18} {:#018x}", "sim_digest", c.digest);
        }
        print_failures(&run.failures);
        RunResult::new(
            run.rep_secs.len() as u64,
            run.failures.len() as u64,
            &END_TO_END,
            &values,
        )?
    };
    println!("{}", result.to_json());
    Ok(true)
}

fn print_failures(failures: &[String]) {
    for f in failures {
        println!("  FAILED {f}");
    }
}

/// One child run: its parsed result, and the two report lines that
/// are not metrics of the result (`-` where the child printed none).
struct ChildRun {
    result: RunResult,
    digest: String,
    paper_abs_err_pct: String,
}

/// Run one workload in a child process of this executable, wait for
/// it, echo its report and parse its result line.
fn run_child(workload: Workload, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for line in &lines {
        println!("{line}");
    }
    let labelled = |label: &str| {
        lines
            .iter()
            .find_map(|l| l.trim().strip_prefix(label))
            .map_or("-".to_string(), |rest| rest.trim().to_string())
    };
    Ok(ChildRun {
        result: RunResult::from_json(last)?,
        digest: labelled("sim_digest"),
        paper_abs_err_pct: labelled("paper_abs_err_pct"),
    })
}

/// The suite: every workload untraced (and traced, with `--traced`),
/// `--repeat` times, then the tables.
fn run_suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut passes: Vec<Vec<ChildRun>> = Vec::new();
    for pass in 0..args.repeat {
        if args.repeat > 1 {
            println!("== pass {} of {} ==", pass + 1, args.repeat);
        }
        let mut runs = Vec::new();
        for w in Workload::ALL {
            let run = run_child(w, args, false)?;
            all_correct &= run.result.correct;
            if args.traced && pass == 0 {
                all_correct &= run_child(w, args, true)?.result.correct;
            }
            runs.push(run);
        }
        passes.push(runs);
    }

    println!("\n== end-to-end, seed {}, tracing off ==", args.seed);
    print!("{:<14}", "workload");
    for def in &END_TO_END {
        print!(" {:>22}", format!("{} [{}]", def.name, def.unit));
    }
    println!(
        " {:>18} {:>13} {:>20}",
        "paper_abs_err_pct", "failed_share", "sim_digest"
    );
    for (w, run) in Workload::ALL.iter().zip(&passes[0]) {
        print!("{:<14}", w.name());
        for def in &END_TO_END {
            print!(" {:>22.4}", run.result.metrics[def.name].0);
        }
        println!(
            " {:>18} {:>13.4} {:>20}",
            run.paper_abs_err_pct,
            run.result.failed as f64 / run.result.attempted as f64,
            run.digest
        );
    }
    let agree = passes.len() < 2 || compare_passes(&passes);
    Ok(all_correct && agree)
}

/// Print each end-to-end metric's relative difference between the
/// first pass and every later one; false if any exceeds the metric's
/// bound or a digest changed.
fn compare_passes(passes: &[Vec<ChildRun>]) -> bool {
    let mut agree = true;
    println!("\n== repeat: relative difference to pass 1 (bound) ==");
    for (later, pass) in passes.iter().enumerate().skip(1) {
        for ((w, first), run) in Workload::ALL.iter().zip(&passes[0]).zip(pass) {
            print!("pass {} {:<14}", later + 1, w.name());
            for def in &END_TO_END {
                let (a, b) = (
                    first.result.metrics[def.name].0,
                    run.result.metrics[def.name].0,
                );
                let diff = (b - a) / a;
                let within = diff.abs() <= def.bound;
                agree &= within;
                print!(
                    " {} {:+.2}% ({:.0}%){}",
                    def.name,
                    diff * 100.0,
                    def.bound * 100.0,
                    if within { "" } else { " EXCEEDED" }
                );
            }
            let same = first.digest == run.digest;
            agree &= same;
            println!(" sim_digest {}", if same { "same" } else { "CHANGED" });
        }
    }
    agree
}
