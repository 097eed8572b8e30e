//! `perfbench`: runs one workload of the repository benchmark and prints
//! its result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! Every metric is printed to stderr with its unit; the last line of
//! stdout is the JSON result. A detailed result file with the run's
//! metadata, sample counts and output checks lands in
//! `DIR/results/` (default `DIR` = `.bench_out`). The exit code is 1 when
//! any output check failed, 2 on a usage error.

use perfbench::{report, run, RunOpts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <figure_campaign|oracle_direct|sweep_journal|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--out DIR]";

struct Args {
    workload: Workload,
    opts: RunOpts,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    let opts = RunOpts {
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        dir: out.join("work"),
    };
    Ok(Args { workload, opts, out })
}

fn metadata(a: &Args) -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("workload", a.workload.name().to_string()),
        ("seed", a.opts.seed.to_string()),
        ("trace", (a.opts.trace as u8).to_string()),
        ("seconds", a.opts.seconds.to_string()),
        ("cpu_model", report::cpu_model()),
        ("nproc", nproc.to_string()),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("build_profile", env("PERFBENCH_PROFILE")),
        ("git_revision", env("PERFBENCH_GIT_REV")),
        ("load", a.workload.load()),
        (
            "generator_lag_s",
            "0 (closed loop: no request is ever due before the previous reply)".into(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(args.workload, &args.opts);
    let results = args.out.join("results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.opts.seed,
        args.opts.trace as u8
    ));
    let written = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&file, report.result_file(&metadata(&args))));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    for m in &report.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
