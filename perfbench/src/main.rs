//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <wave|landscape|service> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench pin      # regenerate pins.tsv (run from the repository root)
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric, with `--trace 1`
//! every per-layer metric and a span file under `.perfbench/`. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any correctness
//! problem makes the exit code 1. See `README.md` beside this file.

mod batch;
mod catalog;
mod host;
mod outcome;
mod pins;
mod service;
mod stats;
mod trace;

use outcome::{peak_rss_mib, Outcome};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// Input sizes: `Full` is the benchmark, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small sizes for smoke tests.
    Tiny,
}

/// Where runs keep their scratch files (spill pools, the socket, traces),
/// relative to the directory the benchmark is started from.
const WORK_DIR: &str = ".perfbench";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err("--seconds must lie in 0..=600".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    })
}

/// Runs one workload with tracing as asked; returns the outcome and the
/// tracer holding its spans.
fn run_workload(args: &Args, dir: &Path) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(args.trace);
    let mut out = if args.workload == "service" {
        service::run(args.scale, args.seed, args.seconds, dir, &mut tracer)
    } else {
        batch::run(
            &args.workload,
            args.scale,
            args.seed,
            args.seconds,
            &mut tracer,
        )
    };
    if let Err(e) = trace::check_nesting(tracer.spans()) {
        out.problems.push(format!("trace: {e}"));
    }
    if !args.trace {
        out.metric("peak_rss_mib", peak_rss_mib());
    }
    (out, tracer)
}

fn pin() -> Result<(), String> {
    let lines = batch::pin_lines()?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.tsv");
    let mut text = String::from(
        "# algorithm\tspec\tseed\tnode_averaged\tworst_case\tfnv1a(labels||rounds)\n\
         # Written by `perfbench pin` on the single-threaded monolithic engine.\n",
    );
    for l in lines {
        text.push_str(&l);
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        return match pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_DIR);
    let spill = dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&spill) {
        eprintln!("perfbench: {}: {e}", spill.display());
        return ExitCode::from(2);
    }
    // Shard spill pools go to the temp dir: keep them inside the checkout.
    // Set before any thread starts.
    match std::fs::canonicalize(&spill) {
        Ok(abs) => std::env::set_var("TMPDIR", abs),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spill.display());
            return ExitCode::from(2);
        }
    }

    let here = host::current();
    println!("# host: {}", here.line());
    match host::baseline() {
        Ok(base) => {
            let diff = here.mismatches(&base);
            if !diff.is_empty() {
                let banner = format!(
                    "!!! HOST MISMATCH against the baseline host: {} — timings are not comparable to baseline.json",
                    diff.join("; ")
                );
                println!("{banner}");
                eprintln!("{banner}");
            }
        }
        Err(e) => println!("!!! {e}"),
    }
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (out, tracer) = run_workload(&args, dir);
    if args.trace {
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans: not written ({}: {e})", path.display()),
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for p in out.problems.iter().take(20) {
        println!("!!! {p}");
    }
    let (lines, json) = out.render(args.trace);
    for l in lines {
        println!("{l}");
    }
    println!("{json}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "wave",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, "wave");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert_eq!(a.scale, Scale::Full);
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "wave", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "wave",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// A tiny-size run of every workload, timed and traced: every check
    /// passes, every metric of the mode is present, and spans nest.
    #[test]
    fn smoke_every_workload_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for workload in catalog::WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: workload.to_string(),
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    scale: Scale::Tiny,
                };
                let (out, tracer) = run_workload(&a, &dir);
                assert!(
                    out.correct(),
                    "{workload} trace={trace}: {:?}",
                    out.problems
                );
                assert!(out.attempted > 0);
                let catalogue = if trace {
                    catalog::PER_LAYER
                } else {
                    catalog::END_TO_END
                };
                let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
                for name in out.metrics.keys() {
                    assert!(expected.contains(name), "{workload}: stray metric {name}");
                }
                if trace {
                    assert!(!tracer.spans().is_empty(), "{workload}: no spans");
                    trace::check_nesting(tracer.spans()).expect("spans nest");
                } else {
                    for name in expected {
                        let v = out.metrics.get(name).copied().unwrap_or(0.0);
                        assert!(v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
