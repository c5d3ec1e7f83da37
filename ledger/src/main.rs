//! `ledger` — prints every end-to-end and per-layer metric of the throughput
//! ledger by name with its unit, checks every output, and exits non-zero on
//! any failed operation.
//!
//! ```text
//! ledger [--workload <name>] [--seed <u64>] [--seconds <s>] [--smoke] [--repeat <n>]
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>     (benchmark driver)
//! ```
//!
//! With `--trace` the last line of standard output is the benchmark
//! contract's JSON object: end-to-end metrics for `--trace 0`, per-layer
//! metrics for `--trace 1`.  Without it both sets are measured and printed as
//! a table plus one JSON line per workload (the `BENCH_<pr>.json` format).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use rgz_bench::json::{self, JsonValue};
use rgz_ledger::op;
use rgz_ledger::prepare::{Files, RunOptions};
use rgz_ledger::run::{self, Config, Mode, Outcome};
use rgz_ledger::spec::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Counts live heap bytes for `peak_heap_mb` while `heap::measure` runs, and
/// is the system allocator plus one relaxed load otherwise (see `heap.rs`).
#[global_allocator]
static ALLOCATOR: rgz_ledger::heap::CountingAllocator = rgz_ledger::heap::CountingAllocator;

struct Arguments {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    /// `--child <workload> --dir <dir>`: the timed phase.
    child: Option<&'static Workload>,
    dir: Option<PathBuf>,
}

fn parse_arguments() -> Result<Arguments, String> {
    let mut parsed = Arguments {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: None,
        smoke: false,
        repeat: 1,
        child: None,
        dir: None,
    };
    let mut arguments = std::env::args().skip(1);
    while let Some(flag) = arguments.next() {
        let mut value = || {
            arguments
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = |name: String| {
            spec::workload(&name).ok_or_else(|| {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            })
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text} as a number"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(workload(value()?)?),
            "--child" => parsed.child = Some(workload(value()?)?),
            "--seed" => parsed.seed = number(&flag, value()?)?,
            "--seconds" => parsed.seconds = number(&flag, value()?)?,
            "--repeat" => parsed.repeat = number(&flag, value()?)?,
            "--dir" => parsed.dir = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `end_to_end` bounds and directions from `BENCHMARK.json`:
/// name -> (bound, higher is better).
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let benchmark = json::parse(rgz_ledger::BENCHMARK_JSON)?;
    let Some(JsonValue::Array(metrics)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json lacks end_to_end".into());
    };
    metrics
        .iter()
        .map(|metric| {
            let text = |key: &str| metric.get(key).and_then(JsonValue::as_str);
            let bound = metric.get("bound").and_then(JsonValue::as_number);
            match (text("name"), text("better"), bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), (bound, better == "higher")))
                }
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// The human-readable table of one outcome: a line per metric, then the
/// operation count.
fn table(outcome: &Outcome) -> String {
    let mut lines: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{:<16} {name:<42} {value:>16.4} {unit}", outcome.workload)
        })
        .collect();
    lines.push(format!(
        "{:<16} {:<42} {:>16} of {} failed",
        outcome.workload, "ops", outcome.tally.failed, outcome.tally.ops
    ));
    lines.join("\n")
}

/// Compares consecutive sets of runs: every end-to-end metric must agree
/// within its bound, every exact metric exactly.
fn compare_sets(sets: &[Vec<Outcome>]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut agree = true;
    println!("# --repeat: relative difference of each set against the one before, and its bound");
    for pair in sets.windows(2) {
        for (before, after) in pair[0].iter().zip(&pair[1]) {
            for metric in END_TO_END.iter().chain(&PER_LAYER) {
                let (Some(a), Some(b)) = (before.value(metric.name), after.value(metric.name))
                else {
                    continue;
                };
                let difference = if a == b {
                    0.0
                } else {
                    (b - a) / a.abs().max(1e-12)
                };
                let bound = bounds.get(metric.name);
                let (ok, verdict) = match bound {
                    _ if metric.exact => (a == b, "exact"),
                    Some(&(bound, higher_is_better)) => {
                        let worse = if higher_is_better {
                            -difference
                        } else {
                            difference
                        };
                        (worse <= bound, "within bound")
                    }
                    None => (true, "(no bound)"),
                };
                agree &= ok;
                let bound = bound.map_or(String::new(), |(bound, _)| bound.to_string());
                println!(
                    "{:<16} {:<42} {:>14.4} -> {:>14.4} {:>+8.2}% {}{} {}",
                    before.workload,
                    metric.name,
                    a,
                    b,
                    difference * 100.0,
                    if ok { "" } else { "NOT " },
                    verdict,
                    bound
                );
            }
        }
    }
    Ok(agree)
}

fn real_main() -> Result<bool, String> {
    let arguments = parse_arguments()?;
    let options = RunOptions::new(arguments.smoke);

    if let Some(workload) = arguments.child {
        let dir = arguments.dir.ok_or("--child needs --dir")?;
        println!(
            "{}",
            op::child_e2e(workload, &Files::new(&dir), &options, arguments.seconds)?
        );
        return Ok(true);
    }

    let config = Config {
        seed: arguments.seed,
        seconds: if arguments.smoke {
            0.0
        } else {
            arguments.seconds
        },
        mode: match arguments.trace {
            Some(false) => Mode::EndToEnd,
            Some(true) => Mode::PerLayer,
            None => Mode::Both,
        },
        options,
    };
    if arguments.trace.is_some() {
        let workload = arguments.workload.ok_or("--trace needs --workload")?;
        let outcome = run::run_workload(workload, &config)?;
        eprintln!("{}", table(&outcome));
        println!("{}", outcome.contract_json());
        return Ok(outcome.tally.failed == 0);
    }

    let selected: Vec<&'static Workload> = match arguments.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "# throughput ledger: seed {}, P = {} threads, {} cores{}",
        config.seed,
        config.options.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if config.options.smoke {
            ", smoke sizes"
        } else {
            ""
        }
    );
    let mut sets = Vec::new();
    let mut correct = true;
    for _ in 0..arguments.repeat.max(1) {
        let mut set = Vec::new();
        for workload in &selected {
            let outcome = run::run_workload(workload, &config)?;
            println!("{}", table(&outcome));
            println!("{}", outcome.record_json(&config));
            correct &= outcome.tally.failed == 0;
            set.push(outcome);
        }
        sets.push(set);
    }
    if sets.len() > 1 {
        correct &= compare_sets(&sets)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: failed operations or disagreeing runs, see above");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("ledger: {error}");
            ExitCode::from(2)
        }
    }
}
