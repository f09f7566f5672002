//! Socket-to-signature benchmark of the fuzzy-id serving stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload login|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! One process drives the real stack (`NetServer` → `ScheduledServer` →
//! `SharedServer` → `EpochIndex`, plus `FileStore` for `churn`) over
//! loopback at `SystemParams::paper_defaults()`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the workload a second time with
//! spans on, probes each layer on the workload's own inputs, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A table with
//! every metric's unit and sample count precedes it, and the full
//! report (run context included) is written under `perfbench/out/`.
//! See `perfbench/README.md`.

mod inputs;
mod json;
mod load;
mod metrics;
mod probes;
mod run;
mod schedule;
mod stack;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{Args, Report};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_table(report: &Report) {
    println!(
        "{:<44} {:>16} {:<6} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<44} {:>16.4} {:<6} {:>8}  {}",
            m.name,
            m.value,
            metrics::unit_of(&m.name),
            m.samples,
            m.note
        );
    }
    for m in &report.tails {
        println!(
            "{:<44} {:>16.4} {:<6} {:>8}  {} (reported, not gated)",
            m.name,
            m.value,
            metrics::unit_of(&m.name),
            m.samples,
            m.note
        );
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
}

fn result_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(metrics::unit_of(&m.name))),
                    ]),
                )
            })),
        ),
    ])
}

fn full_report(report: &Report) -> Json {
    Json::obj([
        ("context", report.context.clone()),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        (
            "failures",
            Json::Arr(
                report
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Arr(
                report
                    .metrics
                    .iter()
                    .chain(&report.tails)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.clone())),
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(metrics::unit_of(&m.name))),
                            ("samples", Json::Int(m.samples as u64)),
                            ("note", Json::str(m.note.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let out = run::out_dir();
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, full_report(&report).render() + "\n") {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("context {}", report.context.render());
    print_table(&report);
    println!("{}", result_line(&report).render());
}
