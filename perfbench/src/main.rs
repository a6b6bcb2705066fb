//! Host-performance benchmark of the In-Fat Pointer simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_elide|juliet|serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end host metrics of one workload with
//! nothing but whole-call timers around the workload's public entry
//! points. `--trace 1` alternates untraced passes with passes in which
//! every call into a layer is timed from this crate (no crate of the
//! simulator is edited), then times each layer's kernel through its public
//! functions, and reports the per-layer metrics. Modeled outputs are never metrics:
//! every run checks them against pinned digests and reports the result as
//! `correct` / `attempted` / `failed`. `--perturb-digest` flips one bit of
//! every expected digest so the self-test can prove a mismatch fails the
//! run. The last stdout line is the result object; the line before it
//! records the host.

mod kernels;
mod layers;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run reports: the correctness verdict with its base, and the
/// metrics of the requested kind.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The benchmark's command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub perturb: bool,
}

impl Args {
    /// The value every expected digest is XORed with: one flipped bit
    /// under `--perturb-digest`, nothing otherwise.
    pub fn perturbation(&self) -> u64 {
        u64::from(self.perturb)
    }
}

const WORKLOADS: [&str; 3] = ["sweep_elide", "juliet", "serve"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("ifp-perfbench: {msg}");
    eprintln!(
        "usage: ifp-perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--perturb-digest]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut perturb = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--perturb-digest" {
            perturb = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        perturb,
    })
}

/// First line of `cmd args...`'s stdout, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host line recorded with every result.
fn host_line(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        ifp_testutil::default_workers(),
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve", false) => serve::end_to_end(&args),
        ("serve", true) => serve::traced(&args),
        (w, false) => workloads::end_to_end(w, &args),
        (w, true) => workloads::traced(w, &args),
    };
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", host_line(&args));
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ifp-perfbench: modeled outputs do not match the pinned digests \
             ({} of {} runs failed)",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
