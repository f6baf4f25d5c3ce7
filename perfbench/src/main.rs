//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg16d-224 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`vgg16d-224`, `alexnet-227` or `serve-mixed`),
//! checks its outputs, prints an environment stamp and one line per
//! metric, and ends with one JSON object: end-to-end metrics with
//! `--trace 0`, the traced per-layer breakdown with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric is for.

mod env;
mod exec_bench;
mod report;
mod roofline;
mod serve_bench;
mod stats;
mod trace;

use exec_bench::Net;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <vgg16d-224|alexnet-227|serve-mixed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let net = match args.workload.as_str() {
        "vgg16d-224" => Some(Net::Vgg16d),
        "alexnet-227" => Some(Net::Alexnet),
        "serve-mixed" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("env {}", env::stamp());
    println!(
        "info workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    // The ceilings are per-layer metrics, so only the traced run pays
    // for them, before the workload allocates anything.
    let ceilings = args.trace.then(|| {
        let c = roofline::measure(env::nproc());
        println!(
            "info roofline threads={} llc_bytes={} stream_array_bytes={} fma_gflops={:.2} \
             stream_gbps={:.2}",
            env::nproc(),
            c.llc_bytes,
            c.array_bytes,
            c.fma_gflops,
            c.stream_gbps
        );
        c
    });
    let report = match net {
        Some(net) => exec_bench::run(net, args.seed, args.seconds, ceilings),
        None => serve_bench::run(args.seed, args.seconds, ceilings),
    };
    report.print(args.trace);
    ExitCode::SUCCESS
}
