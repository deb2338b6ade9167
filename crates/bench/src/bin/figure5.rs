//! Reproduction of **Figure 5** of the paper: PingPong bandwidth against
//! message size in Shared-Memory (SM) mode, for the WMPI-like and
//! MPICH-like devices, each driven from "C" (the engine directly) and from
//! "Java" (the mpijava wrapper).
//!
//! ```text
//! cargo run --release -p mpi-bench --bin figure5 [--calibrate-1999] [--max-size BYTES] [--reps N] [--csv] [--check]
//! ```
//!
//! When the sweep reaches 256 KiB, the size by which the paper's curves
//! converge, the run ends with the WMPI-J/WMPI-C bandwidth ratio there:
//! the median over seven alternating pairs of runs. Both series receive
//! into a user buffer, so the ratio compares like with like. `--check`
//! makes that a gate: the process exits nonzero unless the ratio is at
//! least 0.7.

use mpi_bench::pingpong::{run_pingpong, Calibration, Mode, PingPongSpec, Stack};
use mpi_bench::report::{format_bandwidth_table, to_csv, Series};

/// The message size at which the paper's Java and C curves converge.
const CONVERGENCE_SIZE: usize = 256 * 1024;
/// Minimum WMPI-J/WMPI-C bandwidth ratio at [`CONVERGENCE_SIZE`] for
/// `--check` to pass.
const MIN_RATIO: f64 = 0.7;
/// Alternating WMPI-C / WMPI-J run pairs behind the reported ratio.
const TRIALS: usize = 7;

/// Median WMPI-J/WMPI-C bandwidth ratio at [`CONVERGENCE_SIZE`] over
/// [`TRIALS`] alternating pairs of runs.
fn convergence_ratio(calibration: Calibration, reps: usize) -> f64 {
    let bandwidth = |stack: Stack| {
        let mut spec = PingPongSpec::new(stack, Mode::SharedMemory)
            .reps(reps)
            .calibration(calibration);
        spec.sizes = vec![CONVERGENCE_SIZE];
        run_pingpong(&spec)[0].bandwidth_mb_s
    };
    let mut ratios: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let native = bandwidth(Stack::WmpiC);
            bandwidth(Stack::WmpiJava) / native
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[TRIALS / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let calibration = if args.iter().any(|a| a == "--calibrate-1999") {
        Calibration::Era1999
    } else {
        Calibration::Structural
    };
    let max_size = args
        .iter()
        .position(|a| a == "--max-size")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize << 20);
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(40usize);
    let csv = args.iter().any(|a| a == "--csv");
    let check = args.iter().any(|a| a == "--check");

    let stacks = [
        Stack::WmpiC,
        Stack::WmpiJava,
        Stack::MpichC,
        Stack::MpichJava,
    ];
    let mut series = Vec::new();
    for stack in stacks {
        eprintln!(
            "running {} (SM), sizes up to {max_size} bytes ...",
            stack.label()
        );
        let spec = PingPongSpec::new(stack, Mode::SharedMemory)
            .cap_size(max_size)
            .reps(reps)
            .calibration(calibration);
        series.push(Series {
            label: stack.label().to_string(),
            points: run_pingpong(&spec),
        });
    }

    if csv {
        print!("{}", to_csv(&series));
    } else {
        print!(
            "{}",
            format_bandwidth_table(
                "Figure 5: PingPong bandwidth (MBytes/s) in Shared Memory (SM) mode",
                &series
            )
        );
        println!();
    }

    let ratio = (max_size >= CONVERGENCE_SIZE).then(|| convergence_ratio(calibration, reps));
    let summary = match ratio {
        Some(ratio) => format!(
            "WMPI-J/WMPI-C bandwidth at {CONVERGENCE_SIZE} B: {ratio:.3} (median of {TRIALS} \
             pairs; the paper's curves have converged by 256 KB; gate >= {MIN_RATIO})"
        ),
        None => {
            format!("WMPI-J/WMPI-C at {CONVERGENCE_SIZE} B: not measured (--max-size too small)")
        }
    };
    // Keep CSV output machine-readable.
    if csv {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if check && !ratio.is_some_and(|r| r >= MIN_RATIO) {
        eprintln!("figure5 --check failed: the ratio must be >= {MIN_RATIO}");
        std::process::exit(1);
    }
}
