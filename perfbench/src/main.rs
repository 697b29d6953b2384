//! Benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload release-250k|fleet-8k|engine-risk-4k \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a metric table, then as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).
//! Journals and job directories go to `.perfbench_out/work-<pid>/`, which
//! is removed at exit; a traced run leaves its spans in
//! `.perfbench_out/trace-<workload>-seed<N>.json`.

use std::path::PathBuf;
use std::process::ExitCode;
use vadasa_perfbench::{run, RunSpec, Sizes, Workload};

const OUT_DIR: &str = ".perfbench_out";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: vadasa-perfbench --workload release-250k|fleet-8k|engine-risk-4k \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload").and_then(Workload::parse) else {
        return usage("--workload must name a workload");
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a non-negative integer");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match flag("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };

    let work_dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let spec = RunSpec {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        work_dir: work_dir.clone(),
    };
    let (report, spans) = run(&spec);
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(json) = spans {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{seed}.json", workload.name()));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.table());
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
