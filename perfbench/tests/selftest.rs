//! Self-tests of the benchmark: a tiny pass over every workload that
//! checks each named metric prints with its unit, agreement with
//! `BENCHMARK.json`, and negative cases that each check must report as a
//! failed op.

use std::path::PathBuf;
use vadalog::obs::json::{parse, Json};
use vadalog::{goal_slice, parse_program, Atom, Engine, Term, Value};
use vadasa_core::io::write_csv;
use vadasa_core::pipeline::Vadasa;
use vadasa_core::programs::{microdata_to_facts, ALG2_TUPLE_REIFICATION, ALG5_INDIVIDUAL_RISK};
use vadasa_datagen::scale::{generate_scale, ScaleSpec, SCALE_QI_NAMES};
use vadasa_datagen::{generate, DatasetSpec, Regime};
use vadasa_perfbench::checks::{check_goal, check_job, check_release, is_null_cell, parse_csv};
use vadasa_perfbench::report::Report;
use vadasa_perfbench::{process_cpu_s, run, RunSpec, Sizes, Workload, END_TO_END, PER_LAYER};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_pass(workload: Workload, trace: bool) {
    let dir = work_dir(&format!("tiny-{}-{trace}", workload.name()));
    let spec = RunSpec {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        sizes: Sizes::tiny(),
        work_dir: dir.clone(),
    };
    let (report, spans) = run(&spec);
    let _ = std::fs::remove_dir_all(&dir);
    let table = report.table();
    assert!(report.correct(), "{}:\n{table}", workload.name());
    assert_eq!(spans.is_some(), trace);

    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut sorted_names = names.clone();
    sorted_names.sort_unstable();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(sorted_names, want, "{}", workload.name());

    // the last line is one JSON object with every metric and its unit
    let line = report.json_line();
    let json = parse(&line).expect("result line is JSON");
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert!(json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(json.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = json.get("metrics").expect("metrics object");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        // and the table prints it by name with its unit
        assert!(
            table
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.contains(&format!(" {unit} "))),
            "{name} not in table:\n{table}"
        );
    }
}

#[test]
fn tiny_release_prints_every_metric() {
    tiny_pass(Workload::Release, false);
    tiny_pass(Workload::Release, true);
}

#[test]
fn tiny_fleet_prints_every_metric() {
    tiny_pass(Workload::Fleet, false);
    tiny_pass(Workload::Fleet, true);
}

#[test]
fn tiny_engine_prints_every_metric() {
    tiny_pass(Workload::Engine, false);
    tiny_pass(Workload::Engine, true);
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, Option<String>)> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    (
                        i.get("name").and_then(Json::as_str).unwrap().to_string(),
                        i.get("unit").and_then(Json::as_str).map(str::to_string),
                    )
                })
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);
    let as_pairs = |l: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(list("end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(list("per_layer"), as_pairs(&PER_LAYER));
}

#[test]
fn process_cpu_time_advances_with_work() {
    // process-wide, so the other tests' threads add to it too: check only
    // that it is readable and that busy work moves it
    let c0 = process_cpu_s();
    assert!(c0.is_finite() && c0 >= 0.0);
    let (t0, mut x) = (std::time::Instant::now(), 0u64);
    while t0.elapsed().as_secs_f64() < 0.2 {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
    }
    let spun = process_cpu_s() - c0;
    assert!(spun > 0.05, "spinning used only {spun} s of CPU");
}

/// A real release of a small scale-regime table, with its input.
fn small_release() -> (String, String, Vec<&'static str>) {
    let (db, dict) = generate_scale(&ScaleSpec {
        rows: 2_000,
        risky: 8,
        seed: 3,
    });
    let release = Vadasa::new().with_dictionary(dict).run(&db).unwrap();
    (
        write_csv(&db),
        write_csv(&release.outcome.db),
        SCALE_QI_NAMES.to_vec(),
    )
}

#[test]
fn a_released_table_with_one_risky_row_fails() {
    let (input, released, qis) = small_release();
    let mut report = Report::default();
    report.record(check_release(&input, &released, &qis, 2).map(|_| ()));
    assert!(report.correct(), "the real release passes");

    // restore one suppressed cell: its row is a sample unique again
    let (header, in_rows) = parse_csv(&input).unwrap();
    let (_, mut rows) = parse_csv(&released).unwrap();
    let (r, c) = rows
        .iter()
        .enumerate()
        .find_map(|(r, row)| row.iter().position(|c| is_null_cell(c)).map(|c| (r, c)))
        .expect("the release suppressed something");
    rows[r][c] = in_rows[r][c].clone();
    let mut leaked = header.join(",");
    leaked.push('\n');
    for row in &rows {
        leaked.push_str(&row.join(","));
        leaked.push('\n');
    }
    let mut report = Report::default();
    report.record(check_release(&input, &leaked, &qis, 2).map(|_| ()));
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(!report.correct());
    assert!(
        report.errors[0].contains("below k = 2"),
        "{}",
        report.errors[0]
    );
}

#[test]
fn a_job_result_one_byte_off_fails() {
    let (_, released, _) = small_release();
    let mut bytes = released.clone().into_bytes();
    let last = bytes.len() - 2;
    bytes[last] ^= 1;
    let off = String::from_utf8(bytes).unwrap();
    let mut report = Report::default();
    report.record(check_job(Some(&released), &released));
    report.record(check_job(Some(&off), &released));
    report.record(check_job(None, &released));
    assert_eq!((report.attempted, report.failed), (3, 2));
    assert!(!report.correct());
}

#[test]
fn a_wrong_goal_answer_fails() {
    let (db, dict) = generate(&DatasetSpec::new(300, 4, Regime::U), 5);
    let program =
        parse_program(&format!("{ALG2_TUPLE_REIFICATION}{ALG5_INDIVIDUAL_RISK}")).unwrap();
    let facts = microdata_to_facts(&db, &dict).unwrap();
    let full = Engine::new().run(&program, facts).unwrap();
    let goal = Atom::new(
        "riskOutput",
        vec![Term::Const(Value::Int(0)), Term::Var("R".into())],
    );
    let want = goal_slice(&full.db, &goal);
    assert_eq!(want.len(), 1);
    let mut wrong = want.clone();
    let r = wrong[0][1].as_f64().unwrap();
    wrong[0][1] = Value::Float(r + 1e-6);
    let mut report = Report::default();
    report.record(check_goal(&want, &want));
    report.record(check_goal(&wrong, &want));
    report.record(check_goal(&[], &want));
    assert_eq!((report.attempted, report.failed), (3, 2));
    assert!(!report.correct());
}
