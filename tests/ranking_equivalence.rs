//! Cycle-level pin for candidate ranking on the live view: a cycle whose
//! suppression ranks candidates with `rank_candidates` over the cycle's
//! patched `MicrodataView` must release exactly what a cycle ranking with
//! the original row-by-row `Value` scan releases — the same table, null
//! labels included, and the same audit log — for every attribute order,
//! risk measure and batching mode, on the scale regime and on the
//! Figure 6 U/V/W regimes.

#[path = "../crates/core/tests/support/ranking_oracle.rs"]
mod ranking_oracle;

use ranking_oracle::OracleSuppression;
use vadalog::Value;
use vadasa_core::cycle::CycleError;
use vadasa_core::prelude::*;
use vadasa_datagen::{generate, generate_scale, DatasetSpec, Regime, ScaleSpec};

/// Everything a run releases or records, in comparable form.
fn released(outcome: Result<CycleOutcome, CycleError>) -> String {
    match outcome {
        Err(e) => format!("error: {e}"),
        Ok(o) => {
            let rows: Vec<Vec<Value>> = o.db.iter_rows().map(<[Value]>::to_vec).collect();
            format!(
                "iterations={} nulls={} minted={} final_risky={} termination={:?}\n{rows:?}\n{:?}",
                o.iterations,
                o.nulls_injected,
                o.db.nulls_minted(),
                o.final_risky,
                o.termination,
                o.audit.decisions
            )
        }
    }
}

#[test]
fn view_ranked_cycles_release_what_oracle_ranked_cycles_release() {
    let tables = [
        ("scale", {
            let mut spec = ScaleSpec::new(1_200);
            spec.risky = 24;
            generate_scale(&spec)
        }),
        ("R-U", generate(&DatasetSpec::new(400, 4, Regime::U), 7)),
        ("R-V", generate(&DatasetSpec::new(400, 4, Regime::V), 7)),
        ("R-W", generate(&DatasetSpec::new(400, 4, Regime::W), 7)),
    ];
    // (name, measure, threshold): individual risk at 0.2 so every table
    // has rows at risk under it
    let measures: [(&str, Box<dyn RiskMeasure>, f64); 3] = [
        ("k=2", Box::new(KAnonymity::new(2)), 0.5),
        ("k=3", Box::new(KAnonymity::new(3)), 0.5),
        (
            "individual",
            Box::new(IndividualRisk::new(IrEstimator::PosteriorMean)),
            0.2,
        ),
    ];
    let batchings = [
        ("all-risky", None, StepGranularity::AllRiskyPerIteration),
        ("one-tuple", None, StepGranularity::OneTuplePerIteration),
        (
            "top-8",
            Some(BatchStrategy::TopN(8)),
            StepGranularity::AllRiskyPerIteration,
        ),
    ];
    let orders = [
        AttributeOrder::MostRiskyFirst,
        AttributeOrder::MostSelectiveFirst,
        AttributeOrder::SchemaOrder,
    ];
    let mut suppressing = 0;
    for (table, (db, dict)) in &tables {
        for (measure_name, measure, threshold) in &measures {
            for (batch_name, batch, granularity) in batchings {
                let config = CycleConfig {
                    threshold: *threshold,
                    batch,
                    granularity,
                    ..CycleConfig::default()
                };
                for order in orders {
                    let ours = LocalSuppression::new(order);
                    let oracle = OracleSuppression { attr_order: order };
                    let run = |a: &dyn Anonymizer| {
                        released(
                            AnonymizationCycle::new(measure.as_ref(), a, config.clone())
                                .run(db, dict),
                        )
                    };
                    let got = run(&ours);
                    assert_eq!(
                        got,
                        run(&oracle),
                        "{table}, {measure_name}, {batch_name}, {order:?}"
                    );
                    if !got.starts_with("iterations=0 ") {
                        suppressing += 1;
                    }
                }
            }
        }
    }
    // the comparison is only worth something if the cycles did work
    assert_eq!(suppressing, 108, "every configuration must suppress");
}
