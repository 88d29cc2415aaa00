//! Toy-size smoke test of the benchmark: every metric is reported under
//! its `BENCHMARK.json` name and unit, and the ground-truth check catches
//! a dropped record.

use assessment::assess;
use perfbench::trace::Tracer;
use perfbench::workload::{check_single, deploy, Workload, World};
use perfbench::{run, Options, END_TO_END, PER_LAYER};

fn toy(workload: Workload, trace: bool) -> perfbench::Outcome {
    run(&Options {
        workload,
        spec: workload.toy_spec(),
        seed: 7,
        seconds: 0.0,
        trace,
    })
}

#[test]
fn every_metric_is_reported_at_toy_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = toy(workload, trace);
            assert!(outcome.correct, "{}", outcome.text);
            assert_eq!(outcome.failed, 0);
            assert_eq!(outcome.failed_share(), 0.0);
            assert!(outcome.attempted > 0);
            assert!(outcome.text.contains("failed_share = "));
            let defs: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(outcome.metrics.len(), defs.len());
            let json = outcome.json();
            for def in defs {
                let value = outcome.metric(def.name).expect("metric reported");
                assert!(value.is_finite(), "{} = {value}", def.name);
                assert!(outcome.text.contains(&format!("{} = ", def.name)));
                assert!(json.contains(&format!("\"{}\":{{\"value\":", def.name)));
            }
            if !trace {
                for def in END_TO_END {
                    assert!(outcome.metric(def.name).unwrap() > 0.0, "{} is 0", def.name);
                }
            }
        }
    }
}

#[test]
fn a_dropped_record_is_a_failure() {
    let workload = Workload::DenseCampaign;
    let mut world = deploy(workload, &workload.toy_spec(), 7, 1);
    let rep = world.run(&mut Tracer::off(), true);
    assert_eq!(rep.check.failed, 0, "{:?}", rep.check.offenders);
    let mut records = rep.kept.expect("kept inputs").records;
    let World::Single { world: lazy, .. } = &world else {
        unreachable!("dense_campaign is a single campaign")
    };
    let population = lazy.population();

    let dropped = records
        .iter()
        .position(|r| population.host(r.address).is_some())
        .expect("a planted host's record");
    let address = records.remove(dropped).address;
    let check = check_single(&population, &records, &assess(&records));
    assert!(check.failed >= 1);
    assert!(
        check
            .offenders
            .iter()
            .any(|o| o.contains(&format!("{address}")) && o.contains("absent")),
        "{:?}",
        check.offenders
    );
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        let entry = format!(
            "{{\"name\": \"{}\", \"why\": \"{}\"}}",
            workload.name(),
            workload.why()
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
