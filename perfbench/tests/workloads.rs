//! The benchmark's own tests: a tiny pass of every workload prints every
//! named metric with its unit and a passing verdict, `BENCHMARK.json`
//! names exactly the metrics the benchmark prints, and a wrong digest or
//! a broken serve conservation law fails the run.

use std::process::Command;

use perfbench::serve::conservation;
use perfbench::{per_layer, run, Opts, Outcome, Size, Workload, DEFAULT_SEED, END_TO_END};
use snic_serve::TenantStats;
use snic_telemetry::{parse_json, Json};

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        expect: None,
    }
}

/// The metrics of a result line as `(name, value, unit)`.
fn result_metrics(line: &str) -> (Json, Vec<(String, f64, String)>) {
    let j = parse_json(line).expect("the result line is JSON");
    let Some(Json::Obj(members)) = j.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value")
                    .and_then(Json::as_num)
                    .expect("numeric value"),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    (j, metrics)
}

/// The names the workload's report must print beside the contract
/// metrics (the workload-specific end-to-end figures).
fn named_in_report(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Fig5Replay => &["events_per_s", "failed_frac", "accuracy:", "(paper 0.24%)"],
        Workload::StreamColo => &["events_per_s", "failed_frac", "L2 miss ratio"],
        Workload::ServeMixed => &[
            "req_per_s",
            "send_p50_us",
            "send_p99_us",
            "poll_p50_us",
            "attest_p50_us",
            "attest_p99_us",
            "launch_p50_us",
            "teardown_p50_us",
            "failed_frac",
        ],
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_with_its_unit() {
    for w in Workload::ALL {
        let mut out = run(&tiny(w, false));
        let report = out.render_report();
        assert!(out.correct(), "{report}");
        assert!(
            report.contains("matches the recorded value"),
            "{} lost its recorded digest:\n{report}",
            w.name()
        );
        for name in named_in_report(w) {
            assert!(
                report.contains(name),
                "{} report lacks {name}:\n{report}",
                w.name()
            );
        }
        let (j, metrics) = result_metrics(&out.render_result());
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(names, END_TO_END.to_vec(), "{}", w.name());
        for (name, v, _) in &metrics {
            assert!(*v > 0.0, "{} reported {name} = {v}", w.name());
        }
    }
}

#[test]
fn every_traced_workload_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let mut out = run(&tiny(w, true));
        assert!(out.correct(), "{}", out.render_report());
        let (_, metrics) = result_metrics(&out.render_result());
        let want = per_layer();
        assert_eq!(metrics.len(), want.len());
        for ((name, v, unit), (want_name, want_unit)) in metrics.iter().zip(&want) {
            assert_eq!((name, unit.as_str()), (want_name, *want_unit));
            assert!(v.is_finite());
        }
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).map(|m| m.1).unwrap();
        // Every workload measures its own unattributed share; each
        // reaches its own layers.
        assert!((0.0..1.0).contains(&get("trace.unattributed_share")));
        match w {
            Workload::Fig5Replay => {
                assert!(get("engine.busy_s") > 0.0 && get("sim.pool_util") > 0.0);
                assert!(get("gen.record_s") > 0.0);
            }
            Workload::StreamColo => {
                assert!(get("gen.share") > 0.0 && get("gen.fill_s.lpm") > 0.0);
                assert!(get("sim.snic_leg_s") > 0.0);
            }
            Workload::ServeMixed => {
                assert!(get("serve.attest_p50_us") > 0.0 && get("serve.parse_us") > 0.0);
                assert!(get("serve.shed.overloaded") > 0.0);
                assert!(get("serve.shed.rate_limited") > 0.0);
                assert!(get("serve.expired") > 0.0);
            }
        }
    }
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let j = parse_json(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
}

#[test]
fn a_wrong_digest_fails_the_run() {
    for w in Workload::ALL {
        let right = perfbench::recorded_digest(w, Size::Tiny, DEFAULT_SEED)
            .expect("tiny digests are recorded for the default seed");
        let mut opts = tiny(w, false);
        opts.expect = Some(right ^ 1);
        let mut out = run(&opts);
        assert!(!out.correct(), "{} accepted a perturbed digest", w.name());
        assert!(out.failed >= 1);
        let (j, _) = result_metrics(&out.render_result());
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
    }
}

#[test]
fn a_broken_conservation_law_fails_the_run() {
    let sound = TenantStats {
        submitted: 10,
        admitted: 7,
        shed: 3,
        served: 6,
        expired: 1,
        reclaimed: 0,
        failed: 0,
    };
    assert_eq!(conservation("t", &sound, 0, 10, 3), None);
    let broken = [
        // A request vanished between admission and service.
        TenantStats { served: 5, ..sound },
        // Admission counted more than it saw.
        TenantStats {
            admitted: 8,
            ..sound
        },
    ];
    for s in broken {
        let mut out = Outcome::new(&tiny(Workload::ServeMixed, false));
        out.check(None);
        assert!(out.correct());
        out.check(conservation("t", &s, 0, 10, 3));
        assert!(!out.correct(), "{s:?} passed");
    }
    // The client's own count must agree with the daemon's.
    assert!(conservation("t", &sound, 0, 11, 3).is_some());
    assert!(conservation("t", &sound, 0, 10, 2).is_some());
    assert!(conservation("t", &sound, 1, 10, 3).is_some());
}

#[test]
fn the_binary_prints_the_result_last_and_refuses_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(bin)
        .args(["--workload", "serve-mixed", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--size", "tiny"])
        .output()
        .expect("run perfbench");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let (j, metrics) = result_metrics(last);
    assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    assert!(j
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(metrics.len(), END_TO_END.len());
    assert!(stdout.contains("\"manifest\": {\"workload\": \"serve-mixed\", \"seed\": 3"));
    assert!(stdout.contains("\"cpu_model\": "));

    for bad in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "fig5-replay", "--trace", "2"],
    ] {
        let out = Command::new(bin).args(bad).output().expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}
