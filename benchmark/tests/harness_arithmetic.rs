//! The harness's own arithmetic: order statistics, span self time, `/proc`
//! parsing, the JSON seam, name validation, and the manifest tables.

use lossburst_benchmark::harness::{contract_line, worsening, Samples};
use lossburst_benchmark::json::{self, obj, Json};
use lossburst_benchmark::procfs::{
    parse_schedstat_run_ns, parse_stat_cpu_ticks, parse_status_vm_hwm_kb, read_cpu_time,
    read_peak_rss_mb,
};
use lossburst_benchmark::span::{self_times_ns, to_jsonl, Recorder, Span};
use lossburst_benchmark::spec::{
    self, valid_name, valid_unit, Better, END_TO_END, PER_LAYER, WORKLOADS,
};
use lossburst_benchmark::stats::{median, percentile, quartiles, summarize};

// --- order statistics -------------------------------------------------------

/// Reference values are `statistics.quantiles(values, n=4)` from CPython.
#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // Two samples: the outer quartiles extrapolate, as Python's do.
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    // Unsorted input with a tie.
    assert_eq!(
        quartiles(&[3.5, 1.25, 9.0, 4.0, 4.0, 7.5, 2.0]),
        Some([2.0, 4.0, 7.5])
    );
    let walls = [0.47, 0.48, 0.52, 0.46, 0.47, 0.49, 0.50, 0.47, 0.48, 0.51];
    let [q1, q2, q3] = quartiles(&walls).unwrap();
    assert!((q1 - 0.47).abs() < 1e-12 && (q2 - 0.48).abs() < 1e-12);
    assert!((q3 - 0.5025).abs() < 1e-12, "q3 = {q3}");
}

#[test]
fn median_and_summary_count_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));

    assert!(summarize(&[]).is_none());
    let one = summarize(&[7.0]).unwrap();
    assert_eq!(
        (one.n, one.min, one.q1, one.median, one.q3, one.max),
        (1, 7.0, 7.0, 7.0, 7.0, 7.0)
    );
    assert_eq!(one.spread(), Some(0.0));

    let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
    assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
    assert_eq!((s.q1, s.q3), (1.5, 4.5));
    // (4.5 - 1.5) / 3
    assert_eq!(s.spread(), Some(1.0));
    // A zero median has no relative spread.
    assert_eq!(summarize(&[-1.0, 0.0, 1.0]).unwrap().spread(), None);
}

#[test]
fn percentile_interpolates_between_order_statistics() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), Some(10.0));
    assert_eq!(percentile(&v, 0.5), Some(30.0));
    assert_eq!(percentile(&v, 1.0), Some(50.0));
    assert_eq!(percentile(&v, 0.9), Some(46.0));
    assert_eq!(percentile(&[], 0.5), None);
}

// --- span self time ---------------------------------------------------------

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        unit: None,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // root 0..100; child 10..40 with grandchild 20..30; child 50..70.
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(20, 30, Some(1)),
        span(50, 70, Some(0)),
    ];
    // The grandchild is the child's business, not the root's.
    assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
}

#[test]
fn self_time_counts_overlapping_children_once_and_clips_them() {
    // Children 10..50 and 30..80 overlap on 30..50; 90..130 overruns the
    // parent and is clipped at 100; 40..45 lies wholly inside another.
    let spans = [
        span(0, 100, None),
        span(10, 50, Some(0)),
        span(30, 80, Some(0)),
        span(90, 130, Some(0)),
        span(40, 45, Some(0)),
    ];
    // Covered: 10..80 (70) + 90..100 (10) = 80.
    assert_eq!(self_times_ns(&spans)[0], 20);
    // A span with no children is all self time; a dangling parent index
    // is ignored rather than trusted.
    assert_eq!(self_times_ns(&[span(5, 9, Some(17))]), vec![4]);
}

#[test]
fn recorder_nests_spans_and_writes_one_json_line_each() {
    let mut rec = Recorder::new();
    rec.time("outer", None, |rec| {
        rec.time("inner", Some(3), |_| std::hint::black_box(1 + 1));
        rec.time("inner", Some(4), |_| ());
    });
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
    assert_eq!((spans[1].parent, spans[1].unit), (Some(0), Some(3)));
    assert_eq!((spans[2].parent, spans[2].unit), (Some(0), Some(4)));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert_eq!(rec.durations_s("inner").len(), 2);

    let jsonl = to_jsonl(spans);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 3);
    let first = json::parse(lines[0]).unwrap();
    assert_eq!(first.get("name").and_then(Json::as_str), Some("outer"));
    assert_eq!(first.get("parent"), Some(&Json::Null));
    let second = json::parse(lines[1]).unwrap();
    assert_eq!(second.get("parent").and_then(Json::as_u64), Some(0));
    assert_eq!(second.get("unit").and_then(Json::as_u64), Some(3));
}

// --- /proc parsing ----------------------------------------------------------

#[test]
fn stat_cpu_ticks_survive_a_hostile_command_name() {
    // Fields 14 and 15 (utime, stime) are 523 and 77.
    let plain = "4242 (bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 523 77 0 0 20 0 3 0 1000 1 2";
    assert_eq!(parse_stat_cpu_ticks(plain), Some(600));
    // A comm with spaces, parentheses and digits must not shift fields.
    let nasty =
        "4242 (a) b (1 2 3) R 1 4242 4242 0 -1 4194304 900 0 0 0 523 77 0 0 20 0 3 0 1000 1 2";
    assert_eq!(parse_stat_cpu_ticks(nasty), Some(600));
    assert_eq!(parse_stat_cpu_ticks(""), None);
    assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    assert_eq!(
        parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 many 77 0"),
        None
    );
}

#[test]
fn schedstat_and_vm_hwm_parse_or_decline() {
    assert_eq!(parse_schedstat_run_ns("1044771 52521 2\n"), Some(1_044_771));
    assert_eq!(parse_schedstat_run_ns(""), None);
    assert_eq!(parse_schedstat_run_ns("n/a 0 0"), None);

    let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1776 kB\nVmRSS:\t    1700 kB\n";
    assert_eq!(parse_status_vm_hwm_kb(status), Some(1776));
    assert_eq!(parse_status_vm_hwm_kb("Name:\tbench\n"), None);
    assert_eq!(parse_status_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    // A unit other than kB is not silently reinterpreted.
    assert_eq!(parse_status_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn live_proc_readers_are_graceful() {
    // On Linux both are available; elsewhere both decline without
    // panicking, and the caller reports the metric as unavailable.
    match (read_cpu_time(), read_peak_rss_mb()) {
        (Some(cpu), Some(rss)) => {
            assert!(rss > 0.0);
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
            assert!(read_cpu_time().unwrap() >= cpu, "CPU time went backwards");
        }
        (cpu, rss) => assert!(
            !std::path::Path::new("/proc/self/status").exists(),
            "procfs present but unreadable: {cpu:?} {rss:?}"
        ),
    }
    // Unavailable metrics travel as JSON null.
    assert_eq!(Json::from(None::<f64>), Json::Null);
}

// --- JSON -------------------------------------------------------------------

#[test]
fn json_round_trips_through_both_writers() {
    let doc = obj([
        ("correct", true.into()),
        ("attempted", 221_273_092u64.into()),
        ("wall_s", 0.4702200095.into()),
        ("tiny", 1.5e-300.into()),
        ("negative", (-2.5).into()),
        ("none", Json::Null),
        (
            "text",
            "tab\t quote\" backslash\\ newline\n bell\u{7} é ✓".into(),
        ),
        (
            "nested",
            obj([
                ("empty_arr", Json::Arr(vec![])),
                ("empty_obj", Json::Obj(vec![])),
                ("list", vec![1.0, 2.25, -3.0].into()),
            ]),
        ),
    ]);
    for text in [doc.to_line(), doc.to_pretty()] {
        assert_eq!(json::parse(&text).unwrap(), doc, "{text}");
    }
    assert!(!doc.to_line().contains('\n'));
    // Every measured digit survives; integers carry no fraction.
    assert!(doc.to_line().contains("\"wall_s\": 0.4702200095"));
    assert!(doc.to_line().contains("\"attempted\": 221273092,"));
    // Non-finite numbers become null rather than invalid JSON.
    assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    assert_eq!(Json::Num(f64::INFINITY).to_line(), "null");
    assert_eq!(
        json::parse(" [1e3, -0.5E-1] ").unwrap(),
        vec![1000.0, -0.05].into()
    );
    assert_eq!(
        json::parse("\"\\u00e9\\/\"").unwrap(),
        Json::Str("é/".into())
    );
}

#[test]
fn json_parser_refuses_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "[1 2]",
        "[1,]",
        "{1: 2}",
        "\"unterminated",
        "\"bad \\q escape\"",
        "\"\\u12\"",
        "nul",
        "1.2.3",
        "--1",
        "1e999",
        "{} {}",
        "[1] x",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
    // Pathological nesting is an error, not a stack overflow.
    let deep = "[".repeat(100_000);
    assert!(json::parse(&deep).is_err());
}

#[test]
fn json_accessors_are_typed() {
    let doc =
        json::parse("{\"n\": 3, \"x\": 2.5, \"neg\": -1, \"s\": \"hi\", \"b\": false}").unwrap();
    assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("x").and_then(Json::as_u64), None);
    assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
    assert_eq!(doc.get("x").and_then(Json::as_f64), Some(2.5));
    assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
    assert_eq!(doc.get("b"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("missing"), None);
    assert_eq!(doc.get("s").and_then(Json::as_f64), None);
}

// --- names and the manifest -------------------------------------------------

#[test]
fn names_outside_the_contract_alphabet_are_rejected() {
    for good in [
        "wall_s",
        "campaign_650",
        "a",
        "9lives",
        "netsim.event.ns_per_op_deep",
        "a-b.c_d",
    ] {
        assert!(valid_name(good), "rejected {good:?}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        " wall_s",
        "wall s",
        "wall/s",
        "wall%",
        "_leading",
        ".leading",
        "-leading",
        "naïve",
        "tab\t",
        "semi;colon",
        "quote\"",
        too_long.as_str(),
    ] {
        assert!(!valid_name(bad), "accepted {bad:?}");
    }
    assert!(valid_name(&"x".repeat(64)));

    for good in ["ms", "s", "1/s", "count", "MB/s", "%", "ratio"] {
        assert!(valid_unit(good), "rejected unit {good:?}");
    }
    for bad in ["", "per second", "µs", "seventeen_chars__"] {
        assert!(!valid_unit(bad), "accepted unit {bad:?}");
    }
}

#[test]
fn declared_tables_satisfy_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));

    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "workload name {:?}", w.name);
        assert!(
            w.why.chars().count() <= 200 && !w.why.contains('\n'),
            "{}: why is {} characters",
            w.name,
            w.why.chars().count()
        );
        assert!(seen.insert(w.name), "name {:?} used twice", w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name), "name {:?} used twice", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    // Set-up time is declared, in seconds, lower-is-better, with the
    // largest bound of all.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest));
}

#[test]
fn benchmark_json_is_the_manifest_the_tables_declare() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let committed = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        spec::manifest(),
        "regenerate with `lossburst-benchmark manifest > BENCHMARK.json`"
    );
    let keys: Vec<&str> = committed
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

// --- agreement and the contract line ----------------------------------------

#[test]
fn worsening_respects_the_metric_direction() {
    assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
    assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
    assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
    assert!((worsening(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
}

#[test]
fn contract_line_has_exactly_the_four_keys_and_every_metric() {
    let mut s = Samples {
        workload: "lab_dense".into(),
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, _)| vec![1.0 + i as f64, 3.0 + i as f64, 2.0 + i as f64])
            .collect(),
        attempted: 3,
        ..Samples::default()
    };
    let line = contract_line(&s).expect("every metric has samples");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    for ((name, value), (i, m)) in metrics.iter().zip(END_TO_END.iter().enumerate()) {
        assert_eq!(name, m.name);
        // Three samples i+1, i+3, i+2: the best repeat is reported.
        let best = match m.better {
            Better::Lower => 1.0 + i as f64,
            Better::Higher => 3.0 + i as f64,
        };
        assert_eq!(value.get("value").and_then(Json::as_f64), Some(best));
        assert_eq!(value.get("unit").and_then(Json::as_str), Some(m.unit));
    }
    assert!(!line.to_line().contains('\n'));

    // A failed output check flips `correct`; a metric without samples
    // means there is no result to print at all.
    s.problems.push("streaming and batch disagree".into());
    assert_eq!(
        contract_line(&s).unwrap().get("correct"),
        Some(&Json::Bool(false))
    );
    s.metrics[0].clear();
    assert!(contract_line(&s).is_none());
}
