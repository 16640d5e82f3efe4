//! The parent side: spawn one child per repeat, aggregate, report.

use crate::child::{out_dir, unix_nanos, ChildMode};
use crate::json::{self, obj, Json};
use crate::spec::{self, Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{summarize, Summary};
use crate::workloads::Scale;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Width every timed job runs at: one thread, the pool off.
///
/// The hosts this runs on hand out a few virtual cores that share execution
/// resources with each other and with other tenants. A second busy thread
/// slows the first by 40–85 % (two one-thread `bsp_barrier` jobs side by
/// side: 6.0 s alone, 8.4–11.2 s together), and over fourteen alternating
/// runs a two-thread job's `wall_s` *and* `cpu_s` ranged over 37 % of their
/// floor where the one-thread job's ranged over 10 %. At the host's full
/// width the end-to-end numbers measured the neighbours. The pool is
/// measured in the traced run instead, at [`pool_threads`].
pub const JOB_THREADS: usize = 1;

/// Pool width of the traced run's pool numbers (speed-up, balance,
/// dispatch): the host's cores, at most 4.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Run one child process to completion and parse the object on its last
/// stdout line. The child is always waited for; its stderr passes through.
fn spawn_child(
    workload: &str,
    seed: u64,
    scale: Scale,
    threads: usize,
    mode: ChildMode,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--scale", scale.as_str()])
        .args(["--seed", &seed.to_string()])
        .args(["--spawned-at-ns", &unix_nanos().to_string()]);
    match mode {
        ChildMode::Job => {}
        ChildMode::SetupOnly => {
            cmd.args(["--setup-only", "1"]);
        }
        ChildMode::Traced(s) => {
            cmd.args(["--trace-seconds", &s.to_string()]);
        }
    }
    let output = cmd
        .env(rayon::THREADS_ENV, threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload} child printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload} child output: {e}"))
}

/// How many timed repeats a workload gets.
#[derive(Clone, Copy, Debug)]
pub enum Plan {
    /// Exactly this many.
    Fixed(usize),
    /// As many as end within this many seconds of the warm-up's start,
    /// never fewer than [`MIN_REPEATS`].
    Window(f64),
}

/// Timed repeats `run` and `agree` take the median over.
pub const REPEATS: usize = 5;

/// Fewest timed repeats a window reports on.
pub const MIN_REPEATS: usize = 3;

/// Children that only set up and exit, after the timed repeats. Set-up
/// takes a millisecond, so the three to seven job children alone would
/// leave `setup_s` resting on a handful of samples of what is mostly a
/// process spawn.
pub const SETUP_SAMPLES: usize = 40;

/// The timed repeats of one workload.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Workload name.
    pub workload: String,
    /// One vector of values per end-to-end metric, in [`END_TO_END`]
    /// order: one value per repeat, and for `setup_s` one more per
    /// set-up-only child.
    pub metrics: Vec<Vec<f64>>,
    /// Operations attempted, over all repeats.
    pub attempted: u64,
    /// Operations failed, over all repeats.
    pub failed: u64,
    /// The fingerprint of the first repeat, which every other must reproduce.
    pub fingerprint: String,
    /// The exact counts of the first repeat, likewise.
    pub counts: Json,
    /// Everything that makes this run incorrect.
    pub problems: Vec<String>,
}

impl Samples {
    /// Values of the end-to-end metric `name`.
    pub fn values(&self, name: &str) -> &[f64] {
        END_TO_END
            .iter()
            .position(|m| m.name == name)
            .map_or(&[], |i| &self.metrics[i])
    }

    /// The best repeat's value of the end-to-end metric `name` (smallest
    /// for lower-is-better, largest for higher-is-better) — what the
    /// time-boxed form reports.
    ///
    /// All repeats do identical work on one thread, so they differ only by
    /// what the host did to them, and that only ever makes a repeat slower:
    /// by anything up to 80 %, in bursts of under a second and phases of
    /// minutes. Forty windows of three 6 s `bsp_barrier` jobs over 23 noisy
    /// minutes spread (IQR / median) by 13 % on the best of three and by
    /// 16 % on the median of three; twelve 0.4 s jobs per window by 11 % on
    /// the best, 15 % on the first quartile and 34 % on the median.
    pub fn best(&self, name: &str) -> Option<f64> {
        let m = END_TO_END.iter().find(|m| m.name == name)?;
        let s = summarize(self.values(name))?;
        Some(match m.better {
            Better::Lower => s.min,
            Better::Higher => s.max,
        })
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Repeat `workload` in fresh one-thread child processes, all on the one
/// `seed`: a `smoke`-scale warm-up, as many timed repeats as `plan` asks
/// for, then [`SETUP_SAMPLES`] set-up-only children. Every repeat does
/// identical work and must reproduce the first one's results.
pub fn measure(workload: &str, seed: u64, scale: Scale, plan: Plan) -> Samples {
    let started = Instant::now();
    let mut s = Samples {
        workload: workload.to_string(),
        metrics: vec![Vec::new(); END_TO_END.len()],
        ..Samples::default()
    };
    // The first process after an idle spell pays for paging the binary in
    // and runs measurably slower; a short job absorbs that, untimed.
    if let Err(e) = spawn_child(workload, seed, Scale::Smoke, JOB_THREADS, ChildMode::Job) {
        s.problems.push(format!("warm-up: {e}"));
        return s;
    }
    let mut repeats = 0;
    let mut longest = 0.0f64;
    loop {
        let done = match plan {
            Plan::Fixed(n) => repeats >= n,
            // Do not start a repeat that would end outside the window.
            Plan::Window(secs) => {
                repeats >= MIN_REPEATS && started.elapsed().as_secs_f64() + longest > secs
            }
        };
        if done {
            break;
        }
        repeats += 1;
        let began = Instant::now();
        let child = match spawn_child(workload, seed, scale, JOB_THREADS, ChildMode::Job) {
            Ok(c) => c,
            Err(e) => {
                s.problems.push(e);
                return s;
            }
        };
        longest = longest.max(began.elapsed().as_secs_f64());
        for (values, m) in s.metrics.iter_mut().zip(&END_TO_END) {
            match child.get(m.name).and_then(Json::as_f64) {
                Some(v) => values.push(v),
                None => s.problems.push(format!("{}: unavailable", m.name)),
            }
        }
        s.attempted += child.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        s.failed += child.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(list) = child.get("problems").and_then(Json::as_arr) {
            s.problems
                .extend(list.iter().filter_map(Json::as_str).map(str::to_string));
        }
        let fingerprint = child
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let counts = child.get("counts").cloned().unwrap_or(Json::Null);
        if repeats == 1 {
            (s.fingerprint, s.counts) = (fingerprint, counts);
        } else if fingerprint != s.fingerprint || counts != s.counts {
            s.problems.push(format!(
                "repeat {repeats} of seed {seed} was not deterministic: fingerprint {fingerprint} vs {}",
                s.fingerprint
            ));
        }
    }
    let setup_s = END_TO_END
        .iter()
        .position(|m| m.name == "setup_s")
        .expect("setup_s is a declared end-to-end metric");
    for _ in 0..SETUP_SAMPLES {
        match spawn_child(workload, seed, scale, JOB_THREADS, ChildMode::SetupOnly) {
            Ok(c) => s.metrics[setup_s].extend(c.get("setup_s").and_then(Json::as_f64)),
            Err(e) => s.problems.push(format!("set-up only: {e}")),
        }
    }
    s
}

/// A traced run's per-layer metrics, one value per [`PER_LAYER`] entry.
pub struct Traced {
    /// Values in [`PER_LAYER`] order.
    pub layer: Vec<f64>,
    /// Operations attempted in the traced loop.
    pub attempted: u64,
    /// Operations failed in the traced loop.
    pub failed: u64,
    /// Everything that makes this run incorrect.
    pub problems: Vec<String>,
    /// The traced child's full report (span summary, span file).
    pub report: Json,
}

/// The separate traced run of one workload: one untraced job at
/// [`pool_threads`] (for the pool's balance and the speed-up), then the
/// traced child — serial reference, traced loop, layer drives — all inside
/// about `seconds`.
pub fn trace(workload: &str, seed: u64, scale: Scale, seconds: f64) -> Traced {
    let started = Instant::now();
    let mut t = Traced {
        layer: vec![0.0; PER_LAYER.len()],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        report: Json::Null,
    };
    let set =
        |t: &mut Traced, name: &str, v: f64| match PER_LAYER.iter().position(|m| m.name == name) {
            Some(i) => t.layer[i] = v,
            None => t.problems.push(format!("undeclared layer metric {name}")),
        };
    // As in `measure`, a short warm-up absorbs the cold start.
    if let Err(e) = spawn_child(workload, seed, Scale::Smoke, pool_threads(), ChildMode::Job) {
        t.problems.push(format!("warm-up: {e}"));
        return t;
    }
    let pooled = match spawn_child(workload, seed, scale, pool_threads(), ChildMode::Job) {
        Ok(c) => c,
        Err(e) => {
            t.problems.push(e);
            return t;
        }
    };
    let left = (seconds - started.elapsed().as_secs_f64()).max(1.0);
    let traced = match spawn_child(workload, seed, scale, 1, ChildMode::Traced(left)) {
        Ok(c) => c,
        Err(e) => {
            t.problems.push(e);
            return t;
        }
    };
    for (name, v) in traced
        .get("layer")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        set(&mut t, name, v.as_f64().unwrap_or(0.0));
    }
    let f = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    set(&mut t, "rayon.pool.busy_share", f(&pooled, "busy_share"));
    set(&mut t, "rayon.pool.imbalance", f(&pooled, "imbalance"));
    let wall_pooled = f(&pooled, "wall_s");
    if wall_pooled > 0.0 {
        set(
            &mut t,
            "rayon.pool.speedup",
            f(&traced, "wall_1thread_s") / wall_pooled,
        );
    }
    t.attempted = traced.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    t.failed = traced.get("failed").and_then(Json::as_u64).unwrap_or(0);
    for child in [&pooled, &traced] {
        if let Some(list) = child.get("problems").and_then(Json::as_arr) {
            t.problems
                .extend(list.iter().filter_map(Json::as_str).map(str::to_string));
        }
    }
    if pooled.get("fingerprint") != traced.get("fingerprint") {
        t.problems
            .push("traced and pooled runs disagree on the fingerprint".into());
    }
    t.report = traced;
    t
}

/// Host and build facts stamped into every result file.
pub fn provenance(seed: u64, scale: Scale) -> Json {
    let tool = |program: &str, args: &[&str]| -> Json {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .into()
    };
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("lossburst_threads", JOB_THREADS.into()),
        ("pool_threads", pool_threads().into()),
        (
            "scheduler_policy",
            format!("{:?}", rayon::execution_policy()).into(),
        ),
        ("rustc", tool("rustc", &["-V"])),
        ("git_commit", tool("git", &["rev-parse", "HEAD"])),
        ("seed", seed.into()),
        ("scale", scale.as_str().into()),
    ])
}

fn summary_json(s: &Summary) -> Json {
    obj([
        ("n", s.n.into()),
        ("min", s.min.into()),
        ("q1", s.q1.into()),
        ("median", s.median.into()),
        ("q3", s.q3.into()),
        ("max", s.max.into()),
        ("spread", s.spread().into()),
    ])
}

/// One workload's samples as a result-file object.
fn samples_json(s: &Samples) -> Json {
    let metrics = END_TO_END
        .iter()
        .zip(&s.metrics)
        .filter_map(|(m, v)| Some((m.name.to_string(), summary_json(&summarize(v)?))))
        .collect();
    obj([
        ("workload", s.workload.as_str().into()),
        ("correct", s.problems.is_empty().into()),
        ("attempted", s.attempted.into()),
        ("failed", s.failed.into()),
        ("ops_failed_share", s.failed_share().into()),
        ("sim_fingerprint", s.fingerprint.as_str().into()),
        ("counts", s.counts.clone()),
        ("metrics", Json::Obj(metrics)),
        ("problems", s.problems.clone().into()),
    ])
}

fn print_samples(s: &Samples) {
    println!("\n## {}", s.workload);
    println!(
        "  {:<18} {:>5} {:>3} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "metric", "unit", "n", "median", "q1", "q3", "min", "max"
    );
    for (m, values) in END_TO_END.iter().zip(&s.metrics) {
        if let Some(v) = summarize(values) {
            println!(
                "  {:<18} {:>5} {:>3} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6}",
                m.name, m.unit, v.n, v.median, v.q1, v.q3, v.min, v.max
            );
        }
    }
    println!(
        "  {:<18} {:>5} {:>3} {:>13.6}   ({} failed of {} attempted)",
        "ops_failed_share",
        "share",
        s.metrics.first().map_or(0, Vec::len),
        s.failed_share(),
        s.failed,
        s.attempted
    );
    println!("  sim_fingerprint    {}", s.fingerprint);
    println!("  counts             {}", s.counts.to_line());
    for p in &s.problems {
        println!("  PROBLEM: {p}");
    }
}

fn write_result(name: &str, doc: &Json) {
    let path = out_dir().join(name);
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// One full set: every workload, [`REPEATS`] timed repeats each.
pub fn run_set(seed: u64, scale: Scale) -> Vec<Samples> {
    WORKLOADS
        .iter()
        .map(|w| {
            let s = measure(w.name, seed, scale, Plan::Fixed(REPEATS));
            print_samples(&s);
            s
        })
        .collect()
}

/// `run`: one set, printed and written to `out/`. True when correct.
pub fn run_all(seed: u64, scale: Scale) -> bool {
    println!(
        "# lossburst benchmark: run, seed {seed}, scale {}, {REPEATS} repeats after one warm-up, LOSSBURST_THREADS={}",
        scale.as_str(),
        JOB_THREADS
    );
    let set = run_set(seed, scale);
    write_result(
        &format!("run-{}-seed{seed}.json", scale.as_str()),
        &obj([
            ("provenance", provenance(seed, scale)),
            (
                "workloads",
                set.iter().map(samples_json).collect::<Vec<Json>>().into(),
            ),
        ]),
    );
    set.iter().all(|s| s.problems.is_empty())
}

/// `trace`: the traced run of every workload. True when correct.
pub fn trace_all(seed: u64, scale: Scale, seconds: f64) -> bool {
    println!(
        "# lossburst benchmark: trace, seed {seed}, scale {}",
        scale.as_str()
    );
    let mut ok = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let t = trace(w.name, seed, scale, seconds);
        println!("\n## {}", w.name);
        for (m, v) in PER_LAYER.iter().zip(&t.layer) {
            println!("  {:<46} {:>18.4} {}", m.name, v, m.unit);
        }
        if let Some(rows) = t.report.get("span_summary").and_then(Json::as_arr) {
            println!("  spans (name, count, total s, self s):");
            for r in rows {
                println!(
                    "    {:<28} {:>7} {:>12.6} {:>12.6}",
                    r.get("name").and_then(Json::as_str).unwrap_or("?"),
                    r.get("count").and_then(Json::as_u64).unwrap_or(0),
                    r.get("total_s").and_then(Json::as_f64).unwrap_or(0.0),
                    r.get("self_s").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
        if let Some(f) = t.report.get("span_file").and_then(Json::as_str) {
            println!("  span file: {f}");
        }
        for p in &t.problems {
            println!("  PROBLEM: {p}");
        }
        ok &= t.problems.is_empty();
        docs.push(obj([
            ("workload", w.name.into()),
            ("correct", t.problems.is_empty().into()),
            (
                "per_layer",
                Json::Obj(
                    PER_LAYER
                        .iter()
                        .zip(&t.layer)
                        .map(|(m, &v)| (m.name.to_string(), v.into()))
                        .collect(),
                ),
            ),
            ("problems", t.problems.clone().into()),
            ("report", t.report),
        ]));
    }
    write_result(
        &format!("trace-{}-seed{seed}.json", scale.as_str()),
        &obj([
            ("provenance", provenance(seed, scale)),
            ("workloads", docs.into()),
        ]),
    );
    ok
}

/// How much worse `second` is than `first`, as a share of `first`.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `agree`: two full sets back to back on the same build. Fails if any
/// end-to-end median moved against its direction by more than its bound
/// (and its floor) in either order, or any fingerprint or exact count
/// differs. Prints each metric's observed spread, so the bounds are
/// evidence; a metric whose medians agree while a set spreads wider than
/// the bound is marked unresolved, not ok.
pub fn agree(seed: u64, scale: Scale) -> bool {
    println!(
        "# lossburst benchmark: agree, seed {seed}, scale {}, 2 sets x {REPEATS} repeats",
        scale.as_str()
    );
    println!("\n# set 1");
    let first = run_set(seed, scale);
    println!("\n# set 2");
    let second = run_set(seed, scale);

    let mut ok = true;
    println!("\n# agreement (median set 1, set 2, worse-by, bound; spread set 1, set 2)");
    for (a, b) in first.iter().zip(&second) {
        println!("## {}", a.workload);
        for s in [a, b] {
            if !s.problems.is_empty() {
                ok = false;
                println!("  FAIL: run was not correct: {}", s.problems.join("; "));
            }
        }
        if a.fingerprint != b.fingerprint || a.counts != b.counts {
            ok = false;
            println!(
                "  FAIL: sets disagree on results: {} {} vs {} {}",
                a.fingerprint,
                a.counts.to_line(),
                b.fingerprint,
                b.counts.to_line()
            );
        }
        for ((m, va), vb) in END_TO_END.iter().zip(&a.metrics).zip(&b.metrics) {
            let (Some(sa), Some(sb)) = (summarize(va), summarize(vb)) else {
                ok = false;
                println!("  FAIL: {} has no samples", m.name);
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            // Either order: neither set may read as a regression of the other.
            let worse = worsening(m.better, sa.median, sb.median)
                .max(worsening(m.better, sb.median, sa.median));
            let spread = sa.spread().unwrap_or(0.0).max(sb.spread().unwrap_or(0.0));
            let verdict = if worse > bound && (sa.median - sb.median).abs() > m.floor {
                ok = false;
                "FAIL"
            } else if spread > bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "  {:<12} {:>14.6} {:>14.6} {:>7.2}% {:>4.0}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                sa.median,
                sb.median,
                100.0 * worse,
                100.0 * bound,
                100.0 * sa.spread().unwrap_or(0.0),
                100.0 * sb.spread().unwrap_or(0.0),
            );
        }
    }
    write_result(
        &format!("agree-{}-seed{seed}.json", scale.as_str()),
        &obj([
            ("provenance", provenance(seed, scale)),
            ("agree", ok.into()),
            (
                "set_1",
                first.iter().map(samples_json).collect::<Vec<Json>>().into(),
            ),
            (
                "set_2",
                second
                    .iter()
                    .map(samples_json)
                    .collect::<Vec<Json>>()
                    .into(),
            ),
        ]),
    );
    println!("\nagree: {}", if ok { "yes" } else { "NO" });
    ok
}

/// The contract's final stdout line: exactly these four keys.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static MetricSpec, f64)>,
) -> Json {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            obj([("value", v.into()), ("unit", m.unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The final line of an untraced run; `None` when a metric has no sample
/// to report.
pub fn contract_line(s: &Samples) -> Option<Json> {
    let values: Vec<f64> = END_TO_END
        .iter()
        .map(|m| s.best(m.name))
        .collect::<Option<_>>()?;
    Some(result_line(
        s.problems.is_empty(),
        s.attempted,
        s.failed,
        END_TO_END.iter().zip(values),
    ))
}

/// The final line of a traced run.
pub fn contract_trace_line(t: &Traced) -> Json {
    result_line(
        t.problems.is_empty(),
        t.attempted,
        t.failed,
        PER_LAYER.iter().zip(t.layer.iter().copied()),
    )
}

/// The contract entry point: one workload, time-boxed, one JSON line last.
/// Returns the process exit code.
pub fn contract(workload: &str, seed: u64, seconds: f64, traced: bool) -> u8 {
    if spec::workload(workload).is_none() {
        eprintln!("unknown workload {workload:?}");
        return 2;
    }
    let (line, problems) = if traced {
        let t = trace(workload, seed, Scale::Bench, seconds);
        // Without the traced child's report there are no layer numbers.
        let line = (t.report != Json::Null).then(|| contract_trace_line(&t));
        (line, t.problems)
    } else {
        let s = measure(workload, seed, Scale::Bench, Plan::Window(seconds));
        print_samples(&s);
        (contract_line(&s), s.problems)
    };
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    match line {
        Some(line) => {
            println!("{}", line.to_line());
            0
        }
        None => 1,
    }
}
