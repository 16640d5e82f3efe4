//! `perf` — event-loop throughput benchmark.
//!
//! Runs the Fig-1 dumbbell at three scales under both schedulers (the
//! calendar queue and the binary-heap fallback), reports events/second and
//! wall time for each, cross-checks that both schedulers produced the
//! byte-identical drop trace, and finishes with two microbenches that
//! isolate the scheduler itself: queue-stress (one stationary hold model
//! under a 200 000-event backlog) and path-shaped (the pending set of a
//! campaign path simulation: a few hundred events, most of them
//! far-future, with an idle spell mid-run).
//!
//! Next to each calendar wall time go its [`SchedulerStats`] — elements
//! shifted per insert, days walked per pop, rebuilds — which are counts,
//! identical on every host, and so are what CI gates on (`--quick` runs
//! every case at a fraction of its length for that purpose).
//!
//! Results go to stdout and to `BENCH_EVENTLOOP.json` (override with
//! `--out PATH`); see EXPERIMENTS.md for the schema.

use lossburst_netsim::event::{Event, EventQueue, SchedulerKind};
use lossburst_netsim::prelude::*;
use lossburst_testkit::schedule::{campaign_schedule, QueueOp};
use lossburst_transport::prelude::*;
use std::time::Instant;

struct RunStats {
    events: u64,
    wall_secs: f64,
    drops: u64,
    loss_fingerprint: u64,
    sched: SchedulerStats,
}

impl RunStats {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
}

/// FNV-1a over the drop records: a cheap byte-identity fingerprint.
fn fingerprint(losses: &[lossburst_netsim::trace::LossRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for l in losses {
        eat(l.time.as_nanos());
        eat(l.link.0 as u64);
        eat(l.flow.0 as u64);
        eat(l.seq);
    }
    h
}

/// One Fig-1 dumbbell run: `pairs` NewReno bulk flows plus `pairs` on-off
/// noise flows over a 100 Mbps bottleneck, RTTs uniform in 2–200 ms.
fn run_dumbbell(pairs: usize, sim_secs: u64, seed: u64, kind: SchedulerKind) -> RunStats {
    let mut b = SimBuilder::new(seed)
        .trace(TraceConfig::all())
        .scheduler(kind);
    let cfg = DumbbellConfig::paper_baseline(
        pairs,
        500,
        RttAssignment::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(200)),
    );
    let db = build_dumbbell(&mut b, &cfg);
    for i in 0..pairs {
        let (s, r) = (db.senders[i], db.receivers[i]);
        let start = SimTime::ZERO + SimDuration::from_millis(7 * i as u64);
        b.flow(
            s,
            r,
            start,
            Box::new(Sender::newreno(s, r, TcpConfig::default())),
        );
        // Reverse-path on-off noise keeps ACK-path events flowing too.
        b.flow(
            r,
            s,
            start,
            Box::new(OnOff::with_average_rate(
                r,
                s,
                500,
                (cfg.bottleneck_bps * 0.10) / pairs as f64,
                SimDuration::from_millis(100),
                SimDuration::from_millis(100),
            )),
        );
    }
    let mut sim = b.build();
    let t0 = Instant::now();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(sim_secs));
    let wall_secs = t0.elapsed().as_secs_f64();
    RunStats {
        events: sim.events_processed,
        wall_secs,
        drops: sim.total_drops(),
        loss_fingerprint: fingerprint(&sim.trace.losses),
        sched: sim.scheduler_stats(),
    }
}

/// Scheduler microbench: hold a deep backlog and churn schedule/pop pairs.
/// This isolates the queue: no links, no transports, no tracing.
fn queue_stress(kind: SchedulerKind, backlog: usize, churn: u64) -> RunStats {
    let mut q = EventQueue::with_kind(kind);
    let mut s = 0x1234_5678_9abc_def0u64;
    let mut rand = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut now = 0u64;
    for i in 0..backlog {
        q.schedule(
            SimTime::from_nanos(now + rand() % 10_000_000),
            Event::FlowStart {
                flow: FlowId(i as u32),
            },
        );
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..churn {
        let (t, _) = q.pop().unwrap();
        now = t.as_nanos();
        acc = acc.wrapping_add(now);
        // Hold-model reinsertion: mixed near and far horizons, as a sim
        // with short timers and long RTO timers produces.
        let delta = match rand() % 10 {
            0..=6 => rand() % 100_000,                 // sub-0.1 ms churn
            7 | 8 => 1_000_000 + rand() % 10_000_000,  // RTT-scale
            _ => 100_000_000 + rand() % 1_000_000_000, // RTO-scale
        };
        q.schedule(
            SimTime::from_nanos(now + delta),
            Event::FlowStart { flow: FlowId(0) },
        );
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    RunStats {
        events: churn,
        wall_secs,
        drops: 0,
        loss_fingerprint: acc,
        sched: q.stats(),
    }
}

/// Scheduler microbench on the pending set of one campaign path
/// simulation ([`campaign_schedule`]): shallow where queue-stress is
/// deep, bimodal where it is stationary.
fn path_shaped(kind: SchedulerKind, churn: u64) -> RunStats {
    let mut q = EventQueue::with_kind(kind);
    let mut acc = 0u64;
    let t0 = Instant::now();
    campaign_schedule(2006, churn as usize, &mut |op| match op {
        QueueOp::Schedule(at) => {
            q.schedule(
                SimTime::from_nanos(at),
                Event::FlowStart { flow: FlowId(0) },
            );
            None
        }
        QueueOp::Pop => {
            let (t, _) = q.pop()?;
            acc = acc.wrapping_add(t.as_nanos());
            Some(t.as_nanos())
        }
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    RunStats {
        events: churn,
        wall_secs,
        drops: 0,
        loss_fingerprint: acc,
        sched: q.stats(),
    }
}

/// Wall time and rate, plus the tuning counters where the scheduler keeps
/// them (the heap reports none).
fn json_pair(stats: &RunStats) -> String {
    let mut fields = format!(
        "\"wall_ms\": {:.1}, \"events_per_sec\": {:.0}",
        stats.wall_secs * 1e3,
        stats.events_per_sec()
    );
    if stats.sched.inserts > 0 {
        fields += &format!(
            ", \"shifted_per_insert\": {:.3}, \"days_per_pop\": {:.3}, \"rebuilds\": {}",
            stats.sched.shifted_per_insert(),
            stats.sched.days_per_pop(),
            stats.sched.rebuilds
        );
    }
    format!("{{ {fields} }}")
}

/// Run one scheduler microbench under both schedulers, check they popped
/// the same time sequence, print its table row and return its JSON object
/// body and calendar/heap speedup.
fn micro_pair(
    name: &str,
    backlog: usize,
    churn: u64,
    run: impl Fn(SchedulerKind) -> RunStats,
) -> (String, f64) {
    let cal = run(SchedulerKind::Calendar);
    let heap = run(SchedulerKind::Heap);
    assert_eq!(
        cal.loss_fingerprint, heap.loss_fingerprint,
        "{name}: schedulers popped different time sequences"
    );
    let speedup = cal.events_per_sec() / heap.events_per_sec();
    print_row(name, churn, &cal, &heap, speedup);
    let json = format!(
        "{{ \"backlog\": {backlog}, \"churn\": {churn}, \"calendar\": {}, \"heap\": {}, \"speedup\": {speedup:.3} }}",
        json_pair(&cal),
        json_pair(&heap),
    );
    (json, speedup)
}

fn print_row(name: &str, events: u64, cal: &RunStats, heap: &RunStats, speedup: f64) {
    println!(
        "# {:<18} {:>12} {:>14.0} {:>14.0} {:>8.2}x {:>10.2} {:>9.2} {:>8}",
        name,
        events,
        cal.events_per_sec(),
        heap.events_per_sec(),
        speedup,
        cal.sched.shifted_per_insert(),
        cal.sched.days_per_pop(),
        cal.sched.rebuilds
    );
}

fn main() {
    const USAGE: &str = "usage: perf [--quick] [--out PATH]";
    let mut out_path = String::from("BENCH_EVENTLOOP.json");
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out requires a path; {USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; {USAGE}");
                std::process::exit(2);
            }
        }
    }
    // `--quick` keeps every case and its population, and cuts its length.
    let cut = if quick { 10 } else { 1 };

    let scales = [
        ("dumbbell-small", 4usize, 20u64),
        ("dumbbell-medium", 16, 30),
        ("dumbbell-large", 64, 40),
    ];
    let seed = 2006;
    println!("# event-loop perf: Fig-1 dumbbell, calendar vs heap scheduler");
    println!(
        "# {:<18} {:>12} {:>14} {:>14} {:>9} {:>10} {:>9} {:>8}",
        "scale", "events", "cal ev/s", "heap ev/s", "speedup", "shift/ins", "days/pop", "rebuilds"
    );

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for (name, pairs, sim_secs) in scales {
        let sim_secs = (sim_secs / cut).max(2);
        let cal = run_dumbbell(pairs, sim_secs, seed, SchedulerKind::Calendar);
        let heap = run_dumbbell(pairs, sim_secs, seed, SchedulerKind::Heap);
        assert_eq!(
            cal.events, heap.events,
            "{name}: schedulers processed different event counts"
        );
        assert_eq!(
            (cal.drops, cal.loss_fingerprint),
            (heap.drops, heap.loss_fingerprint),
            "{name}: schedulers produced different drop traces"
        );
        let speedup = cal.events_per_sec() / heap.events_per_sec();
        print_row(name, cal.events, &cal, &heap, speedup);
        entries.push(format!(
            "    {{ \"name\": \"{name}\", \"pairs\": {pairs}, \"sim_seconds\": {sim_secs}, \
             \"events\": {}, \"drops\": {}, \"calendar\": {}, \"heap\": {}, \
             \"speedup\": {speedup:.3} }}",
            cal.events,
            cal.drops,
            json_pair(&cal),
            json_pair(&heap),
        ));
        speedups.push(speedup);
    }

    let (backlog, churn) = (200_000usize, 4_000_000 / cut);
    let (stress_json, stress_speedup) = micro_pair("queue-stress", backlog, churn, |kind| {
        queue_stress(kind, backlog, churn)
    });
    // 300 far-future + 64 near-term events, held constant by the schedule.
    let (path_json, path_speedup) =
        micro_pair("path-shaped", 364, churn, |kind| path_shaped(kind, churn));
    speedups.extend([stress_speedup, path_speedup]);

    let max_speedup = speedups.iter().cloned().fold(f64::MIN, f64::max);
    let prov = lossburst_bench::provenance::capture().json_fields();
    let json = format!(
        "{{\n  \"bench\": \"event-loop\",\n  \"seed\": {seed},\n  \"quick\": {quick},\n  {prov},\n  \"schedulers\": [\"calendar\", \"heap\"],\n  \"scales\": [\n{}\n  ],\n  \"queue_stress\": {stress_json},\n  \"path_shaped\": {path_json},\n  \"max_speedup\": {max_speedup:.3}\n}}\n",
        entries.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path} (max speedup {max_speedup:.2}x)");
}
