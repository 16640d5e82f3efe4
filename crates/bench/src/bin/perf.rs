//! `perf` — event-loop throughput benchmark.
//!
//! Runs the Fig-1 dumbbell at three scales, reports events/second and wall
//! time for each, and finishes with two microbenches that isolate the
//! event queue itself: queue-stress (one stationary hold model under a
//! 200 000-event backlog) and path-shaped (the pending set of a campaign
//! path simulation: a few hundred events, most of them far-future, with an
//! idle spell mid-run). Each microbench is replayed, untimed, on
//! [`HeapOracle`], and must pop the same time sequence.
//!
//! Next to each wall time go the queue's [`SchedulerStats`] — elements
//! shifted per insert, days walked per pop, rebuilds — which are counts,
//! identical on every host, and so are what CI gates on (`--quick` runs
//! every case at a fraction of its length for that purpose).
//!
//! Results go to stdout and to `BENCH_EVENTLOOP.json` (override with
//! `--out PATH`); see EXPERIMENTS.md for the schema.

use lossburst_bench::cli;
use lossburst_netsim::event::{Event, EventQueue};
use lossburst_netsim::prelude::*;
use lossburst_testkit::schedule::{campaign_schedule, HeapOracle, QueueOp};
use lossburst_transport::prelude::*;
use std::time::Instant;

/// One row of the table: what ran, how fast, and how well tuned the
/// calendar was while it did.
struct Case {
    name: String,
    /// The case's own JSON fields (its size, and what it counted).
    detail: String,
    events: u64,
    wall_secs: f64,
    sched: SchedulerStats,
}

impl Case {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn print_row(&self) {
        println!(
            "# {:<18} {:>12} {:>14.0} {:>10.2} {:>9.2} {:>8}",
            self.name,
            self.events,
            self.events_per_sec(),
            self.sched.shifted_per_insert(),
            self.sched.days_per_pop(),
            self.sched.rebuilds
        );
    }

    fn json(&self) -> String {
        format!(
            "    {{ \"name\": \"{}\", {}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \
             \"shifted_per_insert\": {:.3}, \"days_per_pop\": {:.3}, \"rebuilds\": {} }}",
            self.name,
            self.detail,
            self.wall_secs * 1e3,
            self.events_per_sec(),
            self.sched.shifted_per_insert(),
            self.sched.days_per_pop(),
            self.sched.rebuilds
        )
    }
}

/// One Fig-1 dumbbell run: `pairs` NewReno bulk flows plus `pairs` on-off
/// noise flows over a 100 Mbps bottleneck, RTTs uniform in 2–200 ms.
fn run_dumbbell(name: &str, pairs: usize, sim_secs: u64, seed: u64) -> Case {
    let mut b = SimBuilder::new(seed).trace(TraceConfig::all());
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
    Case {
        name: name.to_string(),
        detail: format!(
            "\"pairs\": {pairs}, \"sim_seconds\": {sim_secs}, \"events\": {}, \"drops\": {}",
            sim.events_processed,
            sim.total_drops()
        ),
        events: sim.events_processed,
        wall_secs,
        sched: sim.scheduler_stats(),
    }
}

/// What the microbenches ask of a queue: the product's, which they time,
/// and the oracle's, which checks what it popped.
trait Queue {
    fn schedule_ns(&mut self, at: u64);
    fn pop_ns(&mut self) -> Option<u64>;
}

impl Queue for EventQueue {
    fn schedule_ns(&mut self, at: u64) {
        self.schedule(
            SimTime::from_nanos(at),
            Event::FlowStart { flow: FlowId(0) },
        );
    }
    fn pop_ns(&mut self) -> Option<u64> {
        self.pop().map(|(t, _)| t.as_nanos())
    }
}

impl Queue for HeapOracle {
    fn schedule_ns(&mut self, at: u64) {
        self.schedule(at, 0);
    }
    fn pop_ns(&mut self) -> Option<u64> {
        self.pop().map(|(t, _)| t)
    }
}

/// Scheduler microbench: hold a deep backlog and churn schedule/pop pairs.
/// This isolates the queue: no links, no transports, no tracing. Returns
/// the churn's wall time and the wrapping sum of the popped times.
fn queue_stress(q: &mut impl Queue, backlog: usize, churn: u64) -> (f64, u64) {
    let mut s = 0x1234_5678_9abc_def0u64;
    let mut rand = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..backlog {
        q.schedule_ns(rand() % 10_000_000);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..churn {
        let now = q.pop_ns().expect("a hold model never drains");
        acc = acc.wrapping_add(now);
        // Hold-model reinsertion: mixed near and far horizons, as a sim
        // with short timers and long RTO timers produces.
        let delta = match rand() % 10 {
            0..=6 => rand() % 100_000,                 // sub-0.1 ms churn
            7 | 8 => 1_000_000 + rand() % 10_000_000,  // RTT-scale
            _ => 100_000_000 + rand() % 1_000_000_000, // RTO-scale
        };
        q.schedule_ns(now + delta);
    }
    (t0.elapsed().as_secs_f64(), acc)
}

/// Scheduler microbench on the pending set of one campaign path
/// simulation ([`campaign_schedule`]): shallow where queue-stress is
/// deep, bimodal where it is stationary. Returns as [`queue_stress`] does.
fn path_shaped(q: &mut impl Queue, churn: u64) -> (f64, u64) {
    let mut acc = 0u64;
    let t0 = Instant::now();
    campaign_schedule(2006, churn as usize, &mut |op| match op {
        QueueOp::Schedule(at) => {
            q.schedule_ns(at);
            None
        }
        QueueOp::Pop => {
            let t = q.pop_ns()?;
            acc = acc.wrapping_add(t);
            Some(t)
        }
    });
    (t0.elapsed().as_secs_f64(), acc)
}

/// A microbench's table row.
fn micro_case(name: &str, backlog: usize, churn: u64, wall_secs: f64, q: &EventQueue) -> Case {
    Case {
        name: name.to_string(),
        detail: format!("\"backlog\": {backlog}, \"churn\": {churn}"),
        events: churn,
        wall_secs,
        sched: q.stats(),
    }
}

fn main() {
    const USAGE: &str = "usage: perf [--quick] [--out PATH]";
    let mut out_path = String::from("BENCH_EVENTLOOP.json");
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            other => cli::unknown_flag(other, USAGE),
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
    println!("# event-loop perf: Fig-1 dumbbell and queue microbenches");
    println!(
        "# {:<18} {:>12} {:>14} {:>10} {:>9} {:>8}",
        "case", "events", "events/s", "shift/ins", "days/pop", "rebuilds"
    );

    let mut rows = Vec::new();
    let mut done = |case: Case| {
        case.print_row();
        rows.push(case.json());
    };
    for (name, pairs, sim_secs) in scales {
        done(run_dumbbell(name, pairs, (sim_secs / cut).max(2), seed));
    }

    const DIVERGED: &str = "the queue and the heap oracle popped different time sequences";
    let (backlog, churn) = (200_000usize, 4_000_000 / cut);
    let mut q = EventQueue::new();
    let (wall_secs, popped) = queue_stress(&mut q, backlog, churn);
    let (_, expected) = queue_stress(&mut HeapOracle::new(), backlog, churn);
    assert_eq!(popped, expected, "queue-stress: {DIVERGED}");
    done(micro_case("queue-stress", backlog, churn, wall_secs, &q));
    // 300 far-future + 64 near-term events, held constant by the schedule.
    let mut q = EventQueue::new();
    let (wall_secs, popped) = path_shaped(&mut q, churn);
    let (_, expected) = path_shaped(&mut HeapOracle::new(), churn);
    assert_eq!(popped, expected, "path-shaped: {DIVERGED}");
    done(micro_case("path-shaped", 364, churn, wall_secs, &q));

    let prov = lossburst_bench::provenance::capture().json_fields();
    let json = format!(
        "{{\n  \"bench\": \"event-loop\",\n  \"seed\": {seed},\n  \"quick\": {quick},\n  {prov},\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path}");
}
