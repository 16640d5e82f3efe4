//! The event queue's fixed geometry fits whole simulations, not only the
//! synthetic schedules `netsim::event`'s unit tests replay: its counts,
//! read from a finished `Simulator`, are the same on every host.

use lossburst_netsim::prelude::*;
use lossburst_transport::prelude::*;

/// The Fig 1 dumbbell at three scales: `pairs` NewReno bulk flows over a
/// 100 Mbps bottleneck, RTTs uniform in 2–200 ms, each with a reverse-path
/// on-off noise flow so that the ACK path carries events too. A wheel
/// that fits the traffic moves under one element of the day being
/// dequeued per insert (a day too wide reads tens), deals an event down a
/// tier at most once, sends under a percent of inserts to the heap, and
/// never has to place the pending set again.
#[test]
fn wheel_fits_the_dumbbell_at_three_scales() {
    for (pairs, sim_secs) in [(4usize, 2u64), (16, 3), (64, 4)] {
        let mut b = SimBuilder::new(2006).trace(TraceConfig::all());
        let cfg = DumbbellConfig::paper_baseline(
            pairs,
            500,
            RttAssignment::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(200)),
        );
        let db = build_dumbbell(&mut b, &cfg);
        for i in 0..pairs {
            let (s, r) = (db.senders[i], db.receivers[i]);
            let start = SimTime::ZERO + SimDuration::from_millis(7 * i as u64);
            let bulk = Sender::newreno(s, r, TcpConfig::default());
            b.flow(start, Box::new(bulk));
            let noise = OnOff::with_average_rate(
                r,
                s,
                500,
                (cfg.bottleneck_bps * 0.10) / pairs as f64,
                SimDuration::from_millis(100),
                SimDuration::from_millis(100),
            );
            b.flow(start, Box::new(noise));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(sim_secs));
        let s = sim.scheduler_stats();
        assert!(s.pops > 100_000, "{pairs} pairs: too short to judge: {s:?}");
        assert!(
            s.shifted_per_insert() <= 2.0
                && s.beyond * 100 <= s.inserts
                && s.cascaded <= s.inserts
                && s.rebuilds == 0,
            "{pairs} pairs: the wheel does not fit: {s:?}"
        );
    }
}
