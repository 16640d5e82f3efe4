//! Property-style tests spanning the workspace: simulator conservation
//! laws, analysis invariants, and protocol sanity under seeded randomized
//! topologies and workloads (deterministic: every case is a fixed function
//! of its seed).

use lossburst::analysis::gilbert::Chain;
use lossburst::analysis::prelude::*;
use lossburst::analysis::stats::{
    tail_mass, tail_mass_in_place, try_quantile, try_quantiles, try_quantiles_in_place,
};
use lossburst::netsim::prelude::*;
use lossburst::transport::prelude::*;
use lossburst_testkit::prelude::sweep;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Every link conserves packets under a randomized dumbbell workload:
/// arrived = dropped + transmitted + still queued.
#[test]
fn links_conserve_packets() {
    for case in 0u64..16 {
        let mut gen = SmallRng::seed_from_u64(0xC095 + case);
        let seed = gen.random_range(0..5000u64);
        let pairs = gen.random_range(1..6usize);
        let buffer = gen.random_range(4..64usize);
        let rtt_ms = gen.random_range(2..120u64);

        let mut b = SimBuilder::new(seed).trace(TraceConfig::all());
        let cfg = DumbbellConfig {
            pairs,
            bottleneck_bps: 10e6,
            access_bps: 100e6,
            bottleneck_disc: QueueDisc::drop_tail(buffer),
            access_buffer_pkts: 1000,
            rtt: RttAssignment::Fixed(SimDuration::from_millis(rtt_ms)),
        };
        let db = build_dumbbell(&mut b, &cfg);
        for i in 0..pairs {
            let (s, r) = (db.senders[i], db.receivers[i]);
            b.flow(
                SimTime::ZERO,
                Box::new(Sender::newreno(s, r, TcpConfig::default())),
            );
        }
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        assert!(
            sim.all_links_conserve(),
            "conservation violated (case {case})"
        );
        // Trace agrees with link counters.
        assert_eq!(sim.total_drops() as usize, sim.trace.losses.len());
    }
}

/// Bulk transfers deliver exactly the requested bytes, never more,
/// regardless of loss pattern.
#[test]
fn bulk_transfers_deliver_exactly() {
    for case in 0u64..12 {
        let mut gen = SmallRng::seed_from_u64(0xB01C + case);
        let seed = gen.random_range(0..5000u64);
        let kb = gen.random_range(1..256u64);
        let buffer = gen.random_range(3..32usize);

        let mut b = SimBuilder::new(seed);
        let src = b.host();
        let dst = b.host();
        b.duplex(
            src,
            dst,
            4e6,
            SimDuration::from_millis(10),
            QueueDisc::drop_tail(buffer),
        );
        let bytes = kb * 1024;
        let f = b.flow(
            SimTime::ZERO,
            Box::new(Sender::newreno(src, dst, TcpConfig::default()).with_limit_bytes(bytes)),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        let tcp = sim.flow(f);
        assert!(tcp.is_done(), "transfer stalled (case {case})");
        let delivered = tcp.progress().bytes_delivered;
        // Delivered counts whole segments covering the request.
        assert!(delivered >= bytes);
        assert!(delivered < bytes + 1000);
    }
}

/// The empirical PDF always integrates to 1 (binned mass + overflow),
/// and the CDF is monotone, for arbitrary interval samples.
#[test]
fn histogram_mass_and_monotonicity() {
    for case in 0u64..40 {
        let mut gen = SmallRng::seed_from_u64(0x4157 + case);
        let n = gen.random_range(1..400usize);
        let values: Vec<f64> = (0..n).map(|_| gen.random_range(0.0..5.0)).collect();
        let bin = gen.random_range(0.005..0.2);

        let h = Histogram::from_values(&values, bin, 2.0);
        let mass: f64 = h.pdf().iter().sum::<f64>() + h.overflow_fraction();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass} != 1 (case {case})");
        let mut prev = -1.0;
        for i in 0..=20 {
            let c = h.cdf_at(i as f64 * 0.1);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }
}

/// Interval analysis is invariant under time translation and scales
/// correctly under RTT normalization.
#[test]
fn interval_analysis_invariances() {
    for case in 0u64..40 {
        let mut gen = SmallRng::seed_from_u64(0x1207 + case);
        let n = gen.random_range(3..100usize);
        let mut times: Vec<f64> = (0..n).map(|_| gen.random_range(0.0..100.0)).collect();
        let shift = gen.random_range(0.0..50.0);
        let rtt = gen.random_range(0.001..0.5);

        times.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let a = normalized_intervals(&times, rtt);
        let shifted: Vec<f64> = times.iter().map(|t| t + shift).collect();
        let b = normalized_intervals(&shifted, rtt);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x - y).abs() < 1e-6,
                "shift changed intervals (case {case})"
            );
        }
    }
}

/// Gilbert fitting round-trips on synthetic sequences: the fitted loss
/// rate matches the empirical loss rate of the sequence.
#[test]
fn gilbert_fit_matches_empirical_rate() {
    for seed in 1u64..40 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let p = 0.005 + next() * 0.05;
        let r = 0.1 + next() * 0.6;
        let seq = gilbert_generate(GilbertParams { p, r }, 50_000, next);
        let empirical = seq.iter().filter(|&&b| b).count() as f64 / seq.len() as f64;
        if let Some(fit) = gilbert_fit(&seq) {
            assert!(
                (fit.loss_rate() - empirical).abs() < 0.02,
                "fit rate {} vs empirical {} (seed {seed})",
                fit.loss_rate(),
                empirical
            );
        }
    }
}

/// The inverse-CDF run length as `Chain::sojourn` computed it before the
/// chain held its law, both logarithms per call: `q` is the exit
/// probability of the state the run is in.
fn inline_sojourn(q: f64, u: f64) -> u64 {
    if q >= 1.0 {
        return 1;
    }
    if q <= 0.0 {
        return u64::MAX;
    }
    (((1.0 - u).ln() / (-q).ln_1p()) as u64).saturating_add(1)
}

/// `Chain` against its definitions on generated parameters — 0, 1, 1e-300,
/// a subnormal, 1 − ε and random values for each of `p` and `r` — and
/// draw streams salted with 0, 1 − ε/2, 1 and NaN: (a) `Chain::new` then
/// `step` is `generate` bit for bit; (b) every `sojourn` is the inline
/// formula for the state it leaves, saturating alike; (c) `restart`
/// consumes one draw and leaves the chain equal to a fresh `Chain::new` on
/// that draw.
#[test]
fn gilbert_chain_equals_its_definitions() {
    const EDGES: [f64; 5] = [0.0, 1.0, 1e-300, 5e-324, 1.0 - f64::EPSILON];
    const DRAWS: [f64; 4] = [0.0, 1.0 - f64::EPSILON / 2.0, 1.0, f64::NAN];
    sweep(0x61_1BE7, 300, |case, gen| {
        let mut param = || match gen.random_range(0..3usize) {
            0 => gen.random::<f64>(),
            _ => EDGES[gen.random_range(0..EDGES.len())],
        };
        let params = GilbertParams {
            p: param(),
            r: param(),
        };
        let draws: Vec<f64> = (0..300)
            .map(|_| match gen.random_range(0..6usize) {
                0 => DRAWS[gen.random_range(0..DRAWS.len())],
                _ => gen.random::<f64>(),
            })
            .collect();
        let stream = || {
            let mut it = draws.iter().copied();
            move || it.next().expect("the stream outlasts the walk")
        };

        // (a)
        let n = draws.len() - 1;
        let mut u = stream();
        let mut chain = Chain::new(params, &mut u);
        let stepped: Vec<bool> = (0..n).map(|_| chain.step(&mut u)).collect();
        assert_eq!(
            gilbert_generate(params, n, stream()),
            stepped,
            "case {case}: {params:?}"
        );

        // (b) and (c), interleaved on one chain.
        let mut chain = Chain::new(params, || draws[0]);
        for (i, &u) in draws.iter().enumerate().skip(1) {
            if i % 5 == 0 {
                let mut used = 0;
                chain.restart(|| {
                    used += 1;
                    u
                });
                assert_eq!(used, 1, "case {case}");
                assert_eq!(chain, Chain::new(params, || u), "case {case}: u {u}");
                continue;
            }
            let bad = chain.is_bad();
            let q = if bad { params.r } else { params.p };
            assert_eq!(
                chain.sojourn(|| u),
                inline_sojourn(q, u),
                "case {case}: {params:?}, bad {bad}, u {u}"
            );
            assert_eq!(chain.is_bad(), !bad);
        }
    });
}

/// The copy-sort-interpolate quantile: the oracle the selection-based
/// estimator must equal bit for bit.
fn sorted_quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// `try_quantiles`, `try_quantile` and `tail_mass` equal the sorted
/// formula to the bit on generated samples — ties, ±0.0, ±∞, subnormals,
/// lengths 1–3 and 10⁴, in sorted, reversed and shuffled order — for
/// quantile lists that are unsorted, duplicated, out of range and NaN;
/// and a NaN anywhere in the sample rejects all three.
#[test]
fn quantiles_by_selection_equal_the_sorted_formula() {
    const SPECIAL: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1e-310,
        f64::MIN_POSITIVE,
        1.0,
    ];
    const QS: [f64; 12] = [
        0.99,
        0.5,
        0.5,
        1.0,
        0.0,
        0.99,
        -0.25,
        1.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.37,
    ];
    sweep(0x5E1EC7, 120, |case, gen| {
        let n = [1, 2, 3, 10_000, gen.random_range(4..300usize)][case as usize % 5];
        let mut xs: Vec<f64> = (0..n)
            .map(|_| match (case / 5) % 4 {
                // Coarse positive values: a sample full of ties.
                0 => gen.random_range(1..9u64) as f64,
                // Signed zeros, infinities and subnormals among plain values.
                1 if gen.random_range(0..3u64) == 0 => SPECIAL[gen.random_range(0..8usize)],
                1 => gen.random_range(-1e3..1e3),
                // Every value special: ties between ±0.0 and between infinities.
                2 => SPECIAL[gen.random_range(0..8usize)],
                _ => gen.random_range(0.5..50.0),
            })
            .collect();
        match (case / 20) % 3 {
            0 => xs.sort_unstable_by(f64::total_cmp),
            1 => xs.sort_unstable_by(|a, b| b.total_cmp(a)),
            _ => xs.shuffle(gen),
        }
        let mut qs = QS.to_vec();
        qs.extend((0..4).map(|_| gen.random_range(-0.1..1.1)));
        qs.shuffle(gen);

        let got = try_quantiles(&xs, &qs).expect("no NaN in the sample");
        assert_eq!(got.len(), qs.len());
        // The in-place forms select on the caller's vector: same bits.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            try_quantiles_in_place(&mut xs.clone(), &qs).map(bits),
            Some(bits(got.clone()))
        );
        assert_eq!(
            tail_mass_in_place(&mut xs.clone()).map(f64::to_bits),
            tail_mass(&xs).map(f64::to_bits)
        );
        for (&q, &g) in qs.iter().zip(&got) {
            let want = sorted_quantile(&xs, q);
            assert_eq!(g.to_bits(), want.to_bits(), "case {case}: q {q}");
            assert_eq!(try_quantile(&xs, q).map(f64::to_bits), Some(want.to_bits()));
        }
        let (p99, median) = (sorted_quantile(&xs, 0.99), sorted_quantile(&xs, 0.5));
        let want = if median <= 0.0 {
            None
        } else {
            Some(p99 / median)
        };
        assert_eq!(
            tail_mass(&xs).map(f64::to_bits),
            want.map(f64::to_bits),
            "case {case}"
        );

        let nan = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_dead_beef)][case as usize % 3];
        xs.insert(gen.random_range(0..=xs.len()), nan);
        assert_eq!(try_quantiles(&xs, &qs), None, "case {case}");
        assert_eq!(try_quantile(&xs, 0.5), None);
        assert_eq!(tail_mass(&xs), None);
        assert_eq!(try_quantiles_in_place(&mut xs.clone(), &qs), None);
        assert_eq!(tail_mass_in_place(&mut xs), None);
    });
    assert_eq!(try_quantiles(&[], &QS), None);
}

/// The TFRC throughput equation is monotone decreasing in loss rate and
/// increasing in segment size.
#[test]
fn tfrc_equation_monotonicity() {
    let mut gen = SmallRng::seed_from_u64(0x7F2C);
    for _ in 0..200 {
        let r = gen.random_range(0.005..0.5);
        let p1 = gen.random_range(0.0005..0.2);
        let factor = gen.random_range(1.1..10.0);
        let p2 = (p1 * factor).min(0.9);
        let x1 = tcp_throughput_eq(1000.0, r, p1);
        let x2 = tcp_throughput_eq(1000.0, r, p2);
        assert!(x1 > x2, "eq not decreasing: X({p1})={x1} X({p2})={x2}");
        let big = tcp_throughput_eq(1500.0, r, p1);
        assert!(big > x1);
    }
}
