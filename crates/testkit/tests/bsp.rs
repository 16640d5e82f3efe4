//! Lossy-BSP conformance contract: the superstep engine must be
//! byte-identical across execution policies, shard counts, and processes;
//! its automaton must respect the same wire physics as the packet-level
//! `impact` path; its headline claims (burstiness fattens the straggler
//! tail at fixed mean loss, mitigations shrink it) must hold at test
//! scale; and its degenerate configurations must fail loudly.

use lossburst_core::bsp::{
    decode_outcomes, encode_outcomes, finalize_superstep, fingerprint_outcomes, run_bsp,
    run_bsp_sharded, run_superstep, superstep_workers, BspConfig, Mitigation,
};
use lossburst_core::impact::{try_parallel_once, try_theoretic_lower_bound};
use lossburst_core::shard::{shard_indices, ShardSpec};
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::prelude::*;

fn small(seed: u64) -> BspConfig {
    BspConfig {
        n_workers: 80,
        supersteps: 2,
        bytes_per_worker: 512 * 1024,
        mean_loss_rate: 0.01,
        mean_burst_pkts: 4.0,
        seed,
        mitigation: Mitigation::None,
    }
}

/// Render a full run to bytes: every superstep's bit-exact outcome lines
/// plus the chained fingerprint. Equal dumps mean bit-identical machines.
fn bsp_bytes(cfg: &BspConfig) -> Vec<u8> {
    let mut out = String::new();
    for s in 0..cfg.supersteps {
        let (outcomes, stats) = run_superstep(cfg, s).expect("valid config");
        out.push_str(&encode_outcomes(&outcomes));
        out.push_str(&format!(
            "stats {} {:016x} {:016x} {:016x}\n",
            stats.n_workers,
            stats.barrier_secs.to_bits(),
            stats.median_secs.to_bits(),
            stats.tail_mass.to_bits(),
        ));
        out.push_str(&format!("fp {:016x}\n", fingerprint_outcomes(&outcomes)));
    }
    out.into_bytes()
}

/// The determinism contract: for every seed in `SEED_MATRIX`, the full
/// machine (outcomes, barrier stats, fingerprints) is byte-identical under
/// serial and work-stealing execution. Each mitigation has
/// its own scheduling-sensitive code path, so all four run.
#[test]
fn bsp_is_byte_identical_across_execution_policies() {
    for mitigation in [
        Mitigation::None,
        Mitigation::Diversity { alts: 3 },
        Mitigation::Redundancy { fraction: 0.1 },
        Mitigation::BurstAware,
    ] {
        assert_policies_agree(&format!("bsp/{}", mitigation.label()), |seed| {
            let mut cfg = small(seed);
            cfg.mitigation = mitigation;
            bsp_bytes(&cfg)
        });
    }
}

/// Striping the workers over K shards — including K = 7, which does not
/// divide the worker count — must reproduce the 1-process run bit for bit,
/// for every seed.
#[test]
fn sharded_bsp_matches_one_process_at_ragged_shard_counts() {
    for seed in SEED_MATRIX {
        let cfg = small(seed);
        let reference = run_bsp(&cfg).unwrap();
        for shards in [2usize, 4, 7] {
            let sharded = run_bsp_sharded(&cfg, shards).unwrap();
            assert_eq!(
                sharded.fingerprint, reference.fingerprint,
                "seed {seed}: {shards}-shard run diverges from 1-process"
            );
            assert_eq!(
                sharded.pooled_tail_mass.to_bits(),
                reference.pooled_tail_mass.to_bits(),
                "seed {seed}: tail mass must be bit-equal, not just close"
            );
        }
    }
}

/// The outcome codec `bsp_study` ships shard results through is bit-exact:
/// stitching decoded shard stripes reproduces the in-process superstep,
/// fingerprint included.
#[test]
fn codec_round_trip_through_shard_stripes_is_bit_exact() {
    let cfg = small(2006);
    let (reference, _) = run_superstep(&cfg, 0).unwrap();
    let shards = 3;
    let mut slots = vec![None; cfg.n_workers];
    for i in 0..shards {
        let indices = shard_indices(cfg.n_workers, ShardSpec::new(i, shards));
        let outcomes = superstep_workers(&cfg, 0, &indices).unwrap();
        let decoded = decode_outcomes(&encode_outcomes(&outcomes)).unwrap();
        for o in decoded {
            let slot = o.worker;
            slots[slot] = Some(o);
        }
    }
    let mut stitched: Vec<_> = slots.into_iter().map(|o| o.unwrap()).collect();
    assert_eq!(
        fingerprint_outcomes(&stitched),
        fingerprint_outcomes(&reference)
    );
    finalize_superstep(&cfg, 0, &mut stitched).unwrap();
}

/// The netsim anchor: the automaton shares its wire physics with the
/// packet-level `impact` path. No worker may beat
/// `theoretic_lower_bound` at the fastest grid bottleneck (30 Mbps), and
/// the automaton's median at burst 1 must sit within an order of magnitude
/// of a real packet-level single-flow transfer of the same size — the two
/// models disagree on protocol detail, not on physics.
#[test]
fn automaton_respects_packet_level_physics() {
    let cfg = small(2006);
    let (outcomes, stats) = run_superstep(&cfg, 0).unwrap();
    let floor = try_theoretic_lower_bound(cfg.bytes_per_worker, 30e6).unwrap();
    for o in &outcomes {
        assert!(
            o.secs > floor,
            "worker {} finished {} KiB in {:.3}s, beating the 30 Mbps wire floor {:.3}s",
            o.worker,
            cfg.bytes_per_worker / 1024,
            o.secs,
            floor
        );
    }
    // A packet-level NewReno flow moving the same bytes over a mid-grid
    // 20 Mbps / 40 ms dumbbell. The automaton's median worker must land
    // within 10x either way of it.
    let sim = try_parallel_once(
        cfg.bytes_per_worker,
        1,
        SimDuration::from_millis(40),
        20e6,
        64,
        cfg.seed,
    )
    .unwrap();
    assert!(
        stats.median_secs < 10.0 * sim && sim < 10.0 * stats.median_secs,
        "automaton median {:.3}s vs packet-level {:.3}s: models drifted apart",
        stats.median_secs,
        sim
    );
}

/// One leg of the width x burst sweep: `n_workers` 1 MiB transfers a
/// superstep, two supersteps, 1 % mean loss, seed 2006.
fn headline(n_workers: usize, mean_burst_pkts: f64) -> BspConfig {
    BspConfig {
        n_workers,
        bytes_per_worker: 1024 * 1024,
        mean_burst_pkts,
        ..small(2006)
    }
}

/// The paper's claim at every width up to 10^4 workers: at fixed mean loss
/// rate, lengthening the loss bursts fattens the straggler tail
/// (P99/median of slowdowns). Every leg's barrier statistics are sane on
/// the way: the barrier closes on the slowest worker, so it is at or above
/// the P99, which is at or above the median.
#[test]
fn tail_mass_grows_with_burst_length_at_fixed_mean_loss() {
    for n_workers in [100, 1_000, 10_000] {
        let tail = |burst: f64| {
            let report = run_bsp(&headline(n_workers, burst)).unwrap();
            let t = report.pooled_tail_mass;
            assert!(
                t.is_finite() && t >= 1.0,
                "N={n_workers} burst {burst}: tail mass {t} is not a P99/median"
            );
            for s in &report.stats {
                assert!(
                    s.barrier_secs >= s.p99_secs
                        && s.p99_secs >= s.median_secs
                        && s.median_secs > 0.0,
                    "N={n_workers} burst {burst}: barrier/p99/median out of order: {s:?}"
                );
            }
            t
        };
        let (smooth, middle, bursty) = (tail(1.0), tail(4.0), tail(16.0));
        assert!(
            bursty > smooth,
            "N={n_workers}: burst 16 tail {bursty:.3} must exceed burst 1 tail {smooth:.3} \
             (burst 4: {middle:.3})"
        );
    }
}

/// The mitigations are worth their cost where it matters: at 10^4 workers
/// and the burstiest setting, at least one of them pulls the pooled tail
/// below the unmitigated run's (2.92 / 2.84 / 2.81 against 2.97).
#[test]
fn some_mitigation_shrinks_the_tail_at_headline_scale() {
    let tail = |mitigation| {
        let cfg = BspConfig {
            mitigation,
            ..headline(10_000, 16.0)
        };
        run_bsp(&cfg).unwrap().pooled_tail_mass
    };
    let baseline = tail(Mitigation::None);
    let mitigated = [
        Mitigation::Diversity { alts: 3 },
        Mitigation::Redundancy { fraction: 0.1 },
        Mitigation::BurstAware,
    ]
    .map(tail);
    assert!(
        mitigated.iter().any(|&t| t < baseline),
        "no mitigation reduced tail mass: baseline {baseline}, mitigated {mitigated:?}"
    );
}

/// Mitigation sanity at test scale: redundancy can only ever shorten a
/// worker's completion (cancel-on-first-finish), diversity may change
/// paths but never picks an alternative the cost model scores worse than
/// the default, and burst-aware chunking never exceeds the whole transfer.
#[test]
fn mitigations_behave_structurally() {
    let cfg = small(2006);
    let (baseline, _) = run_superstep(&cfg, 0).unwrap();

    let mut red = cfg.clone();
    red.mitigation = Mitigation::Redundancy { fraction: 0.2 };
    let (rescued, _) = run_superstep(&red, 0).unwrap();
    for (b, r) in baseline.iter().zip(&rescued) {
        assert!(
            r.secs <= b.secs,
            "worker {}: redundancy lengthened {:.3}s -> {:.3}s",
            b.worker,
            b.secs,
            r.secs
        );
    }

    let mut div = cfg.clone();
    div.mitigation = Mitigation::Diversity { alts: 3 };
    let (diverse, _) = run_superstep(&div, 0).unwrap();
    assert!(
        diverse.iter().any(|o| o.alt != 0),
        "diversity over 3 alternatives should move at least one of 80 workers"
    );

    let mut chunked = cfg.clone();
    chunked.mitigation = Mitigation::BurstAware;
    let (chunks, _) = run_superstep(&chunked, 0).unwrap();
    for o in &chunks {
        assert!(o.chunk_bytes <= cfg.bytes_per_worker);
        assert!(o.chunk_bytes >= lossburst_core::bsp::MIN_CHUNK_BYTES);
    }
}

/// Degenerate configurations fail loudly, with the offending field named:
/// a 0-worker superstep has no barrier to close, and the rejection happens
/// in `validate`, in `superstep_workers`, and in `finalize_superstep`.
#[test]
fn zero_worker_superstep_is_an_error_everywhere() {
    let mut cfg = small(1);
    cfg.n_workers = 0;
    let msg = cfg.validate().unwrap_err().to_string();
    assert!(
        msg.contains("n_workers"),
        "validate must name the field: {msg}"
    );
    assert!(superstep_workers(&cfg, 0, &[]).is_err());
    assert!(run_bsp(&cfg).is_err());
    let good = small(1);
    let err = finalize_superstep(&good, 0, &mut [])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("barrier"),
        "empty barrier close must say what is missing: {err}"
    );
}

/// The remaining `BspConfig::validate` rejections, one malformed field at
/// a time, each error naming its field.
#[test]
fn validate_names_every_bad_field() {
    type Poison = Box<dyn Fn(&mut BspConfig)>;
    let cases: Vec<(&str, Poison)> = vec![
        ("supersteps", Box::new(|c| c.supersteps = 0)),
        ("bytes_per_worker", Box::new(|c| c.bytes_per_worker = 0)),
        ("mean_loss_rate", Box::new(|c| c.mean_loss_rate = 0.6)),
        ("mean_burst_pkts", Box::new(|c| c.mean_burst_pkts = 0.5)),
        (
            "alts",
            Box::new(|c| c.mitigation = Mitigation::Diversity { alts: 9 }),
        ),
        (
            "fraction",
            Box::new(|c| c.mitigation = Mitigation::Redundancy { fraction: 0.9 }),
        ),
    ];
    for (field, poison) in cases {
        let mut cfg = small(1);
        poison(&mut cfg);
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(
            msg.contains(field),
            "poisoned {field}: error must name it, got {msg:?}"
        );
    }
}
