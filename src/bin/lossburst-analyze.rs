//! `lossburst-analyze` — run the paper's full analysis pipeline on any
//! loss-trace file (one timestamp per line, `#` comments allowed).
//!
//! ```sh
//! cargo run --release --bin lossburst-analyze -- trace.txt --rtt-ms 100
//! ```
//!
//! Prints the burstiness report, the episode decomposition, the
//! Gilbert-style conditional clustering curve, and the RTT-normalized PDF
//! against the rate-matched Poisson reference.

use lossburst::analysis::prelude::*;
use lossburst::analysis::streaming::LossStreamStats;
use std::io::{BufReader, Write};
use std::process::exit;

/// The most 1-RTT windows a trace may span: 2⁵³, the largest window index
/// an `f64` holds exactly. The analysis costs per loss, not per window, so
/// the bound is not memory: beyond it two instants a window apart can
/// share one `f64`, and the window counts stop meaning anything.
const MAX_WINDOWS: f64 = 9_007_199_254_740_992.0;

struct Args {
    path: String,
    rtt_ms: f64,
    tsv: bool,
}

fn parse_args() -> Args {
    let mut path = None;
    let mut rtt_ms = 100.0;
    let mut tsv = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rtt-ms" => {
                rtt_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|ms: &f64| ms.is_finite() && ms / 1000.0 > 0.0)
                    .unwrap_or_else(|| die("--rtt-ms requires a finite, positive number"));
            }
            "--tsv" => tsv = true,
            "--help" | "-h" => {
                eprintln!("usage: lossburst-analyze <trace-file> [--rtt-ms N] [--tsv]");
                eprintln!("  trace file: one loss timestamp (seconds) per line; # comments ok");
                exit(0);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        path: path.unwrap_or_else(|| die("missing trace file; see --help")),
        rtt_ms,
        tsv,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn main() {
    let args = parse_args();
    let file = std::fs::File::open(&args.path)
        .unwrap_or_else(|e| die(&format!("cannot open {}: {e}", args.path)));
    let times = read_loss_trace(BufReader::new(file))
        .unwrap_or_else(|e| die(&format!("cannot parse {}: {e}", args.path)));
    if times.len() < 3 {
        die("need at least 3 loss timestamps");
    }
    let rtt = args.rtt_ms / 1000.0;
    let finite = || times.iter().copied().filter(|t| t.is_finite());
    let span = finite().fold(f64::NEG_INFINITY, f64::max) - finite().fold(f64::INFINITY, f64::min);
    if span / rtt > MAX_WINDOWS {
        die(&format!(
            "the trace spans {:.3e} RTTs, more than the {MAX_WINDOWS:e} windows the analysis counts",
            span / rtt
        ));
    }
    if let Err(e) = print_analysis(&mut std::io::stdout().lock(), &args, &times, rtt) {
        eprintln!("error: cannot write the analysis: {e}");
        exit(1)
    }
}

fn print_analysis(
    out: &mut impl Write,
    args: &Args,
    times: &[f64],
    rtt: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    // One fold yields the report, the histogram and the Poisson rate. The
    // intervals come from the time-sorted trace, so none steps back and
    // the fold equals `analyze` bit for bit.
    let mut stats = LossStreamStats::with_rtt(1.0);
    for iv in normalized_intervals(times, rtt) {
        stats.push_interval(iv);
    }
    let report = stats.report();
    let hist = stats.histogram();
    let lambda = stats.poisson_rate();
    let poisson = stats.poisson_pdf();

    if args.tsv {
        // Machine-readable PDF for plotting.
        let rows: Vec<Vec<f64>> = hist
            .bin_centers()
            .iter()
            .zip(hist.pdf().iter())
            .zip(poisson.iter())
            .map(|((c, m), p)| vec![*c, *m, *p])
            .collect();
        write_series_to(
            &mut *out,
            &format!("{} normalized by RTT {} ms", args.path, args.rtt_ms),
            &["interval_rtt", "pdf_measured", "pdf_poisson"],
            &rows,
        )?;
        return Ok(out.flush()?);
    }

    writeln!(out, "{}", burstiness_summary(&args.path, &report))?;
    let eps = episode_report(times, rtt);
    writeln!(
        out,
        "episodes (gap > 1 RTT): {} episodes, mean size {:.1} losses, max {}, {:.0}% of losses in bursts",
        eps.count,
        eps.mean_size,
        eps.max_size,
        eps.fraction_in_bursts * 100.0
    )?;
    let deltas = [0.01 * rtt, 0.1 * rtt, rtt, 10.0 * rtt];
    let cond = conditional_loss_probability(times, &deltas);
    writeln!(out, "P(next loss within Δ | loss):")?;
    for (d, p) in deltas.iter().zip(cond.iter()) {
        let pois = reference_cdf(lambda / rtt, *d);
        writeln!(
            out,
            "  Δ = {:>9.4}s: {:>5.1}%   (Poisson: {:>5.1}%)",
            d,
            p * 100.0,
            pois * 100.0
        )?;
    }
    writeln!(out, "\nPDF (log scale) vs Poisson at the same rate:\n")?;
    write!(out, "{}", ascii_pdf_plot(hist, &poisson, 20))?;
    Ok(out.flush()?)
}
