//! Print the machine-readable experiment registry: every table and figure
//! of the paper, what it claims, and the command that regenerates it.
//!
//! ```sh
//! cargo run --release --example experiment_index
//! ```

use lossburst::core::registry::{registry_table, EXPERIMENTS};

fn main() {
    println!("{}", registry_table());
    println!("claims under reproduction:");
    for e in &EXPERIMENTS {
        println!("  {:<9} {}", e.id, e.paper_claim);
    }
    println!(
        "\nThe regenerator column names a bench binary: `cargo run --release -p lossburst-bench\n\
         --bin <name>`. A `root package` entry is regenerated by an example or binary of the\n\
         root package; EXPERIMENTS.md names it, next to the measured-vs-paper results."
    );
}
