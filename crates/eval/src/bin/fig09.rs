//! Regenerates paper Figure 9: IBM's four baseline designs, rendered
//! with their 5-frequency patterns, plus their simulated yields (an
//! addition the figure itself does not show but §5.3 relies on).
//!
//! Usage: `cargo run --release -p qpd-eval --bin fig09 [--trials N]`

use qpd_topology::{ibm, render};
use qpd_yield::YieldSimulator;

fn main() {
    let mut trials = 10_000u64;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--trials") {
        trials = args.get(i + 1).and_then(|v| v.parse().ok()).expect("--trials needs an integer");
    }
    let sim = YieldSimulator::new().with_trials(trials);
    for (i, arch) in ibm::all_baselines().iter().enumerate() {
        println!("== Figure 9 ({}) ==", i + 1);
        print!("{}", render::ascii(arch));
        let estimate = sim.estimate(arch).expect("baselines carry frequency plans");
        println!(
            "couplings: {} edges ({} two-qubit buses + {} four-qubit buses)",
            arch.coupling_edges().len(),
            arch.two_qubit_buses().len(),
            arch.four_qubit_buses().len()
        );
        println!("yield ({} trials, sigma = 30 MHz): {estimate}", trials);
        // Which of the seven Figure 3 conditions kill this design? The
        // breakdown draws the estimate's own trials, so its clean count
        // is the success count printed above.
        let (breakdown, clean) = sim.condition_breakdown(arch).expect("plan attached");
        assert_eq!(clean, estimate.successes(), "breakdown disagrees with the estimate");
        let shares: Vec<String> = breakdown
            .iter()
            .enumerate()
            .map(|(c, &n)| format!("c{}:{:.0}%", c + 1, 100.0 * n as f64 / trials as f64))
            .collect();
        println!("failing condition shares ({trials} trials): {}\n", shares.join(" "));
    }
}
