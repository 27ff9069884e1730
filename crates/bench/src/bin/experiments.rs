//! Experiment runner: regenerates the paper's figures and claims.
//!
//! ```sh
//! cargo run --release -p prophet-bench --bin experiments            # all
//! cargo run --release -p prophet-bench --bin experiments -- e5 e7  # subset
//! cargo run --release -p prophet-bench --bin experiments -- --worlds 200 e2
//! ```

use prophet_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut worlds = 400usize;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worlds" => {
                worlds = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .unwrap_or_else(|| die("--worlds needs a positive integer"));
            }
            e if e.starts_with('e') || e.starts_with('E') => selected.push(e.to_lowercase()),
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    if selected.is_empty() {
        print!("{}", experiments::run_all(worlds));
        return;
    }
    for id in selected {
        let report = match id.as_str() {
            "e1" => experiments::e1_figure2_end_to_end(),
            "e2" => experiments::e2_online_graph(worlds),
            "e3" => experiments::e3_adjustment_rerender(worlds),
            "e4" => experiments::e4_feature_change(worlds),
            "e5" => experiments::e5_exploration_map(worlds.min(150)),
            "e6" => experiments::e6_offline_optimization(worlds.min(150)),
            "e7" => experiments::e7_fingerprint_speedup(worlds),
            "e8" => experiments::e8_first_accurate_guess(worlds),
            "e9" => experiments::e9_markov_regions(),
            "e10" => experiments::e10_fingerprint_length_ablation(),
            other => die(&format!("unknown experiment `{other}` (e1..e10)")),
        };
        println!("{report}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments [--worlds N] [e1 e2 … e10]");
    std::process::exit(2);
}
