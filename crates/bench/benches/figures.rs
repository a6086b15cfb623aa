//! Prints the figure table at bench scale: every entry, or the ids given
//! as arguments (`cargo bench -p hoploc-bench --bench figures -- fig16`).

fn main() {
    std::process::exit(hoploc_bench::run_figures(std::env::args().skip(1)));
}
