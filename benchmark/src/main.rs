//! The `hoploc-perf` binary: see the library docs for the command line.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    hoploc_perf::run(&args)
}
