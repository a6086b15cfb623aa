//! One shared option parser for every `hoploc` subcommand.
//!
//! Each subcommand declares which flags it accepts; the parse loop,
//! value handling, and error wording live here once. Unknown or
//! malformed flags produce the same shape of message everywhere —
//! naming the subcommand and listing its valid options — and are
//! *usage* errors (exit code 2), distinct from runtime failures
//! (exit code 1).

use hoploc::harness::{default_jobs, MachineSpec};
use hoploc::layout::{Granularity, L2Mode};
use hoploc::obs::ObsConfig;
use hoploc::prefetch::PrefetchMode;
use hoploc::search::{Objective, DEFAULT_BUDGET, DEFAULT_SEED};
use hoploc::serve::{LoadConfig, ServeConfig};
use hoploc::workloads::{RunKind, Scale};

/// Parsed options, defaulted; each subcommand reads the fields it uses.
#[derive(Debug)]
pub struct Options {
    /// The machine the shape flags add up to — the value a served job
    /// carries too.
    pub machine: MachineSpec,
    /// The two sides a comparison runs: baseline (or first-touch) and
    /// optimized (or optimal).
    pub kinds: [RunKind; 2],
    pub jobs: usize,
    pub json: Option<String>,
    pub deny_warnings: bool,
    /// The run kinds `trace` records.
    pub config: Vec<RunKind>,
    pub out: String,
    pub epoch: u64,
    pub span_cap: u64,
    pub plan: Option<String>,
    // serve / load
    pub addr: String,
    pub workers: usize,
    pub queue_cap: usize,
    pub cache_cap: usize,
    pub timeout_ms: u64,
    pub retry_after_ms: u64,
    pub metrics_out: Option<String>,
    pub clients: usize,
    pub repeat: usize,
    pub max_retries: u64,
    pub drain: bool,
    // search
    pub seed: u64,
    pub budget: u32,
    pub objective: String,
}

impl Default for Options {
    fn default() -> Self {
        let (serve, load, obs) = (
            ServeConfig::default(),
            LoadConfig::default(),
            ObsConfig::default(),
        );
        Options {
            machine: MachineSpec::default(),
            kinds: [RunKind::Baseline, RunKind::Optimized],
            jobs: default_jobs(),
            json: None,
            deny_warnings: false,
            config: vec![RunKind::Optimized],
            out: "traces".to_string(),
            epoch: obs.epoch_cycles,
            span_cap: obs.span_capacity,
            plan: None,
            addr: "127.0.0.1:7077".to_string(),
            workers: serve.workers,
            queue_cap: serve.queue_cap,
            cache_cap: serve.cache_cap,
            timeout_ms: serve.job_timeout_ms,
            retry_after_ms: serve.retry_after_ms,
            metrics_out: None,
            clients: load.clients,
            repeat: load.repeat,
            max_retries: load.max_retries,
            drain: false,
            seed: DEFAULT_SEED,
            budget: DEFAULT_BUDGET,
            objective: Objective::default().canon(),
        }
    }
}

/// The machine flags the layout pass reads.
const LAYOUT: [&str; 5] = ["--page", "--cacheline", "--shared", "--m2", "--scale"];

/// The machine flags only a simulation reads.
const SIM_ONLY: [&str; 2] = ["--threads", "--prefetch"];

/// The flags `cmd` accepts — exactly the ones it reads, so a flag that
/// would parse and do nothing is a usage error instead — or `None` for an
/// unknown subcommand.
pub fn allowed_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut v: Vec<&'static str> = Vec::new();
    match cmd {
        "apps" => v.push("--scale"),
        "compile" => v.extend(LAYOUT),
        "run" | "sweep" => {
            v.extend(LAYOUT);
            v.extend(SIM_ONLY);
            v.extend(["--first-touch", "--optimal", "--jobs", "--json"]);
        }
        // One run of the optimized side, printed as a map.
        "links" => {
            v.extend(LAYOUT);
            v.extend(SIM_ONLY);
            v.push("--optimal");
        }
        // `check` verifies all four L2 × granularity configurations itself.
        "check" => {
            v.extend(["--m2", "--scale"]);
            v.extend(SIM_ONLY);
            v.extend(["--jobs", "--json", "--deny"]);
        }
        // `est` sweeps the full configuration matrix itself, so it takes
        // no per-config shape flags.
        "est" => v.extend(["--scale", "--jobs", "--json"]),
        // `search` explores placements/granularities itself; the only
        // shape flags it takes set the baseline machine.
        "search" => v.extend([
            "--scale",
            "--jobs",
            "--json",
            "--seed",
            "--budget",
            "--objective",
        ]),
        "trace" => {
            v.extend(LAYOUT);
            v.extend(SIM_ONLY);
            v.extend(["--jobs", "--config", "--out", "--epoch", "--span-cap"]);
        }
        "faults" => {
            v.extend(LAYOUT);
            v.extend(SIM_ONLY);
            v.extend(["--first-touch", "--optimal", "--json", "--plan"]);
        }
        "trace-validate" => {}
        "serve" => v.extend([
            "--addr",
            "--workers",
            "--queue-cap",
            "--cache-cap",
            "--timeout-ms",
            "--retry-after-ms",
            "--metrics-out",
        ]),
        "load" => v.extend([
            "--addr",
            "--clients",
            "--repeat",
            "--scale",
            "--first-touch",
            "--optimal",
            "--max-retries",
            "--drain",
            "--json",
        ]),
        _ => return None,
    }
    Some(v)
}

/// Whether `flag` consumes the next argument as its value.
fn takes_value(flag: &str) -> bool {
    !matches!(
        flag,
        "--page" | "--cacheline" | "--shared" | "--m2" | "--first-touch" | "--optimal" | "--drain"
    )
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got `{v}`"))
}

/// Applies one flag (with its value, if it takes one) to the options.
fn apply(o: &mut Options, flag: &str, value: Option<&str>) -> Result<(), String> {
    let val = || value.expect("valued flags always arrive with a value");
    match flag {
        "--page" => o.machine.granularity = Granularity::Page,
        "--cacheline" => o.machine.granularity = Granularity::CacheLine,
        "--shared" => o.machine.l2_mode = L2Mode::Shared,
        "--m2" => o.machine.m2 = true,
        "--first-touch" => o.kinds[0] = RunKind::FirstTouch,
        "--optimal" => o.kinds[1] = RunKind::Optimal,
        "--drain" => o.drain = true,
        "--threads" => {
            o.machine.threads = parse_num(flag, val())?;
            o.machine.check()?;
        }
        "--jobs" => {
            o.jobs = parse_num(flag, val())?;
            if o.jobs == 0 {
                return Err("--jobs needs at least one worker".into());
            }
        }
        "--json" => o.json = Some(val().to_string()),
        "--config" => {
            o.config = match val() {
                "all" => RunKind::ALL.to_vec(),
                kind => vec![RunKind::parse(kind).map_err(|e| format!("{e}; or `all`"))?],
            }
        }
        "--out" => o.out = val().to_string(),
        "--epoch" => o.epoch = parse_num(flag, val())?,
        "--span-cap" => o.span_cap = parse_num(flag, val())?,
        "--plan" => o.plan = Some(val().to_string()),
        "--deny" => match val() {
            "warnings" => o.deny_warnings = true,
            other => return Err(format!("--deny only takes `warnings`, got `{other}`")),
        },
        "--scale" => o.machine.scale = Scale::parse(val())?,
        "--prefetch" => o.machine.prefetch = PrefetchMode::parse(val())?,
        "--addr" => o.addr = val().to_string(),
        "--workers" => {
            o.workers = parse_num(flag, val())?;
            if o.workers == 0 {
                return Err("--workers needs at least 1".into());
            }
        }
        "--queue-cap" => {
            o.queue_cap = parse_num(flag, val())?;
            if o.queue_cap == 0 {
                return Err("--queue-cap needs at least 1".into());
            }
        }
        "--cache-cap" => o.cache_cap = parse_num(flag, val())?,
        "--timeout-ms" => o.timeout_ms = parse_num(flag, val())?,
        "--retry-after-ms" => o.retry_after_ms = parse_num(flag, val())?,
        "--metrics-out" => o.metrics_out = Some(val().to_string()),
        "--clients" => {
            o.clients = parse_num(flag, val())?;
            if o.clients == 0 {
                return Err("--clients needs at least 1".into());
            }
        }
        "--repeat" => {
            o.repeat = parse_num(flag, val())?;
            if o.repeat == 0 {
                return Err("--repeat needs at least 1".into());
            }
        }
        "--max-retries" => o.max_retries = parse_num(flag, val())?,
        "--seed" => o.seed = parse_num(flag, val())?,
        "--budget" => {
            o.budget = parse_num(flag, val())?;
            if o.budget == 0 {
                return Err("--budget needs at least 1 evaluation".into());
            }
        }
        "--objective" => o.objective = val().to_string(),
        other => return Err(format!("unhandled flag `{other}` (parser bug)")),
    }
    Ok(())
}

/// Parses `args` for subcommand `cmd`. Every error is a usage error:
/// unknown flags name the subcommand and list its valid options, so the
/// wording is identical across `run`, `trace`, `faults`, `check`,
/// `serve`, `load`, and the rest.
pub fn parse(cmd: &str, args: &[String]) -> Result<Options, String> {
    let allowed = allowed_flags(cmd).ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if !allowed.contains(&flag) {
            return Err(if allowed.is_empty() {
                format!("`hoploc {cmd}` takes no options, got `{flag}`")
            } else {
                format!(
                    "`{flag}` is not an option of `hoploc {cmd}`; valid options: {}",
                    allowed.join(", ")
                )
            });
        }
        if takes_value(flag) {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            apply(&mut o, flag, Some(v))?;
        } else {
            apply(&mut o, flag, None)?;
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn shared_flags_parse_everywhere() {
        for cmd in ["run", "sweep", "trace", "faults", "compile"] {
            let o = parse(cmd, &args(&["--page", "--shared", "--scale", "test"])).unwrap();
            assert_eq!(o.machine.granularity, Granularity::Page);
            assert_eq!(o.machine.l2_mode, L2Mode::Shared);
            assert_eq!(o.machine.scale, Scale::Test);
        }
    }

    #[test]
    fn unknown_flags_name_the_subcommand_and_options() {
        let err = parse("trace", &args(&["--plan", "3"])).unwrap_err();
        assert!(err.contains("hoploc trace"), "{err}");
        assert!(err.contains("--span-cap"), "{err}");
        let err = parse("serve", &args(&["--shared"])).unwrap_err();
        assert!(err.contains("hoploc serve"), "{err}");
        assert!(err.contains("--queue-cap"), "{err}");
    }

    #[test]
    fn serve_and_load_flags_parse() {
        let o = parse(
            "serve",
            &args(&[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "3",
                "--queue-cap",
                "5",
                "--cache-cap",
                "7",
                "--timeout-ms",
                "900",
            ]),
        )
        .unwrap();
        assert_eq!((o.workers, o.queue_cap, o.cache_cap), (3, 5, 7));
        assert_eq!(o.timeout_ms, 900);
        let o = parse(
            "load",
            &args(&["--clients", "8", "--repeat", "3", "--drain"]),
        )
        .unwrap();
        assert_eq!((o.clients, o.repeat, o.drain), (8, 3, true));
    }

    #[test]
    fn est_flags_parse() {
        let o = parse(
            "est",
            &args(&["--scale", "test", "--jobs", "3", "--json", "-"]),
        )
        .unwrap();
        assert_eq!(o.machine.scale, Scale::Test);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.json.as_deref(), Some("-"));
        let err = parse("est", &args(&["--shared"])).unwrap_err();
        assert!(err.contains("hoploc est"), "{err}");
    }

    /// A flag its subcommand never reads is refused like any unknown one,
    /// not parsed and dropped.
    #[test]
    fn flags_a_subcommand_does_not_read_are_usage_errors() {
        for (cmd, flags) in [
            ("links", &["--json", "--jobs", "--first-touch"][..]),
            ("compile", &["--threads", "--prefetch"]),
            ("check", &["--page", "--cacheline", "--shared"]),
        ] {
            for flag in flags {
                let err = parse(cmd, &args(&[flag, "1"])).unwrap_err();
                assert!(
                    err.contains(&format!("is not an option of `hoploc {cmd}`")),
                    "{cmd} {flag}: {err}"
                );
            }
        }
        // What CI, the README and the verify skill pass stays valid.
        for (cmd, line) in [
            (
                "check",
                &["--prefetch", "gated", "--scale", "test", "--m2"][..],
            ),
            (
                "compile",
                &["--page", "--shared", "--scale", "test", "--m2"],
            ),
            ("links", &["--scale", "test", "--optimal", "--threads", "2"]),
        ] {
            assert!(parse(cmd, &args(line)).is_ok(), "{cmd} {line:?}");
        }
        assert!(parse("bench", &[])
            .unwrap_err()
            .contains("unknown subcommand"));
    }

    #[test]
    fn search_flags_parse() {
        let o = parse(
            "search",
            &args(&[
                "--scale",
                "test",
                "--seed",
                "7",
                "--budget",
                "120",
                "--objective",
                "offchip:2,hops",
                "--json",
                "-",
            ]),
        )
        .unwrap();
        assert_eq!(o.machine.scale, Scale::Test);
        assert_eq!((o.seed, o.budget), (7, 120));
        assert_eq!(o.objective, "offchip:2,hops");
        assert_eq!(o.json.as_deref(), Some("-"));
        let err = parse("search", &args(&["--m2"])).unwrap_err();
        assert!(err.contains("hoploc search"), "{err}");
        assert!(err.contains("--budget"), "{err}");
        assert!(parse("search", &args(&["--budget", "0"])).is_err());
    }

    #[test]
    fn prefetch_flag_parses_modes() {
        for cmd in ["run", "sweep", "faults", "check"] {
            let o = parse(cmd, &args(&["--prefetch", "gated"])).unwrap();
            assert_eq!(o.machine.prefetch, PrefetchMode::Gated);
        }
        assert_eq!(
            parse("run", &args(&[])).unwrap().machine.prefetch,
            PrefetchMode::Off
        );
        assert!(parse("run", &args(&["--prefetch", "bogus"])).is_err());
        assert!(parse("serve", &args(&["--prefetch", "stride"])).is_err());
    }

    #[test]
    fn bad_values_are_usage_errors() {
        assert!(parse("run", &args(&["--threads"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse("run", &args(&["--threads", "x"]))
            .unwrap_err()
            .contains("needs a number"));
        assert!(parse("run", &args(&["--threads", "16"])).is_ok());
        for over in ["17", "4000000000"] {
            assert!(parse("run", &args(&["--threads", over]))
                .unwrap_err()
                .contains("at most 16"));
        }
        assert!(parse("run", &args(&["--threads", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse("run", &args(&["--scale", "huge"]))
            .unwrap_err()
            .contains("\"huge\""));
        assert_eq!(
            parse("trace", &args(&["--config", "all"])).unwrap().config,
            RunKind::ALL
        );
        assert!(parse("trace", &args(&["--config", "bogus"]))
            .unwrap_err()
            .contains("or `all`"));
        assert!(parse("serve", &args(&["--workers", "0"])).is_err());
        assert!(parse("check", &args(&["--deny", "notes"])).is_err());
        assert!(parse("nope", &[])
            .unwrap_err()
            .contains("unknown subcommand"));
    }
}
