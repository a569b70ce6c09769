//! Benchmark harness binary; `perfbench/run.py` drives it.
//!
//! ```text
//! perfbench-replay replay --cache DIR --out DIR --threads N --spans 0|1
//! perfbench-replay whatif --seed N --seconds S --threads N --trace 0|1 --setups K
//! perfbench-replay calib
//! perfbench-replay spawn --stdout FILE -- PROGRAM [ARG]...
//! ```
//!
//! `replay` makes one pass of the `divide all` pipeline (see
//! `pipeline`), `whatif` runs the closed what-if loop (see `whatif`),
//! `calib` times a fixed CPU-bound loop so a run taken while the host
//! is slow shows next to its metrics, and `spawn` runs one program and
//! reports its wall time, CPU time and peak RSS. Each prints one JSON
//! object.

mod pipeline;
mod sys;
mod trace;
mod whatif;

use leo_obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

fn usage(problem: &str) -> ! {
    eprintln!("perfbench-replay: {problem}");
    eprintln!("usage: perfbench-replay replay|whatif|calib|spawn [ARGS] (see the module docs)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage("no command given");
    };
    if command == "spawn" {
        spawn(rest);
    }
    let mut opts = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        opts.insert(key.to_string(), value.clone());
    }
    let get = |key: &str| -> &str {
        opts.get(key)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("missing --{key}")))
    };
    let num = |key: &str| -> u64 {
        get(key)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{key} expects a whole number")))
    };
    match command.as_str() {
        "replay" => {
            set_threads(num("threads") as usize);
            replay(
                PathBuf::from(get("cache")),
                PathBuf::from(get("out")),
                num("spans") != 0,
            )
        }
        "whatif" => {
            set_threads(num("threads") as usize);
            let record = whatif::run(
                num("seed"),
                num("seconds") as f64,
                num("setups") as usize,
                num("trace") != 0,
            );
            println!("{}", record.render())
        }
        "calib" => calib(),
        other => usage(&format!("unknown command {other:?}")),
    }
}

/// The CLI's `--threads N`: N-1 persistent pool workers, spawned up front.
fn set_threads(n: usize) {
    if n == 0 {
        usage("--threads expects a positive number");
    }
    leo_parallel::set_global_threads(Some(n));
    leo_parallel::pool::prewarm(n);
}

fn replay(cache: PathBuf, out: PathBuf, spans: bool) {
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let mut run = pipeline::Replay::new(trace::Tracer::new(spans), &out);
    let cpu0 = sys::process_cpu_ns();
    let wall0 = Instant::now();
    run.run_all(&cache);
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = sys::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e6;
    let stdout_path = out.join("replay_stdout.txt");
    std::fs::write(&stdout_path, &run.stdout)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", stdout_path.display()));
    let report = Json::obj()
        .set("wall_ms", wall_ms)
        .set("cpu_ms", cpu_ms)
        .set("trace", run.tr.to_json());
    println!("{}", report.render());
}

/// Runs one child and reports it. A child forked from a large parent
/// inherits the parent's resident-set high-water mark, so the harness
/// starts programs through this small process to measure their own peak.
fn spawn(args: &[String]) -> ! {
    let (stdout, argv) = match args {
        [flag, path, sep, argv @ ..] if flag == "--stdout" && sep == "--" && !argv.is_empty() => {
            (path, argv)
        }
        _ => usage("spawn expects --stdout FILE -- PROGRAM [ARG]..."),
    };
    let file =
        std::fs::File::create(stdout).unwrap_or_else(|e| panic!("cannot create {stdout}: {e}"));
    let wall0 = Instant::now();
    let status = std::process::Command::new(&argv[0])
        .args(&argv[1..])
        .stdout(file)
        .status()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", argv[0]));
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    let (cpu_ms, rss_kb) = sys::children_usage();
    let code = status.code().unwrap_or(-1);
    let report = Json::obj()
        .set("code", code as i64)
        .set("wall_ms", wall_ms)
        .set("cpu_ms", cpu_ms)
        .set("rss_kb", rss_kb);
    println!("{}", report.render());
    std::process::exit(0);
}

/// Iterations of the reference loop: about 50 ms on a 2020s x86 core.
const CALIB_ITERS: u64 = 20_000_000;

fn calib() {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for _ in 0..std::hint::black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x >> 60);
    }
    std::hint::black_box(acc);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("{}", Json::obj().set("calib_ms", ms).render());
}
