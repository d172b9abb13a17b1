//! The repo benchmark. See `benchmark/README.md`.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>` is
//! one run: it generates the workload's inputs from the seed, runs the
//! program over them in child processes, checks every output against a
//! reference computation and prints one JSON result as the last line of
//! standard output (everything else goes to standard error).

mod adapter;
mod json;
mod live;
mod rep;
mod run;
mod setup;
mod spec;
mod stats;
mod tools;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  benchmark --workload <grass|spike|fanin|live> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of standard output is the JSON result
  benchmark --all [--seed <n>] [--runs <k>] [--seconds <s>] [--traced] [--workload <name>] [--out <file>]
      every workload k times (seeds n, n+1, …), medians and quartiles; appends to trajectory.jsonl
  benchmark --smoke
      every workload and its traced run at 1/20 size, one rep, same checks
  benchmark --compare <a.json> <b.json>
      one row per (metric, workload) of two --all result files; exit 1 on any `worse`
  benchmark --spec
      BENCHMARK.json as rendered from the benchmark's own tables";

#[derive(Default)]
struct Args {
    flags: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        const FLAGS: [&str; 6] = [
            "--all",
            "--smoke",
            "--spec",
            "--rep",
            "--traced",
            "--compare",
        ];
        let mut args = Args::default();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if FLAGS.contains(&arg.as_str()) {
                args.flags.push(arg);
            } else if arg.starts_with("--") {
                let value = raw.next().unwrap_or_default();
                args.values.push((arg, value));
            } else {
                args.positional.push(arg);
            }
        }
        args
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?.ok_or_else(|| format!("missing {name}"))
    }
}

fn workload(args: &Args) -> Result<&'static workloads::Workload, String> {
    let name: String = args.required("--workload")?;
    workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if args.flag("--spec") {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if args.flag("--rep") {
        rep::child_main(
            workload(args)?,
            &PathBuf::from(args.required::<String>("--data")?),
            args.required("--events")?,
            args.required("--forwarded")?,
        );
        return Ok(true);
    }
    if args.flag("--compare") {
        let [a, b] = args.positional.as_slice() else {
            return Err("--compare takes two result files".to_owned());
        };
        return tools::compare(a, b);
    }
    if args.flag("--smoke") {
        return Ok(tools::smoke());
    }
    if args.flag("--all") {
        return Ok(tools::all(&tools::AllOptions {
            seed: args.parsed("--seed")?.unwrap_or(24_301),
            runs: args.parsed("--runs")?.unwrap_or(5),
            seconds: args
                .parsed("--seconds")?
                .unwrap_or(spec::RUN_SECONDS as f64),
            traced: args.flag("--traced"),
            out: args.value("--out").map(str::to_owned),
            only: args.value("--workload").map(str::to_owned),
        }));
    }
    let outcome = run::run(run::Options {
        workload: workload(args)?,
        seed: args.required("--seed")?,
        seconds: args.required("--seconds")?,
        trace: args.required::<u8>("--trace")? != 0,
        shrink: 1,
    });
    println!("{}", outcome.result_line());
    // The result line carries `correct` and `failed`; the run itself
    // succeeded in measuring, so the exit code stays 0.
    Ok(true)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
