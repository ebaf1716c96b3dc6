//! `perfbench` — the benchmark's Rust half. `run.py` calls it; each
//! subcommand prints one JSON object on stdout.
//!
//! ```text
//! perfbench gen   --workload <name> --seed <n> --dir <inputs>
//! perfbench score --truth <truth.csv> --sink <alarms.csv>
//! perfbench check --workload <name> --dir <inputs> --model <model.json> --sink <alarms.csv>
//! perfbench trace --workload <name> --dir <inputs> --model <model.json>
//!                 --ref-sink <alarms.csv> --work <dir> --spans <file>
//! ```

use hdd_workload::FnvWriter;
use perfbench::trace::{self, TraceSetup, THREADS, TICK_BUDGET_MS};
use perfbench::{load_truth, score, write_inputs, InputPaths, Workload, VOTERS};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn get<'a>(flags: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .copied()
        .ok_or_else(|| format!("missing --{name}"))
}

fn workload(flags: &HashMap<&str, &str>) -> Result<Workload, String> {
    let name = get(flags, "workload")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn json_paths(paths: &[PathBuf]) -> String {
    let items: Vec<String> = paths
        .iter()
        .map(|p| format!("\"{}\"", p.display()))
        .collect();
    format!("[{}]", items.join(","))
}

fn gen(flags: &HashMap<&str, &str>) -> Result<String, String> {
    let workload = workload(flags)?;
    let seed: u64 = get(flags, "seed")?
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let dir = PathBuf::from(get(flags, "dir")?);
    let summary = write_inputs(workload, seed, &dir).map_err(|e| format!("gen: {e}"))?;
    let paths = InputPaths::new(workload, &dir);
    let retrain = workload
        .retrain()
        .map_or("null".to_string(), |(r, s, p)| format!("[{r},{s},{p}]"));
    Ok(format!(
        "{{\"feed_rows\":{},\"tail_rows\":{},\"drives\":{},\"failed\":{},\
         \"train\":\"{}\",\"feeds\":{},\"tails\":{},\"truth\":\"{}\",\
         \"shards\":{},\"checkpoint\":{},\"retrain\":{retrain},\"voters\":{VOTERS},\
         \"threads\":{THREADS},\"tick_budget_ms\":{TICK_BUDGET_MS}}}",
        summary.feed_rows,
        summary.tail_rows,
        summary.drives,
        summary.failed,
        paths.train.display(),
        json_paths(&paths.feeds),
        json_paths(&paths.tails),
        paths.truth.display(),
        workload.shards(),
        workload.checkpoint(),
    ))
}

fn score_cmd(flags: &HashMap<&str, &str>) -> Result<String, String> {
    let truth =
        load_truth(&PathBuf::from(get(flags, "truth")?)).map_err(|e| format!("truth: {e}"))?;
    let sink = std::fs::read_to_string(get(flags, "sink")?).map_err(|e| format!("sink: {e}"))?;
    let s = score(&sink, &truth);
    let mut fnv = FnvWriter::new();
    fnv.write_all(sink.as_bytes())
        .map_err(|e| format!("sink: {e}"))?;
    Ok(format!(
        "{{\"alarms\":{},\"malformed\":{},\"unknown_drives\":{},\"fdr\":{},\"far\":{},\"tia_h\":{},\
         \"sink_fnv\":{}}}",
        s.alarms,
        s.malformed,
        s.unknown_drives,
        s.fdr,
        s.far,
        s.tia_h,
        fnv.hash()
    ))
}

fn check_cmd(flags: &HashMap<&str, &str>) -> Result<String, String> {
    let scored = trace::check_sink(
        workload(flags)?,
        &PathBuf::from(get(flags, "dir")?),
        &PathBuf::from(get(flags, "model")?),
        &PathBuf::from(get(flags, "sink")?),
    )?;
    Ok(format!("{{\"scored_rows\":{scored}}}"))
}

fn trace_cmd(flags: &HashMap<&str, &str>) -> Result<String, String> {
    let setup = TraceSetup {
        workload: workload(flags)?,
        inputs: PathBuf::from(get(flags, "dir")?),
        model: PathBuf::from(get(flags, "model")?),
        reference_sink: PathBuf::from(get(flags, "ref-sink")?),
        work: PathBuf::from(get(flags, "work")?),
        spans: PathBuf::from(get(flags, "spans")?),
    };
    let outcome = trace::run(&setup)?;
    let items: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let curve: Vec<String> = outcome
        .resume_curve
        .iter()
        .map(|(b, ms)| format!("[{b},{ms}]"))
        .collect();
    Ok(format!(
        "{{\"passes\":{},\"traced_wall_ms\":{},\"first_child_ms\":{},\"first_child_save_ms\":{},\
         \"resume_curve\":[{}],\"metrics\":{{{}}}}}",
        trace::PASSES,
        outcome.wall_ms,
        outcome.first_child_ms,
        outcome.first_child_save_ms,
        curve.join(","),
        items.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => flags(rest).and_then(|f| match cmd.as_str() {
            "gen" => gen(&f),
            "score" => score_cmd(&f),
            "check" => check_cmd(&f),
            "trace" => trace_cmd(&f),
            other => Err(format!("unknown subcommand `{other}`")),
        }),
        None => Err("usage: perfbench gen|score|check|trace --flag value ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
