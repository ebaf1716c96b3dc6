//! The traced serve run: the `hddpred serve` loop rebuilt from the same
//! public library calls, in the same order, with a span around each
//! call and `/proc/self` byte and CPU counts read at the same
//! boundaries. It runs in process, separately from the timed runs of
//! the binary, and must write a byte-identical alarm sink.
//!
//! Loop order mirrored from `serve()` in `src/main.rs`: poll → enqueue
//! → tick → sink append+flush → lifecycle consume → (idle) flush
//! pending / lifecycle consume / `apply_staged` → `note_sink_bytes` →
//! lifecycle save → `save_checkpoints`. Each step's span covers the
//! step as the loop runs it, so a step whose layer is off (no
//! `--checkpoint`, no lifecycle) still shows the time the loop spends
//! deciding to skip it.
//!
//! A replay of the same committed lines through
//! [`hdd_smart::csv::parse_data_line`], [`FeatureSet::extract`],
//! batched [`SavedModel`] scoring and [`VotingState::push`] splits the
//! engine's time without touching engine code.

use crate::{InputPaths, Workload, VOTERS};
use hdd_cart::{Class, ClassSample, ClassificationTreeBuilder, FeatureMatrix};
use hdd_eval::{Predictor, SavedModel, VotingRule, VotingState};
use hdd_lifecycle::{LifecycleConfig, LifecycleFaults, LifecycleManager, Phase};
use hdd_par::{CancelToken, ThreadPool};
use hdd_serve::{EngineConfig, MultiFeedIngest, SeqAlarm, ServeTopology};
use hdd_smart::csv::{is_header_line, parse_data_line, read_series_quarantined, IngestPolicy};
use hdd_smart::rng::DeterministicRng;
use hdd_smart::{DriveClass, SmartSample, SmartSeries};
use hdd_stats::FeatureSet;
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--tick-budget-ms` for every run: far above any tick, so deadline
/// cuts never change tick or save counts.
pub const TICK_BUDGET_MS: u64 = 600_000;
/// `--threads` for every run (the benchmark box's core count).
pub const THREADS: usize = 2;
/// `hddpred serve`'s defaults the benchmark leaves in place.
/// Traced passes per run: counts must repeat exactly across them.
pub const PASSES: usize = 2;
const QUEUE_CAPACITY: usize = 1024;
const MAX_QUARANTINE: f64 = 0.1;
/// `hddpred train`'s defaults.
const TRAIN_WINDOW_HOURS: u32 = 168;
/// The engine's sub-batch and scoring-chunk sizes, reused by the replay.
const REPLAY_CHUNK: usize = 256;
/// Kernel clock ticks per second for `/proc/self/stat` CPU fields
/// (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The call, e.g. `tick` or `ckpt.save`.
    name: &'static str,
    /// Nanoseconds since the tracer started.
    start_ns: u64,
    /// Nanoseconds since the tracer started.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Serve-loop iteration the call belongs to.
    tick: u64,
}

/// In-memory span recorder; written out once at the end.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, tick: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tick,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in milliseconds.
    fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Write every span as one JSON object per line.
    fn write(&self, path: &Path) -> Result<()> {
        let mut out = std::io::BufWriter::new(File::create(path).map_err(err("spans"))?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{}}}",
                s.name, s.start_ns, s.end_ns, s.tick
            )
            .map_err(err("spans"))?;
        }
        out.flush().map_err(err("spans"))
    }
}

/// `(rchar, wchar, bytes of this reading)` from `/proc/self/io`; the
/// reading's own bytes show up in the next reading's `rchar`.
fn proc_io() -> (u64, u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"), text.len() as u64)
}

/// Bytes read between two [`proc_io`] readings.
fn read_delta(before: (u64, u64, u64), after: (u64, u64, u64)) -> u64 {
    after.0.saturating_sub(before.0).saturating_sub(before.2)
}

/// Process `(user, system)` CPU clock ticks from `/proc/self/stat`.
fn proc_cpu() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let at = |i: usize| fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
    (at(11), at(12))
}

fn cpu_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / CLOCK_TICKS_PER_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn vm_hwm_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files in `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// Per-layer counts and times of one traced pass (one or two children).
#[derive(Debug, Clone, Default)]
struct PassStats {
    /// Wall time of the traced children, set-up to exit.
    wall_ms: f64,
    /// Wall time of the first child only.
    first_child_ms: f64,
    /// Checkpoint-save time of the first child only.
    first_child_save_ms: f64,
    ingest_ms: f64,
    ingest_lines: usize,
    ingest_read_bytes: u64,
    cursor_bytes: u64,
    /// `enqueue` + `tick` + `flush_pending`.
    topology_ms: f64,
    tick_wall: Vec<f64>,
    tick_cpu_ticks: u64,
    sink_ms: f64,
    sink_bytes: u64,
    ckpt_step: Vec<f64>,
    ckpt_save_times: Vec<f64>,
    ckpt_written: u64,
    ckpt_drive_saves: u64,
    resume_ms: f64,
    resume_bytes: u64,
    lc_consume_ms: f64,
    lc_train_ms: f64,
    lc_trainings: usize,
    lc_apply_ms: f64,
    lc_events: usize,
    lc_shadow_rows: usize,
    lc_promotions: usize,
    tracked_drives: usize,
    cpu_ticks: (u64, u64),
    /// `(bytes, resume ms)` of checkpoint snapshots taken mid-run.
    resume_curve: Vec<(u64, f64)>,
}

/// One child's configuration, as the binary's flags would give it.
struct Child<'a> {
    workload: Workload,
    feeds: &'a [PathBuf],
    model: &'a Path,
    sink: &'a Path,
    checkpoint: Option<&'a Path>,
    /// Copy the checkpoint directory here after these save numbers.
    snapshots: &'a [(usize, PathBuf)],
}

fn lifecycle_config(workload: Workload) -> Option<LifecycleConfig> {
    workload.retrain().map(|(retrain, shadow, probation)| {
        let mut lc = LifecycleConfig::new(VOTERS, VotingRule::Majority);
        lc.retrain_rows = retrain;
        lc.shadow_rows = shadow;
        lc.probation_rows = probation;
        lc
    })
}

/// Run one traced child: `serve()`'s set-up and loop, to exit-on-idle 1.
#[allow(clippy::too_many_lines)]
fn run_child(child: &Child<'_>, tracer: &mut Tracer, stats: &mut PassStats) -> Result<()> {
    let started = Instant::now();
    let root = tracer.begin("child", None, 0);
    let features = FeatureSet::critical13();
    let pool = ThreadPool::global();
    let mut lifecycle = match lifecycle_config(child.workload) {
        None => None,
        Some(lc) => Some(
            LifecycleManager::resume(
                lc,
                child.model.to_path_buf(),
                LifecycleFaults::default(),
                child.checkpoint,
            )
            .map_err(err("lifecycle resume"))?
            .0,
        ),
    };
    let model =
        Arc::new(SavedModel::load_expecting(child.model, features.len()).map_err(err("model"))?);
    let mut topology = ServeTopology::new(
        &model,
        &features,
        EngineConfig::new(VOTERS, VotingRule::Majority, MAX_QUARANTINE),
        child.workload.shards(),
        child.feeds.len(),
        QUEUE_CAPACITY,
    )
    .map_err(err("topology"))?;
    if lifecycle.is_some() {
        topology.set_record_events(true);
    }

    let span = tracer.begin("ckpt.resume", Some(root), 0);
    if let Some(dir) = child.checkpoint {
        stats.resume_bytes += dir_bytes(dir);
        topology.resume(dir).map_err(err("resume"))?;
    }
    stats.resume_ms += tracer.end(span);

    let mut sink_bytes = topology.merge_state().sink_bytes;
    let mut sink = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(child.sink)
        .map_err(err("sink"))?;
    let sink_len = sink.metadata().map_err(err("sink"))?.len();
    if sink_len < sink_bytes {
        return Err(format!(
            "sink is {sink_len} bytes but the checkpoint recorded {sink_bytes}"
        ));
    }
    sink.set_len(sink_bytes).map_err(err("sink"))?;
    sink.seek(SeekFrom::Start(sink_bytes))
        .map_err(err("sink"))?;
    let mut ingest = MultiFeedIngest::resume(
        child.feeds,
        topology.router(),
        &topology.ingest_resume_cursors(),
    );
    let cursor_start: u64 = ingest.cursors().iter().map(|c| c.offset).sum();
    let mut saves = 0usize;

    let emit = |tracer: &mut Tracer,
                parent: usize,
                tick: u64,
                sink: &mut File,
                sink_bytes: &mut u64,
                stats: &mut PassStats,
                alarms: &[SeqAlarm]|
     -> Result<()> {
        let span = tracer.begin("sink", Some(parent), tick);
        if !alarms.is_empty() {
            let mut bytes = Vec::new();
            for alarm in alarms {
                bytes.extend_from_slice(alarm.alarm.to_string().as_bytes());
                bytes.push(b'\n');
            }
            sink.write_all(&bytes).map_err(err("sink"))?;
            sink.flush().map_err(err("sink"))?;
            *sink_bytes += bytes.len() as u64;
            stats.sink_bytes += bytes.len() as u64;
        }
        stats.sink_ms += tracer.end(span);
        Ok(())
    };

    for tick_id in 0u64.. {
        let iteration = tracer.begin("loop", Some(root), tick_id);

        let io_before = proc_io();
        let span = tracer.begin("ingest.poll", Some(iteration), tick_id);
        let polled = ingest.poll(topology.free());
        stats.ingest_ms += tracer.end(span);
        stats.ingest_read_bytes += read_delta(io_before, proc_io());
        if let Some((f, e)) = polled.errors.first() {
            return Err(format!("feed {f} read failed: {e}"));
        }
        let read_lines = polled.lines_read;
        stats.ingest_lines += read_lines;

        let span = tracer.begin("enqueue", Some(iteration), tick_id);
        topology.enqueue(polled.routed);
        stats.topology_ms += tracer.end(span);

        let cpu_before = proc_cpu();
        let span = tracer.begin("tick", Some(iteration), tick_id);
        let token = CancelToken::with_budget(Duration::from_millis(TICK_BUDGET_MS));
        let tick = topology
            .tick(&pool, &token, &ingest.cursors(), ingest.watermark())
            .map_err(err("scoring"))?;
        let ms = tracer.end(span);
        let cpu_after = proc_cpu();
        stats.tick_cpu_ticks += (cpu_after.0 + cpu_after.1) - (cpu_before.0 + cpu_before.1);
        stats.topology_ms += ms;
        stats.tick_wall.push(ms);

        emit(
            tracer,
            iteration,
            tick_id,
            &mut sink,
            &mut sink_bytes,
            stats,
            &tick.alarms,
        )?;

        let span = tracer.begin("lifecycle.consume", Some(iteration), tick_id);
        let mut trained = false;
        if let Some(mgr) = lifecycle.as_mut() {
            let before = training_marks(mgr);
            mgr.consume(
                &pool,
                &tick.events,
                tick.alarms.len(),
                tick.transitions.len(),
                topology.merge_state().emitted(),
            );
            trained = advanced(before, training_marks(mgr));
        }
        let ms = tracer.end(span);
        stats.lc_consume_ms += ms;
        if trained {
            stats.lc_trainings += 1;
            stats.lc_train_ms += ms;
        }

        let mut idle = read_lines == 0 && !topology.has_queued();
        if idle {
            let span = tracer.begin("flush_pending", Some(iteration), tick_id);
            let flushed = topology.flush_pending();
            stats.topology_ms += tracer.end(span);
            emit(
                tracer,
                iteration,
                tick_id,
                &mut sink,
                &mut sink_bytes,
                stats,
                &flushed,
            )?;
            idle = flushed.is_empty();
            let span = tracer.begin("lifecycle.apply", Some(iteration), tick_id);
            if let Some(mgr) = lifecycle.as_mut() {
                let events = topology.flush_events();
                let before = training_marks(mgr);
                mgr.consume(
                    &pool,
                    &events,
                    flushed.len(),
                    0,
                    topology.merge_state().emitted(),
                );
                if advanced(before, training_marks(mgr)) {
                    stats.lc_trainings += 1;
                }
                while mgr.has_staged_swap() {
                    if let Some(next) = mgr.apply_staged().map_err(err("lifecycle swap"))? {
                        topology.swap_model(&next).map_err(err("lifecycle swap"))?;
                        idle = false;
                    }
                }
            }
            stats.lc_apply_ms += tracer.end(span);
        }

        if tick.progressed || !idle {
            let io_before = proc_io();
            let span = tracer.begin("ckpt.save", Some(iteration), tick_id);
            let mut saved = false;
            if let Some(dir) = child.checkpoint {
                topology.note_sink_bytes(sink_bytes);
                if let Some(mgr) = lifecycle.as_ref() {
                    mgr.save_checkpoint(dir)
                        .map_err(err("lifecycle checkpoint"))?;
                }
                topology.save_checkpoints(dir).map_err(err("checkpoint"))?;
                saved = true;
            }
            let ms = tracer.end(span);
            stats.ckpt_step.push(ms);
            if saved {
                saves += 1;
                stats.ckpt_save_times.push(ms);
                let io_after = proc_io();
                stats.ckpt_written += io_after.1.saturating_sub(io_before.1);
                stats.ckpt_drive_saves += topology.tracked_drives() as u64;
            }
            if let (Some(dir), Some((_, to))) = (
                child.checkpoint,
                child.snapshots.iter().find(|(n, _)| saved && *n == saves),
            ) {
                // Excluded from the child's wall time below.
                let span = tracer.begin("snapshot", Some(iteration), tick_id);
                copy_dir(dir, to)?;
                let ms = tracer.end(span);
                stats.wall_ms -= ms;
            }
        }
        tracer.end(iteration);

        if idle {
            break;
        }
    }
    stats.cursor_bytes += ingest.cursors().iter().map(|c| c.offset).sum::<u64>() - cursor_start;
    stats.tracked_drives = topology.tracked_drives();
    if let Some(mgr) = lifecycle.as_ref() {
        let c = mgr.counters();
        stats.lc_events = c.events_consumed;
        stats.lc_shadow_rows = c.candidate_rows_scored;
        stats.lc_promotions = c.promotions;
    }
    tracer.end(root);
    stats.wall_ms += started.elapsed().as_secs_f64() * 1e3;
    Ok(())
}

/// What tells that a `consume` call ran the trainer: a fresh candidate
/// entering shadow, or a contained trainer failure.
fn training_marks(mgr: &LifecycleManager) -> (bool, usize) {
    let c = mgr.counters();
    (
        mgr.phase() == Phase::Shadow,
        c.train_failures + c.trainer_panics,
    )
}

fn advanced(before: (bool, usize), after: (bool, usize)) -> bool {
    (!before.0 && after.0) || after.1 > before.1
}

fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to).map_err(err("snapshot"))?;
    for entry in std::fs::read_dir(from).map_err(err("snapshot"))? {
        let entry = entry.map_err(err("snapshot"))?;
        if entry.file_type().map_err(err("snapshot"))?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err("snapshot"))?;
        }
    }
    Ok(())
}

/// Concatenate `tails[f]`'s data rows onto `feeds[f]` (the tail's header
/// line is dropped, as a restarted feed writer would not repeat it).
fn append_tails(feeds: &[PathBuf], tails: &[PathBuf]) -> Result<()> {
    for (feed, tail) in feeds.iter().zip(tails) {
        let text = std::fs::read_to_string(tail).map_err(err("tail"))?;
        let body = text.split_once('\n').map_or("", |(_, rest)| rest);
        let mut out = std::fs::OpenOptions::new()
            .append(true)
            .open(feed)
            .map_err(err("feed"))?;
        out.write_all(body.as_bytes()).map_err(err("feed"))?;
        out.flush().map_err(err("feed"))?;
    }
    Ok(())
}

/// Inputs of one traced run.
pub struct TraceSetup {
    /// The workload being traced.
    pub workload: Workload,
    /// Directory `write_inputs` filled.
    pub inputs: PathBuf,
    /// The model `hddpred train` wrote; every pass serves a fresh copy.
    pub model: PathBuf,
    /// The binary's alarm sink for the same inputs.
    pub reference_sink: PathBuf,
    /// Working directory for pass copies, sinks and checkpoints.
    pub work: PathBuf,
    /// Span file to write.
    pub spans: PathBuf,
}

/// Per-layer metrics of a traced run: `(name, unit, value)`.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

/// What a traced run measured.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Median traced wall time of a pass (all children), ms.
    pub wall_ms: f64,
    /// Median traced wall time of a pass's first child, ms.
    pub first_child_ms: f64,
    /// Median checkpoint-save time of a pass's first child, ms.
    pub first_child_save_ms: f64,
    /// `(checkpoint bytes, resume ms)` of mid-run checkpoint snapshots.
    pub resume_curve: Vec<(u64, f64)>,
}

/// Run the traced passes, the engine replay and the training mirror,
/// and check sinks and counts.
///
/// # Errors
///
/// Returns a description of the first failed step or check.
pub fn run(setup: &TraceSetup) -> Result<TraceOutcome> {
    hdd_par::configure_threads(THREADS);
    let paths = InputPaths::new(setup.workload, &setup.inputs);
    let reference = std::fs::read(&setup.reference_sink).map_err(err("reference sink"))?;
    let mut tracer = Tracer::new();
    let mut passes = Vec::new();
    for pass in 0..PASSES {
        let dir = setup.work.join(format!("pass-{pass}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("pass dir"))?;
        let model = dir.join("model.json");
        std::fs::copy(&setup.model, &model).map_err(err("model copy"))?;
        let sink = dir.join("alarms.csv");
        let checkpoint = setup.workload.checkpoint().then(|| dir.join("ckpt"));
        // Durable runs append to their feeds, so they serve copies.
        let feeds: Vec<PathBuf> = if paths.tails.is_empty() {
            paths.feeds.clone()
        } else {
            let mut copies = Vec::new();
            for (f, feed) in paths.feeds.iter().enumerate() {
                let copy = dir.join(format!("feed-{f}.csv"));
                std::fs::copy(feed, &copy).map_err(err("feed copy"))?;
                copies.push(copy);
            }
            copies
        };
        // Only the last pass snapshots checkpoints for the resume curve.
        let snapshots: Vec<(usize, PathBuf)> = if pass + 1 == PASSES {
            [1usize, 3, 6]
                .iter()
                .map(|&n| (n, dir.join(format!("snap-{n}"))))
                .collect()
        } else {
            Vec::new()
        };
        let mut stats = PassStats::default();
        let cpu_start = proc_cpu();
        let mut child = Child {
            workload: setup.workload,
            feeds: &feeds,
            model: &model,
            sink: &sink,
            checkpoint: checkpoint.as_deref(),
            snapshots: &snapshots,
        };
        run_child(&child, &mut tracer, &mut stats)?;
        stats.first_child_ms = stats.wall_ms;
        stats.first_child_save_ms = stats.ckpt_step.iter().sum();
        if !paths.tails.is_empty() {
            append_tails(&feeds, &paths.tails)?;
            // The restarted child starts with fresh resume counters.
            stats.resume_ms = 0.0;
            stats.resume_bytes = 0;
            child.snapshots = &[];
            run_child(&child, &mut tracer, &mut stats)?;
        }
        let cpu_end = proc_cpu();
        stats.cpu_ticks = (cpu_end.0 - cpu_start.0, cpu_end.1 - cpu_start.1);
        let produced = std::fs::read(&sink).map_err(err("traced sink"))?;
        if produced != reference {
            return Err(format!(
                "pass {pass}: traced sink ({} bytes) differs from the binary's ({} bytes)",
                produced.len(),
                reference.len()
            ));
        }
        for (_, snap) in &snapshots {
            if snap.exists() {
                let ms = time_resume(setup.workload, &feeds, &model, snap)?;
                stats.resume_curve.push((dir_bytes(snap), ms));
            }
        }
        passes.push(stats);
    }
    let first = &passes[0];
    for (k, p) in passes.iter().enumerate().skip(1) {
        if p.tick_wall.len() != first.tick_wall.len()
            || p.ckpt_save_times.len() != first.ckpt_save_times.len()
        {
            return Err(format!(
                "pass {k}: {} ticks / {} saves, pass 0 had {} / {}",
                p.tick_wall.len(),
                p.ckpt_save_times.len(),
                first.tick_wall.len(),
                first.ckpt_save_times.len()
            ));
        }
    }
    let vm_hwm = vm_hwm_mb();
    tracer.write(&setup.spans)?;

    let model = SavedModel::load(&setup.model).map_err(err("model"))?;
    let replay = replay(&paths, &model, &reference)?;
    let training = train_mirror(&paths.train, &setup.model, &setup.work)?;
    let (metrics, wall_ms) = summarize(&passes, &replay, &training, vm_hwm);
    Ok(TraceOutcome {
        metrics,
        wall_ms,
        first_child_ms: med(passes.iter().map(|p| p.first_child_ms)),
        first_child_save_ms: med(passes.iter().map(|p| p.first_child_save_ms)),
        resume_curve: passes
            .last()
            .map(|p| p.resume_curve.clone())
            .unwrap_or_default(),
    })
}

/// Time `ServeTopology::resume` on a checkpoint snapshot.
fn time_resume(workload: Workload, feeds: &[PathBuf], model: &Path, dir: &Path) -> Result<f64> {
    let features = FeatureSet::critical13();
    let model = Arc::new(SavedModel::load_expecting(model, features.len()).map_err(err("model"))?);
    let mut topology = ServeTopology::new(
        &model,
        &features,
        EngineConfig::new(VOTERS, VotingRule::Majority, MAX_QUARANTINE),
        workload.shards(),
        feeds.len(),
        QUEUE_CAPACITY,
    )
    .map_err(err("topology"))?;
    let started = Instant::now();
    topology.resume(dir).map_err(err("resume"))?;
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// Replay the workload's committed lines with the model and check that
/// the sink holds exactly the alarms the replay raises. Returns the
/// number of scored rows.
///
/// # Errors
///
/// Returns a description of the mismatch or of a read failure.
pub fn check_sink(workload: Workload, inputs: &Path, model: &Path, sink: &Path) -> Result<usize> {
    let model = SavedModel::load(model).map_err(err("model"))?;
    let sink = std::fs::read(sink).map_err(err("sink"))?;
    let replayed = replay(&InputPaths::new(workload, inputs), &model, &sink)?;
    Ok(replayed.scored_rows)
}

/// Engine time split by the replay, single-threaded CPU-bound.
#[derive(Debug, Default)]
struct Replay {
    parse_ms: f64,
    extract_ms: f64,
    score_ms: f64,
    vote_ms: f64,
    scored_rows: usize,
}

struct Tracked {
    class: DriveClass,
    history: Vec<SmartSample>,
    voting: VotingState,
    alarmed: bool,
}

/// Replay every committed line through the engine's four library
/// calls, chunk by chunk, and check that it raises exactly the sink's
/// alarms.
fn replay(paths: &InputPaths, model: &SavedModel, sink: &[u8]) -> Result<Replay> {
    let features = FeatureSet::critical13();
    let mut out = Replay::default();
    let mut drives: HashMap<u32, Tracked> = HashMap::new();
    let mut alarms = BTreeSet::new();
    let files: Vec<&PathBuf> = paths.feeds.iter().chain(&paths.tails).collect();
    // A drive's rows all sit in one feed (and its tail), in hour order,
    // so replaying feed after feed keeps every drive's rows in order.
    let mut chunk = Vec::with_capacity(REPLAY_CHUNK);
    for f in 0..paths.feeds.len() {
        for path in files.iter().skip(f).step_by(paths.feeds.len()) {
            let file = File::open(path).map_err(err("replay feed"))?;
            let mut lines = BufReader::new(file).lines();
            loop {
                chunk.clear();
                for line in lines.by_ref() {
                    let line = line.map_err(err("replay feed"))?;
                    if !is_header_line(&line) {
                        chunk.push(line);
                        if chunk.len() == REPLAY_CHUNK {
                            break;
                        }
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                replay_chunk(&chunk, &features, model, &mut drives, &mut alarms, &mut out)?;
            }
        }
    }
    let text = String::from_utf8_lossy(sink);
    let expected: BTreeSet<(u32, u32)> = text
        .lines()
        .filter_map(|l| {
            let (d, h) = l.split_once(',')?;
            Some((d.parse().ok()?, h.parse().ok()?))
        })
        .collect();
    if expected != alarms {
        return Err(format!(
            "replay raised {} alarm(s), the sink holds {}",
            alarms.len(),
            expected.len()
        ));
    }
    Ok(out)
}

/// Parse, extract, score and vote one chunk, timing each call apart.
/// History upkeep (the engine's per-row history clone) is untimed here
/// and lands in `engine.residual_ms`.
fn replay_chunk(
    chunk: &[String],
    features: &FeatureSet,
    model: &SavedModel,
    drives: &mut HashMap<u32, Tracked>,
    alarms: &mut BTreeSet<(u32, u32)>,
    out: &mut Replay,
) -> Result<()> {
    let lookback = features.max_lookback_hours();
    let t = Instant::now();
    let rows: Vec<_> = chunk
        .iter()
        .map(|l| parse_data_line(l).map(|(row, _)| row))
        .collect::<std::result::Result<_, _>>()
        .map_err(err("replay parse"))?;
    out.parse_ms += t.elapsed().as_secs_f64() * 1e3;

    let series: Vec<SmartSeries> = rows
        .iter()
        .map(|row| {
            let d = drives.entry(row.drive.0).or_insert_with(|| Tracked {
                class: row.class,
                history: Vec::new(),
                voting: VotingState::new(VOTERS, VotingRule::Majority),
                alarmed: false,
            });
            d.history.push(row.sample);
            let newest = row.sample.hour.0;
            d.history.retain(|s| s.hour.0 + lookback >= newest);
            SmartSeries::new(row.drive, d.class, d.history.clone())
        })
        .collect();

    let t = Instant::now();
    let extracted: Vec<Option<Vec<f64>>> = series
        .iter()
        .map(|s| features.extract(s, s.len() - 1))
        .collect();
    out.extract_ms += t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let scored: Vec<&[f64]> = extracted.iter().flatten().map(Vec::as_slice).collect();
    let mut scores = vec![0.0; scored.len()];
    if !scored.is_empty() {
        let matrix = FeatureMatrix::from_rows(scored.iter().copied());
        model.predict_batch(&matrix, &mut scores);
    }
    out.score_ms += t.elapsed().as_secs_f64() * 1e3;
    out.scored_rows += scored.len();

    let t = Instant::now();
    let mut next = scores.iter();
    for (row, f) in rows.iter().zip(&extracted) {
        if f.is_none() {
            continue;
        }
        let (Some(&score), Some(d)) = (next.next(), drives.get_mut(&row.drive.0)) else {
            break;
        };
        if d.voting.push(score) && !d.alarmed {
            d.alarmed = true;
            alarms.insert((row.drive.0, row.sample.hour.0));
        }
    }
    out.vote_ms += t.elapsed().as_secs_f64() * 1e3;
    Ok(())
}

/// `hddpred train` timed step by step: CSV read, sample selection, tree
/// build. The compiled model must equal the binary's model file.
#[derive(Debug, Default)]
struct Training {
    read_ms: f64,
    build_ms: f64,
    samples: usize,
}

fn train_mirror(data: &Path, binary_model: &Path, work: &Path) -> Result<Training> {
    let t = Instant::now();
    let file = File::open(data).map_err(err("training traces"))?;
    let import = read_series_quarantined(
        BufReader::new(file),
        &IngestPolicy {
            max_quarantine_fraction: MAX_QUARANTINE,
        },
    )
    .map_err(err("training traces"))?;
    let read_ms = t.elapsed().as_secs_f64() * 1e3;
    let features = FeatureSet::critical13();
    let t = Instant::now();
    let samples = training_set(&import.series, &features, TRAIN_WINDOW_HOURS);
    let tree = ClassificationTreeBuilder::new()
        .build(&samples)
        .map_err(err("train"))?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mirrored = work.join("model-mirror.json");
    SavedModel::from(tree.compile())
        .save(&mirrored)
        .map_err(err("model"))?;
    let same = std::fs::read(&mirrored).map_err(err("model"))?
        == std::fs::read(binary_model).map_err(err("model"))?;
    if !same {
        return Err(
            "the mirrored training produced a different model file than `hddpred train`".into(),
        );
    }
    Ok(Training {
        read_ms,
        build_ms,
        samples: samples.len(),
    })
}

/// `hddpred train`'s sample selection: three random samples per good
/// drive plus every failed sample inside the window.
fn training_set(series: &[SmartSeries], features: &FeatureSet, window: u32) -> Vec<ClassSample> {
    let rng = DeterministicRng::new(0x007E_A1CB);
    let mut samples = Vec::new();
    for (d, s) in series.iter().enumerate() {
        match s.class.fail_hour() {
            None => {
                for k in 0..3u64 {
                    for attempt in 0..8u64 {
                        let u = rng.uniform(d as u64 ^ (attempt << 32), k);
                        let idx = (u * s.len() as f64) as usize;
                        if let Some(f) = features.extract(s, idx) {
                            samples.push(ClassSample::new(f, Class::Good));
                            break;
                        }
                    }
                }
            }
            Some(fail) => {
                let start = fail - window;
                for idx in 0..s.len() {
                    if s.samples()[idx].hour < start {
                        continue;
                    }
                    if let Some(f) = features.extract(s, idx) {
                        samples.push(ClassSample::new(f, Class::Failed));
                    }
                }
            }
        }
    }
    samples
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    crate::median(&mut values.collect::<Vec<_>>())
}

/// Fold the passes into per-layer metrics (medians over passes for
/// times, the repeated value for counts) and the median traced wall.
fn summarize(
    passes: &[PassStats],
    replay: &Replay,
    training: &Training,
    vm_hwm: f64,
) -> (Metrics, f64) {
    let m = |f: &dyn Fn(&PassStats) -> f64| med(passes.iter().map(f));
    let last = passes.last().cloned().unwrap_or_default();
    let tick_ms = m(&|p| p.tick_wall.iter().sum());
    let tick_cpu = m(&|p| cpu_ms(p.tick_cpu_ticks));
    let ckpt_saves = last.ckpt_save_times.len();
    let bytes_per_save = if ckpt_saves == 0 {
        0.0
    } else {
        last.ckpt_written as f64 / ckpt_saves as f64
    };
    let bytes_per_drive = if last.ckpt_drive_saves == 0 {
        0.0
    } else {
        last.ckpt_written as f64 / last.ckpt_drive_saves as f64
    };
    let engine = replay.parse_ms + replay.extract_ms + replay.score_ms + replay.vote_ms;
    let metrics = vec![
        ("ingest.ms", "ms", m(&|p| p.ingest_ms)),
        ("ingest.lines", "count", last.ingest_lines as f64),
        ("ingest.read_bytes", "bytes", last.ingest_read_bytes as f64),
        (
            "ingest.read_amp",
            "ratio",
            last.ingest_read_bytes as f64 / (last.cursor_bytes.max(1)) as f64,
        ),
        ("tick.ms", "ms", m(&|p| p.topology_ms)),
        ("tick.cpu_ms", "ms", tick_cpu),
        ("tick.count", "count", last.tick_wall.len() as f64),
        (
            "tick.p50_ms",
            "ms",
            m(&|p| crate::percentile(&mut p.tick_wall.clone(), 50.0)),
        ),
        (
            "tick.p99_ms",
            "ms",
            m(&|p| crate::percentile(&mut p.tick_wall.clone(), 99.0)),
        ),
        ("tick.parallelism", "ratio", tick_cpu / tick_ms.max(1e-9)),
        ("parse.ms", "ms", replay.parse_ms),
        ("extract.ms", "ms", replay.extract_ms),
        ("extract.scored_rows", "count", replay.scored_rows as f64),
        ("score.ms", "ms", replay.score_ms),
        ("vote.ms", "ms", replay.vote_ms),
        ("engine.residual_ms", "ms", tick_cpu - engine),
        ("sink.ms", "ms", m(&|p| p.sink_ms)),
        ("sink.bytes", "bytes", last.sink_bytes as f64),
        ("ckpt.saves", "count", ckpt_saves as f64),
        ("ckpt.save_ms", "ms", m(&|p| p.ckpt_step.iter().sum())),
        (
            "ckpt.save_p99_ms",
            "ms",
            m(&|p| crate::percentile(&mut p.ckpt_step.clone(), 99.0)),
        ),
        ("ckpt.bytes_per_save", "bytes", bytes_per_save),
        ("ckpt.bytes_per_drive", "bytes", bytes_per_drive),
        ("ckpt.resume_ms", "ms", m(&|p| p.resume_ms)),
        ("ckpt.resume_bytes", "bytes", last.resume_bytes as f64),
        ("lifecycle.consume_ms", "ms", m(&|p| p.lc_consume_ms)),
        ("lifecycle.events", "count", last.lc_events as f64),
        ("lifecycle.train_ms", "ms", m(&|p| p.lc_train_ms)),
        ("lifecycle.trainings", "count", last.lc_trainings as f64),
        ("lifecycle.shadow_rows", "count", last.lc_shadow_rows as f64),
        ("lifecycle.apply_ms", "ms", m(&|p| p.lc_apply_ms)),
        ("lifecycle.promotions", "count", last.lc_promotions as f64),
        ("train.read_ms", "ms", training.read_ms),
        ("train.build_ms", "ms", training.build_ms),
        ("train.samples", "count", training.samples as f64),
        (
            "process.cpu_ms",
            "ms",
            m(&|p| cpu_ms(p.cpu_ticks.0 + p.cpu_ticks.1)),
        ),
        (
            "process.sys_share",
            "ratio",
            m(&|p| p.cpu_ticks.1 as f64 / (p.cpu_ticks.0 + p.cpu_ticks.1).max(1) as f64),
        ),
        ("process.vm_hwm_mb", "MiB", vm_hwm),
        ("state.tracked_drives", "count", last.tracked_drives as f64),
    ];
    let wall = m(&|p| p.wall_ms);
    (metrics, wall)
}
