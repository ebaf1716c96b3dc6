//! The one serve driver loop.
//!
//! `hddpred serve`, the workload gauntlet and the `serve_ingest` bench
//! all drive the sharded topology through [`ServeLoop::step`]: poll →
//! enqueue → tick → sink append+flush → lifecycle consume → (when
//! quiesced) idle flush, lifecycle consume and staged model swap →
//! checkpoint. The crash-safety write order — sink flushed, sink length
//! noted, `lifecycle.ckpt`, then topology and dirty shards — therefore
//! lives in exactly one place; replayed events are deduplicated by the
//! lifecycle's consumed-seq filter, so a crash between any two writes
//! merely replays a feed suffix. Model hot reload, feed-error backoff,
//! idle exit and status lines stay with the caller.

use crate::manager::{LifecycleError, LifecycleManager};
use hdd_eval::ModelError;
use hdd_par::{CancelToken, ParError, ThreadPool};
use hdd_serve::{BreakerState, CheckpointError, MultiFeedIngest, SeqAlarm, ServeTopology};
use std::io::{self, Write};
use std::path::PathBuf;

/// Why a [`ServeLoop::step`] stopped the loop.
#[derive(Debug)]
pub enum ServeLoopError {
    /// A scoring worker panicked during the tick.
    Scoring(ParError),
    /// Appending to or flushing the alarm sink failed.
    Sink(io::Error),
    /// Applying a staged promotion or rollback failed.
    Swap(LifecycleError),
    /// The topology rejected the model the lifecycle staged.
    Model(ModelError),
    /// Writing `lifecycle.ckpt` failed.
    LifecycleCheckpoint(LifecycleError),
    /// Writing the topology or shard checkpoints failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ServeLoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeLoopError::Scoring(e) => write!(f, "scoring failed: {e}"),
            ServeLoopError::Sink(e) => write!(f, "alarm sink: {e}"),
            ServeLoopError::Swap(e) => write!(f, "lifecycle swap failed: {e}"),
            ServeLoopError::Model(e) => write!(f, "staged model rejected: {e}"),
            ServeLoopError::LifecycleCheckpoint(e) => {
                write!(f, "lifecycle checkpoint failed: {e}")
            }
            ServeLoopError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ServeLoopError {}

/// What one [`ServeLoop::step`] did.
#[derive(Debug, Default)]
pub struct Step {
    /// Feed lines read by this step's poll.
    pub lines_read: usize,
    /// Feed rotations the poll observed.
    pub rotations: usize,
    /// Rows the tick recognised as replays of committed lines.
    pub replayed: usize,
    /// Rows evicted from full shard queues (zero while polls stay
    /// within the queues' free space).
    pub evicted: usize,
    /// Feed read failures, `(feed index, error)`; the loop carries on
    /// with the feeds that did read.
    pub feed_errors: Vec<(usize, io::Error)>,
    /// Circuit-breaker transitions, `(shard, new state)`.
    pub transitions: Vec<(usize, BreakerState)>,
    /// Lifecycle notes (training, gate verdicts, swaps), in order.
    pub notes: Vec<String>,
    /// Alarm lines appended to the sink.
    pub alarms: usize,
    /// Nothing was read and nothing is queued: the topology is drained.
    pub quiesced: bool,
    /// Quiesced, and the step neither flushed an alarm nor swapped the
    /// live model — the daemon has nothing left to do until a feed grows.
    pub idle: bool,
    /// Wall time of the topology tick, milliseconds.
    pub tick_ms: f64,
}

/// The poll → enqueue → tick → sink → lifecycle → checkpoint loop over
/// one topology, with alarms appended to `W`.
pub struct ServeLoop<W: Write> {
    ingest: MultiFeedIngest,
    topology: ServeTopology,
    lifecycle: Option<LifecycleManager>,
    sink: W,
    sink_bytes: u64,
    checkpoint: Option<PathBuf>,
    poll_cap: usize,
    /// Reused alarm-line buffer: one `write_all` per non-empty batch.
    lines: Vec<u8>,
}

impl<W: Write> ServeLoop<W> {
    /// Drive `topology` from `ingest`, appending alarms to `sink`, whose
    /// current length must equal the topology's checkpointed sink length
    /// (zero for a fresh start). A lifecycle switches row-event
    /// recording on.
    pub fn new(
        ingest: MultiFeedIngest,
        mut topology: ServeTopology,
        lifecycle: Option<LifecycleManager>,
        sink: W,
    ) -> Self {
        if lifecycle.is_some() {
            topology.set_record_events(true);
        }
        let sink_bytes = topology.merge_state().sink_bytes;
        ServeLoop {
            ingest,
            topology,
            lifecycle,
            sink,
            sink_bytes,
            checkpoint: None,
            poll_cap: usize::MAX,
            lines: Vec::new(),
        }
    }

    /// Checkpoint into `dir`, if any, after every step that made progress.
    #[must_use]
    pub fn with_checkpoint(mut self, dir: Option<PathBuf>) -> Self {
        self.checkpoint = dir;
        self
    }

    /// Read at most `cap` lines per poll (always also capped at the
    /// shard queues' free space).
    #[must_use]
    pub fn with_poll_cap(mut self, cap: usize) -> Self {
        self.poll_cap = cap;
        self
    }

    /// The topology being driven.
    pub fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    /// Mutable topology access, e.g. to swap in a hot-reloaded model
    /// between steps.
    pub fn topology_mut(&mut self) -> &mut ServeTopology {
        &mut self.topology
    }

    /// The lifecycle, when retraining is on.
    pub fn lifecycle(&self) -> Option<&LifecycleManager> {
        self.lifecycle.as_ref()
    }

    /// Take the loop apart: topology, lifecycle and sink.
    pub fn into_parts(self) -> (ServeTopology, Option<LifecycleManager>, W) {
        (self.topology, self.lifecycle, self.sink)
    }

    /// Run one poll → enqueue → tick → sink → lifecycle → checkpoint
    /// pass (see the module docs for the exact order).
    ///
    /// # Errors
    ///
    /// Returns [`ServeLoopError`] when scoring panics, the sink or a
    /// checkpoint cannot be written, or a staged swap fails. Feed read
    /// failures are not errors: they are reported in
    /// [`Step::feed_errors`].
    pub fn step(&mut self, pool: &ThreadPool, token: &CancelToken) -> Result<Step, ServeLoopError> {
        // Backpressure applies at the (durable) files rather than by
        // shedding queued rows: never route more than the queues hold.
        let polled = self.ingest.poll(self.poll_cap.min(self.topology.free()));
        let mut step = Step {
            lines_read: polled.lines_read,
            rotations: polled.rotations,
            feed_errors: polled.errors,
            ..Step::default()
        };
        step.evicted = self.topology.enqueue(polled.routed);

        // audit:allow(R1) reason="tick latency is observability-only; reported in Step::tick_ms and bench rows, never fed back into engine state or alarm output"
        let started = std::time::Instant::now();
        let tick = self
            .topology
            .tick(pool, token, &self.ingest.cursors(), self.ingest.watermark());
        // audit:allow(R1) reason="tick latency is observability-only; reported in Step::tick_ms and bench rows, never fed back into engine state or alarm output"
        step.tick_ms = started.elapsed().as_secs_f64() * 1e3;
        let tick = tick.map_err(ServeLoopError::Scoring)?;
        step.replayed = tick.replayed;
        step.transitions = tick.transitions;
        self.emit(&tick.alarms)?;
        step.alarms = tick.alarms.len();
        if let Some(mgr) = self.lifecycle.as_mut() {
            step.notes = mgr.consume(
                pool,
                &tick.events,
                tick.alarms.len(),
                step.transitions.len(),
                self.topology.merge_state().emitted(),
            );
        }

        step.quiesced = step.lines_read == 0 && !self.topology.has_queued();
        step.idle = step.quiesced;
        if step.quiesced {
            // Feeds of unequal length stall the watermark at the
            // shortest one; flush the held-back alarms now that
            // everything routed has committed.
            let flushed = self.topology.flush_pending();
            self.emit(&flushed)?;
            step.alarms += flushed.len();
            step.idle = flushed.is_empty();
            if let Some(mgr) = self.lifecycle.as_mut() {
                let events = self.topology.flush_events();
                step.notes.extend(mgr.consume(
                    pool,
                    &events,
                    flushed.len(),
                    0,
                    self.topology.merge_state().emitted(),
                ));
                while mgr.has_staged_swap() {
                    if let Some(next) = mgr.apply_staged().map_err(ServeLoopError::Swap)? {
                        self.topology
                            .swap_model(&next)
                            .map_err(ServeLoopError::Model)?;
                        step.idle = false;
                        step.notes.push(format!(
                            "lifecycle: live model swapped ({})",
                            mgr.phase().label()
                        ));
                    }
                }
            }
        }

        if tick.progressed || !step.idle {
            if let Some(dir) = &self.checkpoint {
                self.topology.note_sink_bytes(self.sink_bytes);
                if let Some(mgr) = self.lifecycle.as_ref() {
                    mgr.save_checkpoint(dir)
                        .map_err(ServeLoopError::LifecycleCheckpoint)?;
                }
                self.topology
                    .save_checkpoints(dir)
                    .map_err(ServeLoopError::Checkpoint)?;
            }
        }
        Ok(step)
    }

    /// Append one batch of alarm lines to the sink and flush it.
    fn emit(&mut self, alarms: &[SeqAlarm]) -> Result<(), ServeLoopError> {
        if alarms.is_empty() {
            return Ok(());
        }
        self.lines.clear();
        for alarm in alarms {
            writeln!(self.lines, "{}", alarm.alarm).map_err(ServeLoopError::Sink)?;
        }
        self.sink
            .write_all(&self.lines)
            .map_err(ServeLoopError::Sink)?;
        self.sink.flush().map_err(ServeLoopError::Sink)?;
        self.sink_bytes += self.lines.len() as u64;
        Ok(())
    }
}
