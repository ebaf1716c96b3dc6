//! Seeded inputs, sink scoring and the traced serve loop for the
//! `hddpred` serve benchmark (see `benches/perfbench/README.md`).
//!
//! Everything here is a pure function of the workload name and the
//! seed: the benchmark's Python front end (`run.py`) asks this crate to
//! write the inputs, drives the production binary over them, and asks
//! it again to score the alarm sink and to run the traced loop.

pub mod trace;

use hdd_smart::csv::{write_header, write_series};
use hdd_smart::gen::generate_series_in;
use hdd_smart::rng::splitmix64;
use hdd_smart::{DatasetGenerator, DriveClass, FamilyProfile, Hour, HOURS_PER_WEEK};
use hdd_workload::{generate_fleet, FleetTruth, Scenario, ScenarioManifest};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Voting-window size every workload serves with (the paper's N = 11).
pub const VOTERS: usize = 11;
/// Fleet fraction of the paper's family W used for the training traces
/// `hddpred train` reads (about 930 drives and 1.2M rows).
const TRAIN_SCALE: f64 = 0.04;
/// Separates the training fleet's seed from the served fleet's.
const TRAIN_SALT: u64 = 0x7EA1_5EED;
/// Fleet fraction for `drift-retrain`'s `firmware-cohort-drift` fleet.
const DRIFT_SCALE: f64 = 0.03;

/// Shape of an hour-major wave fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waves {
    /// Drives in the fleet; about 1% of them fail.
    pub drives: u32,
    /// Hourly waves; every drive reports at most once per wave.
    pub waves: u32,
    /// Final waves written to the tail files instead of the feeds.
    pub withheld: u32,
    /// Feeds; a drive's rows go to feed `drive % feeds`.
    pub feeds: usize,
}

/// One benchmark workload: its inputs and the serve flags it runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k drives, hour-major waves, 2 shards over 2 feeds.
    HourlyFleet,
    /// 1,000 drives, 1 shard, `--checkpoint`, final waves withheld for
    /// a restarted child.
    DurableRestart,
    /// `firmware-cohort-drift` fleet with the retraining lifecycle on.
    DriftRetrain,
}

impl Workload {
    /// Every workload, in the order the README documents them.
    pub const ALL: [Workload; 3] = [
        Workload::HourlyFleet,
        Workload::DurableRestart,
        Workload::DriftRetrain,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HourlyFleet => "hourly-fleet",
            Workload::DurableRestart => "durable-restart",
            Workload::DriftRetrain => "drift-retrain",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wave shape, for the wave-generated workloads.
    #[must_use]
    pub fn waves(self) -> Option<Waves> {
        match self {
            Workload::HourlyFleet => Some(Waves {
                drives: 100_000,
                waves: 24,
                withheld: 0,
                feeds: 2,
            }),
            Workload::DurableRestart => Some(Waves {
                drives: 1_000,
                waves: 48,
                withheld: 6,
                feeds: 1,
            }),
            Workload::DriftRetrain => None,
        }
    }

    /// Feed files the daemon tails.
    #[must_use]
    pub fn feeds(self) -> usize {
        self.waves().map_or(2, |w| w.feeds)
    }

    /// Detection shards.
    #[must_use]
    pub fn shards(self) -> usize {
        match self {
            Workload::DurableRestart => 1,
            Workload::HourlyFleet | Workload::DriftRetrain => 2,
        }
    }

    /// Whether the daemon runs with `--checkpoint`.
    #[must_use]
    pub fn checkpoint(self) -> bool {
        self == Workload::DurableRestart
    }

    /// `(retrain, shadow, probation)` rows when the lifecycle is on —
    /// the gauntlet's `RetrainSpec` defaults.
    #[must_use]
    pub fn retrain(self) -> Option<(usize, usize, usize)> {
        (self == Workload::DriftRetrain).then(|| {
            let spec = hdd_workload::RetrainSpec::new(None);
            (spec.retrain_rows, spec.shadow_rows, spec.probation_rows)
        })
    }
}

/// Paths of a generated workload inside its input directory.
#[derive(Debug, Clone)]
pub struct InputPaths {
    /// Training traces for `hddpred train`.
    pub train: PathBuf,
    /// One path per feed.
    pub feeds: Vec<PathBuf>,
    /// Withheld final waves, one per feed (empty when none are withheld).
    pub tails: Vec<PathBuf>,
    /// Ground truth, `drive,fail_hour` per line.
    pub truth: PathBuf,
}

impl InputPaths {
    /// The layout `write_inputs` uses under `dir`.
    #[must_use]
    pub fn new(workload: Workload, dir: &Path) -> InputPaths {
        let feeds = workload.feeds();
        let withheld = workload.waves().is_some_and(|w| w.withheld > 0);
        InputPaths {
            train: dir.join("train.csv"),
            feeds: (0..feeds)
                .map(|f| dir.join(format!("feed-{f}.csv")))
                .collect(),
            tails: if withheld {
                (0..feeds)
                    .map(|f| dir.join(format!("tail-{f}.csv")))
                    .collect()
            } else {
                Vec::new()
            },
            truth: dir.join("truth.csv"),
        }
    }
}

/// What `write_inputs` produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSummary {
    /// Data rows in the feeds (excluding withheld tails).
    pub feed_rows: usize,
    /// Data rows in the withheld tails.
    pub tail_rows: usize,
    /// Drives in the fleet.
    pub drives: usize,
    /// Drives that fail.
    pub failed: usize,
}

/// Write the training traces, feeds, tails and ground truth for
/// `workload` under `dir`.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_inputs(workload: Workload, seed: u64, dir: &Path) -> io::Result<InputSummary> {
    std::fs::create_dir_all(dir)?;
    let paths = InputPaths::new(workload, dir);
    // The training traces and each feed are independent streams; write
    // them on their own threads.
    let (truth, counts) = std::thread::scope(|scope| {
        let training = scope.spawn(|| -> io::Result<()> {
            write_training(seed, &mut BufWriter::new(File::create(&paths.train)?))
        });
        let fleet = (|| -> io::Result<(Vec<FleetTruth>, (usize, usize))> {
            let Some(shape) = workload.waves() else {
                let manifest =
                    ScenarioManifest::new(seed, Scenario::FirmwareCohortDrift, DRIFT_SCALE, 2);
                let mut feeds = create_all(&paths.feeds)?;
                let summary = generate_fleet(&manifest, &mut feeds)?;
                for feed in &mut feeds {
                    feed.flush()?;
                }
                return Ok((summary.truth, (summary.clean_rows, 0)));
            };
            let parts: Vec<_> = (0..shape.feeds)
                .map(|f| {
                    let (feed, tail) = (&paths.feeds[f], paths.tails.get(f));
                    scope.spawn(move || wave_feed(seed, shape, f, feed, tail))
                })
                .collect();
            let mut truth = Vec::new();
            let mut counts = (0, 0);
            for part in parts {
                let (t, c) = part
                    .join()
                    .map_err(|_| io::Error::other("generator panicked"))??;
                truth.extend(t);
                counts = (counts.0 + c.0, counts.1 + c.1);
            }
            truth.sort_by_key(|t| t.drive);
            Ok((truth, counts))
        })();
        training
            .join()
            .map_err(|_| io::Error::other("generator panicked"))??;
        fleet
    })?;
    let mut out = BufWriter::new(File::create(&paths.truth)?);
    write_truth(&mut out, &truth)?;
    out.flush()?;
    Ok(InputSummary {
        feed_rows: counts.0,
        tail_rows: counts.1,
        drives: truth.len(),
        failed: truth.iter().filter(|t| t.fail_hour.is_some()).count(),
    })
}

/// Write feed `f` of a wave fleet (and its tail) to files.
fn wave_feed(
    seed: u64,
    shape: Waves,
    f: usize,
    feed: &Path,
    tail: Option<&PathBuf>,
) -> io::Result<(Vec<FleetTruth>, (usize, usize))> {
    let mut feed = BufWriter::new(File::create(feed)?);
    let mut tail = tail.map(File::create).transpose()?.map(BufWriter::new);
    let out = wave_fleet(seed, shape, f, &mut feed, tail.as_mut())?;
    feed.flush()?;
    if let Some(t) = tail.as_mut() {
        t.flush()?;
    }
    Ok(out)
}

fn create_all(paths: &[PathBuf]) -> io::Result<Vec<BufWriter<File>>> {
    paths
        .iter()
        .map(|p| File::create(p).map(BufWriter::new))
        .collect()
}

/// Training traces: the paper's family W at [`TRAIN_SCALE`], as
/// `hddpred generate` would write them.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_training<W: Write>(seed: u64, out: &mut W) -> io::Result<()> {
    let ds =
        DatasetGenerator::new(FamilyProfile::w().scaled(TRAIN_SCALE), seed ^ TRAIN_SALT).generate();
    write_header(&mut *out)?;
    for spec in ds.drives() {
        write_series(&mut *out, &ds.series(spec))?;
    }
    out.flush()
}

/// Generate feed `f` of an hour-major wave fleet: the rows of the drives
/// with `drive % shape.feeds == f`.
///
/// The fleet is family W's generative model with 1% of the drives
/// failing. Every drive reports once per wave (bar the model's sampling
/// dropouts), in one seeded scattered order. The window starts in the
/// fleet's second week; each failing drive fails 1–24 h after the last
/// wave, so its deterioration is under way while it is served. Waves
/// from `waves - withheld` on go to `tail`. Returns this feed's drives'
/// ground truth and its `(feed, tail)` row counts.
///
/// # Errors
///
/// Propagates writer errors.
///
/// # Panics
///
/// Panics if waves are withheld but no tail writer is given.
pub fn wave_fleet<W: Write>(
    seed: u64,
    shape: Waves,
    f: usize,
    feed: &mut W,
    mut tail: Option<&mut W>,
) -> io::Result<(Vec<FleetTruth>, (usize, usize))> {
    assert!(
        shape.withheld == 0 || tail.is_some(),
        "withheld waves need a tail writer"
    );
    let mut profile = FamilyProfile::w();
    profile.n_failed = (shape.drives / 100).max(1);
    profile.n_good = shape.drives - profile.n_failed;
    let ds = DatasetGenerator::new(profile.clone(), seed).generate();
    let start = HOURS_PER_WEEK + (splitmix64(seed) % u64::from(HOURS_PER_WEEK)) as u32;
    let end = start + shape.waves;
    let specs: Vec<_> = ds
        .drives()
        .iter()
        .filter(|spec| spec.id.0 as usize % shape.feeds == f)
        .map(|spec| {
            let mut spec = spec.clone();
            if spec.is_failed() {
                let lead = 1 + (splitmix64(seed ^ u64::from(spec.id.0)) % 24) as u32;
                spec.class = DriveClass::Failed {
                    fail_hour: Hour(end + lead),
                };
            }
            spec
        })
        .collect();
    let order = scattered_order(seed ^ f as u64, specs.len());

    write_header(&mut *feed)?;
    if let Some(t) = tail.as_mut() {
        write_header(&mut **t)?;
    }
    let mut counts = (0usize, 0usize);
    for wave in 0..shape.waves {
        let hour = Hour(start + wave);
        let withheld = wave >= shape.waves - shape.withheld;
        for &i in &order {
            let sample = generate_series_in(&profile, seed, &specs[i], hour..Hour(hour.0 + 1));
            match tail.as_mut() {
                Some(t) if withheld => {
                    write_series(&mut **t, &sample)?;
                    counts.1 += sample.len();
                }
                _ => {
                    write_series(&mut *feed, &sample)?;
                    counts.0 += sample.len();
                }
            }
        }
    }
    let truth = specs
        .iter()
        .map(|s| FleetTruth {
            drive: s.id.0,
            fail_hour: s.class.fail_hour().map(|h| h.0),
        })
        .collect();
    Ok((truth, counts))
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
fn scattered_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5CA7_7E2E;
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Write ground truth as `drive,fail_hour` lines (empty for good drives).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_truth<W: Write>(out: &mut W, truth: &[FleetTruth]) -> io::Result<()> {
    for t in truth {
        match t.fail_hour {
            Some(h) => writeln!(out, "{},{h}", t.drive)?,
            None => writeln!(out, "{},", t.drive)?,
        }
    }
    Ok(())
}

/// Read ground truth written by [`write_truth`].
///
/// # Errors
///
/// Returns an `InvalidData` error for a malformed line.
pub fn read_truth<R: BufRead>(input: R) -> io::Result<Vec<FleetTruth>> {
    let bad = |line: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad truth line `{line}`"),
        )
    };
    let mut truth = Vec::new();
    for line in input.lines() {
        let line = line?;
        let (drive, fail) = line.split_once(',').ok_or_else(|| bad(&line))?;
        truth.push(FleetTruth {
            drive: drive.parse().map_err(|_| bad(&line))?,
            fail_hour: if fail.is_empty() {
                None
            } else {
                Some(fail.parse().map_err(|_| bad(&line))?)
            },
        });
    }
    Ok(truth)
}

/// Read ground truth from a file.
///
/// # Errors
///
/// Propagates I/O and format errors.
pub fn load_truth(path: &Path) -> io::Result<Vec<FleetTruth>> {
    read_truth(BufReader::new(File::open(path)?))
}

/// Detection quality of one alarm sink against the ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Sink lines.
    pub alarms: usize,
    /// Sink lines that do not parse as `drive,hour`.
    pub malformed: usize,
    /// Alarmed drives absent from the fleet.
    pub unknown_drives: usize,
    /// Failed drives with an alarm, over failed drives.
    pub fdr: f64,
    /// Good drives with an alarm, over good drives.
    pub far: f64,
    /// Median hours from a detected drive's first alarm to its failure
    /// (the paper's time in advance); 0 when nothing was detected.
    pub tia_h: f64,
}

/// Score `sink` (`drive,hour` lines) against `truth`.
#[must_use]
pub fn score(sink: &str, truth: &[FleetTruth]) -> Score {
    let mut first_alarm: BTreeMap<u32, u32> = BTreeMap::new();
    let mut alarms = 0;
    let mut malformed = 0;
    for line in sink.lines() {
        alarms += 1;
        let parsed = line
            .split_once(',')
            .and_then(|(d, h)| Some((d.parse::<u32>().ok()?, h.parse::<u32>().ok()?)));
        match parsed {
            Some((drive, hour)) => {
                first_alarm.entry(drive).or_insert(hour);
            }
            None => malformed += 1,
        }
    }
    let known: BTreeMap<u32, Option<u32>> = truth.iter().map(|t| (t.drive, t.fail_hour)).collect();
    let unknown_drives = first_alarm
        .keys()
        .filter(|d| !known.contains_key(d))
        .count();
    let (mut failed, mut good, mut false_alarms) = (0usize, 0usize, 0usize);
    let mut leads = Vec::new();
    for t in truth {
        let alarm = first_alarm.get(&t.drive);
        match (t.fail_hour, alarm) {
            (Some(fail), Some(&hour)) => {
                failed += 1;
                leads.push(f64::from(fail) - f64::from(hour));
            }
            (Some(_), None) => failed += 1,
            (None, Some(_)) => {
                good += 1;
                false_alarms += 1;
            }
            (None, None) => good += 1,
        }
    }
    let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    Score {
        alarms,
        malformed,
        unknown_drives,
        fdr: ratio(leads.len(), failed),
        far: ratio(false_alarms, good),
        tia_h: median(&mut leads),
    }
}

/// Median of `values` (mean of the middle two for an even count), 0 for
/// none. Sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `values`, 0 for none.
/// Sorts in place.
#[must_use]
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
