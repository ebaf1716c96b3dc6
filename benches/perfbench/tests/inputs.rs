//! Generator and scoring checks for the serve benchmark.

use hdd_eval::VotingRule;
use hdd_par::{CancelToken, ThreadPool};
use hdd_serve::{EngineConfig, MultiFeedIngest, ServeTopology};
use hdd_stats::FeatureSet;
use hdd_workload::{FleetTruth, FnvWriter};
use perfbench::{median, percentile, read_truth, score, wave_fleet, write_truth, Waves, VOTERS};
use std::path::PathBuf;
use std::sync::Arc;

const SMALL: Waves = Waves {
    drives: 400,
    waves: 24,
    withheld: 3,
    feeds: 2,
};

/// Per-feed `(hash, len)` of the feed and tail bytes for `seed`.
fn fingerprint(seed: u64) -> Vec<(u64, u64, u64, u64)> {
    (0..SMALL.feeds)
        .map(|f| {
            let (mut feed, mut tail) = (FnvWriter::new(), FnvWriter::new());
            wave_fleet(seed, SMALL, f, &mut feed, Some(&mut tail)).unwrap();
            (feed.hash(), feed.len(), tail.hash(), tail.len())
        })
        .collect()
}

#[test]
fn same_seed_same_feed_fingerprint() {
    let first = fingerprint(7);
    assert_eq!(first, fingerprint(7));
    assert!(first.iter().all(|&(_, feed, _, tail)| feed > 0 && tail > 0));
    assert_ne!(first, fingerprint(8), "another seed must give other inputs");
}

#[test]
fn waves_are_hour_major_and_withheld_waves_go_to_the_tail() {
    let (mut feed, mut tail) = (Vec::new(), Vec::new());
    let (truth, (feed_rows, tail_rows)) =
        wave_fleet(3, SMALL, 1, &mut feed, Some(&mut tail)).unwrap();
    assert!(
        truth.iter().all(|t| t.drive % 2 == 1),
        "feed 1 holds odd drives"
    );
    let hours = |bytes: &[u8]| -> Vec<u32> {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect()
    };
    let (feed_hours, tail_hours) = (hours(&feed), hours(&tail));
    assert_eq!((feed_hours.len(), tail_hours.len()), (feed_rows, tail_rows));
    assert!(
        feed_hours.windows(2).all(|w| w[0] <= w[1]),
        "hour-major order"
    );
    assert!(feed_hours.last() < tail_hours.first());
    let span = tail_hours.last().unwrap() - feed_hours.first().unwrap() + 1;
    assert_eq!(span, SMALL.waves);
}

/// Serve a generated fleet through the library's serve topology with a
/// model trained the way `hddpred train` trains, and check the shape the
/// benchmark relies on: almost every healthy drive stays quiet, most
/// failing drives alarm, and alarms come before the failures.
#[test]
fn healthy_majority_alarm_minority() {
    let shape = Waves {
        drives: 3_000,
        waves: 24,
        withheld: 0,
        feeds: 2,
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("healthy-majority");
    std::fs::create_dir_all(&dir).unwrap();
    let mut truth: Vec<FleetTruth> = Vec::new();
    let mut paths = Vec::new();
    for f in 0..shape.feeds {
        let path = dir.join(format!("feed-{f}.csv"));
        let mut feed = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let (t, _) = wave_fleet(11, shape, f, &mut feed, None).unwrap();
        std::io::Write::flush(&mut feed).unwrap();
        truth.extend(t);
        paths.push(path);
    }
    let failing = truth.iter().filter(|t| t.fail_hour.is_some()).count();
    assert_eq!(failing, 30, "1% of the fleet fails");

    let features = FeatureSet::critical13();
    let model = Arc::new(hdd_workload::gauntlet::train_model(11 ^ 0x7EA1_5EED, 0.04).unwrap());
    let mut topology = ServeTopology::new(
        &model,
        &features,
        EngineConfig::new(VOTERS, VotingRule::Majority, 0.1),
        2,
        paths.len(),
        1024,
    )
    .unwrap();
    let mut ingest = MultiFeedIngest::new(&paths, topology.router());
    let pool = ThreadPool::global();
    let mut sink = String::new();
    loop {
        let polled = ingest.poll(topology.free());
        topology.enqueue(polled.routed);
        let tick = topology
            .tick(
                &pool,
                &CancelToken::new(),
                &ingest.cursors(),
                ingest.watermark(),
            )
            .unwrap();
        for a in &tick.alarms {
            sink.push_str(&format!("{}\n", a.alarm));
        }
        if polled.lines_read == 0 && !topology.has_queued() {
            for a in topology.flush_pending() {
                sink.push_str(&format!("{}\n", a.alarm));
            }
            break;
        }
    }
    let s = score(&sink, &truth);
    assert_eq!(s.unknown_drives, 0);
    assert!(
        s.far < 0.01,
        "healthy drives must stay quiet: far {}",
        s.far
    );
    assert!(s.fdr >= 0.5, "failing drives must alarm: fdr {}", s.fdr);
    assert!(s.alarms < shape.drives as usize / 20, "{} alarms", s.alarms);
    assert!(s.tia_h > 0.0, "alarms come before failure");
}

fn truth() -> Vec<FleetTruth> {
    let t = |drive, fail_hour| FleetTruth { drive, fail_hour };
    vec![
        t(1, Some(100)),
        t(2, Some(200)),
        t(3, Some(300)),
        t(4, None),
        t(5, None),
        t(6, None),
    ]
}

#[test]
fn score_arithmetic_on_a_hand_built_sink() {
    // Drive 1 alarms twice (the first alarm counts), drive 2 once, drive
    // 3 never; good drive 4 false-alarms; drive 9 is not in the fleet.
    let sink = "1,90\n1,95\n2,150\n4,10\n9,5\nnot-a-line\n";
    let s = score(sink, &truth());
    assert_eq!(s.alarms, 6);
    assert_eq!(s.malformed, 1);
    assert_eq!(s.unknown_drives, 1);
    assert!((s.fdr - 2.0 / 3.0).abs() < 1e-12);
    assert!((s.far - 1.0 / 3.0).abs() < 1e-12);
    // Leads 100 - 90 = 10 and 200 - 150 = 50: median 30.
    assert_eq!(s.tia_h, 30.0);

    let quiet = score("", &truth());
    assert_eq!((quiet.fdr, quiet.far, quiet.tia_h), (0.0, 0.0, 0.0));
}

#[test]
fn truth_round_trips() {
    let mut bytes = Vec::new();
    write_truth(&mut bytes, &truth()).unwrap();
    assert_eq!(read_truth(bytes.as_slice()).unwrap(), truth());
    assert!(read_truth("7;1\n".as_bytes()).is_err());
}

#[test]
fn median_and_percentile() {
    assert_eq!(median(&mut []), 0.0);
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&mut v, 99.0), 99.0);
    assert_eq!(percentile(&mut v, 50.0), 50.0);
    assert_eq!(percentile(&mut [5.0], 99.0), 5.0);
}
