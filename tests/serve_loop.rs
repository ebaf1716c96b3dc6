//! `hddpred serve` and the gauntlet drive the same serve loop: on the
//! same feed files and model they must write byte-identical alarm
//! sinks, although the gauntlet polls a fixed rate per step with no
//! tick budget and the daemon polls whatever the shard queues can hold
//! under a 50 ms budget.

use hddpred::workload::gauntlet::{run, train_model, GauntletConfig};
use hddpred::workload::{Profile, Scenario};
use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hddpred-serve-loop-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn cli_serve_and_gauntlet_write_identical_alarm_sinks() {
    let dir = scratch("sinks");
    let model = dir.join("model.json");
    train_model(0x5EED, 0.002)
        .expect("train model")
        .save(&model)
        .expect("save model");

    let work_dir = dir.join("gauntlet");
    // The oscillating drives keep voting windows and breakers busy, so
    // the sinks hold alarms at this small scale.
    let mut config = GauntletConfig::new(7, Profile::Adversarial, work_dir.clone());
    config.scenario = Some(Scenario::ThresholdOscillator);
    config.scale = 0.002;
    config.max_shards = 2;
    config.model = Some(model.clone());
    let outcomes = run(&config).expect("gauntlet run failed");
    let gauntlet = outcomes
        .iter()
        .find(|o| o.n_shards == 2)
        .expect("a 2-shard outcome");
    assert!(gauntlet.alarms > 0, "the scenario must raise alarms");

    let label = Scenario::ThresholdOscillator.label();
    let feeds: Vec<String> = (0..config.n_feeds)
        .map(|f| {
            work_dir
                .join(format!("{label}-feed-{f}.csv"))
                .display()
                .to_string()
        })
        .collect();
    let sink = dir.join("alarms.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_hddpred"))
        .arg("serve")
        .args(["--feed", &feeds.join(","), "--shards", "2"])
        .arg("--model")
        .arg(&model)
        .arg("--out")
        .arg(&sink)
        .args(["--exit-on-idle", "1", "--poll-ms", "2"])
        .output()
        .expect("spawn serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served = std::fs::read(&sink).expect("read alarm sink");
    assert_eq!(
        served,
        gauntlet.sink.as_bytes(),
        "hddpred serve and the gauntlet wrote different alarm sinks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
