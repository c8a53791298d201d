//! Smoke test: every workload and pass at 1/500 scale, the names this bin emits
//! against `/BENCHMARK.json`, and the oracle against a corrupted read.

use super::*;
use harness::{key, Model};

fn contract_names(list: &str) -> Vec<(String, String)> {
    let contract = serde_json::parse(CONTRACT).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = contract.get_field(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|item| {
            let text = |field| {
                let value = item.get_field(field).and_then(Value::as_str);
                value.unwrap_or_default().to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn names_and_units_are_the_contract() {
    assert_eq!(contract_names("end_to_end"), declared(&END_TO_END));
    assert_eq!(contract_names("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = contract_names("workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.0)
        .chain(WORKLOADS);
    for name in names {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
            "{name}"
        );
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn every_workload_is_correct_at_smoke_scale() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let dir = default_scratch_root().join(format!("smoke-{workload}-{traced}"));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let p = Params {
                seed: 7,
                seconds: 0.02,
                traced,
                dir: dir.clone(),
                tiny: true,
            };
            let outcome = run_workload(workload, &p);
            std::fs::remove_dir_all(&dir).expect("scratch dir removed");
            let outcome = outcome.unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
            assert_eq!(outcome.failed, 0, "{workload} traced={traced}");
            assert!(outcome.attempted > 0);
            let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            // Rejects a metric that is not declared or not finite.
            let line = result_line(&outcome, list).expect("result line");
            let result = serde_json::parse(&line).expect("result line is JSON");
            assert_eq!(result.get_field("correct"), Some(&Value::Bool(true)));
            if !traced {
                for (name, _) in END_TO_END {
                    let value = outcome.metrics.get(name).copied();
                    assert!(
                        value.is_some_and(|v| v > 0.0),
                        "{workload}: {name} = {value:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_oracle_catches_a_corrupted_read() {
    let mut scratch = Vec::new();
    let mut value = Vec::new();
    harness::fill_value(&mut value, 42, 3, 128);
    assert!(harness::value_is(&value, 42, 3, &mut scratch));
    assert!(
        !harness::value_is(&value, 42, 4, &mut scratch),
        "stale version"
    );
    assert!(
        !harness::value_is(&value, 43, 3, &mut scratch),
        "another key's value"
    );
    assert!(
        !harness::value_is(&value[..100], 42, 3, &mut scratch),
        "truncated"
    );
    let mut flipped = value.clone();
    flipped[77] ^= 0x10;
    assert!(
        !harness::value_is(&flipped, 42, 3, &mut scratch),
        "one flipped bit"
    );

    let mut model = Model::preloaded(0, 4);
    model.set(2, 2, false);
    let live = |idx: u64| {
        let mut v = Vec::new();
        harness::fill_value(&mut v, model.id(idx), 1, 64);
        (key(0, idx).to_vec(), v)
    };
    let good = vec![live(0), live(1), live(3)];
    assert!(model.range_matches(0, 4, &good, &mut scratch));
    let resurrected = vec![live(0), live(1), live(2), live(3)];
    assert!(!model.range_matches(0, 4, &resurrected, &mut scratch));
    assert!(
        !model.range_matches(0, 4, &good[..2], &mut scratch),
        "a key went missing"
    );
    assert!(
        !model.matches(2, Some(&good[0].1), &mut scratch),
        "deleted key read back"
    );
    assert!(
        !model.matches(0, None, &mut scratch),
        "live key read as absent"
    );
}

#[test]
fn a_power_cut_discards_exactly_the_writes_no_sync_covered() {
    use lss_core::device::{MemDevice, SegmentDevice};
    use lss_core::SegmentId;

    let (device, probe) = device::TimedDevice::new(MemDevice::new(64, 4));
    let image = |byte: u8| vec![byte; 64];
    let undo = |device: &dyn SegmentDevice| {
        for (seg, before) in probe.take_unsynced_preimages() {
            device.write_segment(seg, &before).expect("restore");
        }
    };
    device
        .write_segment(SegmentId(0), &image(1))
        .expect("write");
    device.sync().expect("sync");

    // The power fails at the second captured write: the first is covered by the sync
    // between them, the second and everything after it are not, whatever syncs follow.
    probe.capture_preimages(2);
    device
        .write_segment(SegmentId(1), &image(2))
        .expect("write");
    device.sync().expect("sync");
    assert!(!probe.power_is_cut());
    device
        .write_segment(SegmentId(0), &image(3))
        .expect("write");
    assert!(probe.power_is_cut());
    device.sync().expect("sync");
    device
        .write_segment(SegmentId(2), &image(4))
        .expect("write");
    device
        .write_segment(SegmentId(1), &image(5))
        .expect("write");
    device.sync().expect("sync");

    undo(&device);
    assert_eq!(device.read_segment(SegmentId(0)).expect("read"), image(1));
    assert_eq!(device.read_segment(SegmentId(1)).expect("read"), image(2));
    assert_eq!(device.read_segment(SegmentId(2)).expect("read"), image(0));
}
