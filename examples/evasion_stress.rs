//! Evasion stress test: how does detection hold up against attackers that
//! manipulate their ramp-up (the §6.4 "smart attackers")?
//!
//! ```text
//! cargo run --release --example evasion_stress
//! ```
//!
//! Three adversaries are simulated against the same seeded world:
//!
//! * baseline — the normal attacker population,
//! * volume-changer — anomalous ramp traffic scaled to 25 %,
//! * prep-silent — an attacker that suppresses preparation probing
//!   entirely (the §8 "determined attacker" discussion).
//!
//! For each, the example reports how the NetScout-style CDet fares on its
//! own, which is the backdrop against which Xatu's boost matters.

use xatu::core::eval::{build_ground_truth, evaluate_system, intervals_of, VolumeStore};
use xatu::detectors::alert::AlertLog;
use xatu::detectors::netscout::NetScout;
use xatu::detectors::traits::Detector;
use xatu::simnet::{scenario, World};
use xatu_metrics::percentile::Summary;

fn run_world(cfg: xatu::simnet::WorldConfig, label: &str) {
    let mut world = World::new(cfg);
    let total = world.total_minutes();
    let mut volumes = VolumeStore::new(total);
    let mut netscout = NetScout::new();
    let mut alerts = AlertLog::default();

    while !world.finished() {
        let bins = world.step();
        let minute = bins[0].minute;
        for bin in &bins {
            volumes.record(bin);
            let live = volumes.channels(bin.customer, minute);
            for obs in live.iter().filter(|obs| obs.bytes > 0.0) {
                for ev in netscout.observe(obs) {
                    alerts.apply(&ev);
                }
            }
        }
    }
    let alerts = alerts.0;

    let gt = build_ground_truth(&alerts, &volumes);
    let scheduled = world.events().len();
    let eval = evaluate_system(
        "CDet",
        &intervals_of(&alerts, total),
        &gt,
        &volumes,
        0,
        total,
    );
    let eff = Summary::p10_50_90(&eval.effectiveness_values());
    println!(
        "{label:>16}: {scheduled:>3} attacks scheduled, {} CDet alerts | \
         eff med {:5.1}% | delay med {:+.1} min",
        alerts.len(),
        100.0 * eff.median,
        eval.delay.summary().median,
    );
}

fn main() {
    let seed = 21;
    println!("CDet-alone performance under three attacker behaviours:\n");
    run_world(scenario::sweep(seed), "baseline");
    run_world(scenario::volume_changing(seed, 0.25), "volume-changer");
    run_world(scenario::no_prep(seed), "prep-silent");
    println!(
        "\nThe volume-changer starves the threshold detector of ramp signal (later alerts, \
         lower effectiveness); the prep-silent attacker is invisible to auxiliary signals \
         but fully visible to volumetric detection — the complementarity Xatu exploits. \
         Run `cargo run --release -p xatu-bench --bin figures -- fig13` for the full \
         Xatu-vs-no-aux comparison."
    );
}
