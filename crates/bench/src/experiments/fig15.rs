//! Fig 15 (Appendix B) — re-appearance of attacker sources over the days
//! before an attack.
//!
//! For each ground-truth attack, audit the preparation traffic: what
//! fraction of the eventual attack sources (by /24) are already probing
//! the victim `d` days before the onset. The paper's shape: participation
//! rises monotonically toward the attack.

use std::collections::{HashMap, HashSet};
use xatu_core::pipeline::PipelineConfig;
use xatu_metrics::percentile::Summary;
use xatu_metrics::table::Table;
use xatu_netflow::addr::Subnet24;
use xatu_netflow::MINUTES_PER_DAY;
use xatu_simnet::World;

/// Runs the Fig 15 audit.
pub fn run(seed: u64) -> String {
    let cfg = PipelineConfig::sweep(seed);
    let mut world = World::new(cfg.world);
    let events: Vec<xatu_simnet::AttackEvent> = world.events().to_vec();

    let mut day_sets: HashMap<usize, HashMap<u32, HashSet<Subnet24>>> = HashMap::new();
    let mut attack_sets: HashMap<usize, HashSet<Subnet24>> = HashMap::new();

    while !world.finished() {
        let bins = world.step();
        let minute = bins[0].minute;
        for bin in &bins {
            for e in &events {
                if e.victim != bin.customer || minute < e.prep_start || minute >= e.end {
                    continue;
                }
                let sig = e.attack_type.signature();
                for f in &bin.flows {
                    if !sig.matches(f) {
                        continue;
                    }
                    // Only attacker-space sources (botnets 60/8, resolvers
                    // 70/8) count toward re-appearance.
                    let o = f.src.octets()[0];
                    if o != 60 && o != 70 {
                        continue;
                    }
                    if minute >= e.onset {
                        attack_sets
                            .entry(e.id)
                            .or_default()
                            .insert(f.src.subnet24());
                    } else {
                        let days_out = (e.onset - minute) / MINUTES_PER_DAY;
                        day_sets
                            .entry(e.id)
                            .or_default()
                            .entry(days_out)
                            .or_default()
                            .insert(f.src.subnet24());
                    }
                }
            }
        }
    }

    let mut table = Table::new(
        "Fig 15: % of eventual attack sources probing d days before onset",
        &["days before", "p25", "median", "p75", "events"],
    );
    let max_day = (cfg.world.prep_days as u32).min(10);
    for d in (0..max_day).rev() {
        let mut fracs = Vec::new();
        for (id, attackers) in &attack_sets {
            if attackers.is_empty() {
                continue;
            }
            let Some(days) = day_sets.get(id) else {
                continue;
            };
            let active = days
                .get(&d)
                .map_or(0, |set| set.intersection(attackers).count());
            // Only events whose prep phase covers this bucket.
            if days.keys().any(|&k| k >= d) || active > 0 {
                fracs.push(active as f64 / attackers.len() as f64);
            }
        }
        if fracs.is_empty() {
            continue;
        }
        let s = Summary::p25_50_75(&fracs);
        table.row(&[
            format!("-{}", d + 1),
            format!("{:.1}%", 100.0 * s.lo),
            format!("{:.1}%", 100.0 * s.median),
            format!("{:.1}%", 100.0 * s.hi),
            format!("{}", s.n),
        ]);
    }
    format!(
        "{}\n(paper shape: re-appearance rises monotonically as the onset nears)\n",
        table.render()
    )
}
