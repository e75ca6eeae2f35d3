//! Fig 17 (Appendix E) — contribution of individual blocklist categories.
//!
//! Retrains Xatu with only one blocklist category feeding the A1 signal at
//! a time (plus a no-blocklist baseline), reporting effectiveness at the
//! 0.1 % bound. The paper finds the DDoS-source, bot and scanner lists
//! contribute most; DNS-amp and ICMP attacks benefit little.

use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_features::blocklist::BlocklistCategory;
use xatu_metrics::percentile::Summary;
use xatu_metrics::table::Table;

/// Category subsets exercised (a full 11-way sweep retrains 12 models;
/// grouped variants keep the runtime reasonable while preserving the
/// figure's comparison structure).
const VARIANTS: [(&str, &[BlocklistCategory]); 6] = [
    ("none", &[]),
    ("ddos-source only", &[BlocklistCategory::DdosSource]),
    (
        "bots only",
        &[
            BlocklistCategory::BotMirai,
            BlocklistCategory::BotGafgyt,
            BlocklistCategory::BotIot,
        ],
    ),
    ("scanner only", &[BlocklistCategory::Scanner]),
    (
        "other lists",
        &[
            BlocklistCategory::Reflector,
            BlocklistCategory::Voip,
            BlocklistCategory::CommandAndControl,
            BlocklistCategory::Spam,
            BlocklistCategory::Bruteforce,
            BlocklistCategory::Community,
        ],
    ),
    ("all 11 categories", &BlocklistCategory::ALL),
];

/// Runs the Fig 17 blocklist-category sweep.
pub fn run(seed: u64) -> String {
    let mut table = Table::new(
        "Fig 17: blocklist-category contribution (A1 restricted; 0.1% bound)",
        &["categories", "eff p10", "eff median", "detected"],
    );

    for (name, cats) in VARIANTS {
        let mut cfg = PipelineConfig::mini(seed);
        cfg.with_rf = false;
        cfg.overhead_bound = 0.1;
        cfg.with_fnm = false;
        // Restrict A1 to the chosen categories via the pipeline's
        // category filter.
        cfg.blocklist_categories = Some(BlocklistCategorySet::from(cats));
        let report = Pipeline::new(cfg).run();
        let xatu = report.system("Xatu").expect("xatu evaluated");
        let eff = Summary::p10_50_90(&xatu.effectiveness_values());
        table.row(&[
            name.to_string(),
            format!("{:.1}%", 100.0 * eff.lo),
            format!("{:.1}%", 100.0 * eff.median),
            format!("{}/{}", xatu.detected, xatu.delay.total()),
        ]);
    }

    format!(
        "{}\n(paper shape: the prevalent categories each recover most of the A1 benefit; \
         the tail categories together match them; effectiveness without any blocklist is \
         lowest at the p10)\n",
        table.render()
    )
}

use xatu_core::pipeline::BlocklistCategorySet;
