//! Report emission: turns aggregated trial records into the `results/`
//! artifacts — a deterministic JSON document (the machine-readable record
//! the resume gate compares bitwise) and a markdown summary.

use std::path::{Path, PathBuf};

use ct_tensor::codec::{atomic_write, fnv1a64};

use crate::agg::{aggregate_groups, paired_bootstrap, GroupAggregate, PairedBootstrap};
use crate::json::{self, Json};
use crate::ledger::TrialRecord;

/// Bootstrap resamples used for significance rows.
pub const BOOTSTRAP_ITERS: usize = 2000;

/// The metric significance tests run on (the paper's headline coherence).
pub const SIGNIFICANCE_METRIC: &str = "coh@100";

/// One ContraTopic-vs-baseline comparison.
pub struct SignificanceRow {
    /// Label of the ContraTopic-family group.
    pub candidate: String,
    /// Label of the baseline group.
    pub baseline: String,
    /// Metric compared.
    pub metric: String,
    /// The paired-bootstrap result.
    pub result: PairedBootstrap,
}

/// An experiment's aggregated results, ready to emit.
pub struct ExperimentReport {
    /// Experiment name (artifact file stem).
    pub name: String,
    /// Human title for the markdown heading.
    pub title: String,
    /// Per-configuration aggregates, in grid order.
    pub groups: Vec<GroupAggregate>,
    /// Paired-bootstrap comparisons of each ContraTopic-family group
    /// against every baseline sharing its dataset and seed set.
    pub significance: Vec<SignificanceRow>,
}

impl ExperimentReport {
    /// Aggregate `records` (grid-ordered, as returned by
    /// [`crate::sched::run_grid`]) and compute significance rows. Fully
    /// deterministic: bootstrap seeds derive from the group labels.
    pub fn build(name: &str, title: &str, records: &[TrialRecord]) -> Self {
        let groups = aggregate_groups(records);
        let mut significance = Vec::new();
        for cand in &groups {
            if !cand.spec.model.is_contratopic_family() || cand.n_ok < 2 {
                continue;
            }
            for base in &groups {
                if base.spec.model.is_contratopic_family()
                    || base.spec.preset != cand.spec.preset
                    || base.spec.scale != cand.spec.scale
                    || base.seeds != cand.seeds
                {
                    continue;
                }
                let (Some(cv), Some(bv)) = (
                    cand.per_seed.get(SIGNIFICANCE_METRIC),
                    base.per_seed.get(SIGNIFICANCE_METRIC),
                ) else {
                    continue;
                };
                let seed = fnv1a64(
                    format!(
                        "{}|{}|{SIGNIFICANCE_METRIC}",
                        cand.group_key, base.group_key
                    )
                    .as_bytes(),
                );
                significance.push(SignificanceRow {
                    candidate: group_label(cand),
                    baseline: group_label(base),
                    metric: SIGNIFICANCE_METRIC.to_string(),
                    result: paired_bootstrap(cv, bv, BOOTSTRAP_ITERS, seed),
                });
            }
        }
        Self {
            name: name.to_string(),
            title: title.to_string(),
            groups,
            significance,
        }
    }

    /// The deterministic JSON artifact. Contains no wall-clock or
    /// machine-dependent fields, so an interrupted-then-resumed sweep
    /// emits a byte-identical document to an uninterrupted one.
    pub fn to_json(&self) -> String {
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let metrics = g
                    .metrics
                    .iter()
                    .map(|(k, ms)| {
                        (
                            k.clone(),
                            Json::Obj(vec![
                                ("mean".to_string(), Json::Num(ms.mean)),
                                ("std".to_string(), Json::Num(ms.std)),
                            ]),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("label".to_string(), Json::Str(group_label(g))),
                    (
                        "model".to_string(),
                        Json::Str(g.spec.model.id().to_string()),
                    ),
                    (
                        "preset".to_string(),
                        Json::Str(crate::spec::preset_id(g.spec.preset).to_string()),
                    ),
                    (
                        "scale".to_string(),
                        Json::Str(g.spec.scale.id().to_string()),
                    ),
                    (
                        "seeds".to_string(),
                        Json::Arr(g.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ),
                    ("n_ok".to_string(), Json::Num(g.n_ok as f64)),
                    ("n_total".to_string(), Json::Num(g.n_total as f64)),
                    ("metrics".to_string(), Json::Obj(metrics)),
                ])
            })
            .collect();
        let significance = self
            .significance
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("candidate".to_string(), Json::Str(row.candidate.clone())),
                    ("baseline".to_string(), Json::Str(row.baseline.clone())),
                    ("metric".to_string(), Json::Str(row.metric.clone())),
                    ("n".to_string(), Json::Num(row.result.n as f64)),
                    ("delta".to_string(), Json::Num(row.result.delta)),
                    (
                        "p_improved".to_string(),
                        match row.result.p_improved {
                            Some(p) => Json::Num(p),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("experiment".to_string(), Json::Str(self.name.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("groups".to_string(), Json::Arr(groups)),
            ("significance".to_string(), Json::Arr(significance)),
        ]);
        let mut out = doc.emit();
        out.push('\n');
        out
    }

    /// Markdown summary: one row per configuration, mean±std cells where
    /// more than one seed completed, plus the significance table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n\n", self.title));
        // Headline columns: the coherence/diversity endpoints plus the
        // largest-k clustering metrics any group reports.
        let mut columns: Vec<String> = ["coh@10", "coh@50", "coh@100", "div@10", "div@100"]
            .iter()
            .map(|s| s.to_string())
            .filter(|c| self.groups.iter().any(|g| g.metrics.contains_key(c)))
            .collect();
        for prefix in ["pur@k", "nmi@k"] {
            if let Some(best) = self
                .groups
                .iter()
                .flat_map(|g| g.metrics.keys())
                .filter(|k| k.starts_with(prefix))
                .max_by_key(|k| k[prefix.len()..].parse::<usize>().unwrap_or(0))
            {
                columns.push(best.clone());
            }
        }
        out.push_str(&format!(
            "| configuration | seeds | {} |\n",
            columns.join(" | ")
        ));
        out.push_str(&format!("|---|---|{}\n", "---|".repeat(columns.len())));
        for g in &self.groups {
            let cells: Vec<String> = columns
                .iter()
                .map(|c| match g.metrics.get(c) {
                    Some(ms) => ms.display(),
                    None if g.n_ok == 0 => "diverged".to_string(),
                    None => "—".to_string(),
                })
                .collect();
            out.push_str(&format!(
                "| {} | {}/{} | {} |\n",
                group_label(g),
                g.n_ok,
                g.n_total,
                cells.join(" | ")
            ));
        }
        if !self.significance.is_empty() {
            out.push_str("\n## Paired bootstrap (");
            out.push_str(SIGNIFICANCE_METRIC);
            out.push_str(")\n\n| candidate | baseline | Δ | p(improved) |\n|---|---|---|---|\n");
            for row in &self.significance {
                let p = match row.result.p_improved {
                    Some(p) => format!("{p:.3}"),
                    None => "n/a (1 seed)".to_string(),
                };
                out.push_str(&format!(
                    "| {} | {} | {:+.4} | {} |\n",
                    row.candidate, row.baseline, row.result.delta, p
                ));
            }
        }
        out.push_str(
            "\nTrials shared with other experiments are served from the run ledger \
             and trained once.\n",
        );
        out
    }

    /// Write `exp_<name>.json` and `exp_<name>.md` under `dir`, each
    /// atomically (a crash leaves the previous report, never a torn one),
    /// returning the two paths.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("exp_{}.json", self.name));
        let md_path = dir.join(format!("exp_{}.md", self.name));
        atomic_write(&json_path, |w| w.write_all(self.to_json().as_bytes()))?;
        atomic_write(&md_path, |w| w.write_all(self.to_markdown().as_bytes()))?;
        Ok((json_path, md_path))
    }
}

/// Human label for a group: the model name plus dataset and any
/// non-default ContraTopic parameters.
pub fn group_label(g: &GroupAggregate) -> String {
    let mut label = format!(
        "{} / {}",
        g.spec.model.name(),
        crate::spec::preset_id(g.spec.preset)
    );
    if let Some(ct) = &g.spec.ct {
        let defaults = crate::spec::CtParams::preset_default(g.spec.preset);
        if ct.variant != defaults.variant {
            label.push_str(&format!(" [{}]", crate::spec::variant_id(ct.variant)));
        }
        if ct.lambda != defaults.lambda {
            label.push_str(&format!(" λ={}", ct.lambda));
        }
        if ct.v != defaults.v {
            label.push_str(&format!(" v={}", ct.v));
        }
    }
    if let Some(epochs) = g.spec.epochs {
        label.push_str(&format!(" ep={epochs}"));
    }
    label
}

/// One parsed report group: its display label and `(metric, mean)` pairs.
pub type GroupMeans = (String, Vec<(String, f64)>);

/// Convenience wrapper: parse a previously written aggregate JSON back into
/// (group label → metric → mean) for downstream tooling and tests.
pub fn parse_group_means(doc: &str) -> Result<Vec<GroupMeans>, String> {
    let v = json::parse(doc)?;
    let groups = v.get("groups").and_then(Json::as_arr).ok_or("no groups")?;
    groups
        .iter()
        .map(|g| {
            let label = g
                .get("label")
                .and_then(Json::as_str)
                .ok_or("group missing label")?
                .to_string();
            let metrics = match g.get("metrics") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .map(|(k, m)| {
                        m.get("mean")
                            .and_then(Json::as_f64)
                            .map(|mean| (k.clone(), mean))
                            .ok_or_else(|| format!("metric {k} missing mean"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            Ok((label, metrics))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::TrialOutcome;
    use crate::spec::{ModelKind, TrialSpec};
    use ct_corpus::{DatasetPreset, Scale};
    use std::collections::BTreeMap;

    fn record(model: ModelKind, seed: u64, coh: f64) -> TrialRecord {
        let spec = TrialSpec::baseline(model, DatasetPreset::Ng20Like, Scale::Tiny, seed);
        let mut metrics = BTreeMap::new();
        metrics.insert("coh@100".to_string(), coh);
        metrics.insert("div@100".to_string(), 0.8);
        TrialRecord {
            key: spec.key(),
            spec,
            outcome: TrialOutcome::Ok,
            attempt: 0,
            fallback_seed: None,
            wall_ms: 5,
            skipped_batches: 0,
            metrics,
            topics: Vec::new(),
        }
    }

    fn sample_records() -> Vec<TrialRecord> {
        vec![
            record(ModelKind::Etm, 42, 0.10),
            record(ModelKind::Etm, 43, 0.12),
            record(ModelKind::ContraTopic, 42, 0.20),
            record(ModelKind::ContraTopic, 43, 0.24),
        ]
    }

    #[test]
    fn report_compares_contratopic_to_each_baseline() {
        let report = ExperimentReport::build("t", "Test", &sample_records());
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.significance.len(), 1);
        let row = &report.significance[0];
        assert!(row.candidate.contains("ContraTopic"));
        assert!(row.baseline.contains("ETM"));
        assert!((row.result.delta - 0.11).abs() < 1e-12);
        assert!(row.result.p_improved.unwrap() > 0.9);
    }

    #[test]
    fn json_is_stable_and_excludes_wall_clock() {
        let a = ExperimentReport::build("t", "Test", &sample_records()).to_json();
        let mut tweaked = sample_records();
        for r in &mut tweaked {
            r.wall_ms += 1000;
        }
        let b = ExperimentReport::build("t", "Test", &tweaked).to_json();
        assert_eq!(a, b, "wall-clock noise must not reach the artifact");
        assert!(!a.contains("wall_ms"));
    }

    #[test]
    fn markdown_uses_mean_std_for_multi_seed() {
        let md = ExperimentReport::build("t", "Test", &sample_records()).to_markdown();
        assert!(md.contains("±"), "{md}");
        assert!(md.contains("| ETM / 20ng | 2/2 |"), "{md}");
    }

    #[test]
    fn aggregate_json_roundtrips_group_means() {
        let doc = ExperimentReport::build("t", "Test", &sample_records()).to_json();
        let parsed = parse_group_means(&doc).unwrap();
        assert_eq!(parsed.len(), 2);
        let (label, metrics) = &parsed[0];
        assert!(label.contains("ETM"));
        let coh = metrics.iter().find(|(k, _)| k == "coh@100").unwrap().1;
        assert!((coh - 0.11).abs() < 1e-12);
    }
}
