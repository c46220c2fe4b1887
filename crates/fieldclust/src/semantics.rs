//! Semantic interpretation of pseudo data types (the paper's §V future
//! work: "combine our data type clustering with the deduction of intra-
//! and inter-message semantics similar to FieldHunter — this would
//! enable the interpretation of, e.g., length fields and message counter
//! fields").
//!
//! Each cluster is examined as a whole: because a pseudo data type
//! aggregates *all* segments of one field type, statistics that are
//! meaningless for a single segment (value-vs-length correlation,
//! monotonicity over capture time, endpoint-address equality) become
//! robust at the cluster level. The result is a [`SemanticHypothesis`]
//! per cluster with supporting evidence — exactly the artifact an
//! analyst starts from.

use crate::pipeline::PseudoTypeClustering;
use mathkit::stats;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use trace::{Addr, Trace};

/// A semantic hypothesis for one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticHypothesis {
    /// A single distinct value: magic numbers, version constants, fill.
    Constant,
    /// Values are all zero bytes.
    PaddingLike,
    /// Values correlate with the containing message's length.
    Length,
    /// Values increase over capture time.
    Counter,
    /// Wide fields whose numeric value advances with capture time while
    /// sharing high-order bytes: wall-clock-like.
    Timestamp,
    /// Values match an endpoint address of their own message.
    Address,
    /// Predominantly printable characters.
    Text,
    /// Few distinct values spread over many messages.
    Enumeration,
    /// Many distinct, high-entropy values: identifiers, nonces, hashes.
    Identifier,
    /// Nothing matched with confidence.
    Unknown,
}

impl SemanticHypothesis {
    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SemanticHypothesis::Constant => "constant",
            SemanticHypothesis::PaddingLike => "padding",
            SemanticHypothesis::Length => "length",
            SemanticHypothesis::Counter => "counter",
            SemanticHypothesis::Timestamp => "timestamp",
            SemanticHypothesis::Address => "address",
            SemanticHypothesis::Text => "text",
            SemanticHypothesis::Enumeration => "enumeration",
            SemanticHypothesis::Identifier => "identifier",
            SemanticHypothesis::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for SemanticHypothesis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The semantic report for one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSemantics {
    /// Cluster id within the clustering.
    pub cluster: usize,
    /// Best hypothesis.
    pub hypothesis: SemanticHypothesis,
    /// Score of the winning rule in `[0, 1]`.
    pub confidence: f64,
    /// Human-readable evidence, e.g. `"r = 0.97 with message length"`.
    pub evidence: String,
}

/// Thresholds of the semantic rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SemanticsConfig {
    /// Minimum |Pearson r| between value and message length for
    /// [`SemanticHypothesis::Length`].
    pub length_correlation: f64,
    /// Minimum fraction of non-decreasing time-ordered steps for
    /// counters/timestamps.
    pub monotone_fraction: f64,
    /// Minimum fraction of printable bytes for text. DNS-style encoded
    /// names carry ~1 framing byte per label, so the default leaves
    /// room for them.
    pub printable_fraction: f64,
    /// Maximum distinct/instances ratio for an enumeration.
    pub enum_diversity: f64,
    /// Minimum normalized value entropy for identifiers.
    pub id_entropy: f64,
}

impl Default for SemanticsConfig {
    fn default() -> Self {
        Self {
            length_correlation: 0.9,
            monotone_fraction: 0.95,
            printable_fraction: 0.75,
            enum_diversity: 0.1,
            id_entropy: 0.9,
        }
    }
}

/// Interprets every cluster of a pseudo-data-type clustering.
pub fn interpret(
    result: &PseudoTypeClustering,
    trace: &Trace,
    config: &SemanticsConfig,
) -> Vec<ClusterSemantics> {
    result
        .clustering
        .clusters()
        .iter()
        .enumerate()
        .map(|(id, members)| interpret_cluster(id, members, result, trace, config))
        .collect()
}

/// All `(timestamp, numeric value, message index, value bytes)` samples
/// of a cluster, in capture order.
struct ClusterSamples<'a> {
    rows: Vec<(u64, u128, usize, &'a [u8])>,
    distinct: usize,
    total_instances: usize,
}

fn collect<'a>(
    members: &[usize],
    result: &'a PseudoTypeClustering,
    trace: &Trace,
) -> ClusterSamples<'a> {
    let mut rows = Vec::new();
    let mut total = 0;
    for &m in members {
        let seg = &result.store.segments[m];
        for inst in &seg.instances {
            let msg = &trace.messages()[inst.message];
            let value = be_value(&seg.value);
            rows.push((msg.timestamp_micros(), value, inst.message, &seg.value[..]));
            total += 1;
        }
    }
    rows.sort_by_key(|&(t, _, _, _)| t);
    ClusterSamples {
        rows,
        distinct: members.len(),
        total_instances: total,
    }
}

/// The most frequent of `widths` and its count. Equal counts go to the
/// narrowest width, so the pick depends on the widths alone, never on
/// their order or a hash seed.
fn modal_width(widths: impl IntoIterator<Item = usize>) -> Option<(usize, usize)> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for width in widths {
        *counts.entry(width).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(width, count)| (count, Reverse(width)))
}

fn be_value(bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .take(16)
        .fold(0u128, |acc, &b| acc << 8 | u128::from(b))
}

fn le_value(bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .take(16)
        .rev()
        .fold(0u128, |acc, &b| acc << 8 | u128::from(b))
}

fn interpret_cluster(
    id: usize,
    members: &[usize],
    result: &PseudoTypeClustering,
    trace: &Trace,
    config: &SemanticsConfig,
) -> ClusterSemantics {
    let samples = collect(members, result, trace);
    let report = |hypothesis, confidence: f64, evidence: String| ClusterSemantics {
        cluster: id,
        hypothesis,
        // Entropy/correlation estimates can exceed 1 by float error.
        confidence: confidence.clamp(0.0, 1.0),
        evidence,
    };

    // Constant / padding first: they trivially satisfy later rules.
    if samples.distinct == 1 {
        let value = samples.rows[0].3;
        if value.iter().all(|&b| b == 0) {
            return report(
                SemanticHypothesis::PaddingLike,
                1.0,
                format!("single all-zero value of {} bytes", value.len()),
            );
        }
        return report(
            SemanticHypothesis::Constant,
            1.0,
            format!(
                "single value across {} occurrences",
                samples.total_instances
            ),
        );
    }

    // Address: values equal an endpoint address of their own message.
    let addr_hits = samples
        .rows
        .iter()
        .filter(|&&(_, _, mi, bytes)| {
            let msg = &trace.messages()[mi];
            [msg.source().addr, msg.destination().addr]
                .iter()
                .any(|a| match a {
                    Addr::Ipv4(ip) => bytes == &ip[..],
                    Addr::Mac(mac) => bytes == &mac[..],
                })
        })
        .count();
    let addr_fraction = addr_hits as f64 / samples.total_instances as f64;
    if addr_fraction >= 0.5 {
        return report(
            SemanticHypothesis::Address,
            addr_fraction,
            format!(
                "{addr_hits} of {} values equal an endpoint address",
                samples.total_instances
            ),
        );
    }

    // Length: numeric value correlates with the message length (try both
    // byte orders).
    let lens: Vec<f64> = samples
        .rows
        .iter()
        .map(|&(_, _, mi, _)| trace.messages()[mi].payload().len() as f64)
        .collect();
    for (endian, vals) in [
        (
            "big-endian",
            samples
                .rows
                .iter()
                .map(|r| be_value(r.3) as f64)
                .collect::<Vec<_>>(),
        ),
        (
            "little-endian",
            samples
                .rows
                .iter()
                .map(|r| le_value(r.3) as f64)
                .collect::<Vec<_>>(),
        ),
    ] {
        if let Some(r) = stats::pearson(&vals, &lens) {
            if r >= config.length_correlation {
                return report(
                    SemanticHypothesis::Length,
                    r,
                    format!("{endian} value correlates with message length (r = {r:.2})"),
                );
            }
        }
    }

    // Text: printable bytes dominate.
    let (printable, bytes_total) = samples.rows.iter().fold((0usize, 0usize), |(p, t), r| {
        let printable = r.3.iter().filter(|&&b| (0x20..0x7F).contains(&b)).count();
        (p + printable, t + r.3.len())
    });
    let printable_fraction = printable as f64 / bytes_total.max(1) as f64;
    if printable_fraction >= config.printable_fraction {
        return report(
            SemanticHypothesis::Text,
            printable_fraction,
            format!("{:.0}% printable characters", printable_fraction * 100.0),
        );
    }

    // Counter / timestamp: values advance with capture time. A message
    // may carry several instances of the type (e.g. NTP's reference/
    // receive/transmit timestamps), so compare one representative (the
    // maximum) per capture instant; stray segments of other widths (an
    // occasionally absorbed digest or fragment) are ignored by filtering
    // to the dominant width.
    if let Some((modal_width, modal_count)) = modal_width(samples.rows.iter().map(|r| r.3.len())) {
        if modal_count * 2 >= samples.total_instances {
            for endian in ["big-endian", "little-endian"] {
                let read = |bytes: &[u8]| {
                    if endian == "big-endian" {
                        be_value(bytes)
                    } else {
                        le_value(bytes)
                    }
                };
                let mut series: Vec<(u64, u128)> = Vec::new();
                for &(t, _, _, bytes) in &samples.rows {
                    if bytes.len() != modal_width {
                        continue;
                    }
                    match series.last_mut() {
                        Some((lt, lv)) if *lt == t => *lv = (*lv).max(read(bytes)),
                        _ => series.push((t, read(bytes))),
                    }
                }
                let steps = series.len().saturating_sub(1);
                if steps < 4 {
                    break;
                }
                let non_decreasing = series.windows(2).filter(|w| w[1].1 >= w[0].1).count();
                let fraction = non_decreasing as f64 / steps as f64;
                if fraction >= config.monotone_fraction {
                    let hypothesis = if modal_width >= 4 {
                        SemanticHypothesis::Timestamp
                    } else {
                        SemanticHypothesis::Counter
                    };
                    return report(
                        hypothesis,
                        fraction,
                        format!(
                            "{endian} values non-decreasing over time ({non_decreasing}/{steps} steps)"
                        ),
                    );
                }
            }
        }
    }

    // Enumeration vs identifier: value diversity.
    let diversity = samples.distinct as f64 / samples.total_instances as f64;
    if diversity <= config.enum_diversity && samples.distinct <= 32 {
        return report(
            SemanticHypothesis::Enumeration,
            1.0 - diversity,
            format!(
                "{} distinct values over {} occurrences",
                samples.distinct, samples.total_instances
            ),
        );
    }
    let values: Vec<&[u8]> = samples.rows.iter().map(|r| r.3).collect();
    let entropy = stats::normalized_value_entropy(&values);
    if entropy >= config.id_entropy {
        return report(
            SemanticHypothesis::Identifier,
            entropy,
            format!("normalized value entropy {entropy:.2}"),
        );
    }

    report(
        SemanticHypothesis::Unknown,
        0.0,
        "no rule matched".to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FieldTypeClusterer;
    use crate::truth::truth_segmentation;
    use protocols::{corpus, FieldKind, Protocol};

    fn semantics_for(
        protocol: Protocol,
        n: usize,
    ) -> (Vec<ClusterSemantics>, Vec<Option<FieldKind>>) {
        let trace = corpus::build_trace(protocol, n, 5);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let result = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        let sems = interpret(&result, &trace, &SemanticsConfig::default());
        // Dominant true kind per cluster, for checking hypotheses.
        let labels = crate::truth::label_store(&result.store, &gt);
        let kinds: Vec<Option<FieldKind>> = result
            .clustering
            .clusters()
            .iter()
            .map(|members| {
                let mut counts: BTreeMap<FieldKind, usize> = BTreeMap::new();
                for &m in members {
                    *counts.entry(labels[m]).or_insert(0) += 1;
                }
                counts
                    .into_iter()
                    .max_by_key(|&(k, c)| (c, Reverse(k)))
                    .map(|(k, _)| k)
            })
            .collect();
        (sems, kinds)
    }

    #[test]
    fn ntp_timestamp_cluster_is_recognized() {
        let (sems, kinds) = semantics_for(Protocol::Ntp, 80);
        let ts_clusters: Vec<_> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == Some(FieldKind::Timestamp))
            .map(|(i, _)| i)
            .collect();
        assert!(!ts_clusters.is_empty(), "no timestamp-dominated cluster");
        let hit = ts_clusters.iter().any(|&c| {
            matches!(
                sems[c].hypothesis,
                SemanticHypothesis::Timestamp | SemanticHypothesis::Counter
            )
        });
        assert!(hit, "semantics: {:?}", sems);
    }

    #[test]
    fn au_trace_yields_interpretable_clusters() {
        // AU's per-session sequence resets, so global monotonicity need
        // not hold; but the trace must still yield meaningful labels:
        // padding/constants plus either a time-like or an enumeration/
        // identifier cluster.
        let (sems, _) = semantics_for(Protocol::Au, 12);
        assert!(
            sems.iter().any(|s| matches!(
                s.hypothesis,
                SemanticHypothesis::Counter
                    | SemanticHypothesis::Timestamp
                    | SemanticHypothesis::Enumeration
                    | SemanticHypothesis::Identifier
            )),
            "{sems:?}"
        );
        assert!(sems
            .iter()
            .all(|s| s.hypothesis != SemanticHypothesis::Unknown || s.confidence == 0.0));
    }

    #[test]
    fn dns_names_are_text_like() {
        let (sems, kinds) = semantics_for(Protocol::Dns, 80);
        let name_clusters: Vec<_> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == Some(FieldKind::DomainName))
            .map(|(i, _)| i)
            .collect();
        // DNS-encoded names are length-prefixed labels: mostly printable.
        if !name_clusters.is_empty() {
            let hit = name_clusters
                .iter()
                .any(|&c| sems[c].hypothesis == SemanticHypothesis::Text);
            assert!(
                hit,
                "{:?}",
                name_clusters.iter().map(|&c| &sems[c]).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn every_cluster_gets_a_report() {
        for protocol in [Protocol::Ntp, Protocol::Dhcp] {
            let (sems, kinds) = semantics_for(protocol, 60);
            assert_eq!(sems.len(), kinds.len());
            for (i, s) in sems.iter().enumerate() {
                assert_eq!(s.cluster, i);
                assert!((0.0..=1.0).contains(&s.confidence));
                assert!(!s.evidence.is_empty());
            }
        }
    }

    #[test]
    fn tied_widths_pick_the_narrowest_in_any_order() {
        // Two widths with equal counts (as in an AWDL cluster of 23
        // six-byte and 23 seven-byte segments): the pick must not follow
        // the order the widths are counted in.
        let widths = [6, 7, 6, 7, 7, 6];
        assert_eq!(modal_width(widths), Some((6, 3)));
        assert_eq!(modal_width(widths.into_iter().rev()), Some((6, 3)));
        assert_eq!(modal_width([7, 7, 7, 6, 6, 6]), Some((6, 3)));
        assert_eq!(modal_width([9, 7, 7, 6]), Some((7, 2)));
        assert_eq!(modal_width([]), None);
    }

    #[test]
    fn hypothesis_labels_are_stable() {
        assert_eq!(SemanticHypothesis::Length.label(), "length");
        assert_eq!(SemanticHypothesis::PaddingLike.to_string(), "padding");
    }
}
