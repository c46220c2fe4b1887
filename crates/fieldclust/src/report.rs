//! Markdown report generation: one human-readable document per
//! analysis, combining pseudo data types, semantics, message types and
//! value-domain summaries — the artifact an analyst hands around.

use crate::fuzzgen::ValueModel;
use crate::msgtype::{MessageTypeConfig, MessageTypeError, MessageTypes};
use crate::pipeline::{PipelineError, PseudoTypeClustering};
use crate::semantics::{interpret, ClusterSemantics, SemanticsConfig};
use crate::session::AnalysisSession;
use crate::stages::Stage;
use trace::Trace;

/// Inputs of a report; optional sections are skipped when absent.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportOptions {
    /// Number of example values listed per cluster.
    pub examples_per_cluster: usize,
    /// Include the value-domain (fuzzing) section.
    pub include_value_models: bool,
}

/// Drives `session` through every remaining stage and renders the
/// canonical full report: default semantics, default message typing
/// (skipped if it fails), three examples per cluster, value models.
///
/// This is the *single* rendering path shared by the offline CLI
/// (`fieldclust analyze --report`) and the `ftcd` daemon, so a
/// daemon-produced report is byte-identical to the offline run on the
/// same trace — pinned by the serve crate's loopback e2e test and the
/// check.sh daemon smoke test. Interpretation and rendering are the
/// session's `report` stage.
///
/// # Errors
///
/// Propagates the session's [`PipelineError`]; a failed message-type
/// analysis only omits that section. A tripped
/// [`CancelToken`](crate::CancelToken) surfaces as
/// [`PipelineError::Cancelled`] even from the message-type stage, so a
/// cancelled report job never renders a partial document.
pub fn standard_report(
    trace: &Trace,
    session: &mut AnalysisSession<'_>,
) -> Result<String, PipelineError> {
    // Message typing follows the field stages: they read its segment
    // matrix rather than build a neighbor index besides it.
    session.expect_message_types();
    session.staged(Stage::Report, |session| {
        let result = session.finish()?;
        let semantics = interpret(&result, trace, &SemanticsConfig::default());
        let message_types = match session.message_types(&MessageTypeConfig::default()) {
            Ok(t) => Some(t),
            Err(MessageTypeError::Cancelled) => return Err(PipelineError::Cancelled),
            Err(_) => None,
        };
        Ok(render_markdown(
            trace,
            &result,
            &semantics,
            message_types.as_ref(),
            &ReportOptions {
                examples_per_cluster: 3,
                include_value_models: true,
            },
        ))
    })
}

/// Renders a complete analysis report as Markdown.
///
/// `semantics` must be parallel to the clustering's cluster ids (as
/// produced by [`crate::semantics::interpret`]); `message_types` is
/// optional.
pub fn render_markdown(
    trace: &Trace,
    result: &PseudoTypeClustering,
    semantics: &[ClusterSemantics],
    message_types: Option<&MessageTypes>,
    options: &ReportOptions,
) -> String {
    let examples = options.examples_per_cluster.max(1);
    let coverage = result.coverage(trace);
    let mut out = String::with_capacity(4096);

    out.push_str(&format!("# Field type analysis: `{}`\n\n", trace.name()));
    out.push_str("## Summary\n\n");
    out.push_str(&format!(
        "| messages | payload bytes | unique segments | pseudo data types | noise segments | coverage | ε |\n\
         |---|---|---|---|---|---|---|\n\
         | {} | {} | {} | {} | {} | {:.1}% | {:.3} |\n\n",
        trace.len(),
        trace.total_payload_bytes(),
        result.store.segments.len(),
        result.clustering.n_clusters(),
        result.clustering.noise().len(),
        coverage.ratio() * 100.0,
        result.params.epsilon,
    ));

    out.push_str("## Pseudo data types\n\n");
    out.push_str("| id | hypothesis | confidence | values | occurrences | evidence | examples |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for (id, members) in result.clustering.clusters().iter().enumerate() {
        let occurrences: usize = members
            .iter()
            .map(|&m| result.store.segments[m].occurrences())
            .sum();
        let sample: Vec<String> = members
            .iter()
            .take(examples)
            .map(|&m| format!("`{}`", hex(&result.store.segments[m].value, 10)))
            .collect();
        let (hyp, conf, evidence) = semantics
            .get(id)
            .map(|s| (s.hypothesis.label(), s.confidence, s.evidence.as_str()))
            .unwrap_or(("?", 0.0, ""));
        out.push_str(&format!(
            "| {id} | {hyp} | {:.0}% | {} | {occurrences} | {} | {} |\n",
            conf * 100.0,
            members.len(),
            evidence,
            sample.join(" "),
        ));
    }
    out.push('\n');

    if let Some(mt) = message_types {
        out.push_str("## Message types\n\n");
        out.push_str(&format!(
            "{} message types over {} messages (ε = {:.3}, {} noise)\n\n",
            mt.clustering.n_clusters(),
            mt.clustering.len(),
            mt.epsilon,
            mt.clustering.noise().len()
        ));
        out.push_str("| type | messages | example (first 12 bytes) |\n|---|---|---|\n");
        for (id, members) in mt.clustering.clusters().iter().enumerate() {
            let sample = &trace.messages()[members[0]];
            out.push_str(&format!(
                "| {id} | {} | `{}` |\n",
                members.len(),
                hex(sample.payload(), 12)
            ));
        }
        out.push('\n');
    }

    if options.include_value_models {
        out.push_str("## Value domains (fuzzing input)\n\n");
        out.push_str("| type | training weight | observed lengths |\n|---|---|---|\n");
        for (id, model) in ValueModel::per_cluster(result).iter().enumerate() {
            let lens: Vec<String> = model
                .lengths()
                .iter()
                .map(|(l, c)| format!("{l}B×{c}"))
                .collect();
            out.push_str(&format!(
                "| {id} | {} | {} |\n",
                model.training_weight(),
                lens.join(", ")
            ));
        }
        out.push('\n');
    }

    out.push_str("---\n*generated by fieldclust*\n");
    out
}

fn hex(bytes: &[u8], max: usize) -> String {
    let mut s: String = bytes.iter().take(max).map(|b| format!("{b:02x}")).collect();
    if bytes.len() > max {
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgtype::{identify_message_types, MessageTypeConfig};
    use crate::semantics::{interpret, SemanticsConfig};
    use crate::truth::truth_segmentation;
    use crate::FieldTypeClusterer;
    use protocols::{corpus, Protocol};

    fn full_report() -> String {
        let trace = corpus::build_trace(Protocol::Ntp, 40, 13);
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let result = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        let semantics = interpret(&result, &trace, &SemanticsConfig::default());
        let mt = identify_message_types(&trace, &seg, &MessageTypeConfig::default()).unwrap();
        render_markdown(
            &trace,
            &result,
            &semantics,
            Some(&mt),
            &ReportOptions {
                examples_per_cluster: 2,
                include_value_models: true,
            },
        )
    }

    #[test]
    fn report_contains_all_sections() {
        let md = full_report();
        for heading in [
            "# Field type analysis",
            "## Summary",
            "## Pseudo data types",
            "## Message types",
            "## Value domains",
        ] {
            assert!(md.contains(heading), "missing {heading}:\n{md}");
        }
    }

    #[test]
    fn report_row_per_cluster() {
        let trace = corpus::build_trace(Protocol::Dns, 40, 14);
        let gt = corpus::ground_truth(Protocol::Dns, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let result = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        let semantics = interpret(&result, &trace, &SemanticsConfig::default());
        let md = render_markdown(&trace, &result, &semantics, None, &ReportOptions::default());
        // One table row per cluster: rows start with "| <id> |".
        for id in 0..result.clustering.n_clusters() {
            assert!(md.contains(&format!("| {id} | ")), "row {id} missing");
        }
        assert!(!md.contains("## Message types"));
        assert!(!md.contains("## Value domains"));
    }

    #[test]
    fn hex_helper_truncates() {
        assert_eq!(hex(&[0xAB], 4), "ab");
        assert_eq!(hex(&[1, 2, 3], 2), "0102…");
    }
}
