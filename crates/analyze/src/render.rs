//! Text / JSON / CSV renders of an [`Analysis`] plus bound curves over
//! processor counts.

use crate::bounds::Analysis;
use extrap_time::json_escape;

/// Output format of `extrap analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable tables.
    Text,
    /// Single-line machine-readable JSON.
    Json,
    /// Comma-separated epoch rows followed by curve rows.
    Csv,
}

impl Format {
    /// Parses a format name (`text` / `json` / `csv`); the one mapping
    /// `extrap analyze --format` and the serving protocol both use.
    pub fn parse(v: &str) -> Option<Format> {
        match v {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }
}

/// One point of the bound-curve sweep: the same workload analyzed at a
/// different thread/processor count.
#[derive(Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Thread count the workload was regenerated at.
    pub n: usize,
    /// The analysis at that count.
    pub analysis: Analysis,
}

/// Renders `analysis` (and optional scaling `curve`) in `format`.
pub fn render(label: &str, analysis: &Analysis, curve: &[CurvePoint], format: Format) -> String {
    match format {
        Format::Text => render_text(label, analysis, curve),
        Format::Json => render_json(label, analysis, curve),
        Format::Csv => render_csv(label, analysis, curve),
    }
}

fn render_text(label: &str, a: &Analysis, curve: &[CurvePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "analysis: {label}\n\
         threads {t}  procs {p}  barriers {b}\n\
         work {w} ns  span {s} ns  upper {u} ns\n\
         speedup bounds [{sl:.3}, {su:.3}]  fmax {f:.3}  slack {g} ns  messages {m}\n",
        t = a.n_threads,
        p = a.n_procs,
        b = a.n_barriers,
        w = a.total_work.as_ns(),
        s = a.span.as_ns(),
        u = a.upper.as_ns(),
        sl = a.speedup_lower(),
        su = a.speedup_upper(),
        f = a.fmax,
        g = a.slack.as_ns(),
        m = a.messages,
    ));
    out.push_str("-- epochs --\n");
    out.push_str("epoch  barrier  work-ns  busiest-ns  imbalance  reads  writes\n");
    for e in &a.epochs {
        let barrier = e
            .barrier
            .map(|b| b.0.to_string())
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>7}  {:>10}  {:>9.3}  {:>5}  {:>6}\n",
            e.index,
            barrier,
            e.work.as_ns(),
            e.busiest.as_ns(),
            e.imbalance,
            e.reads,
            e.writes,
        ));
    }
    if !curve.is_empty() {
        out.push_str("-- bound curves --\n");
        out.push_str("n  span-ns  upper-ns  speedup-lo  speedup-hi\n");
        for p in curve {
            out.push_str(&format!(
                "{:>2}  {:>7}  {:>8}  {:>10.3}  {:>10.3}\n",
                p.n,
                p.analysis.span.as_ns(),
                p.analysis.upper.as_ns(),
                p.analysis.speedup_lower(),
                p.analysis.speedup_upper(),
            ));
        }
    }
    out
}

fn json_analysis(a: &Analysis) -> String {
    let mut epochs = String::from("[");
    for (i, e) in a.epochs.iter().enumerate() {
        if i > 0 {
            epochs.push(',');
        }
        let barrier = e
            .barrier
            .map(|b| b.0.to_string())
            .unwrap_or_else(|| "null".to_string());
        epochs.push_str(&format!(
            "{{\"epoch\":{},\"barrier\":{},\"work_ns\":{},\"busiest_ns\":{},\
             \"imbalance\":{:.6},\"reads\":{},\"writes\":{}}}",
            e.index,
            barrier,
            e.work.as_ns(),
            e.busiest.as_ns(),
            e.imbalance,
            e.reads,
            e.writes,
        ));
    }
    epochs.push(']');
    format!(
        "{{\"threads\":{},\"procs\":{},\"barriers\":{},\"work_ns\":{},\"span_ns\":{},\
         \"upper_ns\":{},\"speedup_lower\":{:.6},\"speedup_upper\":{:.6},\"fmax\":{:.6},\
         \"slack_ns\":{},\"messages\":{},\"epochs\":{}}}",
        a.n_threads,
        a.n_procs,
        a.n_barriers,
        a.total_work.as_ns(),
        a.span.as_ns(),
        a.upper.as_ns(),
        a.speedup_lower(),
        a.speedup_upper(),
        a.fmax,
        a.slack.as_ns(),
        a.messages,
        epochs,
    )
}

fn render_json(label: &str, a: &Analysis, curve: &[CurvePoint]) -> String {
    let mut out = format!(
        "{{\"label\":\"{}\",\"analysis\":{}",
        json_escape(label),
        json_analysis(a)
    );
    out.push_str(",\"curve\":[");
    for (i, p) in curve.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"n\":{},\"analysis\":{}}}",
            p.n,
            json_analysis(&p.analysis)
        ));
    }
    out.push_str("]}\n");
    out
}

fn render_csv(label: &str, a: &Analysis, curve: &[CurvePoint]) -> String {
    let mut out = String::from(
        "kind,label,index,barrier,work_ns,busiest_ns,imbalance,reads,writes,\
         span_ns,upper_ns,speedup_lower,speedup_upper\n",
    );
    for e in &a.epochs {
        let barrier = e.barrier.map(|b| b.0.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "epoch,{label},{},{barrier},{},{},{:.6},{},{},,,,\n",
            e.index,
            e.work.as_ns(),
            e.busiest.as_ns(),
            e.imbalance,
            e.reads,
            e.writes,
        ));
    }
    out.push_str(&format!(
        "total,{label},,,{},,,,,{},{},{:.6},{:.6}\n",
        a.total_work.as_ns(),
        a.span.as_ns(),
        a.upper.as_ns(),
        a.speedup_lower(),
        a.speedup_upper(),
    ));
    for p in curve {
        out.push_str(&format!(
            "curve,{label},{},,{},,,,,{},{},{:.6},{:.6}\n",
            p.n,
            p.analysis.total_work.as_ns(),
            p.analysis.span.as_ns(),
            p.analysis.upper.as_ns(),
            p.analysis.speedup_lower(),
            p.analysis.speedup_upper(),
        ));
    }
    out
}
