//! Fixed-width table and CSV emitters.
//!
//! The `reproduce` binary prints one table per experiment (see "Measurement"
//! in `docs/paper-map.md`). CSV output is provided for plotting.
//! [`round_budget_table`] renders the per-primitive round breakdown that
//! [`Metrics`] meters (`pull_rounds` / `push_rounds` / `push_pull_rounds`);
//! [`service_table`] renders the per-lane amortisation of a batched
//! multi-query epoch.

use gossip_net::Metrics;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header length.
    pub fn add_row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Renders labelled [`Metrics`] as a round-budget table broken down per
/// primitive — one row per entry, with total rounds, the per-kind round
/// counts, the participant accounting (mean active nodes per round and the
/// single-round maximum — where an algorithm's sparse phases show up as
/// `mean-active ≪ max-active`), and the message/bit totals. This is how an
/// experiment shows *where* an algorithm's round budget goes (e.g. the exact
/// algorithm's mix of push-sum pull rounds vs rumor-spreading push–pull
/// rounds, or a token-scattering phase touching only `o(n)` senders).
pub fn round_budget_table(title: impl Into<String>, entries: &[(String, Metrics)]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "algorithm",
            "rounds",
            "pull",
            "push",
            "push-pull",
            "mean-active",
            "max-active",
            "messages",
            "bits",
        ],
    );
    for (label, m) in entries {
        table.add_row(&[
            label.clone(),
            m.rounds.to_string(),
            m.pull_rounds.to_string(),
            m.push_rounds.to_string(),
            m.push_pull_rounds.to_string(),
            format!("{:.1}", m.mean_active()),
            m.max_active.to_string(),
            m.messages_delivered.to_string(),
            m.bits_delivered.to_string(),
        ]);
    }
    table
}

/// Renders labelled [`Metrics`] as a fault-injection table — one row per
/// entry, with the operation attempts, the terminal outcomes the fault plan
/// inflicted (crashed node-rounds, dropped and delayed messages, failed
/// operations), and the resulting per-round disturbance rate (the measured
/// `μ̂` an adaptive schedule compensates for). This is how a robustness
/// experiment shows *how much* chaos a run actually absorbed, next to the
/// accuracy it still achieved.
pub fn fault_table(title: impl Into<String>, entries: &[(String, Metrics)]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "algorithm",
            "attempts",
            "crashed",
            "dropped",
            "delayed",
            "failed",
            "delivered",
            "disturbance",
        ],
    );
    for (label, m) in entries {
        table.add_row(&[
            label.clone(),
            (m.pulls_attempted + m.pushes_attempted).to_string(),
            m.crashed_operations.to_string(),
            m.messages_dropped.to_string(),
            m.messages_delayed.to_string(),
            m.failed_operations.to_string(),
            m.messages_delivered.to_string(),
            format!("{:.4}", m.disturbance_rate()),
        ]);
    }
    table
}

/// One query lane of a batched multi-query epoch, for [`service_table`].
///
/// Plain numbers rather than a service type: `analysis` is the measurement
/// substrate and stays independent of the algorithm crates above `gossip-net`.
#[derive(Debug, Clone)]
pub struct ServiceQueryRow {
    /// Human label for the lane, e.g. `"phi=0.50 eps=0.05"`.
    pub label: String,
    /// Phase I iterations of the lane's solo schedule.
    pub phase1_iterations: usize,
    /// Phase II iterations of the lane's solo schedule.
    pub phase2_iterations: usize,
    /// Rounds a solo run of this query alone would spend.
    pub solo_rounds: u64,
}

/// Renders a batched multi-query epoch as a table: one row per query lane
/// with its solo round cost, then a `batched epoch` summary row with the
/// shared rounds the epoch actually spent and the amortisation factor
/// `Σᵢ solo_roundsᵢ / shared_rounds`. This is how an experiment shows the
/// q-fold round saving of answering a query vector through shared
/// tournament rounds instead of back-to-back solo runs.
pub fn service_table(
    title: impl Into<String>,
    shared_rounds: u64,
    lanes: &[ServiceQueryRow],
) -> Table {
    let mut table = Table::new(
        title,
        &[
            "query",
            "phase-I iters",
            "phase-II iters",
            "rounds",
            "amortisation",
        ],
    );
    for lane in lanes {
        table.add_row(&[
            lane.label.clone(),
            lane.phase1_iterations.to_string(),
            lane.phase2_iterations.to_string(),
            lane.solo_rounds.to_string(),
            "-".to_string(),
        ]);
    }
    let solo_total: u64 = lanes.iter().map(|l| l.solo_rounds).sum();
    let amortisation = if shared_rounds == 0 {
        0.0
    } else {
        solo_total as f64 / shared_rounds as f64
    };
    table.add_row(&[
        format!("batched epoch ({} queries)", lanes.len()),
        "-".to_string(),
        "-".to_string(),
        shared_rounds.to_string(),
        format!("{amortisation:.1}x"),
    ]);
    table
}

/// A minimal CSV writer (comma-separated, quotes fields containing commas).
#[derive(Debug, Clone, Default)]
pub struct Csv {
    lines: Vec<String>,
}

impl Csv {
    /// Creates a CSV document with a header row.
    pub fn new(headers: &[&str]) -> Self {
        let mut csv = Csv::default();
        csv.push_row(headers);
        csv
    }

    /// Appends a row of string-ish fields.
    pub fn push_row<S: AsRef<str>>(&mut self, fields: &[S]) -> &mut Self {
        let encoded: Vec<String> = fields
            .iter()
            .map(|f| {
                let f = f.as_ref();
                if f.contains(',') || f.contains('"') {
                    format!("\"{}\"", f.replace('"', "\"\""))
                } else {
                    f.to_string()
                }
            })
            .collect();
        self.lines.push(encoded.join(","));
        self
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }

    /// Number of rows including the header.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the document is empty (no header, no rows).
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("E1: exact quantile", &["n", "rounds", "answer ok"]);
        t.add_row(&["1024".into(), "210".into(), "yes".into()]);
        t.add_row(&["1048576".into(), "460".into(), "yes".into()]);
        let out = t.render();
        assert!(out.contains("## E1: exact quantile"));
        assert!(out.contains("| n       | rounds | answer ok |"));
        assert!(out.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(&["only one".into()]);
    }

    #[test]
    fn round_budget_table_breaks_rounds_down_per_kind() {
        use gossip_net::{Engine, EngineConfig};
        let mut e = Engine::from_states((0..32u64).collect(), EngineConfig::with_seed(1));
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.push_round(|_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
        e.push_pull_round(|_, &s| s, |_, _, _| {});
        let table = round_budget_table("round budget", &[("mixed".to_string(), e.metrics())]);
        let out = table.render();
        assert!(out.contains("push-pull"));
        assert!(out.contains("mean-active"));
        assert!(out.contains("max-active"));
        let row = out.lines().last().unwrap();
        // rounds=4, pull=2, push=1, push-pull=1; all rounds dense → active=32.
        assert!(row.contains("| 4"), "{row}");
        assert!(row.contains("| 2"), "{row}");
        assert!(row.contains("| 32.0"), "{row}");
        assert!(row.contains("| 32 "), "{row}");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn round_budget_table_shows_sparse_activity() {
        use gossip_net::{ActiveSet, Engine, EngineConfig};
        let mut e = Engine::from_states((0..64u64).collect(), EngineConfig::with_seed(2));
        e.pull_round(|_, &s| s, |_, _, _| {});
        let active = ActiveSet::from_members(64, 0..8).unwrap();
        e.pull_sources(Some(&active), |_| 64, &mut [0; 64]);
        let table = round_budget_table("sparse budget", &[("mixed".to_string(), e.metrics())]);
        let row = table.render().lines().last().unwrap().to_string();
        // (64 + 8) participants over 2 rounds → mean 36, max 64.
        assert!(row.contains("| 36.0"), "{row}");
        assert!(row.contains("| 64 "), "{row}");
    }

    #[test]
    fn fault_table_renders_the_fault_counters() {
        use gossip_net::{ChurnModel, Engine, EngineConfig, FaultPlan, LossModel, StragglerModel};
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
            .with_loss(LossModel::uniform(0.2).unwrap())
            .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap());
        let mut e = Engine::from_states(
            (0..512u64).collect(),
            EngineConfig::with_seed(3).fault(plan),
        );
        for _ in 0..4 {
            e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        let m = e.metrics();
        assert!(m.messages_dropped > 0 && m.messages_delayed > 0);
        let table = fault_table("chaos", &[("push-pull".to_string(), m)]);
        let out = table.render();
        assert!(out.contains("disturbance"));
        let row = out.lines().last().unwrap();
        assert!(row.contains(&m.messages_dropped.to_string()), "{row}");
        assert!(row.contains(&m.messages_delayed.to_string()), "{row}");
        assert!(
            row.contains(&format!("{:.4}", m.disturbance_rate())),
            "{row}"
        );
    }

    #[test]
    fn service_table_sums_solo_rounds_into_the_amortisation_row() {
        let lanes = vec![
            ServiceQueryRow {
                label: "phi=0.25 eps=0.05".into(),
                phase1_iterations: 5,
                phase2_iterations: 6,
                solo_rounds: 43,
            },
            ServiceQueryRow {
                label: "phi=0.75 eps=0.05".into(),
                phase1_iterations: 5,
                phase2_iterations: 6,
                solo_rounds: 43,
            },
        ];
        let table = service_table("batched service", 43, &lanes);
        let out = table.render();
        assert!(out.contains("## batched service"));
        assert!(out.contains("amortisation"));
        let summary = out.lines().last().unwrap();
        // 86 solo rounds answered in 43 shared rounds → 2.0x.
        assert!(summary.contains("batched epoch (2 queries)"), "{summary}");
        assert!(summary.contains("| 43"), "{summary}");
        assert!(summary.contains("2.0x"), "{summary}");
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn service_table_handles_zero_shared_rounds() {
        let table = service_table("empty", 0, &[]);
        let out = table.render();
        assert!(out.lines().last().unwrap().contains("0.0x"));
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let mut c = Csv::new(&["name", "value"]);
        c.push_row(&["plain", "1"]);
        c.push_row(&["with, comma", "2"]);
        c.push_row(&["with \"quote\"", "3"]);
        let out = c.render();
        assert!(out.starts_with("name,value\n"));
        assert!(out.contains("\"with, comma\",2"));
        assert!(out.contains("\"with \"\"quote\"\"\",3"));
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }
}
