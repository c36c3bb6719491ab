//! Round, message and failure accounting.
//!
//! Every algorithm in the reproduction is measured through the same
//! [`Metrics`] struct, so the round counts the `reproduce` binary prints are
//! directly comparable across the paper's algorithms and the baselines (see
//! "Measurement" in `docs/paper-map.md`).

/// What kind of communication a round performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundKind {
    /// Every active node pulled a message from a uniformly random node.
    Pull,
    /// Every active node pushed a message to a uniformly random node.
    Push,
    /// A round in which both a push and a pull were performed by every node
    /// (used by rumor-spreading subroutines).
    PushPull,
}

impl std::fmt::Display for RoundKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RoundKind::Pull => "pull",
            RoundKind::Push => "push",
            RoundKind::PushPull => "push-pull",
        };
        f.write_str(s)
    }
}

/// Cumulative communication statistics of a simulation.
///
/// All counters are cumulative over the life of an [`crate::Engine`]; use
/// [`Metrics::snapshot_delta`] to measure a phase of an algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Rounds that were pull rounds (includes sampling rounds).
    pub pull_rounds: u64,
    /// Rounds that were push rounds.
    pub push_rounds: u64,
    /// Rounds that were push–pull rounds (both directions, one round).
    pub push_pull_rounds: u64,
    /// Total participants across all rounds: a dense round contributes `n`,
    /// a round over an [`ActiveSet`](crate::ActiveSet) its size, and a cut
    /// sample-step round its participants. `active_nodes_total / rounds` is the
    /// mean per-round activity.
    pub active_nodes_total: u64,
    /// Largest single-round participant count observed.
    pub max_active: u64,
    /// Participants in pull rounds (includes sampling rounds).
    pub active_pull_nodes: u64,
    /// Participants in push rounds.
    pub active_push_nodes: u64,
    /// Participants in push–pull rounds.
    pub active_push_pull_nodes: u64,
    /// Number of pull operations attempted (one per active node per pull round).
    pub pulls_attempted: u64,
    /// Number of push operations attempted.
    pub pushes_attempted: u64,
    /// Number of operations that failed due to the failure model.
    pub failed_operations: u64,
    /// Operations skipped because the node was crashed (down under a
    /// [`ChurnModel`](crate::fault::ChurnModel)) that round. A crashed node
    /// performs nothing: no attempt is recorded for it.
    pub crashed_operations: u64,
    /// Messages dropped in flight: a per-contact loss coin fired, the contact
    /// targeted a crashed node, or a delayed message could not be delivered
    /// at arrival. Distinct from `failed_operations` (the sender never acted)
    /// — here the sender acted and this one delivery was lost.
    pub messages_dropped: u64,
    /// Push contacts that straggled: buffered by a
    /// [`StragglerModel`](crate::fault::StragglerModel) to land in a later
    /// round. Counted at send time; a delayed message that is eventually
    /// delivered also counts in `messages_delivered` (at arrival), and one
    /// dropped at arrival counts in `messages_dropped`.
    pub messages_delayed: u64,
    /// Number of messages successfully delivered.
    pub messages_delivered: u64,
    /// Total payload size of successfully delivered messages, in bits.
    pub bits_delivered: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: u64,
}

impl Metrics {
    /// Creates an all-zero metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the start of a round of the given kind with `active`
    /// participating nodes (`n` for a dense round, the active-set size for a
    /// sparse one).
    pub(crate) fn record_round(&mut self, kind: RoundKind, active: u64) {
        self.rounds += 1;
        self.active_nodes_total += active;
        if active > self.max_active {
            self.max_active = active;
        }
        match kind {
            RoundKind::Pull => {
                self.pull_rounds += 1;
                self.active_pull_nodes += active;
            }
            RoundKind::Push => {
                self.push_rounds += 1;
                self.active_push_nodes += active;
            }
            RoundKind::PushPull => {
                self.push_pull_rounds += 1;
                self.active_push_pull_nodes += active;
            }
        }
    }

    /// Total participants in rounds of the given kind.
    pub fn active_of(&self, kind: RoundKind) -> u64 {
        match kind {
            RoundKind::Pull => self.active_pull_nodes,
            RoundKind::Push => self.active_push_nodes,
            RoundKind::PushPull => self.active_push_pull_nodes,
        }
    }

    /// Mean participants per round, or 0 with no rounds.
    pub fn mean_active(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.active_nodes_total as f64 / self.rounds as f64
        }
    }

    /// Rounds executed of the given kind.
    pub fn rounds_of(&self, kind: RoundKind) -> u64 {
        match kind {
            RoundKind::Pull => self.pull_rounds,
            RoundKind::Push => self.push_rounds,
            RoundKind::PushPull => self.push_pull_rounds,
        }
    }

    /// The round budget broken down per primitive, in declaration order —
    /// what `analysis::report` renders as per-kind round columns.
    pub fn rounds_by_kind(&self) -> [(RoundKind, u64); 3] {
        [
            (RoundKind::Pull, self.pull_rounds),
            (RoundKind::Push, self.push_rounds),
            (RoundKind::PushPull, self.push_pull_rounds),
        ]
    }

    /// Records an extra round for the same logical operation (e.g. push–pull
    /// rounds count as a single round even though both directions are used).
    pub(crate) fn record_attempt(&mut self, kind: RoundKind) {
        match kind {
            RoundKind::Pull => self.pulls_attempted += 1,
            RoundKind::Push => self.pushes_attempted += 1,
            RoundKind::PushPull => {
                self.pulls_attempted += 1;
                self.pushes_attempted += 1;
            }
        }
    }

    /// Records a failed operation (the failing node performed nothing this round).
    pub(crate) fn record_failure(&mut self) {
        self.failed_operations += 1;
    }

    /// Records an operation skipped because the node was crashed.
    pub(crate) fn record_crash(&mut self) {
        self.crashed_operations += 1;
    }

    /// Records a message dropped in flight (loss coin, crashed target, or an
    /// undeliverable delayed message).
    pub(crate) fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records a push contact buffered to land in a later round.
    pub(crate) fn record_delay(&mut self) {
        self.messages_delayed += 1;
    }

    /// Records a successfully delivered message of the given size.
    pub(crate) fn record_delivery(&mut self, bits: u64) {
        self.messages_delivered += 1;
        self.bits_delivered += bits;
        if bits > self.max_message_bits {
            self.max_message_bits = bits;
        }
    }

    /// Returns the difference `self - earlier`, counter by counter.
    ///
    /// `earlier` must be a snapshot taken from the same engine at an earlier
    /// point in time; counters are assumed to be monotone.
    pub fn snapshot_delta(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            rounds: self.rounds - earlier.rounds,
            pull_rounds: self.pull_rounds - earlier.pull_rounds,
            push_rounds: self.push_rounds - earlier.push_rounds,
            push_pull_rounds: self.push_pull_rounds - earlier.push_pull_rounds,
            active_nodes_total: self.active_nodes_total - earlier.active_nodes_total,
            max_active: self.max_active.max(earlier.max_active),
            active_pull_nodes: self.active_pull_nodes - earlier.active_pull_nodes,
            active_push_nodes: self.active_push_nodes - earlier.active_push_nodes,
            active_push_pull_nodes: self.active_push_pull_nodes - earlier.active_push_pull_nodes,
            pulls_attempted: self.pulls_attempted - earlier.pulls_attempted,
            pushes_attempted: self.pushes_attempted - earlier.pushes_attempted,
            failed_operations: self.failed_operations - earlier.failed_operations,
            crashed_operations: self.crashed_operations - earlier.crashed_operations,
            messages_dropped: self.messages_dropped - earlier.messages_dropped,
            messages_delayed: self.messages_delayed - earlier.messages_delayed,
            messages_delivered: self.messages_delivered - earlier.messages_delivered,
            bits_delivered: self.bits_delivered - earlier.bits_delivered,
            max_message_bits: self.max_message_bits.max(earlier.max_message_bits),
        }
    }

    /// Mean payload bits delivered per round, or 0 with no rounds.
    ///
    /// This is the round-level bandwidth figure of merit: in the
    /// congested-clique reading of the gossip model, each round gives every
    /// node one `O(log n)`-bit contact, so a multi-query layer that packs `q`
    /// comparisons into one contact shows up here as a ~`q×` larger per-round
    /// payload over a ~`q×` smaller number of rounds.
    pub fn bits_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.bits_delivered as f64 / self.rounds as f64
        }
    }

    /// Mean payload bits delivered **per participating node per round**, or 0
    /// with no activity.
    ///
    /// Rounds over an active set divide by its size, not `n`, so the
    /// figure stays comparable between dense and sparse executions of the
    /// same algorithm.
    pub fn mean_bits_per_node_round(&self) -> f64 {
        if self.active_nodes_total == 0 {
            0.0
        } else {
            self.bits_delivered as f64 / self.active_nodes_total as f64
        }
    }

    /// Average number of bits per delivered message, or 0 if nothing was delivered.
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            self.bits_delivered as f64 / self.messages_delivered as f64
        }
    }

    /// Fraction of attempted operations that failed.
    pub fn failure_rate(&self) -> f64 {
        let attempts = self.pulls_attempted + self.pushes_attempted;
        if attempts == 0 {
            0.0
        } else {
            self.failed_operations as f64 / attempts as f64
        }
    }

    /// Fraction of operations whose delivery did not happen on time:
    /// failure-model skips, in-flight drops, straggled contacts and the
    /// operations crashed nodes skipped, over attempts plus those skipped
    /// operations. This is the *measured* `μ̂` that an adaptive round budget
    /// (the paper's `O(1/(1−μ))` compensation, driven by observation instead
    /// of assumption) divides by. A crashed node makes no attempt, so its
    /// skipped operation is charged as a disturbed one, as
    /// [`FaultPlan::mu_upper_bound`](crate::FaultPlan::mu_upper_bound)
    /// charges churn.
    pub fn disturbance_rate(&self) -> f64 {
        let operations = self.pulls_attempted + self.pushes_attempted + self.crashed_operations;
        if operations == 0 {
            0.0
        } else {
            let disturbed = self.failed_operations
                + self.messages_dropped
                + self.messages_delayed
                + self.crashed_operations;
            disturbed as f64 / operations as f64
        }
    }
}

impl std::ops::Add for Metrics {
    type Output = Metrics;

    fn add(self, rhs: Metrics) -> Metrics {
        Metrics {
            rounds: self.rounds + rhs.rounds,
            pull_rounds: self.pull_rounds + rhs.pull_rounds,
            push_rounds: self.push_rounds + rhs.push_rounds,
            push_pull_rounds: self.push_pull_rounds + rhs.push_pull_rounds,
            active_nodes_total: self.active_nodes_total + rhs.active_nodes_total,
            max_active: self.max_active.max(rhs.max_active),
            active_pull_nodes: self.active_pull_nodes + rhs.active_pull_nodes,
            active_push_nodes: self.active_push_nodes + rhs.active_push_nodes,
            active_push_pull_nodes: self.active_push_pull_nodes + rhs.active_push_pull_nodes,
            pulls_attempted: self.pulls_attempted + rhs.pulls_attempted,
            pushes_attempted: self.pushes_attempted + rhs.pushes_attempted,
            failed_operations: self.failed_operations + rhs.failed_operations,
            crashed_operations: self.crashed_operations + rhs.crashed_operations,
            messages_dropped: self.messages_dropped + rhs.messages_dropped,
            messages_delayed: self.messages_delayed + rhs.messages_delayed,
            messages_delivered: self.messages_delivered + rhs.messages_delivered,
            bits_delivered: self.bits_delivered + rhs.bits_delivered,
            max_message_bits: self.max_message_bits.max(rhs.max_message_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let mut m = Metrics::new();
        m.record_round(RoundKind::Pull, 10);
        m.record_attempt(RoundKind::Pull);
        m.record_delivery(64);
        let snapshot = m;
        m.record_round(RoundKind::Push, 10);
        m.record_attempt(RoundKind::Push);
        m.record_failure();
        m.record_delivery(128);

        let delta = m.snapshot_delta(&snapshot);
        assert_eq!(delta.rounds, 1);
        assert_eq!(delta.pulls_attempted, 0);
        assert_eq!(delta.pushes_attempted, 1);
        assert_eq!(delta.failed_operations, 1);
        assert_eq!(delta.messages_delivered, 1);
        assert_eq!(delta.bits_delivered, 128);
        assert_eq!(delta.max_message_bits, 128);
    }

    #[test]
    fn mean_and_failure_rate() {
        let mut m = Metrics::new();
        assert_eq!(m.mean_message_bits(), 0.0);
        assert_eq!(m.failure_rate(), 0.0);
        m.record_attempt(RoundKind::Pull);
        m.record_attempt(RoundKind::Pull);
        m.record_failure();
        m.record_delivery(10);
        m.record_delivery(30);
        assert_eq!(m.mean_message_bits(), 20.0);
        assert_eq!(m.failure_rate(), 0.5);
    }

    #[test]
    fn add_combines_counters() {
        let mut a = Metrics::new();
        a.record_round(RoundKind::Pull, 10);
        a.record_delivery(8);
        let mut b = Metrics::new();
        b.record_round(RoundKind::Push, 10);
        b.record_delivery(16);
        let c = a + b;
        assert_eq!(c.rounds, 2);
        assert_eq!(c.messages_delivered, 2);
        assert_eq!(c.bits_delivered, 24);
        assert_eq!(c.max_message_bits, 16);
    }

    #[test]
    fn push_pull_attempt_counts_both_directions() {
        let mut m = Metrics::new();
        m.record_attempt(RoundKind::PushPull);
        assert_eq!(m.pulls_attempted, 1);
        assert_eq!(m.pushes_attempted, 1);
    }

    #[test]
    fn rounds_are_counted_per_kind() {
        let mut m = Metrics::new();
        m.record_round(RoundKind::Pull, 10);
        m.record_round(RoundKind::Pull, 10);
        m.record_round(RoundKind::Push, 10);
        m.record_round(RoundKind::PushPull, 10);
        assert_eq!(m.rounds, 4);
        assert_eq!(m.rounds_of(RoundKind::Pull), 2);
        assert_eq!(m.rounds_of(RoundKind::Push), 1);
        assert_eq!(m.rounds_of(RoundKind::PushPull), 1);
        let total: u64 = m.rounds_by_kind().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, m.rounds);
        // The per-kind counters survive delta and addition like `rounds` does.
        let snapshot = m;
        m.record_round(RoundKind::Push, 10);
        assert_eq!(m.snapshot_delta(&snapshot).push_rounds, 1);
        assert_eq!((m + m).push_pull_rounds, 2);
    }

    #[test]
    fn active_counts_accumulate_per_round_and_per_kind() {
        let mut m = Metrics::new();
        m.record_round(RoundKind::Pull, 1000);
        m.record_round(RoundKind::Push, 30);
        m.record_round(RoundKind::PushPull, 500);
        m.record_round(RoundKind::Push, 0);
        assert_eq!(m.active_nodes_total, 1530);
        assert_eq!(m.max_active, 1000);
        assert_eq!(m.active_of(RoundKind::Pull), 1000);
        assert_eq!(m.active_of(RoundKind::Push), 30);
        assert_eq!(m.active_of(RoundKind::PushPull), 500);
        assert_eq!(m.mean_active(), 1530.0 / 4.0);
        // Delta subtracts totals but keeps the max (like max_message_bits).
        let snapshot = m;
        m.record_round(RoundKind::Pull, 200);
        let delta = m.snapshot_delta(&snapshot);
        assert_eq!(delta.active_nodes_total, 200);
        assert_eq!(delta.max_active, 1000);
        // Addition sums totals and maxes the maxima.
        let sum = m + m;
        assert_eq!(sum.active_nodes_total, 2 * m.active_nodes_total);
        assert_eq!(sum.max_active, 1000);
        assert_eq!(Metrics::new().mean_active(), 0.0);
    }

    #[test]
    fn fault_counters_survive_delta_addition_and_rates() {
        let mut m = Metrics::new();
        m.record_attempt(RoundKind::Pull);
        m.record_attempt(RoundKind::Push);
        m.record_attempt(RoundKind::Push);
        m.record_attempt(RoundKind::Push);
        m.record_crash();
        m.record_drop();
        m.record_drop();
        m.record_delay();
        m.record_failure();
        assert_eq!(m.crashed_operations, 1);
        assert_eq!(m.messages_dropped, 2);
        assert_eq!(m.messages_delayed, 1);
        // 1 failed + 2 dropped + 1 delayed + 1 crashed over 4 attempts and
        // the 1 crashed operation.
        assert_eq!(m.disturbance_rate(), 1.0);
        assert_eq!(m.failure_rate(), 0.25);
        let snapshot = m;
        m.record_drop();
        m.record_delay();
        m.record_crash();
        let delta = m.snapshot_delta(&snapshot);
        assert_eq!(delta.messages_dropped, 1);
        assert_eq!(delta.messages_delayed, 1);
        assert_eq!(delta.crashed_operations, 1);
        let sum = m + m;
        assert_eq!(sum.messages_dropped, 6);
        assert_eq!(sum.messages_delayed, 4);
        assert_eq!(sum.crashed_operations, 4);
        assert_eq!(Metrics::new().disturbance_rate(), 0.0);
    }

    #[test]
    fn crashed_operations_count_as_disturbed() {
        // A node down under churn attempts nothing; its skipped operation
        // is still one the round meant to run, and it delivered nothing.
        let mut m = Metrics::new();
        m.record_crash();
        assert_eq!(m.disturbance_rate(), 1.0);
        m.record_attempt(RoundKind::Pull);
        m.record_attempt(RoundKind::Pull);
        m.record_attempt(RoundKind::Pull);
        assert_eq!(m.disturbance_rate(), 0.25);
    }

    #[test]
    fn per_round_and_per_node_round_bit_rates() {
        let mut m = Metrics::new();
        assert_eq!(m.bits_per_round(), 0.0);
        assert_eq!(m.mean_bits_per_node_round(), 0.0);
        // A dense round of 10 nodes delivering 8 messages of 64 bits…
        m.record_round(RoundKind::Pull, 10);
        for _ in 0..8 {
            m.record_delivery(64);
        }
        assert_eq!(m.bits_per_round(), 512.0);
        assert_eq!(m.mean_bits_per_node_round(), 51.2);
        // …then a sparse round of 2 nodes delivering 2 more.
        m.record_round(RoundKind::Pull, 2);
        m.record_delivery(64);
        m.record_delivery(64);
        assert_eq!(m.bits_per_round(), 640.0 / 2.0);
        assert_eq!(m.mean_bits_per_node_round(), 640.0 / 12.0);
    }

    #[test]
    fn round_kind_display() {
        assert_eq!(RoundKind::Pull.to_string(), "pull");
        assert_eq!(RoundKind::Push.to_string(), "push");
        assert_eq!(RoundKind::PushPull.to_string(), "push-pull");
    }
}
