//! # vliw-fleet — machine fleets behind a deterministic dispatcher
//!
//! The paper evaluates merge schemes on *one* clustered VLIW machine; the
//! fleet layer scales that out: a [`FleetSpec`] names a set of (possibly
//! heterogeneous) [`MachineSpec`] geometries, and a [`Dispatcher`] decides,
//! per arriving thread, which machine's admission queue receives it —
//! two-level scheduling, with the per-machine OS scheduler below and the
//! fleet dispatcher above.
//!
//! This crate is dependency-free (only `vliw-isa` for the machine grammar):
//! it owns the *grammar* ([`FleetSpec`], with `Display`/`FromStr`
//! round-trips like the machine and traffic grammars), the *policies*
//! ([`DispatcherSpec`] naming the deterministic built-ins, [`Dispatcher`]
//! for the decision interface) and the *accounting shapes*
//! ([`FleetStats`], [`MachineLaneStats`]). The driver that actually
//! advances N `Machine` instances under one arrival process lives in
//! `vliw-sim` (`fleet` module), which depends on this crate.
//!
//! ## Grammar
//!
//! ```text
//! FLEET  := PRESET | ENTRY ("/" ENTRY)*, optionally followed by "@" POLICY
//! ENTRY  := MACHINESPEC ("*" COUNT)?
//! PRESET := "edge"
//! POLICY := "round-robin" | "least-queued" | "affinity"
//! ```
//!
//! Examples: `paper-4x4*4` (four paper baselines, round-robin),
//! `2x8/8x2@least-queued` (one wide + one narrow machine, join the
//! shortest queue), `edge` (the mixed preset: two paper baselines, one
//! wide `2x8`, one narrow `8x2`, geometry-affinity routing).
//!
//! Every policy is deterministic: given the same lane views in the same
//! order, [`Dispatcher::route`] returns the same lane. That is what lets
//! fleet simulations be byte-identical regardless of how many rayon
//! workers advance the machines.

#![deny(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use vliw_isa::{MachineError, MachineSpec};

/// Largest per-entry replica count the grammar accepts (`spec*COUNT`).
///
/// A guard rail, not a scaling limit: fleets are simulated in-process, one
/// `Machine` per member, so four-digit counts are a typo, not a plan.
pub const MAX_COUNT_PER_ENTRY: u32 = 64;

/// Errors from parsing or validating a [`FleetSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec string was empty (or an entry between `/`s was).
    Empty,
    /// An entry's machine geometry failed to parse.
    Machine(MachineError),
    /// A `*COUNT` suffix was not a positive integer within
    /// [`MAX_COUNT_PER_ENTRY`].
    BadCount(String),
    /// The `@POLICY` suffix named no known dispatcher.
    UnknownPolicy(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Empty => write!(f, "empty fleet spec (expected e.g. \"paper-4x4*2\")"),
            FleetError::Machine(e) => write!(f, "fleet entry: {e}"),
            FleetError::BadCount(s) => write!(
                f,
                "bad fleet count {s:?} (expected 1..={MAX_COUNT_PER_ENTRY})"
            ),
            FleetError::UnknownPolicy(s) => write!(
                f,
                "unknown dispatcher {s:?} (expected one of: round-robin, least-queued, affinity)"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MachineError> for FleetError {
    fn from(e: MachineError) -> Self {
        FleetError::Machine(e)
    }
}

/// Named deterministic dispatch policies.
///
/// The spec is the *name*; [`DispatcherSpec::build`] instantiates the
/// (possibly stateful) [`Dispatcher`] it denotes. Like
/// [`vliw_isa::MachineSpec`] and the scheduler specs, this keeps plan keys
/// `Copy + Eq + Hash` while the policy objects themselves stay boxed and
/// mutable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatcherSpec {
    /// Cycle through the machines in fleet order, one arrival each.
    #[default]
    RoundRobin,
    /// Send each arrival to the machine with the fewest queued + in-flight
    /// threads (ties broken by fleet order).
    LeastQueued,
    /// Geometry affinity: route wide threads (high static ops/instruction)
    /// to machines with wide clusters, narrow threads to narrow ones; ties
    /// broken by load, then fleet order.
    Affinity,
}

impl DispatcherSpec {
    /// All built-in policies, in documentation order.
    pub const fn all() -> [DispatcherSpec; 3] {
        [
            DispatcherSpec::RoundRobin,
            DispatcherSpec::LeastQueued,
            DispatcherSpec::Affinity,
        ]
    }

    /// The policy's grammar name (what `@POLICY` accepts).
    pub const fn name(&self) -> &'static str {
        match self {
            DispatcherSpec::RoundRobin => "round-robin",
            DispatcherSpec::LeastQueued => "least-queued",
            DispatcherSpec::Affinity => "affinity",
        }
    }

    /// Instantiate the policy this spec names.
    pub fn build(&self) -> Box<dyn Dispatcher + Send> {
        match self {
            DispatcherSpec::RoundRobin => Box::new(RoundRobin::default()),
            DispatcherSpec::LeastQueued => Box::new(LeastQueued),
            DispatcherSpec::Affinity => Box::new(Affinity),
        }
    }
}

impl fmt::Display for DispatcherSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DispatcherSpec {
    type Err = FleetError;

    fn from_str(s: &str) -> Result<Self, FleetError> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        DispatcherSpec::all()
            .into_iter()
            .find(|p| p.name() == norm)
            .ok_or_else(|| FleetError::UnknownPolicy(s.to_string()))
    }
}

/// A fleet: an ordered list of `(geometry, replica count)` entries plus the
/// dispatch policy that routes arrivals across them.
///
/// `Display` and `FromStr` round-trip; mixed-preset fleets canonicalize to
/// their preset name (the `edge` fleet prints as `edge`), and the default
/// policy of a spelling is omitted from its rendering, mirroring how
/// [`MachineSpec`] custom geometries canonicalize to preset names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FleetSpec {
    /// `(geometry, replicas)` in fleet order. Machine index `i` of the
    /// running fleet is the `i`-th machine of this list expanded.
    entries: Arc<[(MachineSpec, u32)]>,
    /// The dispatch policy routing arrivals across the machines.
    pub dispatcher: DispatcherSpec,
}

/// The `edge` preset's entries: two paper baselines fronted by one wide
/// and one narrow machine — the smallest fleet where geometry-affinity
/// routing has real choices to make.
const EDGE_ENTRIES: [(MachineSpec, u32); 3] = [
    (MachineSpec::Paper4x4, 2),
    (MachineSpec::Wide2x8, 1),
    (MachineSpec::Narrow8x2, 1),
];

impl FleetSpec {
    /// Build a fleet from explicit entries. Zero-count entries are
    /// rejected, an empty list is [`FleetError::Empty`].
    pub fn new(
        entries: impl Into<Vec<(MachineSpec, u32)>>,
        dispatcher: DispatcherSpec,
    ) -> Result<FleetSpec, FleetError> {
        let entries: Vec<(MachineSpec, u32)> = entries.into();
        if entries.is_empty() {
            return Err(FleetError::Empty);
        }
        for &(spec, count) in &entries {
            if count == 0 || count > MAX_COUNT_PER_ENTRY {
                return Err(FleetError::BadCount(count.to_string()));
            }
            // Validate the geometry eagerly so a fleet never carries an
            // unbuildable machine into a running plan.
            spec.try_config()?;
        }
        Ok(FleetSpec {
            entries: entries.into(),
            dispatcher,
        })
    }

    /// A homogeneous fleet: `count` replicas of one geometry.
    pub fn homogeneous(
        machine: MachineSpec,
        count: u32,
        dispatcher: DispatcherSpec,
    ) -> Result<FleetSpec, FleetError> {
        FleetSpec::new(vec![(machine, count)], dispatcher)
    }

    /// The mixed `edge` preset (see [`FleetSpec`] docs): `paper-4x4*2/2x8/
    /// 8x2@affinity`, canonically spelled `edge`.
    pub fn edge() -> FleetSpec {
        FleetSpec {
            entries: EDGE_ENTRIES.into(),
            dispatcher: DispatcherSpec::Affinity,
        }
    }

    /// Named fleet presets as `(name, spec)` pairs, for `--list` output
    /// and error messages.
    pub fn presets() -> Vec<(&'static str, FleetSpec)> {
        vec![("edge", FleetSpec::edge())]
    }

    /// The `(geometry, replicas)` entries in fleet order.
    pub fn entries(&self) -> &[(MachineSpec, u32)] {
        &self.entries
    }

    /// Total machine count (entries expanded).
    pub fn n_machines(&self) -> usize {
        self.entries.iter().map(|&(_, c)| c as usize).sum()
    }

    /// The individual machine geometries, expanded in fleet order (machine
    /// index `i` of a running fleet is `machines()[i]`).
    pub fn machines(&self) -> Vec<MachineSpec> {
        self.entries
            .iter()
            .flat_map(|&(spec, count)| std::iter::repeat_n(spec, count as usize))
            .collect()
    }

    /// Canonical rendering (same as `Display`), for use as a plan-axis
    /// label.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// The preset default policy for this entry set: presets carry their
    /// own default (which `Display` then omits), ad-hoc fleets default to
    /// round-robin.
    fn default_policy_for_entries(entries: &[(MachineSpec, u32)]) -> DispatcherSpec {
        if entries == EDGE_ENTRIES {
            DispatcherSpec::Affinity
        } else {
            DispatcherSpec::RoundRobin
        }
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries[..] == EDGE_ENTRIES {
            f.write_str("edge")?;
        } else {
            for (i, &(spec, count)) in self.entries.iter().enumerate() {
                if i > 0 {
                    f.write_str("/")?;
                }
                write!(f, "{spec}")?;
                if count != 1 {
                    write!(f, "*{count}")?;
                }
            }
        }
        if self.dispatcher != FleetSpec::default_policy_for_entries(&self.entries) {
            write!(f, "@{}", self.dispatcher)?;
        }
        Ok(())
    }
}

impl FromStr for FleetSpec {
    type Err = FleetError;

    fn from_str(s: &str) -> Result<Self, FleetError> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        if norm.is_empty() {
            return Err(FleetError::Empty);
        }
        let (body, policy) = match norm.split_once('@') {
            Some((body, policy)) => (body, Some(policy.parse::<DispatcherSpec>()?)),
            None => (norm.as_str(), None),
        };
        if body.is_empty() {
            return Err(FleetError::Empty);
        }
        // Named presets first (like the machine grammar), then the
        // entry-list grammar.
        if let Some((_, preset)) = FleetSpec::presets().into_iter().find(|(n, _)| *n == body) {
            return Ok(FleetSpec {
                entries: preset.entries,
                dispatcher: policy.unwrap_or(preset.dispatcher),
            });
        }
        let mut entries = Vec::new();
        for part in body.split('/') {
            if part.is_empty() {
                return Err(FleetError::Empty);
            }
            let (machine, count) = match part.split_once('*') {
                Some((machine, count)) => {
                    let n: u32 = count
                        .parse()
                        .map_err(|_| FleetError::BadCount(count.to_string()))?;
                    (machine, n)
                }
                None => (part, 1),
            };
            if count == 0 || count > MAX_COUNT_PER_ENTRY {
                return Err(FleetError::BadCount(count.to_string()));
            }
            entries.push((machine.parse::<MachineSpec>()?, count));
        }
        let dispatcher = policy.unwrap_or_else(|| FleetSpec::default_policy_for_entries(&entries));
        FleetSpec::new(entries, dispatcher)
    }
}

/// What the dispatcher sees of one machine when routing an arrival: its
/// geometry and its current load. Snapshot semantics — the driver builds
/// these fresh at every routing decision.
#[derive(Debug, Clone, Copy)]
pub struct LaneView {
    /// The machine's geometry.
    pub machine: MachineSpec,
    /// Threads waiting in the machine's admission queue.
    pub queue_len: usize,
    /// Threads admitted and not yet completed (pool + contexts).
    pub in_flight: usize,
    /// Arrivals routed to this machine so far.
    pub routed: u64,
}

impl LaneView {
    /// Queued plus in-flight threads — the load signal the built-in
    /// policies compare.
    pub fn load(&self) -> usize {
        self.queue_len + self.in_flight
    }
}

/// A fleet-level dispatch policy: given the state of every machine, pick
/// the one that receives the arriving thread.
///
/// Implementations must be deterministic functions of `(self, lanes,
/// width_hint)` — no randomness, no ambient state — so fleet runs stay
/// byte-identical across worker counts. `route` takes `&mut self` because
/// policies may carry state (round-robin's cursor).
pub trait Dispatcher {
    /// The policy's name (for reports).
    fn name(&self) -> &'static str;

    /// Pick the lane (index into `lanes`, which is never empty) that
    /// receives a thread whose static width hint — mean operations per
    /// VLIW instruction, rounded — is `width_hint`.
    fn route(&mut self, lanes: &[LaneView], width_hint: u32) -> usize;
}

/// Cycle through the lanes in order, one arrival each.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> &'static str {
        DispatcherSpec::RoundRobin.name()
    }

    fn route(&mut self, lanes: &[LaneView], _width_hint: u32) -> usize {
        let idx = self.cursor % lanes.len();
        self.cursor = self.cursor.wrapping_add(1);
        idx
    }
}

/// Join the shortest queue (queued + in-flight), fleet order breaking ties.
#[derive(Debug, Default)]
pub struct LeastQueued;

impl Dispatcher for LeastQueued {
    fn name(&self) -> &'static str {
        DispatcherSpec::LeastQueued.name()
    }

    fn route(&mut self, lanes: &[LaneView], _width_hint: u32) -> usize {
        lanes
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| (l.load(), *i))
            .map(|(i, _)| i)
            .expect("fleets are non-empty")
    }
}

/// Geometry affinity: minimize the distance between the thread's static
/// width and the lane's per-cluster issue width, so wide threads land on
/// wide machines; ties break by load, then fleet order.
#[derive(Debug, Default)]
pub struct Affinity;

impl Dispatcher for Affinity {
    fn name(&self) -> &'static str {
        DispatcherSpec::Affinity.name()
    }

    fn route(&mut self, lanes: &[LaneView], width_hint: u32) -> usize {
        lanes
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| {
                let issue = u32::from(l.machine.config().issue_per_cluster);
                let fit = issue.abs_diff(width_hint);
                (fit, l.load(), *i)
            })
            .map(|(i, _)| i)
            .expect("fleets are non-empty")
    }
}

/// Per-machine accounting of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineLaneStats {
    /// The machine's geometry.
    pub machine: MachineSpec,
    /// Arrivals the dispatcher routed here.
    pub routed: u64,
    /// Threads that ran to completion here.
    pub completed: u64,
    /// Arrivals shed at this machine's admission queue.
    pub shed: u64,
    /// The machine's final cycle count.
    pub cycles: u64,
    /// Operations retired on this machine.
    pub ops: u64,
    /// VLIW instructions retired on this machine.
    pub instrs: u64,
    /// Issue-slot utilization: `ops / (cycles × total issue width)`.
    pub utilization: f64,
    /// Instructions per cycle on this machine.
    pub ipc: f64,
}

/// Fleet-level accounting: one [`MachineLaneStats`] per machine, in fleet
/// order, plus the totals the conservation law is checked against.
///
/// The fleet-wide sojourn quantiles live in the run's `TrafficStats`
/// (merged across machines by the driver), not here: this struct owns what
/// is *per-machine* or *about routing*.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-machine accounting, in fleet order.
    pub machines: Vec<MachineLaneStats>,
}

impl FleetStats {
    /// Number of machines in the fleet.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total arrivals routed (equals the run's offered count).
    pub fn routed_total(&self) -> u64 {
        self.machines.iter().map(|m| m.routed).sum()
    }

    /// The per-machine conservation law, fleet-wide: every machine's
    /// `completed + shed == routed`.
    pub fn conserves_arrivals(&self) -> bool {
        self.machines
            .iter()
            .all(|m| m.completed + m.shed == m.routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(s: &str) -> FleetSpec {
        s.parse::<FleetSpec>().unwrap()
    }

    #[test]
    fn display_parse_round_trips() {
        for s in [
            "paper-4x4*4",
            "2x8/8x2",
            "paper-4x4*2/2x8@least-queued",
            "edge",
            "edge@round-robin",
            "4x4-lite*3@affinity",
            "3x5+2+1*2",
        ] {
            let spec = rt(s);
            assert_eq!(spec.to_string(), s, "canonical spelling must be stable");
            assert_eq!(rt(&spec.to_string()), spec, "round-trip");
        }
    }

    #[test]
    fn spellings_canonicalize() {
        // Default policy is omitted; explicit default round-robin folds away.
        assert_eq!(rt("paper-4x4*2@round-robin").to_string(), "paper-4x4*2");
        // Count 1 is omitted.
        assert_eq!(rt("2x8*1/8x2*1").to_string(), "2x8/8x2");
        // The edge preset canonicalizes from its expansion, and carries
        // affinity as its own default.
        assert_eq!(rt("paper-4x4*2/2x8/8x2@affinity").to_string(), "edge");
        assert_eq!(rt("edge").dispatcher, DispatcherSpec::Affinity);
        assert_eq!(rt("edge@affinity").to_string(), "edge");
        // Machine-level canonicalization flows through.
        assert_eq!(rt("4x4+2+1*2").to_string(), "paper-4x4*2");
        // Case/underscore-insensitive like the machine grammar.
        assert_eq!(rt("EDGE@Least_Queued").to_string(), "edge@least-queued");
    }

    #[test]
    fn expansion_and_counts() {
        let spec = rt("paper-4x4*2/2x8");
        assert_eq!(spec.n_machines(), 3);
        assert_eq!(
            spec.machines(),
            vec![
                MachineSpec::Paper4x4,
                MachineSpec::Paper4x4,
                MachineSpec::Wide2x8
            ]
        );
        assert_eq!(rt("edge").n_machines(), 4);
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!("".parse::<FleetSpec>(), Err(FleetError::Empty));
        assert_eq!("@affinity".parse::<FleetSpec>(), Err(FleetError::Empty));
        assert_eq!(
            "paper-4x4//2x8".parse::<FleetSpec>(),
            Err(FleetError::Empty)
        );
        assert_eq!(
            "paper-4x4*0".parse::<FleetSpec>(),
            Err(FleetError::BadCount("0".into()))
        );
        assert_eq!(
            "paper-4x4*65".parse::<FleetSpec>(),
            Err(FleetError::BadCount("65".into()))
        );
        assert_eq!(
            "paper-4x4*two".parse::<FleetSpec>(),
            Err(FleetError::BadCount("two".into()))
        );
        assert!(matches!(
            "nope-9x9x9".parse::<FleetSpec>(),
            Err(FleetError::Machine(_))
        ));
        assert_eq!(
            "paper-4x4@fastest".parse::<FleetSpec>(),
            Err(FleetError::UnknownPolicy("fastest".into()))
        );
    }

    fn lanes(loads: &[(usize, usize)]) -> Vec<LaneView> {
        loads
            .iter()
            .map(|&(q, f)| LaneView {
                machine: MachineSpec::Paper4x4,
                queue_len: q,
                in_flight: f,
                routed: 0,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut d = DispatcherSpec::RoundRobin.build();
        let v = lanes(&[(0, 0), (0, 0), (0, 0)]);
        let picks: Vec<usize> = (0..7).map(|_| d.route(&v, 4)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_queued_picks_minimum_load_with_stable_ties() {
        let mut d = DispatcherSpec::LeastQueued.build();
        assert_eq!(d.route(&lanes(&[(3, 1), (0, 2), (1, 0)]), 4), 2);
        // Tie on load -> lowest index.
        assert_eq!(d.route(&lanes(&[(1, 1), (0, 2), (2, 0)]), 4), 0);
    }

    #[test]
    fn affinity_routes_wide_threads_to_wide_machines() {
        let mut d = DispatcherSpec::Affinity.build();
        let v: Vec<LaneView> = [
            MachineSpec::Narrow8x2,
            MachineSpec::Paper4x4,
            MachineSpec::Wide2x8,
        ]
        .into_iter()
        .map(|machine| LaneView {
            machine,
            queue_len: 0,
            in_flight: 0,
            routed: 0,
        })
        .collect();
        assert_eq!(d.route(&v, 8), 2, "wide thread -> 8-issue clusters");
        assert_eq!(d.route(&v, 2), 0, "narrow thread -> 2-issue clusters");
        assert_eq!(d.route(&v, 4), 1, "middle thread -> the paper baseline");
        // Equidistant geometries: load, then index, breaks the tie.
        let mut tied = v.clone();
        tied[0].queue_len = 1;
        assert_eq!(d.route(&tied, 3), 1, "load breaks the geometry tie");
    }

    #[test]
    fn policies_report_their_spec_names() {
        for spec in DispatcherSpec::all() {
            assert_eq!(spec.build().name(), spec.name());
            assert_eq!(spec.name().parse::<DispatcherSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn fleet_stats_conservation() {
        let lane = |routed, completed, shed| MachineLaneStats {
            machine: MachineSpec::Paper4x4,
            routed,
            completed,
            shed,
            cycles: 100,
            ops: 50,
            instrs: 25,
            utilization: 0.5,
            ipc: 0.25,
        };
        let ok = FleetStats {
            machines: vec![lane(5, 4, 1), lane(3, 3, 0)],
        };
        assert!(ok.conserves_arrivals());
        assert_eq!(ok.routed_total(), 8);
        assert_eq!(ok.machines.iter().map(|m| m.completed).sum::<u64>(), 7);
        assert_eq!(ok.machines.iter().map(|m| m.shed).sum::<u64>(), 1);
        let bad = FleetStats {
            machines: vec![lane(5, 3, 1)],
        };
        assert!(!bad.conserves_arrivals());
    }
}
