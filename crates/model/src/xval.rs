//! Simulator ↔ model cross-validation.
//!
//! The model checker and the event-driven simulator describe the same
//! protocols at different granularities: the checker's transitions are
//! atomic, the simulator's are chains of timed bus events. The bridge is
//! a **version-free fingerprint** of quiescent coherence state — per
//! line: who owns it, who holds it exclusive-clean or shared-modified,
//! the sharer set, and memory's valid bit — computed through the same
//! [`CoherenceView`] trait on both sides.
//!
//! [`cross_validate`] drives the real [`Machine`] over *every* request
//! schedule the model admits (all ordered assignments of nodes, kinds
//! and lines to the transaction budget, both serially and concurrently)
//! and asserts that each quiescent fingerprint the simulator reaches is
//! in the model's reachable-idle set: the simulator's observable states
//! are a **subset** of the checker's. With a fault budget it repeats a
//! strided sample of the schedules under a composite fault plan — the §3
//! self-healing argument says faults must not add observable states.

use std::collections::HashSet;

use multicube::{
    CoherenceView, EngineKind, FaultPlan, LineMode, Machine, MachineConfig, Request, RequestKind,
    RetryPolicy,
};
use multicube_mem::LineAddr;
use multicube_topology::NodeId;

use crate::state::{ModelConfig, StateView, NODES, SIDE};

/// One line's version-free quiescent shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineFingerprint {
    /// The modified holder, if any.
    pub owner: Option<u8>,
    /// The exclusive-clean holder, if any.
    pub excl: Option<u8>,
    /// The shared-modified holder, if any.
    pub sm: Option<u8>,
    /// Bitmask of nodes holding the line shared.
    pub sharers: u8,
    /// Memory's valid bit.
    pub mem_valid: bool,
}

/// A whole machine's fingerprint: one entry per modelled line.
pub type Fingerprint = Vec<LineFingerprint>;

/// Fingerprints any coherence view over the first `lines` line addresses.
pub fn fingerprint(v: &dyn CoherenceView, lines: u8) -> Fingerprint {
    let mut out = Vec::with_capacity(lines as usize);
    for l in 0..lines as u64 {
        let line = LineAddr::new(l);
        let mut fp = LineFingerprint {
            owner: None,
            excl: None,
            sm: None,
            sharers: 0,
            mem_valid: v.memory_valid(line),
        };
        for node_idx in 0..(NODES as u32) {
            let node = NodeId::new(node_idx);
            v.for_each_resident(node, &mut |resident, mode, _| {
                if resident != line {
                    return;
                }
                match mode {
                    LineMode::Modified => fp.owner = Some(node_idx as u8),
                    LineMode::Reserved => fp.excl = Some(node_idx as u8),
                    LineMode::Shared => fp.sharers |= 1 << node_idx,
                }
            });
        }
        v.for_each_sm_entry(&mut |l2, n| {
            if l2 == line {
                fp.sm = Some(n.index() as u8);
            }
        });
        out.push(fp);
    }
    out
}

/// The model's reachable-idle fingerprint set: every explored state with
/// no transaction in flight, fingerprinted.
pub fn idle_fingerprints(
    cfg: &ModelConfig,
    exploration: &crate::kernel::Exploration<crate::state::State, multicube::CoherenceViolation>,
) -> HashSet<Fingerprint> {
    exploration
        .states
        .iter()
        .filter(|s| s.idle())
        .map(|s| fingerprint(&StateView { cfg, state: s }, cfg.lines))
        .collect()
}

/// Cross-validation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XvalReport {
    /// Distinct states the checker explored.
    pub model_states: usize,
    /// Distinct idle fingerprints in the model set.
    pub model_idle_fingerprints: usize,
    /// Simulator runs driven (serial + concurrent + faulted).
    pub sim_runs: usize,
    /// Quiescent fingerprints checked against the model set.
    pub fingerprints_checked: u64,
}

/// The 2×2 simulator configuration matching `cfg`.
fn sim_config(cfg: &ModelConfig, faults: Option<FaultPlan>) -> MachineConfig {
    let mut config = MachineConfig::grid(SIDE as u32)
        .expect("2x2 grid is valid")
        .with_engine(cfg.engine);
    if let Some(plan) = faults {
        config = config
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 10_000));
    }
    config
}

/// One request schedule: `txns` entries of `(node, write, line)`.
type RequestTuple = Vec<(u8, bool, u8)>;

/// All ordered request tuples for `cfg` — the same space the model's
/// `issue` rule enumerates.
fn request_tuples(cfg: &ModelConfig) -> Vec<RequestTuple> {
    let choices: Vec<(u8, bool, u8)> = (0..NODES as u8)
        .flat_map(|node| {
            (0..cfg.lines).flat_map(move |line| [(node, false, line), (node, true, line)])
        })
        .collect();
    let mut tuples: Vec<RequestTuple> = vec![Vec::new()];
    for _ in 0..cfg.txns {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                choices.iter().map(move |c| {
                    let mut t2 = t.clone();
                    t2.push(*c);
                    t2
                })
            })
            .collect();
    }
    tuples
}

fn request_of(write: bool, line: u8) -> Request {
    let kind = if write {
        RequestKind::Write
    } else {
        RequestKind::Read
    };
    Request::new(kind, LineAddr::new(line as u64))
}

/// Describes a tuple for error messages.
fn describe(tuple: &RequestTuple) -> String {
    tuple
        .iter()
        .map(|(n, w, l)| format!("P{n}:{}L{l}", if *w { "W" } else { "R" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Drives one simulator run and checks every quiescent fingerprint
/// against the model set. `serial` quiesces after every submission;
/// otherwise submissions overlap wherever the one-per-node limit allows.
fn drive(
    cfg: &ModelConfig,
    config: MachineConfig,
    seed: u64,
    tuple: &RequestTuple,
    serial: bool,
    model: &HashSet<Fingerprint>,
    checked: &mut u64,
) -> Result<(), String> {
    let mut m = Machine::new(config, seed).map_err(|e| e.to_string())?;
    let mut verify = |m: &Machine, when: &str| -> Result<(), String> {
        m.check_coherence()
            .map_err(|v| format!("[{}] {when}: simulator incoherent: {v}", describe(tuple)))?;
        let fp = fingerprint(m, cfg.lines);
        *checked += 1;
        if !model.contains(&fp) {
            return Err(format!(
                "[{}] {when}: simulator fingerprint {fp:?} is not model-reachable",
                describe(tuple)
            ));
        }
        Ok(())
    };
    for (i, &(node, write, line)) in tuple.iter().enumerate() {
        let node_id = NodeId::new(node as u32);
        if m.submit(node_id, request_of(write, line)).is_err() {
            // One outstanding request per node: drain and resubmit.
            m.run_to_quiescence();
            verify(&m, &format!("forced quiescence before step {i}"))?;
            m.submit(node_id, request_of(write, line))
                .map_err(|e| format!("resubmit after drain failed: {e:?}"))?;
        }
        if serial {
            m.run_to_quiescence();
            verify(&m, &format!("after step {i}"))?;
        }
    }
    m.run_to_quiescence();
    verify(&m, "final quiescence")
}

/// Exhaustively cross-validates the simulator against the model for
/// `cfg`: every request tuple serially and concurrently, plus (when
/// `cfg.budget > 0`) a strided sample of tuples under a composite fault
/// plan across several seeds.
///
/// # Errors
///
/// A description of the first simulator state (with its request
/// schedule) that escapes the model's reachable set.
pub fn cross_validate(cfg: &ModelConfig) -> Result<XvalReport, String> {
    let rules = crate::rules::rules(cfg);
    let exploration = crate::explore_model(cfg, &rules);
    if let Some(v) = &exploration.violation {
        return Err(format!("model itself is incoherent: {}", v.error));
    }
    if exploration.truncated {
        return Err("model exploration truncated; raise the state cap".into());
    }
    let model = idle_fingerprints(cfg, &exploration);

    let tuples = request_tuples(cfg);
    let mut runs = 0usize;
    let mut checked = 0u64;
    for tuple in &tuples {
        drive(
            cfg,
            sim_config(cfg, None),
            1,
            tuple,
            true,
            &model,
            &mut checked,
        )?;
        drive(
            cfg,
            sim_config(cfg, None),
            2,
            tuple,
            false,
            &model,
            &mut checked,
        )?;
        runs += 2;
    }

    if cfg.budget > 0 && cfg.engine == EngineKind::Multicube {
        // Faults must not add observable quiescent states (§3). A full
        // product with the fault plan would dominate runtime, so stride
        // the tuple space and vary the machine seed instead.
        let plan = FaultPlan::default()
            .with_op_loss(0.25)
            .with_memory_nack(0.25)
            .with_signal_drop(0.30)
            .with_op_duplicate(0.15)
            .with_mlt_delay(0.10, 2_000);
        for (i, tuple) in tuples.iter().enumerate().step_by(7) {
            for seed in [3u64, 11, 47] {
                drive(
                    cfg,
                    sim_config(cfg, Some(plan)),
                    seed + i as u64,
                    tuple,
                    i % 2 == 0,
                    &model,
                    &mut checked,
                )?;
                runs += 1;
            }
        }
    }

    Ok(XvalReport {
        model_states: exploration.states.len(),
        model_idle_fingerprints: model.len(),
        sim_runs: runs,
        fingerprints_checked: checked,
    })
}
