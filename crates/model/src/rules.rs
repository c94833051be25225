//! Protocol rule sets: the Appendix-A Multicube protocol, MESI, Dragon
//! and write-once, each as a family of guarded atomic transitions.
//!
//! Three rule shapes exist:
//!
//! * **`issue`** — binds a `(node, kind, line)` request to the first free
//!   transaction slot (slots are interchangeable, so only the first free
//!   one is used — a symmetry reduction). A node may hold at most one
//!   request in flight, matching the simulator's [`SubmitError::Busy`].
//! * **`serve`** — atomically completes one pending request with the
//!   engine's protocol semantics: invalidation, downgrade, memory
//!   update, side-table maintenance, all in one transition.
//! * **`fault-*`** — Multicube only: one rule per [`multicube::fault`]
//!   class. Each models the §3 self-healing outcome — the request
//!   bounces off memory's valid bit (or is simply lost) and is retried —
//!   so the transition leaves coherence state untouched and consumes one
//!   unit of the global fault budget. The budget is part of the state,
//!   so every fault-bearing prefix is a distinct explored (and
//!   invariant-checked) state.
//!
//! `broken_rules` swaps in a deliberately wrong write action (the writer
//! skips purging remote sharers — Dragon variant: the update skips
//! refreshing remote copies) to demonstrate that the checker finds the
//! bug and emits a minimal replayable counterexample.
//!
//! [`SubmitError::Busy`]: multicube::SubmitError

use multicube::EngineKind;

use crate::kernel::Rule;
use crate::state::{Mode, ModelConfig, Slot, State, NODES};

/// Decodes an issue-rule parameter into `(node, write, line)`.
fn decode_issue(cfg: &ModelConfig, p: u32) -> (u8, bool, u8) {
    let line = (p % cfg.lines as u32) as u8;
    let rest = p / cfg.lines as u32;
    let write = rest % 2 == 1;
    let node = (rest / 2) as u8;
    (node, write, line)
}

/// The pending request in `slot`, if any.
fn pending(s: &State, slot: usize) -> Option<(usize, bool, usize)> {
    match s.slots[slot] {
        Slot::Pending { node, write, line } => Some((node as usize, write, line as usize)),
        _ => None,
    }
}

/// True when serving `slot` would miss in the requester's cache (the
/// request must cross a bus and poll memory — the paths faults hit).
fn is_miss(s: &State, slot: usize) -> bool {
    let Some((node, write, line)) = pending(s, slot) else {
        return false;
    };
    let mode = s.lines[line].mode[node];
    if write {
        mode != Mode::M
    } else {
        mode == Mode::I
    }
}

/// Appendix-A Multicube service: reads install shared copies (a modified
/// owner flushes, memory snarfs the data and re-validates); writes purge
/// every other copy, leave the writer modified and clear the valid bit.
fn serve_multicube(s: &State, slot: usize, purge_sharers: bool) -> State {
    let mut t = s.clone();
    let (node, write, line) = pending(&t, slot).expect("guard admits only pending slots");
    let ls = &mut t.lines[line];
    if write {
        if purge_sharers {
            for i in 0..NODES {
                if i != node {
                    ls.mode[i] = Mode::I;
                }
            }
        }
        ls.committed += 1;
        ls.mode[node] = Mode::M;
        ls.data[node] = ls.committed;
        ls.mem_valid = false;
    } else if ls.mode[node] == Mode::I {
        if let Some(o) = ls.owner() {
            // The owner supplies and downgrades; memory snarfs the flush,
            // so the valid bit comes back on with the latest data.
            ls.mode[o] = Mode::S;
            ls.mem_valid = true;
            ls.mem_data = ls.committed;
        }
        ls.mode[node] = Mode::S;
        ls.data[node] = ls.committed;
    }
    t.slots[slot] = Slot::Done;
    t
}

/// MESI service: reads downgrade a dirty or exclusive supplier (memory
/// snarfs a dirty flush) and install shared — or exclusive-clean when no
/// other copy exists; writes end with the writer as sole modified holder.
fn serve_mesi(s: &State, slot: usize, purge_sharers: bool) -> State {
    let mut t = s.clone();
    let (node, write, line) = pending(&t, slot).expect("guard admits only pending slots");
    let ls = &mut t.lines[line];
    if write {
        if ls.mode[node] != Mode::M {
            // E silently upgrades; S upgrades over the bus; I issues a
            // read-exclusive. All three end the same way.
            if purge_sharers {
                for i in 0..NODES {
                    if i != node {
                        ls.mode[i] = Mode::I;
                    }
                }
            }
            ls.mem_valid = false;
        }
        ls.committed += 1;
        ls.mode[node] = Mode::M;
        ls.data[node] = ls.committed;
    } else if ls.mode[node] == Mode::I {
        if let Some(o) = ls.owner() {
            ls.mode[o] = Mode::S;
            ls.mem_valid = true;
            ls.mem_data = ls.committed;
            ls.mode[node] = Mode::S;
        } else if let Some(e) = ls.excl() {
            ls.mode[e] = Mode::S;
            ls.mode[node] = Mode::S;
        } else if ls.copies() > 0 {
            ls.mode[node] = Mode::S;
        } else {
            ls.mode[node] = Mode::E;
        }
        ls.data[node] = ls.committed;
    }
    t.slots[slot] = Slot::Done;
    t
}

/// Dragon service: reads never invalidate (a dirty owner becomes the
/// shared-modified holder, memory stays stale); writes to shared lines
/// broadcast an update refreshing every resident copy in place.
fn serve_dragon(s: &State, slot: usize, refresh_remote: bool) -> State {
    let mut t = s.clone();
    let (node, write, line) = pending(&t, slot).expect("guard admits only pending slots");
    let ls = &mut t.lines[line];
    if write {
        match ls.mode[node] {
            Mode::M => {
                ls.committed += 1;
                ls.data[node] = ls.committed;
            }
            Mode::E => {
                ls.committed += 1;
                ls.mode[node] = Mode::M;
                ls.data[node] = ls.committed;
                ls.mem_valid = false;
            }
            Mode::S => {
                ls.committed += 1;
                for i in 0..NODES {
                    if ls.mode[i] != Mode::I && (refresh_remote || i == node) {
                        ls.data[i] = ls.committed;
                    }
                }
                let remote = (0..NODES)
                    .filter(|&i| i != node && ls.mode[i] != Mode::I)
                    .count();
                if remote > 0 {
                    ls.sm = Some(node as u8);
                } else {
                    ls.mode[node] = Mode::M;
                    ls.sm = None;
                }
                ls.mem_valid = false;
            }
            Mode::I => {
                if ls.copies() == 0 {
                    ls.committed += 1;
                    ls.mode[node] = Mode::M;
                    ls.data[node] = ls.committed;
                    ls.mem_valid = false;
                } else {
                    // Miss-then-update: a dirty or exclusive supplier
                    // downgrades to shared, the writer joins the sharers,
                    // and the update refreshes every copy; the writer
                    // becomes the shared-modified holder.
                    for i in 0..NODES {
                        if matches!(ls.mode[i], Mode::M | Mode::E) {
                            ls.mode[i] = Mode::S;
                        }
                    }
                    ls.mode[node] = Mode::S;
                    ls.committed += 1;
                    for i in 0..NODES {
                        if ls.mode[i] != Mode::I && (refresh_remote || i == node) {
                            ls.data[i] = ls.committed;
                        }
                    }
                    ls.sm = Some(node as u8);
                    ls.mem_valid = false;
                }
            }
        }
    } else if ls.mode[node] == Mode::I {
        if let Some(o) = ls.owner() {
            // The owner supplies and keeps responsibility for the dirty
            // data as the shared-modified holder; memory is NOT written.
            ls.mode[o] = Mode::S;
            ls.sm = Some(o as u8);
        } else if let Some(e) = ls.excl() {
            ls.mode[e] = Mode::S;
        }
        // With an Sm holder or plain sharers resident, that copy (or
        // valid memory) supplies; the requester joins the sharers.
        if ls.copies() == 0 {
            ls.mode[node] = Mode::E;
        } else {
            ls.mode[node] = Mode::S;
        }
        ls.data[node] = ls.committed;
    }
    t.slots[slot] = Slot::Done;
    t
}

/// Write-once service: MESI's, except that a read installs shared even
/// when no other copy exists, and the first write to a shared copy
/// writes through — memory takes the word and stays valid, and the
/// writer is left reserved (`E`) instead of modified.
fn serve_writeonce(s: &State, slot: usize, purge_sharers: bool) -> State {
    let (node, write, line) = pending(s, slot).expect("guard admits only pending slots");
    let from = s.lines[line].mode[node];
    let mut t = serve_mesi(s, slot, purge_sharers);
    let ls = &mut t.lines[line];
    match (write, from) {
        (true, Mode::S) => {
            ls.mode[node] = Mode::E;
            ls.mem_valid = true;
            ls.mem_data = ls.committed;
        }
        (false, Mode::I) => ls.mode[node] = Mode::S,
        _ => {}
    }
    t
}

/// Dispatch to the engine's service semantics. `faithful` is false for
/// the deliberately broken variants used by counterexample tests.
fn serve(engine: EngineKind, s: &State, slot: usize, faithful: bool) -> State {
    match engine {
        EngineKind::Multicube => serve_multicube(s, slot, faithful),
        EngineKind::Mesi => serve_mesi(s, slot, faithful),
        EngineKind::Dragon => serve_dragon(s, slot, faithful),
        EngineKind::WriteOnce => serve_writeonce(s, slot, faithful),
    }
}

/// Builds the full rule set for `cfg`.
pub fn rules(cfg: &ModelConfig) -> Vec<Rule<State>> {
    build_rules(cfg, true)
}

/// The deliberately broken rule set: the write service forgets remote
/// copies (skips the purge under write-invalidate engines, skips the
/// remote refresh under Dragon). The checker must catch this.
pub fn broken_rules(cfg: &ModelConfig) -> Vec<Rule<State>> {
    build_rules(cfg, false)
}

fn build_rules(cfg: &ModelConfig, faithful: bool) -> Vec<Rule<State>> {
    let engine = cfg.engine;
    let lines = cfg.lines;
    let txns = cfg.txns as usize;
    let mut out: Vec<Rule<State>> = Vec::new();

    // issue: param encodes (node, write, line).
    let issue_cfg = *cfg;
    out.push(Rule::new(
        "issue",
        NODES as u32 * 2 * lines as u32,
        move |s: &State, p| {
            let (node, _, _) = decode_issue(&issue_cfg, p);
            !s.node_busy(node) && s.slots.contains(&Slot::Free)
        },
        move |s: &State, p| {
            let (node, write, line) = decode_issue(&issue_cfg, p);
            let mut t = s.clone();
            let free = t
                .slots
                .iter()
                .position(|x| *x == Slot::Free)
                .expect("guard requires a free slot");
            t.slots[free] = Slot::Pending { node, write, line };
            t
        },
    ));

    // serve: param is the slot index.
    out.push(Rule::new(
        "serve",
        txns as u32,
        |s: &State, p| matches!(s.slots[p as usize], Slot::Pending { .. }),
        move |s: &State, p| serve(engine, s, p as usize, faithful),
    ));

    if engine != EngineKind::Multicube {
        return out;
    }

    // Fault rules, one per core::fault class. Each consumes budget and
    // leaves the pending request pending: the §3 bounce-and-retry.
    type FaultGuard = fn(&State, usize) -> bool;
    let class: [(&'static str, FaultGuard); 5] = [
        // A wired-OR modified signal fails to reach memory: only
        // meaningful when a remote owner would have asserted it.
        ("fault-signal-drop", |s, slot| {
            pending(s, slot)
                .is_some_and(|(node, _, line)| s.lines[line].owner().is_some_and(|o| o != node))
                && is_miss(s, slot)
        }),
        // A stale MLT replica claims an owner that has since flushed:
        // only meaningful when no current owner exists.
        ("fault-stale-mlt", |s, slot| {
            pending(s, slot).is_some_and(|(_, _, line)| s.lines[line].owner().is_none())
                && is_miss(s, slot)
        }),
        // The bus operation is lost outright.
        ("fault-op-loss", |s, slot| pending(s, slot).is_some()),
        // The bus operation is duplicated; the duplicate is discarded by
        // the transaction-completion guard.
        ("fault-op-dup", |s, slot| pending(s, slot).is_some()),
        // The home memory bank NACKs the request.
        ("fault-mem-nack", |s, slot| is_miss(s, slot)),
    ];
    for (name, extra_guard) in class {
        out.push(Rule::new(
            name,
            txns as u32,
            move |s: &State, p| s.budget > 0 && extra_guard(s, p as usize),
            |s: &State, _p| {
                let mut t = s.clone();
                t.budget -= 1;
                t
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(engine: EngineKind) -> ModelConfig {
        ModelConfig::new(engine, 1, 2, 0)
    }

    #[test]
    fn issue_param_roundtrip_covers_all_requests() {
        let c = ModelConfig::new(EngineKind::Multicube, 2, 2, 0);
        let mut seen = std::collections::HashSet::new();
        for p in 0..(NODES as u32 * 2 * 2) {
            seen.insert(decode_issue(&c, p));
        }
        assert_eq!(seen.len(), NODES * 2 * 2);
    }

    #[test]
    fn multicube_write_purges_sharers_and_clears_valid_bit() {
        let c = cfg(EngineKind::Multicube);
        let mut s = State::initial(&c);
        s.lines[0].mode[0] = Mode::S;
        s.lines[0].mode[1] = Mode::S;
        s.slots[0] = Slot::Pending {
            node: 2,
            write: true,
            line: 0,
        };
        let t = serve_multicube(&s, 0, true);
        assert_eq!(t.lines[0].mode, [Mode::I, Mode::I, Mode::M, Mode::I]);
        assert!(!t.lines[0].mem_valid);
        assert_eq!(t.lines[0].committed, 1);
    }

    #[test]
    fn mesi_first_read_installs_exclusive_clean() {
        let c = cfg(EngineKind::Mesi);
        let mut s = State::initial(&c);
        s.slots[0] = Slot::Pending {
            node: 3,
            write: false,
            line: 0,
        };
        let t = serve_mesi(&s, 0, true);
        assert_eq!(t.lines[0].mode[3], Mode::E);
        assert!(t.lines[0].mem_valid);
    }

    #[test]
    fn dragon_update_refreshes_remote_copies_in_place() {
        let c = cfg(EngineKind::Dragon);
        let mut s = State::initial(&c);
        s.lines[0].mode[0] = Mode::S;
        s.lines[0].mode[1] = Mode::S;
        s.slots[0] = Slot::Pending {
            node: 0,
            write: true,
            line: 0,
        };
        let t = serve_dragon(&s, 0, true);
        assert_eq!(t.lines[0].mode[1], Mode::S, "Dragon never invalidates");
        assert_eq!(t.lines[0].data[1], t.lines[0].committed);
        assert_eq!(t.lines[0].sm, Some(0));
        assert!(!t.lines[0].mem_valid);
    }

    #[test]
    fn dragon_read_from_owner_leaves_memory_stale() {
        let c = cfg(EngineKind::Dragon);
        let mut s = State::initial(&c);
        s.lines[0].mode[1] = Mode::M;
        s.lines[0].data[1] = 1;
        s.lines[0].committed = 1;
        s.lines[0].mem_valid = false;
        s.slots[0] = Slot::Pending {
            node: 2,
            write: false,
            line: 0,
        };
        let t = serve_dragon(&s, 0, true);
        assert_eq!(t.lines[0].sm, Some(1));
        assert!(
            !t.lines[0].mem_valid,
            "memory is not written on a Dragon supply"
        );
        assert_eq!(t.lines[0].mode[1], Mode::S);
        assert_eq!(t.lines[0].mode[2], Mode::S);
    }
}
