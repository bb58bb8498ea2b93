//! Small-scope fault enumeration over the HPBD client's request states,
//! through the swap-consistency oracle (`tests/oracle/mod.rs`).
//!
//! The fault-free run yields the virtual instants at which some request
//! changes state. Every single fault from {crash, restart, loss, delay,
//! dup, completion error} × {server 0, server 1} is placed at each of them;
//! ordered pairs of those placements run too (a seeded sample of 200 here,
//! all of them under `--include-ignored`). Delay and dup are armed only in
//! write phases: a late read push could land in a recycled staging span
//! (DESIGN.md §13).
//!
//! Five machines:
//! - 2 servers, block path: every single placement, and the pairs.
//! - 3 servers, where a request already on its replica has a live third
//!   server it must not be sent to: a sample of pairs.
//! - 2 servers with 4-page chunks and 2 spare chunks per server: a revoke
//!   of one server's first chunk, at an instant or once the client has
//!   written a server off, paired with every single placement. Reads race
//!   each move. A revoke never loses data, so the oracle is the same.
//! - 2 servers on the direct path, and 2 servers merging on the block
//!   path: a sample of pairs, and under `--include-ignored` every single
//!   placement and every pair (a sample of 100,000 with merging).

mod oracle;

use hpbd_suite::hpbd::ClientStats;
use hpbd_suite::simcore::SimRng;
use oracle::{check, placements, Fault, Machine, Placement, TWO_SERVERS};

/// Pairs the tier-1 samples run.
const SAMPLED_PAIRS: usize = 200;
/// Pairs the CI sample runs on the merging machine: its 359,400 pairs are
/// the largest set, and a sample keeps the `fault-smoke` step well inside
/// twice its time before the direct and merging machines.
const WIDE_SAMPLED_PAIRS: usize = 100_000;

const THREE_SERVERS: Machine = Machine {
    servers: 3,
    ..TWO_SERVERS
};
const REVOCABLE: Machine = Machine {
    revocable: true,
    ..TWO_SERVERS
};
const DIRECT: Machine = Machine {
    direct: true,
    ..TWO_SERVERS
};
const BATCHED: Machine = Machine {
    batching: true,
    ..TWO_SERVERS
};

/// Which recovery events the explored plans reached, by client counter.
#[derive(Default)]
struct Coverage {
    plans: usize,
    reached: [u64; 8],
}

impl Coverage {
    const NAMES: [&'static str; 8] = [
        "pool_waits",
        "flow_stalls",
        "timeouts",
        "retries",
        "failovers",
        "mirror_drops",
        "stale_drops",
        "epoch_wipes",
    ];

    fn add(&mut self, s: &ClientStats) {
        self.plans += 1;
        let seen = [
            s.pool_waits,
            s.flow_stalls,
            s.timeouts,
            s.retries,
            s.failovers,
            s.mirror_drops,
            s.stale_drops,
            s.epoch_wipes,
        ];
        for (plans, n) in self.reached.iter_mut().zip(seen) {
            *plans += (n > 0) as u64;
        }
    }

    fn print(&self, what: &str) {
        println!("{what}: {} plans explored", self.plans);
        for (name, plans) in Self::NAMES.iter().zip(self.reached) {
            println!("  {name:<13} reached in {plans} plans");
        }
    }

    /// Add `other`'s plans to these.
    fn absorb(mut self, other: Coverage) -> Coverage {
        self.plans += other.plans;
        for (plans, n) in self.reached.iter_mut().zip(other.reached) {
            *plans += n;
        }
        self
    }

    /// Some plan on `machine` reached every recovery counter.
    fn assert_all_reached(&self, machine: Machine) {
        for (name, plans) in Self::NAMES.iter().zip(self.reached) {
            assert!(plans > 0, "no plan on {machine:?} reached {name}");
        }
    }
}

/// Every single placement on `machine`.
fn singles(machine: Machine) -> Coverage {
    let mut coverage = Coverage::default();
    for p in placements(machine) {
        coverage.add(&check(&[p], machine));
    }
    coverage.print(&format!("single placements on {machine:?}"));
    coverage
}

#[test]
fn every_single_fault_at_every_state_change_keeps_the_oracle() {
    let coverage = singles(TWO_SERVERS);
    // An epoch wipe takes two faults: a crash, then a restart.
    for (name, plans) in Coverage::NAMES.iter().zip(coverage.reached) {
        assert!(
            plans > 0 || *name == "epoch_wipes",
            "no single fault reached {name}"
        );
    }
}

/// `count` ordered pairs of distinct placements on `machine`, drawn with
/// `seed`.
fn sample_pairs(machine: Machine, seed: u64, count: usize) -> Coverage {
    let singles = placements(machine);
    let n = singles.len() as u64;
    let mut rng = SimRng::new(seed);
    let mut coverage = Coverage::default();
    for _ in 0..count {
        let (i, j) = (rng.below(n) as usize, rng.below(n - 1) as usize);
        // Skip the diagonal: `j` indexes the placements other than `i`.
        let j = if j >= i { j + 1 } else { j };
        coverage.add(&check(&[singles[i], singles[j]], machine));
    }
    coverage.print(&format!("sampled ordered pairs on {machine:?}"));
    coverage
}

#[test]
fn a_seeded_sample_of_fault_pairs_keeps_the_oracle() {
    sample_pairs(TWO_SERVERS, 31, SAMPLED_PAIRS);
}

#[test]
fn a_seeded_sample_of_fault_pairs_on_three_servers_keeps_the_oracle() {
    sample_pairs(THREE_SERVERS, 47, SAMPLED_PAIRS);
}

#[test]
fn a_seeded_sample_of_fault_pairs_on_the_direct_path_keeps_the_oracle() {
    sample_pairs(DIRECT, 59, SAMPLED_PAIRS);
}

#[test]
fn a_seeded_sample_of_fault_pairs_with_merging_keeps_the_oracle() {
    sample_pairs(BATCHED, 61, SAMPLED_PAIRS);
}

/// Every ordered pair of distinct placements on `machine`.
fn all_pairs(machine: Machine) -> Coverage {
    let singles = placements(machine);
    let mut coverage = Coverage::default();
    for (i, &first) in singles.iter().enumerate() {
        for (j, &second) in singles.iter().enumerate() {
            if i != j {
                coverage.add(&check(&[first, second], machine));
            }
        }
    }
    coverage.print(&format!("all ordered pairs on {machine:?}"));
    coverage
}

#[test]
#[ignore = "every ordered pair of placements: minutes in release (CI fault-smoke job)"]
fn every_ordered_pair_of_faults_keeps_the_oracle() {
    all_pairs(TWO_SERVERS).assert_all_reached(TWO_SERVERS);
}

#[test]
#[ignore = "every single fault and every pair: minutes in release (CI fault-smoke job)"]
fn every_fault_and_every_pair_on_the_direct_path_keep_the_oracle() {
    singles(DIRECT)
        .absorb(all_pairs(DIRECT))
        .assert_all_reached(DIRECT);
}

#[test]
#[ignore = "every single fault and a wide sample of pairs: minutes in release (CI fault-smoke job)"]
fn every_fault_and_a_wide_sample_of_pairs_with_merging_keep_the_oracle() {
    let pairs = sample_pairs(BATCHED, 67, WIDE_SAMPLED_PAIRS);
    singles(BATCHED).absorb(pairs).assert_all_reached(BATCHED);
}

/// Every revoke placement on the revocable machine paired with every
/// other single placement: in either order for a revoke at an instant,
/// once for a revoke that waits for a write-off.
fn revoke_pairs() -> Vec<[Placement; 2]> {
    let (revokes, faults): (Vec<_>, Vec<_>) = placements(REVOCABLE)
        .into_iter()
        .partition(|p| p.fault.is_revoke());
    let pairs = revokes.iter().flat_map(|&r| {
        let both = r.fault == Fault::Revoke;
        faults
            .iter()
            .flat_map(move |&f| [Some([f, r]), both.then_some([r, f])])
            .flatten()
    });
    pairs.collect()
}

/// Run `pairs` on the revocable machine; some plan must move a chunk.
fn check_revoke_pairs(pairs: &[[Placement; 2]], what: &str) {
    let mut coverage = Coverage::default();
    let (mut moved, mut retried) = (0, 0);
    for pair in pairs {
        let stats = check(pair, REVOCABLE);
        moved += (stats.migrations > 0) as u64;
        retried += (stats.migration_retries > 0) as u64;
        coverage.add(&stats);
    }
    coverage.print(what);
    println!("  migrations    reached in {moved} plans");
    println!("  migration_retries reached in {retried} plans");
    assert!(moved > 0, "no plan moved a chunk");
}

#[test]
fn a_seeded_sample_of_revoke_pairs_keeps_the_oracle() {
    let pairs = revoke_pairs();
    let mut rng = SimRng::new(53);
    let sample: Vec<_> = (0..SAMPLED_PAIRS)
        .map(|_| pairs[rng.below(pairs.len() as u64) as usize])
        .collect();
    check_revoke_pairs(&sample, "sampled revoke pairs");
}

#[test]
#[ignore = "every revoke pair: minutes in release (CI fault-smoke job)"]
fn every_revoke_pair_keeps_the_oracle() {
    let pairs = revoke_pairs();
    println!("{} revoke pairs", pairs.len());
    check_revoke_pairs(&pairs, "all revoke pairs");
}

// Pinned in tier-1: a notice duplicated in flight must not move its chunk
// twice; a revoke after a write-off has nowhere to move its chunk and
// must leave it at home; and slot 0 reads back zeros unless a region
// written under a snapshot in flight leaves the snapshot its old bytes
// (EXPERIMENTS *Fault enumeration*).
oracle::rows! {
    a_revoke_notice_duplicated_in_flight_moves_its_chunk_once:
        REVOCABLE, [(Dup, 0, 0), (Revoke, 0, 0)], migrations;
    a_revoke_after_a_write_off_leaves_its_chunk_at_home:
        REVOCABLE, [(Crash, 1, 0), (RevokeAfterWriteOff, 0, 0)], revocations;
    a_crash_of_a_moved_chunks_old_home_keeps_its_bytes:
        REVOCABLE, [(Crash, 0, 263384), (Revoke, 0, 0)], migrations;
}
