//! Collective communication schedules.
//!
//! Pure rank arithmetic — who talks to whom in which round — kept separate
//! from the execution machinery so the algorithms are unit-testable:
//!
//! * **dissemination barrier**: ⌈log₂ n⌉ rounds; in round *k* every rank
//!   sends to `(r + 2^k) mod n` and waits for `(r − 2^k) mod n`,
//! * **binomial-tree broadcast**: rank `vr = (r − root) mod n` receives in
//!   round ⌊log₂ vr⌋ from `vr − 2^k`, then relays to `vr + 2^j` in later
//!   rounds,
//! * **recursive-doubling all-reduce**: the largest power-of-two core
//!   pairwise-exchanges in ⌊log₂ n⌋ rounds; the `n − 2^⌊log₂ n⌋` extra
//!   ranks fold their vectors into a host first and get the result back
//!   last ([`rd_plan`]),
//! * **2-D halo exchange**: each rank trades a boundary payload with its
//!   four torus-wrapped grid neighbors ([`halo_plan`]).
//!
//! The pure reference executors ([`reduce_ring_reference`],
//! [`reduce_rd_reference`]) run a whole all-reduce on plain vectors with a
//! caller-supplied combine function; the property suite uses them to show
//! that ring and recursive doubling agree for any commutative, associative
//! reduction at any rank count.

/// Number of rounds for an n-rank dissemination or binomial pattern.
pub fn rounds(n: u32) -> u32 {
    assert!(n >= 1, "collectives need at least one rank");
    32 - (n - 1).leading_zeros()
}

/// One round of the dissemination barrier: `(send_to, recv_from)`.
pub fn barrier_round(rank: u32, n: u32, round: u32) -> (u32, u32) {
    assert!(rank < n);
    let k = 1u32 << round;
    ((rank + k) % n, (rank + n - k % n) % n)
}

/// The barrier's full schedule for `rank`.
pub fn barrier_schedule(rank: u32, n: u32) -> Vec<(u32, u32)> {
    (0..rounds(n)).map(|r| barrier_round(rank, n, r)).collect()
}

/// A broadcast participant's schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastPlan {
    /// Where the data comes from (`None` at the root).
    pub recv_from: Option<u32>,
    /// Ranks to relay to, in round order.
    pub send_to: Vec<u32>,
}

/// Computes the binomial-tree plan for `rank` with the given `root`.
pub fn broadcast_plan(rank: u32, root: u32, n: u32) -> BroadcastPlan {
    assert!(rank < n && root < n);
    let vr = (rank + n - root) % n;
    let (recv_from, first_send_round) = if vr == 0 {
        (None, 0)
    } else {
        let k = 31 - vr.leading_zeros(); // highest set bit: receiving round
        let from_vr = vr - (1 << k);
        (Some((from_vr + root) % n), k + 1)
    };
    let mut send_to = Vec::new();
    for j in first_send_round..rounds(n) {
        let to_vr = vr + (1 << j);
        if to_vr < n {
            send_to.push((to_vr + root) % n);
        }
    }
    BroadcastPlan { recv_from, send_to }
}

/// A ring all-reduce participant's lap-1/lap-2 roles.
///
/// Lap 1 accumulates around the ring `0 → 1 → … → n−1`; rank `n−1` then
/// holds the total and starts lap 2, `n−1 → 0 → 1 → … → n−2`, distributing
/// it (rank `n−2` is the last receiver that must forward nothing new to
/// `n−1`, which already has the total).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingPlan {
    /// Lap 1: who we accumulate from (`None` at rank 0, which starts).
    pub l1_recv_from: Option<u32>,
    /// Lap 1: who we pass the running sum to (`None` at rank n−1, which
    /// completes the total).
    pub l1_send_to: Option<u32>,
    /// Lap 2: who we get the total from (`None` at rank n−1).
    pub l2_recv_from: Option<u32>,
    /// Lap 2: who we forward the total to (`None` at rank n−2, the last
    /// receiver before the loop would close).
    pub l2_send_to: Option<u32>,
}

/// Computes the ring plan for `rank` of `n`.
pub fn ring_plan(rank: u32, n: u32) -> RingPlan {
    assert!(rank < n);
    if n == 1 {
        return RingPlan {
            l1_recv_from: None,
            l1_send_to: None,
            l2_recv_from: None,
            l2_send_to: None,
        };
    }
    let last = n - 1;
    RingPlan {
        l1_recv_from: (rank > 0).then(|| rank - 1),
        l1_send_to: (rank < last).then(|| rank + 1),
        l2_recv_from: (rank != last).then(|| (rank + n - 1) % n),
        l2_send_to: (rank == last || rank + 1 != last).then(|| (rank + 1) % n),
    }
}

/// A recursive-doubling all-reduce participant's role.
///
/// For `n` ranks, let `p = 2^⌊log₂ n⌋` and `extras = n − p`. Ranks
/// `p..n` are **folders**: they send their vector to `rank − p` before
/// the core rounds and receive the finished result afterwards. Ranks
/// `0..extras` are **hosts**: they absorb a folder's vector first and
/// return the result last. Every rank below `p` then runs `log₂ p`
/// pairwise exchange rounds with partner `rank ^ 2^k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RdPlan {
    /// Folders: the host rank absorbing our vector (and returning the
    /// result). `None` for core ranks.
    pub fold_to: Option<u32>,
    /// Hosts: the folder rank whose vector we absorb first (and send
    /// the result back to). `None` otherwise.
    pub fold_from: Option<u32>,
    /// Core exchange partners, one per round. Empty for folders.
    pub partners: Vec<u32>,
}

/// Largest power of two ≤ `n` (the recursive-doubling core size).
pub fn rd_core(n: u32) -> u32 {
    assert!(n >= 1, "collectives need at least one rank");
    1 << (31 - n.leading_zeros())
}

/// Computes the recursive-doubling plan for `rank` of `n`.
pub fn rd_plan(rank: u32, n: u32) -> RdPlan {
    assert!(rank < n);
    let p = rd_core(n);
    let extras = n - p;
    if rank >= p {
        return RdPlan {
            fold_to: Some(rank - p),
            fold_from: None,
            partners: Vec::new(),
        };
    }
    let fold_from = (rank < extras).then_some(rank + p);
    let core_rounds = 31 - p.leading_zeros();
    let partners = (0..core_rounds).map(|k| rank ^ (1 << k)).collect();
    RdPlan {
        fold_to: None,
        fold_from,
        partners,
    }
}

/// The four halo directions, in wire order: the `round` field of a halo
/// message carries the *sender's* direction index.
pub const HALO_UP: u32 = 0;
/// Direction index: toward row + 1 (torus wrap).
pub const HALO_DOWN: u32 = 1;
/// Direction index: toward col − 1 (torus wrap).
pub const HALO_LEFT: u32 = 2;
/// Direction index: toward col + 1 (torus wrap).
pub const HALO_RIGHT: u32 = 3;

/// The direction a halo message *arrives from*: a message the sender
/// labeled `UP` fills the receiver's `DOWN` slot, and so on.
pub fn halo_opposite(dir: u32) -> u32 {
    dir ^ 1
}

/// A near-square `(cols, rows)` factorization of `n` with
/// `cols ≥ rows ≥ 1` and `cols · rows == n` (the default halo grid).
pub fn grid_dims(n: u32) -> (u32, u32) {
    assert!(n >= 1);
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (n / rows, rows)
}

/// The torus-wrapped grid neighbor of `rank` in direction `dir`
/// (`HALO_UP`/`DOWN`/`LEFT`/`RIGHT`) on a `cols × rows` grid.
pub fn halo_neighbor(rank: u32, cols: u32, rows: u32, dir: u32) -> u32 {
    assert!(cols >= 1 && rows >= 1 && rank < cols * rows);
    assert!(dir < 4, "halo direction out of range");
    let (col, row) = (rank % cols, rank / cols);
    let (ncol, nrow) = match dir {
        HALO_UP => (col, (row + rows - 1) % rows),
        HALO_DOWN => (col, (row + 1) % rows),
        HALO_LEFT => ((col + cols - 1) % cols, row),
        _ => ((col + 1) % cols, row),
    };
    nrow * cols + ncol
}

/// All four neighbors of `rank`, indexed by direction.
pub fn halo_plan(rank: u32, cols: u32, rows: u32) -> [u32; 4] {
    [
        halo_neighbor(rank, cols, rows, HALO_UP),
        halo_neighbor(rank, cols, rows, HALO_DOWN),
        halo_neighbor(rank, cols, rows, HALO_LEFT),
        halo_neighbor(rank, cols, rows, HALO_RIGHT),
    ]
}

/// Reference ring all-reduce: folds every rank's vector in ring order
/// (lap 1) and hands every rank the total (lap 2). `inputs[r]` is rank
/// `r`'s contribution; all vectors must share a length.
pub fn reduce_ring_reference<T: Clone>(
    inputs: &[Vec<T>],
    combine: &dyn Fn(&T, &T) -> T,
) -> Vec<T> {
    let mut iter = inputs.iter();
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut acc = first.clone();
    for v in iter {
        for (a, b) in acc.iter_mut().zip(v.iter()) {
            *a = combine(a, b);
        }
    }
    acc
}

/// Reference recursive-doubling all-reduce: executes [`rd_plan`]'s
/// fold/exchange/unfold phases on plain vectors. Returns the value every
/// rank ends with (they all agree by construction).
pub fn reduce_rd_reference<T: Clone>(
    inputs: &[Vec<T>],
    combine: &dyn Fn(&T, &T) -> T,
) -> Vec<T> {
    let n = inputs.len() as u32;
    if n == 0 {
        return Vec::new();
    }
    let p = rd_core(n);
    let mut vals: Vec<Vec<T>> = inputs.to_vec();
    // Pre-fold: host `h` absorbs its folder `h + p`'s vector.
    if let Some((core, folders)) = vals.split_at_mut_checked(p as usize) {
        for (mine, incoming) in core.iter_mut().zip(folders.iter()) {
            for (a, b) in mine.iter_mut().zip(incoming.iter()) {
                *a = combine(a, b);
            }
        }
    }
    // Core rounds: pairwise exchange over the power-of-two core.
    let core_rounds = 31 - p.leading_zeros();
    for k in 0..core_rounds {
        let prev = vals.clone();
        for (r, mine) in vals.iter_mut().enumerate().take(p as usize) {
            let partner = (r as u32 ^ (1 << k)) as usize;
            for (a, b) in mine.iter_mut().zip(prev.get(partner).into_iter().flatten()) {
                *a = combine(a, b);
            }
        }
    }
    // Post-fold: every rank ends with the core's value.
    vals.into_iter().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rounds_is_ceil_log2() {
        assert_eq!(rounds(1), 0);
        assert_eq!(rounds(2), 1);
        assert_eq!(rounds(3), 2);
        assert_eq!(rounds(4), 2);
        assert_eq!(rounds(5), 3);
        assert_eq!(rounds(8), 3);
        assert_eq!(rounds(9), 4);
    }

    #[test]
    fn barrier_partners_are_symmetric() {
        // If rank a sends to b in round k, then b expects a in round k.
        for n in 2..10u32 {
            for k in 0..rounds(n) {
                for a in 0..n {
                    let (to, _) = barrier_round(a, n, k);
                    let (_, from) = barrier_round(to, n, k);
                    assert_eq!(from, a, "n={n} k={k} a={a}");
                }
            }
        }
    }

    #[test]
    fn broadcast_covers_all_ranks_exactly_once() {
        for n in 1..17u32 {
            for root in 0..n {
                let mut received: HashSet<u32> = HashSet::new();
                received.insert(root);
                let mut senders = 0;
                for r in 0..n {
                    let plan = broadcast_plan(r, root, n);
                    if r == root {
                        assert!(plan.recv_from.is_none());
                    } else {
                        assert!(plan.recv_from.is_some());
                        assert!(received.insert(r) || !received.contains(&r));
                    }
                    senders += plan.send_to.len();
                }
                // Every non-root rank is someone's send target exactly once.
                let mut targets: Vec<u32> = (0..n)
                    .flat_map(|r| broadcast_plan(r, root, n).send_to)
                    .collect();
                targets.sort_unstable();
                let mut expect: Vec<u32> = (0..n).filter(|&r| r != root).collect();
                expect.sort_unstable();
                assert_eq!(targets, expect, "n={n} root={root}");
                assert_eq!(senders as u32, n - 1);
            }
        }
    }

    #[test]
    fn broadcast_receive_precedes_sends() {
        // A rank's receiving round is strictly before its sending rounds.
        for n in 2..17u32 {
            for r in 1..n {
                let plan = broadcast_plan(r, 0, n);
                let k = 31 - r.leading_zeros();
                for (i, &to) in plan.send_to.iter().enumerate() {
                    let to_vr = to; // root 0: vr == rank
                    assert_eq!(to_vr, r + (1 << (k + 1 + i as u32)));
                }
            }
        }
    }

    #[test]
    fn rd_plan_pairs_core_ranks_symmetrically() {
        for n in 1..40u32 {
            let p = rd_core(n);
            assert!(p <= n && p * 2 > n && p.is_power_of_two());
            for r in 0..n {
                let plan = rd_plan(r, n);
                if r >= p {
                    assert_eq!(plan.fold_to, Some(r - p));
                    assert!(plan.partners.is_empty());
                    // The host points back.
                    assert_eq!(rd_plan(r - p, n).fold_from, Some(r));
                } else {
                    for (k, &partner) in plan.partners.iter().enumerate() {
                        assert!(partner < p);
                        let back = rd_plan(partner, n);
                        assert_eq!(back.partners[k], r, "n={n} r={r} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn rd_and_ring_references_agree_on_sums() {
        for n in 1..33usize {
            let inputs: Vec<Vec<u64>> = (0..n)
                .map(|r| (0..5).map(|i| (r as u64 + 1) * (i + 3)).collect())
                .collect();
            let combine = |a: &u64, b: &u64| a.wrapping_add(*b);
            assert_eq!(
                reduce_ring_reference(&inputs, &combine),
                reduce_rd_reference(&inputs, &combine),
                "n={n}"
            );
        }
    }

    #[test]
    fn grid_dims_factors_exactly() {
        for n in 1..200u32 {
            let (cols, rows) = grid_dims(n);
            assert_eq!(cols * rows, n);
            assert!(cols >= rows);
        }
        assert_eq!(grid_dims(256), (16, 16));
        assert_eq!(grid_dims(1024), (32, 32));
    }

    #[test]
    fn halo_neighbors_are_mutual() {
        for (cols, rows) in [(1u32, 1u32), (4, 1), (2, 2), (4, 4), (16, 16), (5, 3)] {
            for rank in 0..cols * rows {
                for dir in 0..4 {
                    let peer = halo_neighbor(rank, cols, rows, dir);
                    assert_eq!(
                        halo_neighbor(peer, cols, rows, halo_opposite(dir)),
                        rank,
                        "cols={cols} rows={rows} rank={rank} dir={dir}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_plan_chains_completely() {
        for n in 1..9u32 {
            let plans: Vec<RingPlan> = (0..n).map(|r| ring_plan(r, n)).collect();
            if n == 1 {
                assert_eq!(plans[0].l1_send_to, None);
                continue;
            }
            // Lap 1 visits every rank once, 0 → n-1.
            let mut at = 0u32;
            let mut visited = 1;
            while let Some(next) = plans[at as usize].l1_send_to {
                assert_eq!(plans[next as usize].l1_recv_from, Some(at));
                at = next;
                visited += 1;
            }
            assert_eq!(at, n - 1);
            assert_eq!(visited, n);
            // Lap 2 reaches every rank except n-1 (which computed the total).
            let mut at = n - 1;
            let mut reached = 0;
            while let Some(next) = plans[at as usize].l2_send_to {
                assert_eq!(plans[next as usize].l2_recv_from, Some(at));
                at = next;
                reached += 1;
                assert!(reached <= n, "lap 2 loops");
            }
            assert_eq!(reached, n - 1, "n={n}");
        }
    }
}
