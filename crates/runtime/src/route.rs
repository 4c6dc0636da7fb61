//! Routes: which ranks receive each row of a shuffle.
//!
//! A [`Route`] is one of three closed arms, validated once when it is
//! built and applied a batch of rows at a time:
//!
//! * **hash** — one destination per row, the [`hash::bucket_row`] of the
//!   key columns: the regular shuffle, the semijoin reductions and the
//!   group-count combine;
//! * **cube** — HyperCube's slab (paper §2.1): each pinned dimension
//!   hashes its column to a coordinate, the coordinates give a base
//!   cell, and a fan-out offset table built once enumerates the free
//!   dimensions in mixed-radix order. Broadcast is the cube with no
//!   pinned dimension and fan-out `0..p`;
//! * **skew** — one side of the heavy-hitter-resilient pair: a light key
//!   goes to its hash bucket; a heavy key's row scatters by a hash of the
//!   whole row on the side being spread and goes to every rank on the
//!   other.
//!
//! [`Route::bases`] maps a slice of rows to one *base* per row, and a
//! row's destinations are its base plus each fan-out offset, or every
//! rank for the [`ALL`] base ([`Route::dests`]). Construction refuses a
//! route that could name a rank outside the mesh, so the kernels that
//! apply it (`local_shuffle` and `exchange::run_worker`) never check a
//! destination per row.

use crate::error::RuntimeError;
use parjoin_common::{hash, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows a kernel maps to bases at a time: enough to keep
/// [`Route::bases`] in a tight loop, few enough that the bases stay in
/// L1 and no per-row buffer grows with the partition.
pub const ROUTE_CHUNK: usize = 1024;

/// The base of a row that goes to every rank.
pub const ALL: u32 = u32::MAX;

/// The heavy keys of a skew-resilient join pair; a key's value says
/// whether side `a` of the pair is the one spread (side `b` is then
/// replicated) or the other way round.
pub type HeavyKeys = HashMap<Vec<Value>, bool>;

/// Salt of the whole-row hash that scatters a heavy key's rows on the
/// side being spread: `bucket_row(row, seed ^ SPREAD_SALT, p)`.
pub const SPREAD_SALT: u64 = 0xdead_beef;

/// Which ranks receive each row of a shuffle over a `workers`-rank mesh.
#[derive(Debug, Clone)]
pub struct Route {
    workers: usize,
    /// Offsets added to a row's base to name its destinations.
    fanout: Vec<usize>,
    /// `0..workers`: the destinations of the [`ALL`] base.
    every: Vec<usize>,
    arm: Arm,
}

#[derive(Debug, Clone)]
enum Arm {
    Hash {
        cols: Vec<usize>,
        seed: u64,
    },
    Cube {
        pins: Vec<Pin>,
    },
    Skew {
        cols: Vec<usize>,
        seed: u64,
        heavy: Arc<HeavyKeys>,
        spread_when: bool,
    },
}

/// One pinned cube dimension: the column it hashes, its hash seed, its
/// share and its mixed-radix stride.
#[derive(Debug, Clone, Copy)]
struct Pin {
    col: usize,
    seed: u64,
    share: usize,
    stride: usize,
}

impl Route {
    /// Hash partitioning: row `r` goes to `bucket_row(r[cols], seed, workers)`.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] when `workers` is zero or too large.
    pub fn hash(cols: Vec<usize>, seed: u64, workers: usize) -> Result<Self, RuntimeError> {
        Route::checked(workers, vec![0], Arm::Hash { cols, seed })
    }

    /// Every row to every rank.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] when `workers` is zero or too large.
    pub fn broadcast(workers: usize) -> Result<Self, RuntimeError> {
        Route::checked(
            workers,
            (0..workers).collect(),
            Arm::Cube { pins: Vec::new() },
        )
    }

    /// The HyperCube slab of a cube with the given `shares`, one per
    /// dimension in cell-index order (the last dimension varies
    /// fastest). `pins[d]` is `Some((column, seed))` when the relation
    /// pins dimension `d`: coordinate `bucket(row[column], seed,
    /// shares[d])`. A free dimension replicates the row over its share.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] when the lengths differ, a share is
    /// zero, or the cube has more cells than `workers`.
    pub fn cube(
        shares: &[usize],
        pins: &[Option<(usize, u64)>],
        workers: usize,
    ) -> Result<Self, RuntimeError> {
        if shares.len() != pins.len() || shares.contains(&0) {
            return Err(RuntimeError::Config(format!(
                "cube shares {shares:?} need one positive share per pin ({} pins)",
                pins.len()
            )));
        }
        let mut strides = vec![0; shares.len()];
        let mut cells = 1usize;
        for (stride, &share) in strides.iter_mut().zip(shares).rev() {
            *stride = cells;
            cells = cells.saturating_mul(share);
        }
        if cells > workers {
            return Err(RuntimeError::Config(format!(
                "a cube of {cells} cells does not fit a {workers}-rank mesh"
            )));
        }
        let mut fanout = vec![0];
        let mut route_pins = Vec::new();
        for ((&share, &stride), pin) in shares.iter().zip(&strides).zip(pins) {
            match *pin {
                // A dimension of share 1 has one coordinate: it pins and
                // replicates nothing.
                _ if share == 1 => {}
                Some((col, seed)) => route_pins.push(Pin {
                    col,
                    seed,
                    share,
                    stride,
                }),
                // The first free dimension varies fastest.
                None => {
                    fanout = (0..share)
                        .flat_map(|c| fanout.iter().map(move |&o| o + c * stride))
                        .collect();
                }
            }
        }
        Route::checked(workers, fanout, Arm::Cube { pins: route_pins })
    }

    /// One side of the skew-resilient pair: a key (the `cols` values)
    /// missing from `heavy` goes to its hash bucket, as under
    /// [`Route::hash`]; a heavy key whose entry equals `spread_when`
    /// scatters by `bucket_row(row, seed ^ SPREAD_SALT, workers)`; any
    /// other heavy key goes to every rank.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] when `workers` is zero or too large.
    pub fn skew(
        cols: Vec<usize>,
        seed: u64,
        heavy: Arc<HeavyKeys>,
        spread_when: bool,
        workers: usize,
    ) -> Result<Self, RuntimeError> {
        let arm = Arm::Skew {
            cols,
            seed,
            heavy,
            spread_when,
        };
        Route::checked(workers, vec![0], arm)
    }

    /// Refuses a route that could name a rank at or past `workers`.
    fn checked(workers: usize, fanout: Vec<usize>, arm: Arm) -> Result<Self, RuntimeError> {
        if workers == 0 || workers >= ALL as usize {
            return Err(RuntimeError::Config(format!(
                "a route needs 1 to {} ranks, not {workers}",
                ALL - 1
            )));
        }
        let max_base = match &arm {
            Arm::Cube { pins } => pins.iter().map(|p| (p.share - 1) * p.stride).sum(),
            Arm::Hash { .. } | Arm::Skew { .. } => workers - 1,
        };
        let reach = max_base + fanout.iter().max().copied().unwrap_or(0);
        if reach >= workers {
            return Err(RuntimeError::Config(format!(
                "route reaches rank {reach} of a {workers}-rank mesh"
            )));
        }
        Ok(Route {
            workers,
            fanout,
            every: (0..workers).collect(),
            arm,
        })
    }

    /// Width of the mesh this route was validated for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Appends one base per row of `rows`, a row-major buffer of
    /// `arity`-column rows (`arity > 0`; nullary rows all share the
    /// base of [`Route::nullary_base`]).
    ///
    /// # Panics
    /// Panics if a key column or pinned column is not below `arity`.
    pub fn bases(&self, rows: &[Value], arity: usize, out: &mut Vec<u32>) {
        self.bases_of(rows.chunks_exact(arity), out);
    }

    /// The base every nullary row shares.
    pub fn nullary_base(&self) -> u32 {
        let mut out = Vec::with_capacity(1);
        self.bases_of(std::iter::once(&[][..]), &mut out);
        out[0]
    }

    fn bases_of<'a>(&self, rows: impl Iterator<Item = &'a [Value]>, out: &mut Vec<u32>) {
        let p = self.workers;
        let fold = |cols: &[usize], row: &[Value], seed: u64| {
            cols.iter().fold(seed, |acc, &c| hash::hash64(row[c], acc))
        };
        // Every base is below `p < ALL`, so the casts are exact.
        match &self.arm {
            Arm::Hash { cols, seed } => {
                let seed = hash::row_seed(*seed);
                out.extend(rows.map(|row| hash::reduce(fold(cols, row, seed), p) as u32));
            }
            Arm::Cube { pins } => out.extend(rows.map(|row| {
                let cell = pins.iter().map(|pin| {
                    hash::reduce(hash::hash64(row[pin.col], pin.seed), pin.share) * pin.stride
                });
                cell.sum::<usize>() as u32
            })),
            Arm::Skew {
                cols,
                seed,
                heavy,
                spread_when,
            } => {
                let mut key = Vec::with_capacity(cols.len());
                let (light, spread) = (hash::row_seed(*seed), hash::row_seed(seed ^ SPREAD_SALT));
                out.extend(rows.map(|row| {
                    key.clear();
                    key.extend(cols.iter().map(|&c| row[c]));
                    match heavy.get(key.as_slice()) {
                        None => hash::reduce(fold(cols, row, light), p) as u32,
                        Some(spread_a) if spread_a == spread_when => {
                            let all = row.iter().fold(spread, |acc, &v| hash::hash64(v, acc));
                            hash::reduce(all, p) as u32
                        }
                        Some(_) => ALL,
                    }
                }));
            }
        }
    }

    /// The destinations of a row whose base is `base`.
    #[inline]
    pub fn dests(&self, base: u32) -> impl Iterator<Item = usize> + '_ {
        let (base, offsets) = self.offsets(base);
        offsets.iter().map(move |&o| base + o)
    }

    /// How many destinations a row whose base is `base` has.
    #[inline]
    pub fn fan(&self, base: u32) -> usize {
        self.offsets(base).1.len()
    }

    #[inline]
    fn offsets(&self, base: u32) -> (usize, &[usize]) {
        if base == ALL {
            (0, &self.every)
        } else {
            (base as usize, &self.fanout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_fanout_enumerates_free_dimensions_first_fastest() {
        // Shares 2×3×2, dimension 1 pinned: strides 6, 2, 1.
        let route = Route::cube(&[2, 3, 2], &[None, Some((0, 9)), None], 12).unwrap();
        assert_eq!(route.fanout, vec![0, 6, 1, 7]);
    }
}
