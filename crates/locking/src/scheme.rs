//! Lock specification and the per-layer site allocator used while building
//! a network.
//!
//! The paper's §4.2 encryption protocol, which this module implements:
//!
//! 1. equally distribute the key bits to all designated hidden layers;
//! 2. embed key bits into a set of neurons selected uniformly at random
//!    within every such layer;
//! 3. assign every key bit a value uniformly at random (see
//!    [`crate::Key::random`]).
//!
//! Model builders call [`LockAllocator::lock_layer`] once per lockable layer
//! (in order) and receive the keyed operator to insert.

use crate::key::Key;
use relock_graph::{KeySlot, Op, TriggerKind, UnitLayout};
use relock_tensor::rng::Prng;
use std::fmt;
use std::str::FromStr;

/// Which locking operator protects the network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LockVariant {
    /// HPNN's original sign-flipping unit (paper Eq. 1).
    #[default]
    Sign,
    /// §3.9(a): multiply the pre-activation by `factor` when the bit is 1.
    Scale(f64),
    /// SARLock-style trigger lock: each locked layer gets one comparator
    /// guarding the whole pre-activation, fired by the sign pattern of a
    /// key-indexed input subspace. A wrong key corrupts only two of `2^d`
    /// signature patterns.
    SarTrigger,
    /// Anti-SAT-style complementary-pair trigger lock: the layer's key
    /// bits split into halves `k1, k2`; any key with `k2 == k1` is correct
    /// and a wrong key corrupts a single signature pattern.
    AntiSatTrigger,
}

impl LockVariant {
    /// Whether this variant locks via an input-triggered comparator
    /// (builders must wire the raw network input as a second parent).
    pub fn is_trigger(&self) -> bool {
        matches!(self, LockVariant::SarTrigger | LockVariant::AntiSatTrigger)
    }

    /// Canonical short name (`sign`, `scale:<factor>`, `sar`, `antisat`) —
    /// the same spelling [`FromStr`] parses and the wire protocols carry.
    pub fn name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LockVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockVariant::Sign => write!(f, "sign"),
            LockVariant::Scale(factor) => write!(f, "scale:{factor}"),
            LockVariant::SarTrigger => write!(f, "sar"),
            LockVariant::AntiSatTrigger => write!(f, "antisat"),
        }
    }
}

impl FromStr for LockVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sign" => Ok(LockVariant::Sign),
            "sar" => Ok(LockVariant::SarTrigger),
            "antisat" => Ok(LockVariant::AntiSatTrigger),
            _ => match s.strip_prefix("scale:") {
                Some(factor) => factor
                    .parse::<f64>()
                    .map(LockVariant::Scale)
                    .map_err(|_| format!("bad scale factor '{factor}'")),
                None => Err(format!(
                    "unknown lock variant '{s}' (sign|scale:<factor>|sar|antisat)"
                )),
            },
        }
    }
}

/// A constraint the lock construction imposes on the secret key.
///
/// Trigger locks do not admit arbitrary keys: a SAR comparator's correct
/// key *is* its baked-in mask, and an Anti-SAT pair is only correct when
/// its halves agree. The allocator records these while building; model
/// builders apply them to the randomly sampled key via
/// [`apply_key_constraints`] (a no-op for unconstrained variants, so the
/// rng stream of existing builders is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyConstraint {
    /// Key bit `slot` must equal `value`.
    ForceBit {
        /// Key slot index.
        slot: usize,
        /// Required bit value.
        value: bool,
    },
    /// Key bit `b` must equal key bit `a` (`b := a`).
    EqualBits {
        /// Source slot index.
        a: usize,
        /// Forced slot index.
        b: usize,
    },
}

/// Rewrites `key` in place so it satisfies every constraint, in order.
pub fn apply_key_constraints(key: &mut Key, constraints: &[KeyConstraint]) {
    for c in constraints {
        match *c {
            KeyConstraint::ForceBit { slot, value } => key.set_bit(slot, value),
            KeyConstraint::EqualBits { a, b } => key.set_bit(b, key.bit(a)),
        }
    }
}

/// How many key bits to embed and with which operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockSpec {
    /// Total number of key bits across the network.
    pub total_bits: usize,
    /// The locking operator.
    pub variant: LockVariant,
}

impl LockSpec {
    /// Sign locking with `total_bits` bits split evenly across layers.
    pub fn evenly(total_bits: usize) -> Self {
        LockSpec {
            total_bits,
            variant: LockVariant::Sign,
        }
    }

    /// Multiplicative locking (§3.9a) with the given factor.
    pub fn scale(total_bits: usize, factor: f64) -> Self {
        LockSpec {
            total_bits,
            variant: LockVariant::Scale(factor),
        }
    }

    /// SARLock-style trigger locking with `total_bits` bits.
    pub fn sar(total_bits: usize) -> Self {
        LockSpec {
            total_bits,
            variant: LockVariant::SarTrigger,
        }
    }

    /// Anti-SAT-style trigger locking with `total_bits` bits (each layer's
    /// share must come out even — the bits pair up into `k1`/`k2` halves).
    pub fn antisat(total_bits: usize) -> Self {
        LockSpec {
            total_bits,
            variant: LockVariant::AntiSatTrigger,
        }
    }

    /// The given variant with `total_bits` bits split evenly across layers.
    pub fn with_variant(total_bits: usize, variant: LockVariant) -> Self {
        LockSpec {
            total_bits,
            variant,
        }
    }

    /// An unlocked network (zero key bits).
    pub fn none() -> Self {
        LockSpec {
            total_bits: 0,
            variant: LockVariant::Sign,
        }
    }
}

/// Errors raised during lock allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// A layer was asked to hold more key bits than it has units.
    LayerTooSmall {
        /// Index of the offending layer.
        layer: usize,
        /// Units available.
        units: usize,
        /// Bits requested.
        requested: usize,
    },
    /// The builder declared `n_layers` but called `lock_layer` a different
    /// number of times.
    LayerCountMismatch {
        /// Declared layer count.
        declared: usize,
        /// Layers actually locked.
        locked: usize,
    },
    /// The architecture's lockable layers cannot hold the requested key.
    InsufficientCapacity {
        /// Total lockable units across all layers.
        capacity: usize,
        /// Key bits requested.
        requested: usize,
    },
    /// A trigger layer's bit share cannot form its comparator.
    TriggerShape {
        /// Index of the offending layer.
        layer: usize,
        /// Bits the layer was asked to hold.
        bits: usize,
        /// Why the comparator cannot be built.
        reason: &'static str,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::LayerTooSmall {
                layer,
                units,
                requested,
            } => write!(
                f,
                "layer {layer} has {units} lockable units but {requested} bits were requested"
            ),
            LockError::LayerCountMismatch { declared, locked } => write!(
                f,
                "lock plan declared {declared} layers but {locked} were locked"
            ),
            LockError::InsufficientCapacity {
                capacity,
                requested,
            } => write!(
                f,
                "cannot embed {requested} key bits into {capacity} lockable units"
            ),
            LockError::TriggerShape {
                layer,
                bits,
                reason,
            } => write!(
                f,
                "layer {layer}: trigger lock cannot use {bits} bits ({reason})"
            ),
        }
    }
}

impl std::error::Error for LockError {}

/// Allocates key slots to lockable layers while a model is being built.
///
/// Create one with the number of lockable layers the architecture exposes,
/// then have the builder call [`lock_layer`](LockAllocator::lock_layer) once
/// per layer in network order. Call [`finish`](LockAllocator::finish) after
/// building to validate the plan was fully consumed and obtain the total
/// slot count.
#[derive(Debug)]
pub struct LockAllocator {
    spec: LockSpec,
    per_layer: Vec<usize>,
    next_layer: usize,
    next_slot: usize,
    rng: Prng,
    constraints: Vec<KeyConstraint>,
}

impl LockAllocator {
    /// Plans `spec.total_bits` bits over `n_layers` lockable layers,
    /// distributing them as evenly as possible (earlier layers absorb the
    /// remainder, matching the paper's "equally distribute" protocol).
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0` while `spec.total_bits > 0`.
    pub fn new(spec: LockSpec, n_layers: usize, rng: Prng) -> Self {
        assert!(
            n_layers > 0 || spec.total_bits == 0,
            "cannot lock a network with no lockable layers"
        );
        let mut per_layer = vec![0usize; n_layers];
        if let Some(base) = spec.total_bits.checked_div(n_layers) {
            let extra = spec.total_bits % n_layers;
            for (i, p) in per_layer.iter_mut().enumerate() {
                *p = base + usize::from(i < extra);
            }
        }
        LockAllocator {
            spec,
            per_layer,
            next_layer: 0,
            next_slot: 0,
            rng,
            constraints: Vec::new(),
        }
    }

    /// Like [`new`](LockAllocator::new), but respects per-layer unit
    /// capacities: the equal split is water-filled, so bits that would
    /// overflow a narrow layer (e.g. LeNet's 6-channel first convolution)
    /// spill into layers with spare room.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::InsufficientCapacity`] if the layers cannot
    /// hold `spec.total_bits` in total.
    pub fn with_capacities(
        spec: LockSpec,
        capacities: &[usize],
        rng: Prng,
    ) -> Result<Self, LockError> {
        let total_cap: usize = capacities.iter().sum();
        if total_cap < spec.total_bits {
            return Err(LockError::InsufficientCapacity {
                capacity: total_cap,
                requested: spec.total_bits,
            });
        }
        let n = capacities.len();
        let mut per_layer = vec![0usize; n];
        let mut remaining = spec.total_bits;
        // Water-fill: repeatedly hand each unsaturated layer an equal share.
        while remaining > 0 {
            let open: Vec<usize> = (0..n).filter(|&i| per_layer[i] < capacities[i]).collect();
            let share = (remaining / open.len()).max(1);
            for (rank, &i) in open.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                let extra = usize::from(rank < remaining % open.len() && remaining >= open.len());
                let want = (share + extra)
                    .min(capacities[i] - per_layer[i])
                    .min(remaining);
                per_layer[i] += want;
                remaining -= want;
            }
        }
        Ok(LockAllocator {
            spec,
            per_layer,
            next_layer: 0,
            next_slot: 0,
            rng,
            constraints: Vec::new(),
        })
    }

    /// Plans a *trigger* lock over `n_layers` layers: SAR shares split
    /// evenly like [`new`](LockAllocator::new); Anti-SAT shares split as
    /// complementary **pairs** so every layer's share is even. Validates
    /// that each layer's signature fits the raw input.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::TriggerShape`] for an odd Anti-SAT total or a
    /// signature wider than `input_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0` while `spec.total_bits > 0` (like
    /// [`new`](LockAllocator::new)).
    pub fn for_trigger(
        spec: LockSpec,
        n_layers: usize,
        input_dim: usize,
        rng: Prng,
    ) -> Result<Self, LockError> {
        let alloc = match spec.variant {
            LockVariant::AntiSatTrigger => {
                if !spec.total_bits.is_multiple_of(2) {
                    return Err(LockError::TriggerShape {
                        layer: 0,
                        bits: spec.total_bits,
                        reason: "anti-sat needs an even total bit count",
                    });
                }
                let pair_spec = LockSpec {
                    total_bits: spec.total_bits / 2,
                    ..spec
                };
                let mut a = LockAllocator::new(pair_spec, n_layers, rng);
                for p in &mut a.per_layer {
                    *p *= 2;
                }
                a.spec = spec;
                a
            }
            _ => LockAllocator::new(spec, n_layers, rng),
        };
        if spec.variant.is_trigger() {
            for (layer, &share) in alloc.per_layer.iter().enumerate() {
                let sig = match spec.variant {
                    LockVariant::AntiSatTrigger => share / 2,
                    _ => share,
                };
                if sig > input_dim {
                    return Err(LockError::TriggerShape {
                        layer,
                        bits: share,
                        reason: "more signature bits than input dimensions",
                    });
                }
            }
        }
        Ok(alloc)
    }

    /// A zero-bit allocator producing pass-through keyed ops.
    pub fn unlocked(n_layers: usize) -> Self {
        LockAllocator::new(LockSpec::none(), n_layers.max(1), Prng::seed_from_u64(0))
    }

    /// Allocates this (next) layer's key bits over `layout.n_units` units
    /// selected uniformly at random, returning the keyed op to insert after
    /// the layer's pre-activation.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::LayerTooSmall`] if the layer cannot hold its
    /// share of bits and [`LockError::LayerCountMismatch`] if called more
    /// times than layers were declared.
    pub fn lock_layer(&mut self, layout: UnitLayout) -> Result<Op, LockError> {
        if self.spec.variant.is_trigger() {
            return Err(LockError::TriggerShape {
                layer: self.next_layer,
                bits: self.per_layer.get(self.next_layer).copied().unwrap_or(0),
                reason: "trigger variants must be locked via lock_trigger_layer",
            });
        }
        if self.next_layer >= self.per_layer.len() {
            return Err(LockError::LayerCountMismatch {
                declared: self.per_layer.len(),
                locked: self.next_layer + 1,
            });
        }
        let want = self.per_layer[self.next_layer];
        if want > layout.n_units {
            return Err(LockError::LayerTooSmall {
                layer: self.next_layer,
                units: layout.n_units,
                requested: want,
            });
        }
        self.next_layer += 1;
        let mut slots = vec![None; layout.n_units];
        let chosen = self.rng.choose_indices(layout.n_units, want);
        for u in chosen {
            slots[u] = Some(KeySlot(self.next_slot));
            self.next_slot += 1;
        }
        Ok(match self.spec.variant {
            LockVariant::Sign => Op::KeyedSign { layout, slots },
            LockVariant::Scale(factor) => Op::KeyedScale {
                layout,
                slots,
                factor,
            },
            LockVariant::SarTrigger | LockVariant::AntiSatTrigger => {
                unreachable!("trigger variants are rejected above")
            }
        })
    }

    /// Allocates this (next) layer's key bits as a single input-triggered
    /// comparator guarding the whole pre-activation, returning the
    /// [`Op::KeyedTrigger`] to insert. `input_dim` is the raw network
    /// input's dimensionality — the signature coordinates are sampled from
    /// it uniformly at random, and the builder must wire the raw input as
    /// the op's second parent.
    ///
    /// For non-trigger variants this delegates to
    /// [`lock_layer`](LockAllocator::lock_layer), so builders can call it
    /// unconditionally if they branch only on the wiring. A zero-bit share
    /// degenerates to a pass-through `KeyedSign` with no slots.
    ///
    /// # Errors
    ///
    /// All errors of [`lock_layer`](LockAllocator::lock_layer), plus
    /// [`LockError::TriggerShape`] when the layer's share cannot form the
    /// comparator (more signature bits than input dims, or an odd Anti-SAT
    /// share).
    pub fn lock_trigger_layer(
        &mut self,
        layout: UnitLayout,
        input_dim: usize,
    ) -> Result<Op, LockError> {
        if !self.spec.variant.is_trigger() {
            return self.lock_layer(layout);
        }
        if self.next_layer >= self.per_layer.len() {
            return Err(LockError::LayerCountMismatch {
                declared: self.per_layer.len(),
                locked: self.next_layer + 1,
            });
        }
        let layer = self.next_layer;
        let want = self.per_layer[layer];
        if want == 0 {
            self.next_layer += 1;
            return Ok(Op::KeyedSign {
                layout,
                slots: vec![None; layout.n_units],
            });
        }
        let (sig_len, n_slots) = match self.spec.variant {
            LockVariant::SarTrigger => (want, want),
            LockVariant::AntiSatTrigger => {
                if !want.is_multiple_of(2) {
                    return Err(LockError::TriggerShape {
                        layer,
                        bits: want,
                        reason: "anti-sat pairs need an even share",
                    });
                }
                (want / 2, want)
            }
            _ => unreachable!("non-trigger variants delegate to lock_layer"),
        };
        if sig_len > input_dim {
            return Err(LockError::TriggerShape {
                layer,
                bits: want,
                reason: "more signature bits than input dimensions",
            });
        }
        self.next_layer += 1;
        let trigger_dims = self.rng.choose_indices(input_dim, sig_len);
        let slots: Vec<KeySlot> = (0..n_slots).map(|i| KeySlot(self.next_slot + i)).collect();
        self.next_slot += n_slots;
        let kind = match self.spec.variant {
            LockVariant::SarTrigger => {
                let mask: Vec<bool> = (0..sig_len).map(|_| self.rng.flip()).collect();
                for (s, &m) in slots.iter().zip(&mask) {
                    self.constraints.push(KeyConstraint::ForceBit {
                        slot: s.index(),
                        value: m,
                    });
                }
                TriggerKind::Sar { mask }
            }
            LockVariant::AntiSatTrigger => {
                for i in 0..sig_len {
                    self.constraints.push(KeyConstraint::EqualBits {
                        a: slots[i].index(),
                        b: slots[sig_len + i].index(),
                    });
                }
                TriggerKind::AntiSat
            }
            _ => unreachable!(),
        };
        Ok(Op::KeyedTrigger {
            trigger_dims,
            slots,
            kind,
        })
    }

    /// The key constraints accumulated so far, surrendering ownership.
    /// Builders call this once after the last `lock_*` call and apply the
    /// result to the sampled key via [`apply_key_constraints`].
    pub fn take_constraints(&mut self) -> Vec<KeyConstraint> {
        std::mem::take(&mut self.constraints)
    }

    /// Validates that every declared layer was locked and returns the total
    /// number of allocated key slots.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::LayerCountMismatch`] if some layers were never
    /// locked.
    pub fn finish(self) -> Result<usize, LockError> {
        if self.next_layer != self.per_layer.len() {
            return Err(LockError::LayerCountMismatch {
                declared: self.per_layer.len(),
                locked: self.next_layer,
            });
        }
        Ok(self.next_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_distribution_with_remainder() {
        let a = LockAllocator::new(LockSpec::evenly(10), 3, Prng::seed_from_u64(1));
        assert_eq!(a.per_layer, vec![4, 3, 3]);
    }

    #[test]
    fn lock_layer_allocates_distinct_slots() {
        let mut a = LockAllocator::new(LockSpec::evenly(4), 2, Prng::seed_from_u64(2));
        let op1 = a.lock_layer(UnitLayout::scalar(8)).unwrap();
        let op2 = a.lock_layer(UnitLayout::scalar(8)).unwrap();
        let slots: Vec<_> = op1.key_slots().into_iter().chain(op2.key_slots()).collect();
        assert_eq!(slots.len(), 4);
        let set: std::collections::HashSet<_> = slots.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(a.finish().unwrap(), 4);
    }

    #[test]
    fn water_filling_spills_overflow() {
        // 10 bits over capacities [2, 8, 8]: fair share 3/3/4 overflows the
        // first layer, so it saturates at 2 and the rest spills.
        let a = LockAllocator::with_capacities(
            LockSpec::evenly(10),
            &[2, 8, 8],
            Prng::seed_from_u64(6),
        )
        .unwrap();
        assert_eq!(a.per_layer.iter().sum::<usize>(), 10);
        assert_eq!(a.per_layer[0], 2);
        assert!(a.per_layer[1] <= 8 && a.per_layer[2] <= 8);
    }

    #[test]
    fn water_filling_exact_fit() {
        let a = LockAllocator::with_capacities(
            LockSpec::evenly(18),
            &[6, 6, 6],
            Prng::seed_from_u64(7),
        )
        .unwrap();
        assert_eq!(a.per_layer, vec![6, 6, 6]);
    }

    #[test]
    fn water_filling_over_capacity_errors() {
        let err =
            LockAllocator::with_capacities(LockSpec::evenly(10), &[2, 3], Prng::seed_from_u64(8));
        assert!(matches!(err, Err(LockError::InsufficientCapacity { .. })));
    }

    #[test]
    fn layer_too_small_is_an_error() {
        let mut a = LockAllocator::new(LockSpec::evenly(9), 1, Prng::seed_from_u64(3));
        let err = a.lock_layer(UnitLayout::scalar(4)).unwrap_err();
        assert!(matches!(err, LockError::LayerTooSmall { .. }));
    }

    #[test]
    fn finish_detects_missing_layers() {
        let a = LockAllocator::new(LockSpec::evenly(2), 2, Prng::seed_from_u64(4));
        assert!(matches!(
            a.finish(),
            Err(LockError::LayerCountMismatch { .. })
        ));
    }

    #[test]
    fn unlocked_allocator_produces_passthrough() {
        let mut a = LockAllocator::unlocked(1);
        let op = a.lock_layer(UnitLayout::scalar(5)).unwrap();
        assert!(op.key_slots().is_empty());
    }

    #[test]
    fn variant_names_round_trip() {
        for v in [
            LockVariant::Sign,
            LockVariant::Scale(0.25),
            LockVariant::SarTrigger,
            LockVariant::AntiSatTrigger,
        ] {
            assert_eq!(v.name().parse::<LockVariant>().unwrap(), v);
        }
        assert!("nonsense".parse::<LockVariant>().is_err());
        assert!("scale:abc".parse::<LockVariant>().is_err());
    }

    #[test]
    fn sar_trigger_forces_key_to_mask() {
        let mut a = LockAllocator::new(LockSpec::sar(4), 1, Prng::seed_from_u64(9));
        let op = a.lock_trigger_layer(UnitLayout::scalar(6), 12).unwrap();
        let Op::KeyedTrigger {
            trigger_dims,
            slots,
            kind,
        } = &op
        else {
            panic!("expected a trigger op, got {}", op.kind());
        };
        assert_eq!(trigger_dims.len(), 4);
        assert_eq!(slots.len(), 4);
        let TriggerKind::Sar { mask } = kind else {
            panic!("expected SAR kind");
        };
        let constraints = a.take_constraints();
        assert_eq!(constraints.len(), 4);
        let mut key = Key::zeros(a.finish().unwrap());
        apply_key_constraints(&mut key, &constraints);
        for (s, &m) in slots.iter().zip(mask) {
            assert_eq!(key.bit(s.index()), m);
        }
    }

    #[test]
    fn antisat_trigger_equalizes_halves() {
        let mut a = LockAllocator::new(LockSpec::antisat(6), 1, Prng::seed_from_u64(10));
        let op = a.lock_trigger_layer(UnitLayout::scalar(5), 9).unwrap();
        let Op::KeyedTrigger {
            trigger_dims,
            slots,
            kind,
        } = &op
        else {
            panic!("expected a trigger op, got {}", op.kind());
        };
        assert_eq!(*kind, TriggerKind::AntiSat);
        assert_eq!(trigger_dims.len(), 3);
        assert_eq!(slots.len(), 6);
        let constraints = a.take_constraints();
        let mut key = Key::random(a.finish().unwrap(), &mut Prng::seed_from_u64(11));
        apply_key_constraints(&mut key, &constraints);
        for i in 0..3 {
            assert_eq!(key.bit(slots[i].index()), key.bit(slots[3 + i].index()));
        }
    }

    #[test]
    fn antisat_rejects_odd_share() {
        let mut a = LockAllocator::new(LockSpec::antisat(5), 1, Prng::seed_from_u64(12));
        let err = a.lock_trigger_layer(UnitLayout::scalar(8), 16).unwrap_err();
        assert!(matches!(err, LockError::TriggerShape { .. }));
    }

    #[test]
    fn lock_layer_rejects_trigger_variants() {
        let mut a = LockAllocator::new(LockSpec::sar(4), 1, Prng::seed_from_u64(13));
        let err = a.lock_layer(UnitLayout::scalar(8)).unwrap_err();
        assert!(matches!(err, LockError::TriggerShape { .. }));
    }

    #[test]
    fn non_trigger_spec_delegates_through_trigger_entry_point() {
        let mut a = LockAllocator::new(LockSpec::evenly(2), 1, Prng::seed_from_u64(14));
        let op = a.lock_trigger_layer(UnitLayout::scalar(4), 16).unwrap();
        assert!(matches!(op, Op::KeyedSign { .. }));
        assert_eq!(a.finish().unwrap(), 2);
    }

    #[test]
    fn scale_variant_produces_keyed_scale() {
        let mut a = LockAllocator::new(LockSpec::scale(2, 0.5), 1, Prng::seed_from_u64(5));
        let op = a.lock_layer(UnitLayout::scalar(4)).unwrap();
        assert!(matches!(op, Op::KeyedScale { factor, .. } if factor == 0.5));
    }
}
