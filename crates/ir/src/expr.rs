//! Index expressions: affine forms over loop induction variables, opaque
//! (compile-time-unanalyzable) subscripts, and branch conditions.
//!
//! The paper's compiler reasons about array subscripts that are affine in the
//! surrounding loop indices; anything else (`X(f(i))` in the paper's running
//! example) must be treated conservatively. [`Affine`] is the analyzable
//! form; [`Subscript::Opaque`] is the unanalyzable one, which the interpreter
//! evaluates with a deterministic hash so simulations are reproducible while
//! the compiler sees an unknown.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A loop induction variable, numbered per procedure in binding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Evaluation environment: the current value of each in-scope loop variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env {
    vals: Vec<Option<i64>>,
}

impl Env {
    /// An empty environment with no bound variables.
    #[must_use]
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds `var` to `value` (entering its loop).
    pub fn bind(&mut self, var: VarId, value: i64) {
        let ix = var.0 as usize;
        if self.vals.len() <= ix {
            self.vals.resize(ix + 1, None);
        }
        self.vals[ix] = Some(value);
    }

    /// Unbinds `var` (leaving its loop).
    pub fn unbind(&mut self, var: VarId) {
        if let Some(slot) = self.vals.get_mut(var.0 as usize) {
            *slot = None;
        }
    }

    /// Current value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not bound; the IR validator guarantees that
    /// well-formed programs only reference in-scope variables.
    #[must_use]
    pub fn value(&self, var: VarId) -> i64 {
        self.vals
            .get(var.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("unbound loop variable {var}"))
    }

    /// Whether `var` currently has a value.
    #[must_use]
    pub fn is_bound(&self, var: VarId) -> bool {
        matches!(self.vals.get(var.0 as usize), Some(Some(_)))
    }

    /// Values of all currently bound variables, in `VarId` order, for use as
    /// deterministic hash input.
    #[must_use]
    pub fn bound_values(&self) -> Vec<(u32, i64)> {
        self.vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i as u32, v)))
            .collect()
    }
}

/// An affine integer expression `c0 + c1*v1 + c2*v2 + ...`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    /// `(variable, coefficient)` pairs, sorted by variable, no zero
    /// coefficients, no duplicates.
    terms: Vec<(VarId, i64)>,
    konst: i64,
}

impl Affine {
    /// The constant expression `k`.
    #[must_use]
    pub fn konst(k: i64) -> Self {
        Affine {
            terms: Vec::new(),
            konst: k,
        }
    }

    /// The expression `v` (coefficient one).
    #[must_use]
    pub fn var(v: VarId) -> Self {
        Affine {
            terms: vec![(v, 1)],
            konst: 0,
        }
    }

    /// The expression `c * v`.
    #[must_use]
    pub fn scaled_var(v: VarId, c: i64) -> Self {
        if c == 0 {
            Affine::konst(0)
        } else {
            Affine {
                terms: vec![(v, c)],
                konst: 0,
            }
        }
    }

    /// Constant part.
    #[must_use]
    pub fn constant(&self) -> i64 {
        self.konst
    }

    /// The `(variable, coefficient)` terms, sorted by variable.
    #[must_use]
    pub fn terms(&self) -> &[(VarId, i64)] {
        &self.terms
    }

    /// Coefficient of `v` (zero if absent).
    #[must_use]
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms
            .iter()
            .find(|(t, _)| *t == v)
            .map_or(0, |&(_, c)| c)
    }

    /// Whether the expression is a constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether `v` occurs with nonzero coefficient.
    #[must_use]
    pub fn uses(&self, v: VarId) -> bool {
        self.coeff(v) != 0
    }

    /// All variables with nonzero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Evaluates under `env`.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is unbound.
    #[must_use]
    pub fn eval(&self, env: &Env) -> i64 {
        self.terms
            .iter()
            .fold(self.konst, |acc, &(v, c)| acc + c * env.value(v))
    }

    fn add_term(&mut self, v: VarId, c: i64) {
        if c == 0 {
            return;
        }
        match self.terms.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(pos) => {
                self.terms[pos].1 += c;
                if self.terms[pos].1 == 0 {
                    self.terms.remove(pos);
                }
            }
            Err(pos) => self.terms.insert(pos, (v, c)),
        }
    }
}

impl From<i64> for Affine {
    fn from(k: i64) -> Self {
        Affine::konst(k)
    }
}

impl From<VarId> for Affine {
    fn from(v: VarId) -> Self {
        Affine::var(v)
    }
}

impl Add for Affine {
    type Output = Affine;
    fn add(self, rhs: Affine) -> Affine {
        let mut out = self;
        out.konst += rhs.konst;
        for (v, c) in rhs.terms {
            out.add_term(v, c);
        }
        out
    }
}

impl Add<i64> for Affine {
    type Output = Affine;
    fn add(self, rhs: i64) -> Affine {
        let mut out = self;
        out.konst += rhs;
        out
    }
}

impl Sub for Affine {
    type Output = Affine;
    fn sub(self, rhs: Affine) -> Affine {
        self + rhs * -1
    }
}

impl Sub<i64> for Affine {
    type Output = Affine;
    fn sub(self, rhs: i64) -> Affine {
        self + (-rhs)
    }
}

impl Mul<i64> for Affine {
    type Output = Affine;
    fn mul(self, rhs: i64) -> Affine {
        if rhs == 0 {
            return Affine::konst(0);
        }
        let mut out = self;
        out.konst *= rhs;
        for t in &mut out.terms {
            t.1 *= rhs;
        }
        out
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.konst);
        }
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { '-' } else { '+' };
                let mag = c.abs();
                if mag == 1 {
                    write!(f, " {sign} {v}")?;
                } else {
                    write!(f, " {sign} {mag}*{v}")?;
                }
            }
        }
        if self.konst != 0 {
            let sign = if self.konst < 0 { '-' } else { '+' };
            write!(f, " {sign} {}", self.konst.abs())?;
        }
        Ok(())
    }
}

/// One array subscript: analyzable affine form or an opaque runtime function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subscript {
    /// An affine expression the compiler can analyze.
    Affine(Affine),
    /// A subscript the compiler cannot analyze (an index array, a runtime
    /// permutation, ...). The interpreter evaluates it as a deterministic
    /// pseudo-random function of the bound loop variables, confined to
    /// `0..extent` of the subscripted dimension.
    Opaque(OpaqueFn),
}

impl Subscript {
    /// The affine form, if analyzable.
    #[must_use]
    pub fn as_affine(&self) -> Option<&Affine> {
        match self {
            Subscript::Affine(a) => Some(a),
            Subscript::Opaque(_) => None,
        }
    }
}

impl fmt::Display for Subscript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subscript::Affine(a) => write!(f, "{a}"),
            Subscript::Opaque(o) => write!(f, "f{}(...)", o.salt()),
        }
    }
}

impl From<Affine> for Subscript {
    fn from(a: Affine) -> Self {
        Subscript::Affine(a)
    }
}

impl From<VarId> for Subscript {
    fn from(v: VarId) -> Self {
        Subscript::Affine(Affine::var(v))
    }
}

impl From<i64> for Subscript {
    fn from(k: i64) -> Self {
        Subscript::Affine(Affine::konst(k))
    }
}

impl From<OpaqueFn> for Subscript {
    fn from(f: OpaqueFn) -> Self {
        Subscript::Opaque(f)
    }
}

impl Add<i64> for VarId {
    type Output = Affine;
    fn add(self, rhs: i64) -> Affine {
        Affine::var(self) + rhs
    }
}

impl Sub<i64> for VarId {
    type Output = Affine;
    fn sub(self, rhs: i64) -> Affine {
        Affine::var(self) - rhs
    }
}

impl Mul<i64> for VarId {
    type Output = Affine;
    fn mul(self, rhs: i64) -> Affine {
        Affine::scaled_var(self, rhs)
    }
}

impl Add<VarId> for VarId {
    type Output = Affine;
    fn add(self, rhs: VarId) -> Affine {
        Affine::var(self) + Affine::var(rhs)
    }
}

impl Sub<VarId> for VarId {
    type Output = Affine;
    fn sub(self, rhs: VarId) -> Affine {
        Affine::var(self) - Affine::var(rhs)
    }
}

impl Add<Affine> for VarId {
    type Output = Affine;
    fn add(self, rhs: Affine) -> Affine {
        Affine::var(self) + rhs
    }
}

impl Add<VarId> for Affine {
    type Output = Affine;
    fn add(self, rhs: VarId) -> Affine {
        self + Affine::var(rhs)
    }
}

impl Sub<VarId> for Affine {
    type Output = Affine;
    fn sub(self, rhs: VarId) -> Affine {
        self - Affine::var(rhs)
    }
}

/// Deterministic stand-in for a compile-time-unanalyzable subscript.
///
/// Evaluates to `hash(salt, bound loop variables) % extent`. Two sites with
/// different salts produce uncorrelated index streams; the same site always
/// produces the same stream, keeping simulations reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpaqueFn {
    salt: u64,
}

impl OpaqueFn {
    /// Creates an opaque subscript function with the given `salt`.
    #[must_use]
    pub fn new(salt: u64) -> Self {
        OpaqueFn { salt }
    }

    /// The site salt.
    #[must_use]
    pub fn salt(self) -> u64 {
        self.salt
    }

    /// Evaluates to a value in `0..extent`.
    ///
    /// # Panics
    ///
    /// Panics if `extent` is zero.
    #[must_use]
    pub fn eval(self, env: &Env, extent: u64) -> i64 {
        assert!(extent > 0, "opaque subscript over empty dimension");
        // SplitMix64-style mixing over the salt and each bound (var, value).
        let mut h = self.salt ^ 0x9e37_79b9_7f4a_7c15;
        for (v, val) in env.bound_values() {
            h = h.wrapping_add(u64::from(v).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            h ^= (val as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        (h % extent) as i64
    }
}

/// A branch condition.
///
/// Conditions are opaque to the compiler (it must assume either arm may run)
/// but deterministic for the interpreter, so traces are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always true.
    Always,
    /// Always false.
    Never,
    /// True when `var % modulus == phase`. Models convergence checks and
    /// every-N-iterations work (e.g. FLO52's multigrid cycle decisions).
    EveryN {
        /// Controlling loop variable.
        var: VarId,
        /// Period.
        modulus: i64,
        /// Phase within the period.
        phase: i64,
    },
    /// True with a deterministic pseudo-random pattern of the given density
    /// in parts-per-1024, salted per site.
    Sometimes {
        /// Probability numerator out of 1024.
        per_1024: u16,
        /// Site salt.
        salt: u64,
    },
}

impl Cond {
    /// Evaluates under `env`.
    #[must_use]
    pub fn eval(self, env: &Env) -> bool {
        match self {
            Cond::Always => true,
            Cond::Never => false,
            Cond::EveryN {
                var,
                modulus,
                phase,
            } => env.value(var).rem_euclid(modulus) == phase.rem_euclid(modulus),
            Cond::Sometimes { per_1024, salt } => {
                let h = OpaqueFn::new(salt).eval(env, 1024);
                (h as u16) < per_1024
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    #[test]
    fn affine_arithmetic_and_eval() {
        let e = Affine::var(v(0)) * 2 + Affine::var(v(1)) + 5;
        assert_eq!(e.coeff(v(0)), 2);
        assert_eq!(e.coeff(v(1)), 1);
        assert_eq!(e.constant(), 5);
        let mut env = Env::new();
        env.bind(v(0), 3);
        env.bind(v(1), 10);
        assert_eq!(e.eval(&env), 21);
    }

    #[test]
    fn affine_cancellation() {
        let e = Affine::var(v(0)) - Affine::var(v(0));
        assert!(e.is_constant());
        assert_eq!(e.constant(), 0);
        #[allow(clippy::erasing_op)]
        let e2 = (Affine::var(v(1)) + 3) * 0;
        assert_eq!(e2, Affine::konst(0));
    }

    #[test]
    fn env_bind_unbind() {
        let mut env = Env::new();
        env.bind(v(2), 7);
        assert!(env.is_bound(v(2)));
        assert!(!env.is_bound(v(0)));
        assert_eq!(env.value(v(2)), 7);
        env.unbind(v(2));
        assert!(!env.is_bound(v(2)));
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn env_panics_on_unbound() {
        let env = Env::new();
        let _ = env.value(v(0));
    }

    #[test]
    fn opaque_is_deterministic_and_in_range() {
        let f = OpaqueFn::new(42);
        let mut env = Env::new();
        env.bind(v(0), 5);
        let a = f.eval(&env, 100);
        let b = f.eval(&env, 100);
        assert_eq!(a, b);
        assert!((0..100).contains(&a));
        env.bind(v(0), 6);
        // Different input usually produces a different output; at minimum it
        // must stay in range.
        assert!((0..100).contains(&f.eval(&env, 100)));
    }

    #[test]
    fn opaque_salt_decorrelates_sites() {
        let mut env = Env::new();
        env.bind(v(0), 1);
        let outs: Vec<i64> = (0..32)
            .map(|s| OpaqueFn::new(s).eval(&env, 1 << 30))
            .collect();
        let mut uniq = outs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 28, "salts should decorrelate sites: {outs:?}");
    }

    #[test]
    fn cond_every_n() {
        let c = Cond::EveryN {
            var: v(0),
            modulus: 4,
            phase: 1,
        };
        let mut env = Env::new();
        env.bind(v(0), 5);
        assert!(c.eval(&env));
        env.bind(v(0), 6);
        assert!(!c.eval(&env));
    }

    #[test]
    fn cond_sometimes_density() {
        let c = Cond::Sometimes {
            per_1024: 512,
            salt: 7,
        };
        let mut env = Env::new();
        let mut hits = 0;
        for i in 0..1000 {
            env.bind(v(0), i);
            if c.eval(&env) {
                hits += 1;
            }
        }
        assert!((350..650).contains(&hits), "density wildly off: {hits}");
    }

    #[test]
    fn affine_display() {
        let e = Affine::var(v(0)) * 2 - Affine::var(v(1)) + 7;
        assert_eq!(e.to_string(), "2*i0 - i1 + 7");
        assert_eq!(Affine::konst(-3).to_string(), "-3");
    }
}
