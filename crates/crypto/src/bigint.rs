//! Arbitrary-precision unsigned integers.
//!
//! Little-endian `u64` limbs, schoolbook multiplication, Knuth Algorithm D
//! division, binary modular exponentiation, Miller–Rabin primality testing,
//! and modular inverse via the extended Euclidean algorithm. Sized for the
//! needs of [`crate::dh`] and [`crate::rsa`] (the simulated key hierarchy
//! is 768-bit).
//!
//! [`BigUint::modpow`] with an odd modulus — every RSA, DH and
//! Miller–Rabin modulus — runs in the Montgomery domain: CIOS
//! multiplication over fixed-width limb buffers allocated once per
//! exponentiation, so no step divides or allocates. The result is fully
//! reduced, hence identical to plain square-and-multiply, which an even
//! modulus still uses.

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing (most-significant) zero limbs; zero is
/// represented by an empty limb vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> BigUint {
        BigUint::from_u64(1)
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> BigUint {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = [0u8; 8];
            limb[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(limb));
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes without leading zeros (empty for 0).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.split_off(first_nonzero)
    }

    /// Parse from a hexadecimal string (no prefix, whitespace ignored).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters; used for embedded constants only.
    pub fn from_hex(s: &str) -> BigUint {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            clean.chars().all(|c| c.is_ascii_hexdigit()),
            "invalid hex constant"
        );
        let nibble = |c: char| c.to_digit(16).expect("validated hex digit") as u8;
        let mut bytes = Vec::with_capacity(clean.len() / 2 + 1);
        let chars: Vec<char> = clean.chars().collect();
        let mut i = 0;
        if chars.len() % 2 == 1 {
            bytes.push(nibble(chars[0]));
            i = 1;
        }
        while i < chars.len() {
            bytes.push((nibble(chars[i]) << 4) | nibble(chars[i + 1]));
            i += 2;
        }
        BigUint::from_be_bytes(&bytes)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = divisor.limbs[0];
            let mut rem = 0u64;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (u128::from(rem) << 64) | u128::from(self.limbs[i]);
                q[i] = (cur / u128::from(d)) as u64;
                rem = (cur % u128::from(d)) as u64;
            }
            let mut quot = BigUint { limbs: q };
            quot.normalize();
            return (quot, BigUint::from_u64(rem));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor
            .limbs
            .last()
            .expect("divisor is nonzero, so it has limbs")
            .leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // Extra limb for the algorithm's u[m+n] slot.
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder,
            // clamped to B-1 (Knuth's step D3 requires the clamp before
            // the two-limb refinement).
            let numerator = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = (numerator / u128::from(v_top)).min((1u128 << 64) - 1);
            let mut rhat = numerator - qhat * u128::from(v_top);
            while rhat < (1u128 << 64)
                && qhat * u128::from(v_second) > ((rhat << 64) | u128::from(un[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(v_top);
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - (p as u64 as i128) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = i128::from(un[j + n]) - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            q[j] = qhat as u64;
            if borrow < 0 {
                // q̂ was one too large: add the divisor back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u128::from(un[j + i]) + u128::from(vn[i]) + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quot, rem.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `self^exp mod modulus` by left-to-right binary exponentiation, in
    /// the Montgomery domain when `modulus` is odd.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        if !modulus.is_even() {
            return Montgomery::new(modulus).pow(&self.rem(modulus), exp);
        }
        let mut result = BigUint::one();
        let base = self.rem(modulus);
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            result = result.mulmod(&result, modulus);
            if exp.bit(i) {
                result = result.mulmod(&base, modulus);
            }
        }
        result
    }

    /// Modular inverse: the `x` with `(self * x) mod modulus == 1`.
    ///
    /// Returns `None` if `gcd(self, modulus) != 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        // Extended Euclid tracking only the coefficient of `self`, with an
        // explicit sign since BigUint is unsigned.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic on magnitudes).
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        let (mag, neg) = t0;
        Some(if neg {
            modulus.sub(&mag.rem(modulus)).rem(modulus)
        } else {
            mag.rem(modulus)
        })
    }

    /// Uniformly random value in `[0, bound)` using the supplied RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below zero bound");
        let nbits = bound.bits();
        let nlimbs = nbits.div_ceil(64);
        loop {
            let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.random()).collect();
            // Mask off bits above the bound's width to keep rejection cheap.
            let extra = nlimbs * 64 - nbits;
            if extra > 0 {
                let last = limbs.last_mut().expect("nlimbs >= 1");
                *last &= u64::MAX >> extra;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.is_zero() || self == &BigUint::one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self == &two {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Trial division by small primes eliminates most candidates cheaply.
        for p in SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self == &pb {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self-1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        let n_minus_3 = self.sub(&BigUint::from_u64(3));
        'witness: for _ in 0..rounds {
            // Random base in [2, n-2].
            let a = BigUint::random_below(rng, &n_minus_3).add(&two);
            let mut x = a.modpow(&d, self);
            if x == BigUint::one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mulmod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let bound = BigUint::one().shl(bits);
            let mut candidate = BigUint::random_below(rng, &bound);
            // Force top bit (exact size) and bottom bit (odd).
            candidate = candidate.clone().add(&BigUint::one().shl(bits - 1));
            if candidate.bits() > bits {
                continue;
            }
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.is_probable_prime(rng, 16) {
                return candidate;
            }
        }
    }
}

/// Montgomery arithmetic modulo an odd `m` of `n` limbs, with `R = 2^(64n)`.
struct Montgomery {
    /// The modulus limbs (exactly `n`, top limb nonzero).
    m: Vec<u64>,
    /// `-m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`, `n` limbs: maps a residue into the Montgomery domain.
    r2: Vec<u64>,
}

impl Montgomery {
    fn new(modulus: &BigUint) -> Montgomery {
        let m = modulus.limbs.clone();
        let n = m.len();
        // Newton's iteration doubles the correct low bits of the inverse
        // each step; an odd m0 is its own inverse mod 2³.
        let mut inv = m[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(128 * n).rem(modulus).limbs;
        r2.resize(n, 0);
        Montgomery {
            m,
            m_inv: inv.wrapping_neg(),
            r2,
        }
    }

    /// `out = a·b·R⁻¹ mod m` for `a, b < m` (CIOS); `t` is `n + 2` limbs
    /// of scratch.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let n = self.m.len();
        // Fixed-length views let the compiler drop the bounds checks.
        let (m, a, t) = (&self.m[..n], &a[..n], &mut t[..n + 2]);
        t.fill(0);
        for &bi in b {
            let mut carry = 0u64;
            for (tj, &aj) in t.iter_mut().zip(a) {
                let cur = u128::from(*tj) + u128::from(aj) * u128::from(bi) + u128::from(carry);
                *tj = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[n]) + u128::from(carry);
            t[n] = cur as u64;
            t[n + 1] = (cur >> 64) as u64;
            // Add q·m with q chosen so the low limb cancels, then shift
            // down one limb.
            let q = t[0].wrapping_mul(self.m_inv);
            let mut carry = ((u128::from(t[0]) + u128::from(q) * u128::from(m[0])) >> 64) as u64;
            for j in 1..n {
                let cur = u128::from(t[j]) + u128::from(q) * u128::from(m[j]) + u128::from(carry);
                t[j - 1] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[n]) + u128::from(carry);
            t[n - 1] = cur as u64;
            t[n] = t[n + 1] + (cur >> 64) as u64;
        }
        // t < 2m: one conditional subtraction fully reduces it.
        if t[n] != 0 || !limbs_less(&t[..n], m) {
            let mut borrow = false;
            for j in 0..n {
                let (d1, b1) = t[j].overflowing_sub(m[j]);
                let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                t[j] = d2;
                borrow = b1 || b2;
            }
        }
        out.copy_from_slice(&t[..n]);
    }

    /// `base^exp mod m` for `base < m`.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n = self.m.len();
        let mut t = vec![0u64; n + 2];
        let mut b = base.limbs.clone();
        b.resize(n, 0);
        let mut base_m = vec![0u64; n];
        self.mul(&b, &self.r2, &mut t, &mut base_m);
        // Montgomery one is R mod m = 1·R²·R⁻¹.
        let mut one = vec![0u64; n];
        one[0] = 1;
        let mut acc = vec![0u64; n];
        self.mul(&one, &self.r2, &mut t, &mut acc);
        let mut tmp = vec![0u64; n];
        for i in (0..exp.bits()).rev() {
            self.mul(&acc, &acc, &mut t, &mut tmp);
            if exp.bit(i) {
                self.mul(&tmp, &base_m, &mut t, &mut acc);
            } else {
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        // Leave the domain: acc·1·R⁻¹.
        self.mul(&acc, &one, &mut t, &mut tmp);
        let mut out = BigUint { limbs: tmp };
        out.normalize();
        out
    }
}

/// `a < b` for equal-length little-endian limb slices.
fn limbs_less(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Count of trailing zero bits.
fn trailing_zeros(n: &BigUint) -> usize {
    assert!(!n.is_zero());
    let mut count = 0;
    for &limb in &n.limbs {
        if limb == 0 {
            count += 64;
        } else {
            count += limb.trailing_zeros() as usize;
            break;
        }
    }
    count
}

/// `a - b` on signed (magnitude, negative?) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with like signs: compare magnitudes.
        (an, bn) if an == bn => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), an)
            } else {
                (b.0.sub(&a.0), !an)
            }
        }
        // a - (-b) = a + b, keeping a's sign; (-a) - b = -(a + b).
        (an, _) => (a.0.add(&b.0), an),
    }
}

const SMALL_PRIMES: [u64; 15] = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            core::cmp::Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        core::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                core::cmp::Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl core::fmt::Display for BigUint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let bytes = self.to_be_bytes();
        write!(f, "0x")?;
        for b in bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_be_bytes(&v.to_be_bytes())
    }

    #[test]
    fn round_trip_bytes() {
        let n = BigUint::from_be_bytes(&[0x01, 0x02, 0x03]);
        assert_eq!(n.to_be_bytes(), vec![0x01, 0x02, 0x03]);
        assert_eq!(BigUint::zero().to_be_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_be_bytes(&[0, 0, 5]), BigUint::from_u64(5));
    }

    #[test]
    fn from_hex_parses() {
        assert_eq!(BigUint::from_hex("ff"), BigUint::from_u64(255));
        assert_eq!(BigUint::from_hex("1 00"), BigUint::from_u64(256));
        assert_eq!(BigUint::from_hex("abc"), BigUint::from_u64(0xabc));
    }

    #[test]
    fn bits_and_bit() {
        let n = BigUint::from_u64(0b1010);
        assert_eq!(n.bits(), 4);
        assert!(n.bit(1));
        assert!(!n.bit(0));
        assert!(!n.bit(100));
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().shl(100).bits(), 101);
    }

    #[test]
    fn modpow_small_cases() {
        // 3^5 mod 7 = 243 mod 7 = 5.
        let r = BigUint::from_u64(3).modpow(&BigUint::from_u64(5), &BigUint::from_u64(7));
        assert_eq!(r, BigUint::from_u64(5));
        // Fermat: a^(p-1) = 1 mod p.
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
    }

    #[test]
    fn modinv_matches_fermat() {
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(42);
        let inv = a.modinv(&p).unwrap();
        assert_eq!(a.mulmod(&inv, &p), BigUint::one());
        // No inverse when gcd != 1.
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn known_primes_and_composites() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for p in [2u64, 3, 5, 101, 65_537, 1_000_000_007] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(&mut rng, 16),
                "{p} is prime"
            );
        }
        for c in [1u64, 4, 100, 65_535, 1_000_000_011] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(&mut rng, 16),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_exact_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let p = BigUint::gen_prime(&mut rng, 128);
        assert_eq!(p.bits(), 128);
        assert!(p.is_probable_prime(&mut rng, 16));
    }

    #[test]
    fn knuth_division_addback_case() {
        // Stress the rare add-back branch with a divisor of all-ones limbs.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, u64::MAX],
        };
        let v = BigUint {
            limbs: vec![u64::MAX, u64::MAX],
        };
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    proptest! {
        #[test]
        fn add_sub_inverse(a in any::<u128>(), b in any::<u128>()) {
            let (x, y) = (big(a), big(b));
            let sum = x.add(&y);
            prop_assert_eq!(sum.sub(&y), x);
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let expect = big(u128::from(a) * u128::from(b));
            prop_assert_eq!(BigUint::from_u64(a).mul(&BigUint::from_u64(b)), expect);
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u128>(), b in 1u128..) {
            let (x, y) = (big(a), big(b));
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q, big(a / b));
            prop_assert_eq!(r, big(a % b));
        }

        #[test]
        fn shl_shr_inverse(a in any::<u128>(), s in 0usize..200) {
            let x = big(a);
            prop_assert_eq!(x.shl(s).shr(s), x);
        }

        #[test]
        fn modpow_matches_u128(base in any::<u32>(), e in 0u32..64, m in 2u64..) {
            let mut expect: u128 = 1;
            for _ in 0..e {
                expect = expect * u128::from(base) % u128::from(m);
            }
            let got = BigUint::from_u64(u64::from(base))
                .modpow(&BigUint::from_u64(u64::from(e)), &BigUint::from_u64(m));
            prop_assert_eq!(got, big(expect));
        }

        #[test]
        fn big_division_random_multi_limb(
            a in proptest::collection::vec(any::<u64>(), 1..8),
            b in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let mut x = BigUint { limbs: a };
            x.normalize();
            let mut y = BigUint { limbs: b };
            y.normalize();
            prop_assume!(!y.is_zero());
            let (q, r) = x.div_rem(&y);
            prop_assert!(r < y);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }
    }
}
