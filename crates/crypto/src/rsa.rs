//! Textbook RSA signatures for the S-NIC key hierarchy.
//!
//! The paper's NIC signs attestation statements with an attestation key
//! whose public half is endorsed by the endorsement key, which is in turn
//! certified by the NIC vendor (Appendix A). We implement deterministic
//! RSA signatures over SHA-256 digests with a fixed PKCS#1-v1.5-style
//! prefix. Simulation-grade only; see the crate-level disclaimer.
//!
//! Signing uses the Chinese remainder theorem: two half-size
//! exponentiations mod `p` and `q`, recombined with Garner's formula.
//! A deterministic RSA signature is unique mod `n`, so the bytes equal
//! those of `m^d mod n`. Before a signature is released it is checked
//! with the public exponent (`s^e mod n == m`): a faulted CRT half would
//! otherwise yield a signature that reveals a factor of `n`.

use rand::Rng;

use crate::bigint::BigUint;
use crate::sha256::sha256;

/// Public exponent used for all generated keys.
const PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA signature (big-endian bytes of the signature integer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub Vec<u8>);

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q⁻¹ mod p`.
    qinv: BigUint,
}

impl RsaKeyPair {
    /// Generate a key pair with a modulus of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` (too small even for tests).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaKeyPair {
        assert!(bits >= 128, "RSA modulus too small");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&phi) else { continue };
            let qinv = q.modinv(&p).expect("distinct primes are coprime");
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                dp: d.rem(&p.sub(&BigUint::one())),
                dq: d.rem(&q.sub(&BigUint::one())),
                d,
                p,
                q,
                qinv,
            };
        }
    }

    /// Sign `message`: pad SHA-256(message) and apply the private exponent.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let em = pad_digest(&sha256(message), self.public.n.bits());
        let m = BigUint::from_be_bytes(&em);
        debug_assert!(m < self.public.n);
        let mut s = self.sign_crt(&m);
        if s.modpow(&self.public.e, &self.public.n) != m {
            // Never release a faulted CRT result; the full exponent
            // yields the same (unique) signature.
            s = m.modpow(&self.d, &self.public.n);
        }
        RsaSignature(s.to_be_bytes())
    }

    /// `m^d mod n` by Garner's recombination of `m^dp mod p` and
    /// `m^dq mod q`.
    fn sign_crt(&self, m: &BigUint) -> BigUint {
        let s_p = m.modpow(&self.dp, &self.p);
        let s_q = m.modpow(&self.dq, &self.q);
        // h = qinv · (s_p - s_q) mod p, then s = s_q + h·q < n.
        let diff = s_p.add(&self.p).sub(&s_q.rem(&self.p));
        let h = self.qinv.mulmod(&diff, &self.p);
        s_q.add(&h.mul(&self.q))
    }
}

impl RsaPublicKey {
    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        let s = BigUint::from_be_bytes(&signature.0);
        if s >= self.n {
            return false;
        }
        let em = s.modpow(&self.e, &self.n).to_be_bytes();
        let expect = pad_digest(&sha256(message), self.n.bits());
        // Compare without the leading zero byte stripped by to_be_bytes.
        let expect_trimmed: Vec<u8> = {
            let start = expect.iter().position(|&b| b != 0).unwrap_or(expect.len());
            expect[start..].to_vec()
        };
        em == expect_trimmed
    }

    /// Serialize for hashing/certification (modulus then exponent).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.n.to_be_bytes();
        out.push(0xff); // Separator.
        out.extend_from_slice(&self.e.to_be_bytes());
        out
    }
}

/// EMSA-PKCS1-v1_5-style padding: `00 01 FF.. 00 | prefix | digest`,
/// sized to the modulus length.
fn pad_digest(digest: &[u8; 32], modulus_bits: usize) -> Vec<u8> {
    // DER prefix for SHA-256 (RFC 8017 §9.2 note 1).
    const PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let k = modulus_bits.div_ceil(8);
    let t_len = PREFIX.len() + digest.len();
    assert!(k >= t_len + 11, "modulus too small for PKCS#1 padding");
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&PREFIX);
    em.extend_from_slice(digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_keypair() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        RsaKeyPair::generate(&mut rng, 512)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keypair();
        let sig = kp.sign(b"attestation statement");
        assert!(kp.public.verify(b"attestation statement", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = test_keypair();
        let sig = kp.sign(b"genuine");
        assert!(!kp.public.verify(b"forged", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = test_keypair();
        let mut sig = kp.sign(b"msg");
        sig.0[0] ^= 0x80;
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = test_keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let kp2 = RsaKeyPair::generate(&mut rng, 512);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature() {
        let kp = test_keypair();
        let huge = RsaSignature(kp.public.n.to_be_bytes());
        assert!(!kp.public.verify(b"msg", &huge));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = test_keypair();
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn crt_signature_equals_full_exponent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for kp in [test_keypair(), RsaKeyPair::generate(&mut rng, 768)] {
            let one = BigUint::one();
            let phi = kp.p.sub(&one).mul(&kp.q.sub(&one));
            let d = kp.public.e.modinv(&phi).expect("e is invertible");
            assert_eq!(kp.p.mul(&kp.q), kp.public.n);
            for msg in [&b"a"[..], b"attestation statement", &[0u8; 100]] {
                let m = BigUint::from_be_bytes(&pad_digest(&sha256(msg), kp.public.n.bits()));
                let s = m.modpow(&d, &kp.public.n);
                assert_eq!(kp.sign_crt(&m), s);
                assert_eq!(kp.sign(msg).0, s.to_be_bytes());
            }
        }
    }

    #[test]
    fn faulted_crt_half_is_never_released() {
        let kp = test_keypair();
        let good = kp.sign(b"msg");
        let mut faulted = kp.clone();
        faulted.dp = faulted.dp.add(&BigUint::one());
        let m = BigUint::from_be_bytes(&pad_digest(&sha256(b"msg"), kp.public.n.bits()));
        assert_ne!(
            faulted.sign_crt(&m).to_be_bytes(),
            good.0,
            "fault took effect"
        );
        assert_eq!(faulted.sign(b"msg"), good);
    }

    #[test]
    fn padding_shape() {
        let em = pad_digest(&sha256(b"x"), 512);
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].iter().take_while(|&&b| b == 0xff).count() >= 8);
    }
}
