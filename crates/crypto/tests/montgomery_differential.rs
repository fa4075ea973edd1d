//! Montgomery `modpow` against plain square-and-multiply, and RSA
//! signatures pinned to their pre-Montgomery, pre-CRT bytes.
//!
//! The reference exponentiation below is the textbook left-to-right
//! binary method over [`BigUint::mulmod`] (schoolbook multiply, then
//! Knuth division). [`BigUint::modpow`] must agree with it for every odd
//! modulus (its Montgomery path) and every even one (its plain path).

use proptest::prelude::*;
use rand::SeedableRng;
use snic_crypto::bigint::BigUint;
use snic_crypto::rsa::RsaKeyPair;
use snic_crypto::sha256::{sha256, to_hex};

fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_be_bytes(&bytes)
}

fn reference_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    if m == &BigUint::one() {
        return BigUint::zero();
    }
    let base = base.rem(m);
    let mut r = BigUint::one();
    for i in (0..exp.bits()).rev() {
        r = r.mulmod(&r, m);
        if exp.bit(i) {
            r = r.mulmod(&base, m);
        }
    }
    r
}

/// Limbs biased towards the carry and final-subtraction edge cases.
fn limb() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        Just(u64::MAX),
        Just(0u64),
        Just(1u64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn modpow_matches_square_and_multiply(
        m in proptest::collection::vec(limb(), 1..=16),
        base in proptest::collection::vec(limb(), 0..=17),
        exp in proptest::collection::vec(limb(), 0..=3),
        odd in any::<bool>(),
    ) {
        let mut m = from_limbs(&m);
        // Force the parity under test (1 ↔ 0 keeps the width for all
        // but the lowest bit).
        if m.is_even() == odd {
            m = if odd { m.add(&BigUint::one()) } else { m.sub(&BigUint::one()) };
        }
        prop_assume!(!m.is_zero());
        let (base, exp) = (from_limbs(&base), from_limbs(&exp));
        prop_assert_eq!(base.modpow(&exp, &m), reference_modpow(&base, &exp, &m));
    }
}

#[test]
fn modpow_edge_moduli() {
    for k in 1..=16 {
        let all_ones = from_limbs(&vec![u64::MAX; k]);
        let top_bit = BigUint::one().shl(64 * k - 1).add(&BigUint::one());
        for m in [all_ones, top_bit, BigUint::from_u64(3)] {
            let one = BigUint::one();
            for base in [
                BigUint::zero(),
                one.clone(),
                m.sub(&one),
                m.add(&one),
                m.mul(&m),
            ] {
                for exp in [
                    BigUint::zero(),
                    one.clone(),
                    m.sub(&one),
                    from_limbs(&[5, 7]),
                ] {
                    assert_eq!(
                        base.modpow(&exp, &m),
                        reference_modpow(&base, &exp, &m),
                        "{base}^{exp} mod {m}"
                    );
                }
            }
        }
    }
}

/// The modulus and signature of the seed-99 768-bit key, recorded from
/// the non-CRT, non-Montgomery implementation: key generation must make
/// the same draws and signing must reproduce the same unique bytes.
#[test]
fn pinned_key_and_signature() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let kp = RsaKeyPair::generate(&mut rng, 768);
    let sig = kp.sign(b"attestation statement");
    assert_eq!(
        to_hex(&sha256(&kp.public.n.to_be_bytes())),
        "f1d344e46e8f7d39198e034cde2168bc386a49ba3be73b1f08bf55ba69f06777"
    );
    assert_eq!(
        to_hex(&sha256(&sig.0)),
        "a48616c064c1e2ea59fe95807d22526c2ee59ea26752a07631fa5bf97c97701b"
    );
    assert!(kp.public.verify(b"attestation statement", &sig));
}
