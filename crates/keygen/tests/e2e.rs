//! End-to-end keygen properties: enroll → noisy reconstruct must succeed
//! within the code's correction budget and fail *loudly* beyond it — a
//! typed [`KeyError`], never a silently wrong key.
//!
//! The noise model works in the codeword domain through the public helper
//! data: reconstruction re-reads the response bits at the debias mask's
//! positions, so flipping the masked response bit `j` flips exactly
//! codeword bit `j`. That makes the guaranteed-correction bound of the
//! Golay ⊗ repetition concatenation testable deterministically: a fully
//! corrupted repetition group is one outer error, and the outer Golay code
//! corrects 3 of those per block — while 7 put the received word at outer
//! distance 7, which a perfect [23,12,7] decoder *always* miscorrects into
//! a different codeword, so the key check must catch it.

use proptest::prelude::*;
use pufbits::BitVec;
use pufkeygen::{CodeSpec, Enrollment, KeyError, KeyGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn biased_response(width: usize, bias: f64, seed: u64) -> BitVec {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width).map(|_| rng.gen::<f64>() < bias).collect()
}

/// Response positions the mask selects, in codeword-bit order: flipping
/// `response[selected[j]]` flips codeword bit `j` during reconstruction.
fn selected_positions(enrollment: &Enrollment) -> Vec<usize> {
    let mask = &enrollment.helper.debias_mask;
    (0..mask.len())
        .filter(|&i| mask.get(i) == Some(true))
        .collect()
}

fn flip(response: &mut BitVec, position: usize) {
    let bit = response.get(position).expect("in range");
    response.set(position, !bit);
}

proptest! {
    /// A clean re-read reconstructs the enrolled key across response
    /// widths (odd ones included), biases, and both code families.
    #[test]
    fn round_trip_succeeds_across_widths_and_biases(
        width in 1800usize..2600,
        bias in 0.40f64..0.75,
        seed in any::<u64>(),
        polar in any::<bool>(),
    ) {
        let spec = if polar {
            CodeSpec::Polar { n: 128, k: 16 }
        } else {
            CodeSpec::GolayRepetition { repetition: 3 }
        };
        let generator = KeyGenerator::from_spec(12, spec).unwrap();
        let response = biased_response(width, bias, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        // Narrow width × extreme bias can starve the codeword; that must
        // be the typed error, anything else is out of contract.
        let enrollment = match generator.enroll(&response, &mut rng) {
            Ok(enrollment) => enrollment,
            Err(KeyError::InsufficientMaterial { .. }) => return Ok(()),
            Err(other) => panic!("unexpected {other}"),
        };
        prop_assert_eq!(
            generator.reconstruct(&response, &enrollment.helper).unwrap(),
            enrollment.key
        );
    }

    /// Noise inside the guaranteed budget — up to 3 fully corrupted
    /// repetition groups per Golay block plus a sub-majority flip in any
    /// other group — always reconstructs. Not statistically: always.
    #[test]
    fn noise_within_the_correction_budget_always_reconstructs(
        seed in any::<u64>(),
        bias in 0.45f64..0.70,
        corrupt_groups in prop::collection::btree_set(0usize..23, 0..=3),
        grazed_group in 0usize..23,
    ) {
        let generator =
            KeyGenerator::from_spec(12, CodeSpec::GolayRepetition { repetition: 3 }).unwrap();
        let response = biased_response(2600, bias, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let enrollment = generator.enroll(&response, &mut rng).unwrap();
        let selected = selected_positions(&enrollment);

        let mut noisy = response.clone();
        for &group in &corrupt_groups {
            for r in 0..3 {
                flip(&mut noisy, selected[group * 3 + r]);
            }
        }
        if !corrupt_groups.contains(&grazed_group) {
            // One flip of three stays under the inner majority.
            flip(&mut noisy, selected[grazed_group * 3]);
        }
        prop_assert_eq!(
            generator.reconstruct(&noisy, &enrollment.helper).unwrap(),
            enrollment.key
        );
    }

    /// Noise beyond the budget — 7 fully corrupted groups, outer distance 7
    /// — is *always* detected: the perfect Golay decoder miscorrects to a
    /// different codeword and the key check turns that into
    /// [`KeyError::CheckMismatch`]. Never an `Ok` with a wrong key.
    #[test]
    fn noise_beyond_the_budget_fails_with_a_typed_error(
        seed in any::<u64>(),
        bias in 0.45f64..0.70,
        corrupt_groups in prop::collection::btree_set(0usize..23, 7),
    ) {
        let generator =
            KeyGenerator::from_spec(12, CodeSpec::GolayRepetition { repetition: 3 }).unwrap();
        let response = biased_response(2600, bias, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let enrollment = generator.enroll(&response, &mut rng).unwrap();
        let selected = selected_positions(&enrollment);

        let mut noisy = response.clone();
        for &group in &corrupt_groups {
            for r in 0..3 {
                flip(&mut noisy, selected[group * 3 + r]);
            }
        }
        prop_assert_eq!(
            generator.reconstruct(&noisy, &enrollment.helper),
            Err(KeyError::CheckMismatch)
        );
    }

    /// At any i.i.d. noise rate — far past anything correctable — the
    /// outcome is the enrolled key or a typed error. A silently wrong key
    /// is the one forbidden outcome, for both code families.
    #[test]
    fn any_noise_rate_never_yields_a_silently_wrong_key(
        seed in any::<u64>(),
        noise in 0.0f64..0.5,
        polar in any::<bool>(),
    ) {
        let spec = if polar {
            CodeSpec::Polar { n: 128, k: 16 }
        } else {
            CodeSpec::GolayRepetition { repetition: 3 }
        };
        let generator = KeyGenerator::from_spec(12, spec).unwrap();
        let response = biased_response(2400, 0.627, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 4);
        let enrollment = generator.enroll(&response, &mut rng).unwrap();

        let mut noisy = response.clone();
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 5);
        for i in 0..noisy.len() {
            if noise_rng.gen::<f64>() < noise {
                flip(&mut noisy, i);
            }
        }
        match generator.reconstruct(&noisy, &enrollment.helper) {
            Ok(key) => prop_assert_eq!(key, enrollment.key, "silently wrong key"),
            Err(
                KeyError::CheckMismatch
                | KeyError::InsufficientMaterial { .. }
                | KeyError::MalformedHelper,
            ) => {}
            Err(other) => panic!("unexpected {other}"),
        }
    }
}

#[test]
fn degenerate_responses_fail_with_typed_errors() {
    let generator = KeyGenerator::paper_default();
    let mut rng = StdRng::seed_from_u64(11);
    // Zero-length, and constant responses of either polarity: pair
    // selection keeps nothing, so enrollment must report the shortfall.
    for response in [
        BitVec::new(),
        BitVec::zeros(4096),
        BitVec::from_bits(std::iter::repeat_n(true, 4096)),
    ] {
        let err = generator.enroll(&response, &mut rng).unwrap_err();
        assert!(
            matches!(err, KeyError::InsufficientMaterial { .. }),
            "{err}"
        );
    }
}

#[test]
fn odd_width_responses_round_trip() {
    let generator =
        KeyGenerator::from_spec(12, CodeSpec::GolayRepetition { repetition: 3 }).unwrap();
    let response = biased_response(2401, 0.627, 12);
    let mut rng = StdRng::seed_from_u64(13);
    let enrollment = generator.enroll(&response, &mut rng).unwrap();
    assert_eq!(
        generator
            .reconstruct(&response, &enrollment.helper)
            .unwrap(),
        enrollment.key
    );
    // A re-read of the wrong width is the typed error, not a panic.
    let err = generator
        .reconstruct(&response.prefix(2400), &enrollment.helper)
        .unwrap_err();
    assert!(matches!(err, KeyError::LengthMismatch { .. }), "{err}");
}

#[test]
fn helper_data_decodes_with_its_own_code_not_the_generators() {
    // The helper data names the code and secret length it was enrolled
    // with. A generator built for another spec must decode with those, so
    // it recovers the enrolled key from a noisy re-read.
    let golay = CodeSpec::GolayRepetition { repetition: 3 };
    let polar = CodeSpec::Polar { n: 128, k: 16 };
    let response = biased_response(2400, 0.6, 21);
    for (enrolled_under, reconstructed_with) in [(golay, polar), (polar, golay)] {
        let enroller = KeyGenerator::from_spec(12, enrolled_under).unwrap();
        let enrollment = enroller
            .enroll(&response, &mut StdRng::seed_from_u64(22))
            .unwrap();
        let mut noisy = response.clone();
        flip(&mut noisy, selected_positions(&enrollment)[0]);
        let other = KeyGenerator::from_spec(24, reconstructed_with).unwrap();
        assert_eq!(
            other.reconstruct(&noisy, &enrollment.helper).unwrap(),
            enrollment.key,
            "enrolled under {enrolled_under}, reconstructed with {reconstructed_with}"
        );
    }
}
