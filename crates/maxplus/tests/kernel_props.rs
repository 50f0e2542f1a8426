//! Differential properties pinning the branch-free flat kernel
//! ([`sdfr_maxplus::flat`]) to the checked [`Mp`] arithmetic, element for
//! element, over the full `i64` range — `−∞`, near-overflow values, and
//! everything between. The checked path is the oracle: wherever it defines
//! a result the flat kernel must produce exactly that result, and wherever
//! it reports overflow (`checked_add`/`checked_shift`) the flat kernel's
//! hoisted detection must refuse in exactly the same place.

use proptest::prelude::*;
use sdfr_maxplus::eigen::{eigenvalue, eigenvalue_checked};
use sdfr_maxplus::{flat, FlatVector, Mp, MpMatrix, MpVector};

/// Sentinel-encoded values over the full range, biased toward the places
/// the encoding could break: the sentinel itself, both extremes, and the
/// overflow boundaries.
fn encoded() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => -1_000i64..1_000,
        2 => (i64::MAX - 8)..=i64::MAX,
        2 => (i64::MIN + 1)..=(i64::MIN + 8),
        1 => Just(flat::NEG_INF),
        1 => any::<i64>().prop_map(|v| v.max(i64::MIN + 1)),
    ]
}

/// A random [`Mp`] element (the decoded form of [`encoded`]).
fn mp() -> impl Strategy<Value = Mp> {
    encoded().prop_map(flat::to_mp)
}

fn mp_vector(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = MpVector> {
    proptest::collection::vec(mp(), len).prop_map(MpVector::from_entries)
}

/// Shift deltas: small, huge, and sign-crossing — enough to hit both the
/// `delta ≥ 0` hoisted-max path and the negative-delta min-finite path.
fn delta() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => -1_000i64..1_000,
        1 => (i64::MAX - 8)..=i64::MAX,
        1 => (i64::MIN + 1)..=(i64::MIN + 8),
        1 => any::<i64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ⊕: the flat max IS the Mp max on every encoded pair.
    #[test]
    fn flat_max_equals_mp_max(a in encoded(), b in encoded()) {
        prop_assert_eq!(
            flat::to_mp(flat::max(a, b)),
            flat::to_mp(a).max(flat::to_mp(b))
        );
    }

    /// ⊗: wherever `checked_add` defines a representable result, the flat
    /// add produces exactly it; `−∞` absorbs on both sides.
    #[test]
    fn flat_add_equals_checked_add_where_defined(a in encoded(), b in encoded()) {
        let flat_sum = flat::add(a, b);
        match flat::to_mp(a).checked_add(flat::to_mp(b)) {
            Some(exact) if exact != Mp::Fin(i64::MIN) => {
                prop_assert_eq!(flat::to_mp(flat_sum), exact);
            }
            Some(_) => {
                // Fin(i64::MIN) is the one excluded point: the flat sum
                // leaves the finite domain and reads back as −∞.
                prop_assert_eq!(flat_sum, flat::NEG_INF);
            }
            None => {
                // Finite overflow: the flat kernel saturates instead; the
                // saturated value never exceeds the exact (unrepresentable)
                // sum, and stays at an extreme.
                prop_assert!(flat_sum == i64::MAX || flat_sum == flat::NEG_INF);
            }
        }
    }

    /// Vector join: in-place flat ≡ allocating checked, element for element.
    #[test]
    fn join_in_place_equals_mp_join(pair in (1usize..=24).prop_flat_map(|n| {
        (mp_vector(n..=n), mp_vector(n..=n))
    })) {
        let (a, b) = pair;
        let exact = a.join(&b).expect("same length");
        let mut f = FlatVector::from_mp(&a);
        f.join_in_place(&FlatVector::from_mp(&b));
        prop_assert_eq!(f.to_mp(), exact);
    }

    /// Vector shift: succeeds with the exact checked result precisely where
    /// `checked_shift` does, and *fails exactly where the old per-element
    /// `checked_add` reported overflow* — leaving the vector untouched.
    #[test]
    fn shift_in_place_equals_checked_shift(v in mp_vector(0..=24), d in delta()) {
        let mut f = FlatVector::from_mp(&v);
        let before = f.clone();
        match v.checked_shift(d) {
            Some(exact) if exact.iter().all(|e| e != Mp::Fin(i64::MIN)) => {
                prop_assert!(f.shift_in_place(d));
                prop_assert_eq!(f.to_mp(), exact);
            }
            Some(_) => {
                // The checked result contains the excluded point
                // Fin(i64::MIN): the flat kernel must refuse rather than
                // alias it to the sentinel.
                prop_assert!(!f.shift_in_place(d));
                prop_assert_eq!(f, before);
            }
            None => {
                prop_assert!(!f.shift_in_place(d));
                prop_assert_eq!(f, before);
            }
        }
    }

    /// Round-trips: Mp ↔ flat conversions lose nothing, for vectors and
    /// row-major matrices.
    #[test]
    fn conversions_round_trip(rows in (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(mp_vector(n..=n), 1..=6)
    })) {
        for row in &rows {
            prop_assert_eq!(&FlatVector::from_mp(row).to_mp(), row);
            prop_assert_eq!(&row.to_flat().to_mp(), row);
        }
        let m = MpMatrix::from_row_vectors(rows.clone()).expect("rows share length");
        let flat_rows: Vec<FlatVector> = rows.iter().map(MpVector::to_flat).collect();
        prop_assert_eq!(
            MpMatrix::from_flat_rows(flat_rows).expect("rows share length"),
            m
        );
    }

    /// The production eigenvalue (integer policy iteration) and the
    /// checked Karp DP agree on small random matrices.
    #[test]
    fn flat_eigenvalue_equals_checked(entries in (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    1 => Just(None),
                    2 => (-10_000i64..10_000).prop_map(Some),
                ],
                n..=n,
            ),
            n..=n,
        )
    })) {
        let m = MpMatrix::from_rows(
            entries
                .iter()
                .map(|r| r.iter().map(|e| e.map_or(Mp::NegInf, Mp::fin)).collect())
                .collect(),
        )
        .expect("square by construction");
        prop_assert_eq!(eigenvalue(&m).unwrap(), eigenvalue_checked(&m));
    }
}
