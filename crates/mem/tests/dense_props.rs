//! Differential tests for the dense address tables: random operation
//! sequences on [`DenseTable`] and [`DenseBitSet`] must agree with a
//! `BTreeMap`/`BTreeSet` model, key by key and in address-ordered
//! iteration and `Debug` text. Keys mix dense low
//! addresses, page boundaries, addresses above 2^32, and private-replica
//! addresses at `span × (p + 1)` as the trace interpreter lays them out.

use std::collections::{BTreeMap, BTreeSet};
use tpi_mem::dense::PAGE_ENTRIES;
use tpi_mem::{DenseBitSet, DenseTable};
use tpi_testkit::prelude::*;

/// A key from one of the address classes the engines see.
fn key_of(class: u8, raw: u64) -> u64 {
    let page = PAGE_ENTRIES as u64;
    let span = 3 * page + 17;
    match class % 5 {
        0 => raw % 64,
        1 => (raw % 8) * page + u64::from(raw.is_multiple_of(8)) + (raw / 8) % 3 - 1,
        2 => (1u64 << 32) + raw % (2 * page),
        3 => span * (raw % 1024 + 1) + raw % 40,
        _ => (1u64 << 36) - 1 - raw % 3,
    }
}

proptest! {
    #[test]
    fn table_matches_btreemap(
        ops in prop::collection::vec((0u8..4, 0u8..5, 0u64..1 << 20, 0u32..4), 1..200),
    ) {
        let mut table: DenseTable<u32> = DenseTable::default();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for &(op, class, raw, value) in &ops {
            let key = key_of(class, raw);
            match op {
                0 => {
                    prop_assert_eq!(table.get(key), model.get(&key).copied().unwrap_or(0));
                }
                1 => {
                    table.set(key, value);
                    if value == 0 {
                        model.remove(&key);
                    } else {
                        model.insert(key, value);
                    }
                }
                2 => {
                    prop_assert_eq!(table.take(key), model.remove(&key).unwrap_or(0));
                }
                _ => {
                    *table.get_mut(key) += value;
                    let e = model.entry(key).or_insert(0);
                    *e += value;
                    if *e == 0 {
                        model.remove(&key);
                    }
                }
            }
            prop_assert_eq!(table.get(key), model.get(&key).copied().unwrap_or(0));
        }
        let got: Vec<(u64, u32)> = table.iter().collect();
        let expected: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(format!("{table:?}"), format!("{model:?}"));
    }

    #[test]
    fn bit_set_matches_btreeset(
        ops in prop::collection::vec((0u8..3, 0u8..5, 0u64..1 << 20), 1..200),
    ) {
        let mut set = DenseBitSet::default();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for &(op, class, raw) in &ops {
            let key = key_of(class, raw);
            match op {
                0 => prop_assert_eq!(set.contains(key), model.contains(&key)),
                1 => prop_assert_eq!(set.insert(key), model.insert(key)),
                _ => prop_assert_eq!(set.remove(key), model.remove(&key)),
            }
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
    }

    #[test]
    fn equal_contents_print_equal_text(
        keys in prop::collection::vec((0u8..5, 0u64..1 << 20, 1u32..9), 1..60),
        detours in prop::collection::vec((0u8..5, 0u64..1 << 20), 0..60),
    ) {
        // `a` writes the keys directly; `b` first writes and erases other
        // keys (allocating pages the final contents do not need), then
        // writes the same keys in reverse order. The bit sets do the same
        // with inserts and removes.
        let mut a: DenseTable<u32> = DenseTable::default();
        let mut b: DenseTable<u32> = DenseTable::default();
        let mut sa = DenseBitSet::default();
        let mut sb = DenseBitSet::default();
        for &(class, raw) in &detours {
            let key = key_of(class, raw);
            b.set(key, 7);
            b.set(key, 0);
            sb.insert(key);
            sb.remove(key);
        }
        for &(class, raw, v) in &keys {
            a.set(key_of(class, raw), v);
            sa.insert(key_of(class, raw));
        }
        let mut last = BTreeMap::new();
        for &(class, raw, v) in &keys {
            last.insert(key_of(class, raw), v);
        }
        for (&k, &v) in last.iter().rev() {
            b.set(k, v);
            sb.insert(k);
        }
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
    }
}
