//! EXPERIMENTS.md's quantitative prose, checked against the committed
//! paper-scale tables in `results/csv/`, which CI's `repro` job
//! regenerates and diffs byte for byte. The tests read only those CSVs
//! and simulate nothing. Each test pins one passage, and its assertion
//! message cites the EXPERIMENTS.md section that makes the claim, so a
//! table that moves fails here until the prose moves with it.

use std::fs;
use std::path::Path;

/// One committed table: its header and its rows, every cell as text.
struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Reads `results/csv/<name>.csv`.
fn table(name: &str) -> Table {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/csv")
        .join(format!("{name}.csv"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = text
        .lines()
        .map(|l| l.split(',').map(str::to_string).collect());
    Table {
        name: name.to_string(),
        header: lines.next().expect("a header row"),
        rows: lines.collect(),
    }
}

impl Table {
    /// The number leading the cell in column `col` of the row whose first
    /// cells are `key` (a cell such as `172584 (0.53%)` reads 172584).
    fn get(&self, key: &[&str], col: &str) -> f64 {
        let c = self
            .header
            .iter()
            .position(|h| h == col)
            .unwrap_or_else(|| panic!("{}: no column {col}", self.name));
        let row = self
            .rows
            .iter()
            .find(|r| r.iter().zip(key).all(|(cell, k)| cell == k))
            .unwrap_or_else(|| panic!("{}: no row {key:?}", self.name));
        let cell = &row[c];
        let number = cell.split(' ').next().unwrap_or_default();
        number
            .parse()
            .unwrap_or_else(|e| panic!("{}: cell {cell:?}: {e}", self.name))
    }

    /// The first cell of every row: the benchmarks, in table order.
    fn benches(&self) -> Vec<&str> {
        self.rows.iter().map(|r| r[0].as_str()).collect()
    }
}

/// `value` rounded to `places` decimals, as the prose quotes it.
fn round(value: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (value * scale).round() / scale
}

/// The bench with the smallest and the largest `f`, with both values.
fn extremes<'a>(benches: &[&'a str], f: impl Fn(&str) -> f64) -> ((&'a str, f64), (&'a str, f64)) {
    let mut by_value: Vec<(&str, f64)> = benches.iter().map(|&b| (b, f(b))).collect();
    by_value.sort_by(|a, b| a.1.total_cmp(&b.1));
    (by_value[0], by_value[by_value.len() - 1])
}

#[test]
fn e6_tpi_write_words_over_hw() {
    let t = table("e6_0");
    let ratio = |bench: &str| t.get(&[bench, "TPI"], "write") / t.get(&[bench, "HW"], "write");
    assert_eq!(
        [
            round(ratio("FLO52"), 1),
            round(ratio("TRFD"), 1),
            (ratio("SPEC77") / 10.0).round() * 10.0,
        ],
        [7.8, 8.4, 140.0],
        "EXPERIMENTS.md E6: TPI's write words are 7.8x HW's on FLO52, 8.4x on \
         TRFD and about 140x on SPEC77"
    );
}

#[test]
fn e13_static_block_is_best_except_on_spec77() {
    let t = table("e13_0");
    let benches = t.benches();
    let block = |b: &str| t.get(&[b], "static-block");
    let beaten: Vec<&str> = benches
        .iter()
        .copied()
        .filter(|&b| {
            ["static-cyclic", "dynamic(4)", "dyn+migration"]
                .iter()
                .any(|&col| t.get(&[b], col) < block(b))
        })
        .collect();
    let ((_, cyclic_min), (_, cyclic_max)) =
        extremes(&benches, |b| t.get(&[b], "static-cyclic") / block(b));
    let (_, (worst, migration_max)) =
        extremes(&benches, |b| t.get(&[b], "dyn+migration") / block(b));
    assert_eq!(
        (
            beaten,
            t.get(&["SPEC77"], "static-cyclic"),
            block("SPEC77"),
            round(cyclic_min, 2),
            round(cyclic_max, 2),
            worst,
            round(migration_max, 1),
        ),
        (
            vec!["SPEC77"],
            165_414.0,
            172_584.0,
            0.96,
            2.09,
            "FLO52",
            3.1
        ),
        "EXPERIMENTS.md E13: static-block is best except on SPEC77, where \
         static-cyclic takes 165,414 cycles against 172,584; cyclic costs \
         0.96-2.09x and migration up to 3.1x (FLO52)"
    );
}

#[test]
fn e14_tpi_outscales_hw_on_four_kernels() {
    let (tpi, hw) = (table("e14_0"), table("e14_1"));
    let speedup = |t: &Table, b: &str| round(t.get(&[b], "P=4") / t.get(&[b], "P=64"), 2);
    let benches = tpi.benches();
    let ((_, tpi_min), (_, tpi_max)) = extremes(&benches, |b| speedup(&tpi, b));
    let pairs: Vec<(&str, f64, f64)> = benches
        .iter()
        .map(|&b| (b, speedup(&tpi, b), speedup(&hw, b)))
        .collect();
    assert_eq!(
        (
            round(tpi_min, 1),
            round(tpi_max, 1),
            pairs,
            hw.get(&["FLO52"], "P=32") > hw.get(&["FLO52"], "P=16"),
        ),
        (
            4.9,
            12.1,
            vec![
                ("SPEC77", 12.09, 10.06),
                ("OCEAN", 11.85, 10.3),
                ("FLO52", 5.93, 3.15),
                ("QCD2", 8.57, 8.17),
                ("TRFD", 4.9, 3.41),
                ("ARC2D", 6.7, 6.92),
            ],
            true,
        ),
        "EXPERIMENTS.md E14: TPI speeds up 4.9-12.1x from P=4 to P=64 and \
         outscales HW on SPEC77, OCEAN, TRFD and most of all FLO52 (5.93x \
         against 3.15x, HW slower at P=32 than at P=16), and comes within \
         5% of it on QCD2 and ARC2D"
    );
}

#[test]
fn e15_naive_marking_cost_spans_ocean_to_flo52() {
    let t = table("e15_0");
    let cost = |b: &str| t.get(&[b], "naive cycles") / t.get(&[b], "full cycles");
    let ((cheapest, low), (dearest, high)) = extremes(&t.benches(), cost);
    let spec77 = ["naive cycles", "intra cycles", "full cycles"].map(|c| t.get(&["SPEC77"], c));
    assert_eq!(
        (spec77, cheapest, round(low, 2), dearest, round(high, 2)),
        (
            [584_256.0, 209_102.0, 172_584.0],
            "OCEAN",
            1.96,
            "FLO52",
            4.93
        ),
        "EXPERIMENTS.md E15: SPEC77 takes 584,256 / 209,102 / 172,584 cycles \
         naive / intra / full, and naive marking costs 1.96x (OCEAN) to \
         4.93x (FLO52)"
    );
}
