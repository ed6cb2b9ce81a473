//! The §6.1 experimental table every workload runs on: `t(a, b, c, d)`,
//! the rows `cdpd_bench::build_database` generates for the same scale.
//! They go in with one `insert_many`, so a durable database commits the
//! load once rather than once per row.

use cdpd_engine::{Database, IndexSpec};
use cdpd_testkit::Prng;
use cdpd_types::{ColumnDef, Result, Schema, Value};

pub use cdpd_bench::{paper_structures, Scale};

pub fn scale(rows: i64, window_len: usize, seed: u64) -> Scale {
    Scale {
        rows,
        window_len,
        seed,
    }
}

/// Create `t` in `db` and load `scale.rows` rows from `scale.seed`.
pub fn load(db: &Database, scale: &Scale) -> Result<()> {
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ]),
    )?;
    let domain = scale.domain();
    let mut rng = Prng::seed_from_u64(scale.seed ^ 0xD1B2_54A3);
    let rows: Vec<Vec<Value>> = (0..scale.rows)
        .map(|_| {
            (0..4)
                .map(|_| Value::Int(rng.gen_range(0..domain)))
                .collect()
        })
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice))?;
    Ok(())
}

/// Single-column index on `t`.
pub fn index(column: &str) -> IndexSpec {
    IndexSpec::new("t", &[column])
}
