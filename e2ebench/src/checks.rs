//! Output checks. A run that fails any of them is reported as incorrect.

use std::collections::BTreeMap;
use std::sync::Arc;

use bp_sql::Connection;
use bp_storage::{Database, Value};

/// One check's verdict: `Err` carries what was found instead.
pub type Check = Result<(), String>;

/// Driver accounting: every request due was completed, shed, or still in
/// the backlog when the queue closed.
pub fn accounting(requested: u64, completed: u64, shed: u64, backlog: u64) -> Check {
    if requested == completed + shed + backlog {
        Ok(())
    } else {
        Err(format!(
            "requested {requested} != completed {completed} + shed {shed} + backlog {backlog}"
        ))
    }
}

/// YCSB: each committed request is exactly one engine commit.
pub fn commits_match(committed: u64, engine_commits: u64) -> Check {
    if committed == engine_commits {
        Ok(())
    } else {
        Err(format!(
            "committed {committed} != engine commit delta {engine_commits}"
        ))
    }
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("integer column")
}

fn float(v: &Value) -> f64 {
    v.as_float().expect("numeric column")
}

/// TPC-C consistency conditions 1 and 2: `w_ytd` = Σ `d_ytd` of the
/// warehouse's districts (within float rounding), and `d_next_o_id` − 1 =
/// max(`o_id`) of each district.
pub fn tpcc_consistency(db: &Arc<Database>) -> Check {
    let mut conn = Connection::open(db);
    let mut q =
        |sql: &str, params: &[Value]| conn.query(sql, params).map_err(|e| format!("{sql}: {e}"));
    let mut d_ytd: BTreeMap<i64, f64> = BTreeMap::new();
    let districts = q("SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district", &[])?;
    for row in &districts.rows {
        let (w, d, next) = (int(&row[0]), int(&row[1]), int(&row[3]));
        *d_ytd.entry(w).or_default() += float(&row[2]);
        let max = q(
            "SELECT MAX(o_id) AS m FROM orders WHERE o_w_id = ? AND o_d_id = ?",
            &[Value::Int(w), Value::Int(d)],
        )?
        .get_int(0, "m")
        .unwrap_or(0);
        if next - 1 != max {
            return Err(format!(
                "condition 2: district ({w},{d}) d_next_o_id {next} but max o_id {max}"
            ));
        }
    }
    let warehouses = q("SELECT w_id, w_ytd FROM warehouse", &[])?;
    for row in &warehouses.rows {
        let (w, ytd) = (int(&row[0]), float(&row[1]));
        let sum = d_ytd.get(&w).copied().unwrap_or(0.0);
        if (ytd - sum).abs() > 1e-9 * ytd.abs().max(1.0) {
            return Err(format!(
                "condition 1: warehouse {w} w_ytd {ytd} but sum of d_ytd {sum}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_balances() {
        assert!(accounting(10, 6, 1, 3).is_ok());
        assert!(accounting(10, 6, 1, 2).is_err());
        assert!(commits_match(5, 5).is_ok());
        assert!(commits_match(5, 4).is_err());
    }
}
