//! Correctness gates. Each returns `Err` with a description of the first
//! disagreement; the workloads run them outside their timed regions and
//! a failure ends the run with a non-zero exit.

/// How two state vectors must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// Bit for bit: max-norm algorithms (BFS, SSSP, CC) have a unique
    /// fixpoint that every order and storage must reach exactly.
    Exact,
    /// Within an absolute tolerance: sum-norm algorithms (PageRank) stop
    /// at an order-dependent point near the fixpoint.
    Within(f64),
}

/// PageRank's tolerance across orders, modes and storages.
pub const PAGERANK_TOLERANCE: f64 = 1e-4;

pub fn compare(what: &str, expected: &[f64], got: &[f64], how: Agreement) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} states expected, {} produced",
            expected.len(),
            got.len()
        ));
    }
    for (v, (&e, &g)) in expected.iter().zip(got).enumerate() {
        let ok = match how {
            Agreement::Exact => e.to_bits() == g.to_bits(),
            Agreement::Within(tol) => {
                (e.is_infinite() && e == g)
                    || (e.is_finite() && g.is_finite() && (e - g).abs() <= tol)
            }
        };
        if !ok {
            return Err(format!(
                "{what}: vertex {v} has {g:?}, expected {e:?} ({how:?})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_agreement_rejects_any_bit_difference() {
        let a = vec![0.0, 1.5, f64::INFINITY];
        assert!(compare("t", &a, &a, Agreement::Exact).is_ok());
        let mut b = a.clone();
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        assert!(compare("t", &a, &b, Agreement::Exact).is_err());
        assert!(compare("t", &a, &a[..2], Agreement::Exact).is_err());
    }

    #[test]
    fn tolerance_agreement_accepts_small_and_rejects_large_drift() {
        let a = vec![0.15, 2.0, f64::INFINITY];
        let b = vec![0.15 + 5e-5, 2.0, f64::INFINITY];
        assert!(compare("t", &a, &b, Agreement::Within(PAGERANK_TOLERANCE)).is_ok());
        let c = vec![0.15 + 5e-4, 2.0, f64::INFINITY];
        assert!(compare("t", &a, &c, Agreement::Within(PAGERANK_TOLERANCE)).is_err());
        let d = vec![0.15, 2.0, 3.0];
        assert!(compare("t", &a, &d, Agreement::Within(PAGERANK_TOLERANCE)).is_err());
        let nan = vec![f64::NAN, 2.0, f64::INFINITY];
        assert!(compare("t", &nan, &nan, Agreement::Within(PAGERANK_TOLERANCE)).is_err());
    }
}
