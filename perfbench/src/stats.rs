//! The benchmark's own arithmetic: medians, percentiles, geometric means,
//! aggregate rates and the attribution residual.

/// Linear-interpolation percentile (`p` in 0..=100) of `values`; the
/// slice need not be sorted. Returns NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of strictly positive `values`, summed in slice order so
/// equal inputs give bit-identical output. NaN when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric means over benchmarks of `1 + speedup` and of the dynamic
/// energy ratio, for a mechanism against Base (simulated).
pub fn redhip_geomeans(cmp: &[sim::Comparison]) -> (f64, f64) {
    (
        geomean(&cmp.iter().map(|c| 1.0 + c.speedup()).collect::<Vec<_>>()),
        geomean(&cmp.iter().map(|c| c.dynamic_ratio()).collect::<Vec<_>>()),
    )
}

/// One aggregate rate over many timed cells: total references over total
/// seconds (not a mean of per-cell rates, which would over-weight short
/// cells).
pub fn aggregate_rate(refs: &[u64], secs: &[f64]) -> f64 {
    let r: u64 = refs.iter().sum();
    let s: f64 = secs.iter().sum();
    r as f64 / s
}

/// Share of a measured cost that the layer model leaves unexplained:
/// `(measured − Σ cost_per_op × ops) / measured`. Positive means the
/// layers account for less than the measured time.
pub fn residual_frac(measured: f64, parts: &[(f64, f64)]) -> f64 {
    let explained: f64 = parts.iter().map(|(cost, ops)| cost * ops).sum();
    (measured - explained) / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.5]), 1.5);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
        // Same inputs, same bits.
        let v = [1.081, 0.97, 1.2];
        assert_eq!(geomean(&v).to_bits(), geomean(&v).to_bits());
    }

    #[test]
    fn aggregate_rate_weights_by_time() {
        // 100 refs in 1 s and 100 refs in 3 s: 50/s, not the mean of
        // 100/s and 33.3/s.
        assert_eq!(aggregate_rate(&[100, 100], &[1.0, 3.0]), 50.0);
    }

    #[test]
    fn residual_is_the_unexplained_share() {
        // 100 ns measured; 60 ns explained by 2 ops of 20 ns + 1 op of 20 ns.
        let r = residual_frac(100.0, &[(20.0, 2.0), (20.0, 1.0)]);
        assert!((r - 0.4).abs() < 1e-12);
        // Over-explained costs give a negative residual.
        assert!(residual_frac(10.0, &[(20.0, 1.0)]) < 0.0);
    }
}
