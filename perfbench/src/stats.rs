//! Order statistics over latency samples.

/// A sorted sample set with its quantiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of the samples and sorts them.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, ascending.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.sorted.iter().copied()
    }

    /// Quantile `q` in `[0, 1]`, linearly interpolated between order
    /// statistics; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly above quantile `q`: a percentile is
    /// only worth reporting with at least ten of them.
    pub fn beyond(&self, q: f64) -> usize {
        let v = self.quantile(q);
        self.sorted.iter().filter(|&&x| x > v).count()
    }

    /// `name: p50=… p<q>=… (n=…, k beyond)` for the human-readable log.
    pub fn describe(&self, name: &str, unit: &str, q: f64) -> String {
        format!(
            "{name}: p50={:.4}{unit} p{}={:.4}{unit} (n={}, {} beyond p{})",
            self.median(),
            (q * 100.0).round(),
            self.quantile(q),
            self.len(),
            self.beyond(q),
            (q * 100.0).round(),
        )
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.125), 1.5);
        assert_eq!(s.beyond(0.5), 2);
        assert_eq!(Samples::new(vec![]).median(), 0.0);
    }
}
