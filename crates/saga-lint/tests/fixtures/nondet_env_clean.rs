// Fixture: the path choice carried as a value, a `var` method that is not
// an environment read, and an env read confined to test-gated code.
// Expected: 0 findings.
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn var(&self, fast: bool) -> f64 {
        let n = self.0.len() as f64;
        let mean = self.0.iter().sum::<f64>() / n;
        let ss: f64 = self.0.iter().map(|x| (x - mean) * (x - mean)).sum();
        if fast { ss / n } else { ss / n + 0.0 }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_reads_are_fine_in_tests() {
        let _ = std::env::var("RAYON_NUM_THREADS");
    }
}
