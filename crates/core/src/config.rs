//! Mechanism configuration.
//!
//! Bundles the paper's scaling factors: pricing scale `σ`, social-cost scale
//! `k`, payment scale `ξ ≥ 1`, and the household power rating `r` in kW.
//! Defaults are the simulation-study values of §VI:
//! `σ = 0.3`, `k = 1`, `ξ = 1.2`, `r = 2` kW.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::pricing::QuadraticPricing;

/// Configuration for the [`Enki`](crate::mechanism::Enki) mechanism.
///
/// # Examples
///
/// ```
/// # use enki_core::config::EnkiConfig;
/// # fn main() -> Result<(), enki_core::Error> {
/// let config = EnkiConfig::builder().sigma(0.5).xi(1.5).build()?;
/// assert_eq!(config.sigma(), 0.5);
/// assert_eq!(config.rate(), 2.0); // paper default
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnkiConfig {
    sigma: f64,
    k: f64,
    xi: f64,
    rate: f64,
}

impl EnkiConfig {
    /// Starts building a configuration from the paper defaults.
    #[must_use]
    pub fn builder() -> EnkiConfigBuilder {
        EnkiConfigBuilder::default()
    }

    /// Pricing scale `σ > 0` (default 0.3).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Social-cost scale `k > 0` (default 1).
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Payment scale `ξ ≥ 1` (default 1.2). Values below 1 would break ex
    /// ante budget balance and are rejected.
    #[must_use]
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// Household power rating `r > 0` in kW (default 2).
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The quadratic pricing rule `P_h(l) = σ·l²` this configuration
    /// implies.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "sigma was range-checked when the EnkiConfig was built, the only \
                  constructor path; pricing() is infallible by that invariant"
    )]
    pub fn pricing(&self) -> QuadraticPricing {
        QuadraticPricing::new(self.sigma).expect("validated at construction")
    }
}

impl Default for EnkiConfig {
    /// The paper's simulation-study parameters (§VI).
    fn default() -> Self {
        Self {
            sigma: 0.3,
            k: 1.0,
            xi: 1.2,
            rate: 2.0,
        }
    }
}

/// Builder for [`EnkiConfig`]; every unset field keeps its paper default.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnkiConfigBuilder {
    config: Option<EnkiConfig>,
    sigma: Option<f64>,
    k: Option<f64>,
    xi: Option<f64>,
    rate: Option<f64>,
}

impl EnkiConfigBuilder {
    /// Sets the pricing scale `σ`.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Sets the social-cost scale `k`.
    #[must_use]
    pub fn k(mut self, k: f64) -> Self {
        self.k = Some(k);
        self
    }

    /// Sets the payment scale `ξ`.
    #[must_use]
    pub fn xi(mut self, xi: f64) -> Self {
        self.xi = Some(xi);
        self
    }

    /// Sets the household power rating `r` in kW.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = Some(rate);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `σ ≤ 0`, `k ≤ 0`, `ξ < 1`, or
    /// `r ≤ 0`, or when any value is non-finite.
    #[must_use = "dropping the Result discards the config and skips parameter validation"]
    pub fn build(self) -> Result<EnkiConfig> {
        let defaults = self.config.unwrap_or_default();
        let config = EnkiConfig {
            sigma: self.sigma.unwrap_or(defaults.sigma),
            k: self.k.unwrap_or(defaults.k),
            xi: self.xi.unwrap_or(defaults.xi),
            rate: self.rate.unwrap_or(defaults.rate),
        };
        if !config.sigma.is_finite() || config.sigma <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "sigma",
                constraint: "a positive finite number",
            });
        }
        if !config.k.is_finite() || config.k <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "k",
                constraint: "a positive finite number",
            });
        }
        if !config.xi.is_finite() || config.xi < 1.0 {
            return Err(Error::InvalidConfig {
                parameter: "xi",
                constraint: "a finite number of at least 1 (budget balance)",
            });
        }
        if !config.rate.is_finite() || config.rate <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "rate",
                constraint: "a positive finite number",
            });
        }
        Ok(config)
    }
}

impl From<EnkiConfig> for EnkiConfigBuilder {
    /// Starts a builder seeded from an existing configuration.
    fn from(config: EnkiConfig) -> Self {
        Self {
            config: Some(config),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EnkiConfig::default();
        assert_eq!(c.sigma(), 0.3);
        assert_eq!(c.k(), 1.0);
        assert_eq!(c.xi(), 1.2);
        assert_eq!(c.rate(), 2.0);
    }

    #[test]
    fn builder_overrides_selected_fields() {
        let c = EnkiConfig::builder().xi(1.0).rate(3.5).build().unwrap();
        assert_eq!(c.xi(), 1.0);
        assert_eq!(c.rate(), 3.5);
        assert_eq!(c.sigma(), 0.3);
    }

    #[test]
    fn builder_rejects_deficit_xi() {
        assert!(matches!(
            EnkiConfig::builder().xi(0.9).build(),
            Err(Error::InvalidConfig {
                parameter: "xi",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_bad_sigma_k_rate() {
        assert!(EnkiConfig::builder().sigma(-0.3).build().is_err());
        assert!(EnkiConfig::builder().k(0.0).build().is_err());
        assert!(EnkiConfig::builder().rate(f64::NAN).build().is_err());
    }

    #[test]
    fn builder_from_existing_config() {
        let base = EnkiConfig::builder().sigma(0.7).build().unwrap();
        let derived = EnkiConfigBuilder::from(base).xi(2.0).build().unwrap();
        assert_eq!(derived.sigma(), 0.7);
        assert_eq!(derived.xi(), 2.0);
    }

    #[test]
    fn pricing_uses_sigma() {
        let c = EnkiConfig::builder().sigma(0.4).build().unwrap();
        assert_eq!(c.pricing().sigma(), 0.4);
    }
}
