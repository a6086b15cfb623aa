//! The search objective: a weighted sum of the estimator's normalized
//! prediction terms.
//!
//! Queue pressure is **excluded by default**: cross-validation (DESIGN.md
//! §14) measures only ρ(queue) = 0.270 against the cycle simulator — the
//! static max-share imbalance proxy cannot see the temporal burstiness
//! that dominates real MC queue delay — so optimizing it would chase
//! noise. Pass `--objective offchip,hops,queue` to opt in anyway.

use hoploc_est::EstTerms;

/// Weighted search objective over the estimator's terms. Lower is
/// better. Each term is normalized to roughly `[0, 1]` before
/// weighting, so unit weights mean "equally important".
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Objective {
    /// Weight of the predicted off-chip fraction (already a fraction).
    pub offchip: f64,
    /// Weight of the predicted mean off-chip hop count, normalized by
    /// the mesh diameter.
    pub hops: f64,
    /// Weight of predicted MC queue pressure, normalized so 0 is
    /// balanced and 1 is one controller taking everything.
    pub queue: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Self {
            offchip: 1.0,
            hops: 1.0,
            queue: 0.0,
        }
    }
}

impl Objective {
    /// Parses an `--objective` flag value: a list of terms from
    /// {`offchip`, `hops`, `queue`} separated by `,` (flag form) or `+`
    /// (the [`canon`](Self::canon) form, so a canon string re-parses to
    /// the same objective), each optionally weighted as `name:weight`.
    /// Unlisted terms get weight 0.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending term if one is unknown,
    /// repeated, non-finite, negative, or the list is empty/all-zero.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut o = Self {
            offchip: 0.0,
            hops: 0.0,
            queue: 0.0,
        };
        let mut seen = [false; 3];
        for term in s.split([',', '+']) {
            let term = term.trim();
            if term.is_empty() {
                return Err("empty objective term".into());
            }
            let (name, weight) = match term.split_once(':') {
                Some((n, w)) => {
                    let w: f64 = w
                        .parse()
                        .map_err(|_| format!("bad weight in objective term `{term}`"))?;
                    if !w.is_finite() || w < 0.0 {
                        return Err(format!("weight in objective term `{term}` must be >= 0"));
                    }
                    (n, w)
                }
                None => (term, 1.0),
            };
            let slot = match name {
                "offchip" => 0,
                "hops" => 1,
                "queue" => 2,
                _ => {
                    return Err(format!(
                        "unknown objective term `{name}`; valid terms: offchip, hops, queue"
                    ))
                }
            };
            if seen[slot] {
                return Err(format!("objective term `{name}` given twice"));
            }
            seen[slot] = true;
            match slot {
                0 => o.offchip = weight,
                1 => o.hops = weight,
                _ => o.queue = weight,
            }
        }
        if o.offchip == 0.0 && o.hops == 0.0 && o.queue == 0.0 {
            return Err("objective must weight at least one term".into());
        }
        Ok(o)
    }

    /// Canonical form: terms in fixed `offchip,hops,queue` order joined
    /// by `+`, zero-weight terms omitted, `:weight` omitted when 1.
    /// Byte-equal canon means identical objective.
    pub fn canon(&self) -> String {
        let mut parts = Vec::new();
        for (name, w) in [
            ("offchip", self.offchip),
            ("hops", self.hops),
            ("queue", self.queue),
        ] {
            if w == 0.0 {
                continue;
            }
            if w == 1.0 {
                parts.push(name.to_string());
            } else {
                parts.push(format!("{name}:{w}"));
            }
        }
        parts.join("+")
    }

    /// Scores one estimate's terms; lower is better. `mesh_diameter` is
    /// the maximum hop distance of the mesh, `num_mcs` the MC count the
    /// estimate was made against.
    pub fn score(&self, terms: &EstTerms, mesh_diameter: u16, num_mcs: usize) -> f64 {
        let hops_norm = if mesh_diameter == 0 {
            0.0
        } else {
            terms.hops / mesh_diameter as f64
        };
        let queue_norm = if num_mcs <= 1 {
            0.0
        } else {
            ((terms.queue - 1.0) / (num_mcs as f64 - 1.0)).max(0.0)
        };
        self.offchip * terms.offchip + self.hops * hops_norm + self.queue * queue_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_excludes_queue() {
        let o = Objective::default();
        assert_eq!(o.queue, 0.0);
        assert_eq!(o.canon(), "offchip+hops");
    }

    #[test]
    fn parse_roundtrips_canon() {
        for s in ["offchip,hops", "offchip", "offchip:2,hops,queue:0.5"] {
            let o = Objective::parse(s).unwrap();
            // Canon re-parses to itself in both separator spellings.
            assert_eq!(o, Objective::parse(&o.canon()).unwrap());
            assert_eq!(o, Objective::parse(&o.canon().replace('+', ",")).unwrap());
        }
        assert_eq!(
            Objective::parse("offchip:2,hops,queue:0.5")
                .unwrap()
                .canon(),
            "offchip:2+hops+queue:0.5"
        );
    }

    #[test]
    fn parse_rejects_bad_terms() {
        assert!(Objective::parse("").is_err());
        assert!(Objective::parse("latency").is_err());
        assert!(Objective::parse("offchip,offchip").is_err());
        assert!(Objective::parse("offchip:-1").is_err());
        assert!(Objective::parse("offchip:0,hops:0").is_err());
    }
}
