//! Number formatting for the hand-rolled JSON this crate emits (strings
//! escape through `hoploc_obs::json_string`).

/// Renders a float as JSON (finite with fixed precision; non-finite
/// values have no JSON literal and are reported as `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}
