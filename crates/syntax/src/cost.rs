//! The connection-cost model of §3.1.1.
//!
//! The total connection cost between host `H_i` and server `S_j` is
//!
//! ```text
//! TC_ij = C_ij · W1 + (Q(ρ_j) + z) · W2
//! ```
//!
//! where `C_ij` is the average communication time between the host and the
//! server (shortest-path, zero-load), `W1`/`W2` are designer-chosen weights
//! for communication versus processing cost, `z` is the average message
//! processing time at the server, and `Q(ρ)` is the M/M/1 waiting-time
//! estimate `ρ/(1−ρ)` for server utilisation `ρ = L_j / M_j`, replaced by a
//! "very large constant" β once the server saturates (`ρ ≥ 0.99`).

/// Weights and constants of the connection-cost formula.
///
/// # Examples
///
/// The paper's worked example uses `W1 = 4`, `W2 = 1`, `z = 0.5`:
///
/// ```
/// use lems_syntax::cost::CostModel;
///
/// let m = CostModel::paper_example();
/// // A host one hop (1 time unit) over an idle channel from an idle server:
/// let tc = m.connection_cost_with_channel(1.0, 0.0, 0, 100, 0.5);
/// assert_eq!(tc, 1.0 * 4.0 + (0.0 + 0.5) * 1.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// `W1`: weight on communication time.
    pub w_comm: f64,
    /// `W2`: weight on server processing and waiting time.
    pub w_proc: f64,
    /// Utilisation at which the queue estimate is replaced by `beta`.
    pub rho_cutoff: f64,
    /// β, the "very large constant" penalising saturated servers.
    pub beta: f64,
}

impl CostModel {
    /// The constants of the paper's Fig. 1 example: `W1 = 4`, `W2 = 1`
    /// ("to force the algorithm to select the closest servers to the hosts
    /// whenever possible"; `W1` accounts for round-trip delay).
    pub fn paper_example() -> Self {
        CostModel {
            w_comm: 4.0,
            w_proc: 1.0,
            rho_cutoff: 0.99,
            beta: 1.0e6,
        }
    }

    /// Validates the constants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: weights must
    /// be non-negative and finite, `rho_cutoff` in `(0, 1)`, `beta`
    /// positive.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, v) in [("w_comm", self.w_comm), ("w_proc", self.w_proc)] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        if !(self.rho_cutoff > 0.0 && self.rho_cutoff < 1.0) {
            return Err(format!(
                "rho_cutoff must be in (0,1), got {}",
                self.rho_cutoff
            ));
        }
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(format!(
                "beta must be positive and finite, got {}",
                self.beta
            ));
        }
        Ok(())
    }

    /// `Q(ρ)`: estimated average waiting time at a server with `load` users
    /// out of `max_load` capacity — the M/M/1 estimate `ρ/(1−ρ)` below the
    /// cutoff, β at or above it.
    ///
    /// # Panics
    ///
    /// Panics if `max_load == 0`.
    pub(crate) fn queueing_delay(&self, load: u32, max_load: u32) -> f64 {
        assert!(max_load > 0, "server capacity must be positive");
        let rho = f64::from(load) / f64::from(max_load);
        if rho < self.rho_cutoff {
            rho / (1.0 - rho)
        } else {
            self.beta
        }
    }

    /// `TC_ij` for a host at communication distance `comm_units` from a
    /// server currently carrying `load` of `max_load` users, with average
    /// processing time `proc_time` (`z`).
    pub(crate) fn connection_cost(
        &self,
        comm_units: f64,
        load: u32,
        max_load: u32,
        proc_time: f64,
    ) -> f64 {
        comm_units * self.w_comm + (self.queueing_delay(load, max_load) + proc_time) * self.w_proc
    }

    /// The paper's "final modification": "include variable communication
    /// delays by having approximate queuing delays that is a function of
    /// the channel utilization" (§3.1.1). The communication term is
    /// inflated by the same M/M/1 factor evaluated at the channel's
    /// utilisation; at `channel_rho = 0` this reduces exactly to the
    /// zero-load cost `comm_units·W1 + (q + z)·W2` the solver uses.
    ///
    /// # Panics
    ///
    /// Panics if `channel_rho` is negative or not finite.
    pub fn connection_cost_with_channel(
        &self,
        comm_units: f64,
        channel_rho: f64,
        load: u32,
        max_load: u32,
        proc_time: f64,
    ) -> f64 {
        assert!(
            channel_rho.is_finite() && channel_rho >= 0.0,
            "channel utilisation must be finite and >= 0"
        );
        let channel_q = if channel_rho < self.rho_cutoff {
            channel_rho / (1.0 - channel_rho)
        } else {
            self.beta
        };
        comm_units * (1.0 + channel_q) * self.w_comm
            + (self.queueing_delay(load, max_load) + proc_time) * self.w_proc
    }
}

/// Static description of one server for assignment purposes.
#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    /// `M_j`: maximum number of users assignable to the server.
    pub max_load: u32,
    /// `z`: average message processing time, in time units.
    pub proc_time: f64,
}

impl ServerSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `max_load == 0` or `proc_time` is negative/not finite.
    pub fn new(max_load: u32, proc_time: f64) -> Self {
        assert!(max_load > 0, "max_load must be positive");
        assert!(
            proc_time.is_finite() && proc_time >= 0.0,
            "proc_time must be finite and non-negative"
        );
        ServerSpec {
            max_load,
            proc_time,
        }
    }

    /// The paper example's server: capacity 100 users, 0.5 units of
    /// processing per message.
    pub fn paper_example() -> Self {
        ServerSpec::new(100, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_queue_grows_with_load() {
        let m = CostModel::paper_example();
        assert_eq!(m.queueing_delay(0, 100), 0.0);
        let q50 = m.queueing_delay(50, 100);
        assert!((q50 - 1.0).abs() < 1e-12); // 0.5 / 0.5
        let q90 = m.queueing_delay(90, 100);
        assert!((q90 - 9.0).abs() < 1e-9);
        assert!(q90 > q50);
    }

    #[test]
    fn saturated_server_costs_beta() {
        let m = CostModel::paper_example();
        assert_eq!(m.queueing_delay(99, 100), m.beta);
        assert_eq!(m.queueing_delay(150, 100), m.beta);
    }

    #[test]
    fn connection_cost_formula() {
        let m = CostModel::paper_example();
        // C=2 units, ρ=0.5 -> Q=1, z=0.5: TC = 2*4 + (1+0.5)*1 = 9.5
        let tc = m.connection_cost(2.0, 50, 100, 0.5);
        assert!((tc - 9.5).abs() < 1e-12);
    }

    #[test]
    fn channel_queueing_reduces_to_base_at_zero_load() {
        let m = CostModel::paper_example();
        let base = m.connection_cost(2.0, 50, 100, 0.5);
        let with = m.connection_cost_with_channel(2.0, 0.0, 50, 100, 0.5);
        assert_eq!(base, with);
        // A half-loaded channel doubles the effective communication time.
        let busy = m.connection_cost_with_channel(2.0, 0.5, 50, 100, 0.5);
        assert!((busy - (2.0 * 2.0 * 4.0 + 1.5)).abs() < 1e-9);
        // A saturated channel hits the beta wall.
        let jammed = m.connection_cost_with_channel(2.0, 0.999, 50, 100, 0.5);
        assert!(jammed > m.beta);
    }

    #[test]
    fn validation_catches_bad_constants() {
        let mut m = CostModel::paper_example();
        assert!(m.validate().is_ok());
        m.rho_cutoff = 1.5;
        assert!(m.validate().unwrap_err().contains("rho_cutoff"));
        let mut m2 = CostModel::paper_example();
        m2.w_comm = -1.0;
        assert!(m2.validate().is_err());
        let mut m3 = CostModel::paper_example();
        m3.beta = f64::INFINITY;
        assert!(m3.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        CostModel::paper_example().queueing_delay(1, 0);
    }

    #[test]
    #[should_panic(expected = "max_load must be positive")]
    fn zero_capacity_spec_panics() {
        let _ = ServerSpec::new(0, 0.5);
    }
}
