//! Which sender a flow runs: the variant names and Muzha's cadence.

use sim_core::snap_enum;

/// Which TCP sender implementation a flow uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TcpVariant {
    /// TCP Tahoe (no fast recovery; background §2.1).
    Tahoe,
    /// TCP Reno.
    Reno,
    /// TCP NewReno (the paper's main baseline).
    NewReno,
    /// TCP SACK.
    Sack,
    /// TCP Vegas.
    Vegas,
    /// TCP Veno (end-to-end loss discrimination, paper ref. \[22\]).
    Veno,
    /// TCP Westwood+ (bandwidth-estimation decrease, paper ref. \[24\]).
    Westwood,
    /// TCP-DOOR (out-of-order route-change detection, paper ref. \[39\]).
    Door,
    /// TCP Muzha (the paper's contribution).
    Muzha,
}

impl TcpVariant {
    /// All implemented variants.
    pub const ALL: [TcpVariant; 9] = [
        TcpVariant::Tahoe,
        TcpVariant::Reno,
        TcpVariant::NewReno,
        TcpVariant::Sack,
        TcpVariant::Vegas,
        TcpVariant::Veno,
        TcpVariant::Westwood,
        TcpVariant::Door,
        TcpVariant::Muzha,
    ];

    /// The variants compared in the paper's figures (Reno itself is
    /// subsumed by NewReno there).
    pub const PAPER: [TcpVariant; 4] =
        [TcpVariant::NewReno, TcpVariant::Sack, TcpVariant::Vegas, TcpVariant::Muzha];

    /// Looks a variant up by its display name, case-insensitively: what a
    /// `--variant` flag and a scenario's `flow` line both accept.
    ///
    /// # Errors
    ///
    /// A message listing the known names.
    pub fn parse(name: &str) -> Result<TcpVariant, String> {
        TcpVariant::ALL
            .into_iter()
            .find(|v| v.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown variant '{name}'; known: {:?}", TcpVariant::ALL))
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            TcpVariant::Tahoe => "Tahoe",
            TcpVariant::Reno => "Reno",
            TcpVariant::NewReno => "NewReno",
            TcpVariant::Sack => "SACK",
            TcpVariant::Vegas => "Vegas",
            TcpVariant::Veno => "Veno",
            TcpVariant::Westwood => "Westwood",
            TcpVariant::Door => "DOOR",
            TcpVariant::Muzha => "Muzha",
        }
    }
}

impl std::fmt::Display for TcpVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// The tags are fixed here; reordering [`TcpVariant::ALL`] does not move them.
snap_enum! {
    TcpVariant, "tcp variant tag" {
        0 => Tahoe,
        1 => Reno,
        2 => NewReno,
        3 => Sack,
        4 => Vegas,
        5 => Veno,
        6 => Westwood,
        7 => Door,
        8 => Muzha,
    }
}

/// How a Muzha sender applies the Table 5.2 actions over time.
///
/// The paper mandates "Adjust CWND in every RTT" (Table 4.1) but lists the
/// details of window control as future work (§6); the per-ACK cadence is
/// the natural alternative and is compared in the ablation benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdjustmentCadence {
    /// Apply the worst MRAI of the round once per RTT (the paper's rule).
    #[default]
    PerRtt,
    /// Spread the same per-RTT action over the ACKs of a round:
    /// ×2 → `+1` per ACK, `+1` → `+1/cwnd` per ACK, `−1` → `−1/cwnd` per
    /// ACK, ×½ → `−0.5/cwnd × cwnd = −0.5` per ACK (i.e. −cwnd/2 per RTT).
    PerAck,
}

snap_enum! { AdjustmentCadence, "muzha cadence tag" { 0 => PerRtt, 1 => PerAck } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names() {
        assert_eq!(TcpVariant::Muzha.name(), "Muzha");
        assert_eq!(TcpVariant::NewReno.to_string(), "NewReno");
        assert_eq!(TcpVariant::ALL.len(), 9);
        assert_eq!(TcpVariant::PAPER.len(), 4);
        for v in TcpVariant::ALL {
            assert_eq!(TcpVariant::parse(v.name()), Ok(v));
            assert_eq!(TcpVariant::parse(&v.name().to_lowercase()), Ok(v));
        }
        assert!(TcpVariant::parse("bogus").is_err());
    }
}
