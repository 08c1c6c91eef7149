//! Configuration of a region computation.

/// Which of the paper's algorithms performs Phase 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The baseline of Section 4: every candidate in `C(q)` is evaluated.
    Scan,
    /// Scan enhanced with candidate pruning only (Section 5.1 / Lemma 2–4).
    Prune,
    /// Scan enhanced with candidate thresholding only (Section 5.2).
    Thres,
    /// The full Candidate Pruning and Thresholding algorithm (default).
    #[default]
    Cpt,
}

impl Algorithm {
    /// All four algorithms, in the order the paper's figures list them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Scan,
        Algorithm::Thres,
        Algorithm::Prune,
        Algorithm::Cpt,
    ];

    /// Whether Phase 2 applies the pruning of Section 5.1.
    pub fn prunes(self) -> bool {
        matches!(self, Algorithm::Prune | Algorithm::Cpt)
    }

    /// Whether Phase 2 applies the thresholding of Section 5.2.
    pub fn thresholds(self) -> bool {
        matches!(self, Algorithm::Thres | Algorithm::Cpt)
    }

    /// Display name matching the paper (what [`std::fmt::Display`] prints).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Scan => "Scan",
            Algorithm::Prune => "Prune",
            Algorithm::Thres => "Thres",
            Algorithm::Cpt => "CPT",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What counts as a perturbation of the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PerturbationMode {
    /// Any change — a reordering inside `R(q)` or a change of composition
    /// (the paper's main formulation).
    #[default]
    WithReorderings,
    /// Only changes in the *composition* of `R(q)` count; reorderings among
    /// result tuples are ignored (Section 7.4). Phase 1 is skipped and the
    /// regions are initialised to their widest possible form.
    CompositionOnly,
}

/// Full configuration of a region computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionConfig {
    /// Which algorithm performs Phase 2.
    pub algorithm: Algorithm,
    /// Number of tolerable perturbations per direction (`φ`); `0` computes a
    /// single immutable region per dimension.
    pub phi: usize,
    /// Whether reorderings inside the result count as perturbations.
    pub mode: PerturbationMode,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            algorithm: Algorithm::Cpt,
            phi: 0,
            mode: PerturbationMode::WithReorderings,
        }
    }
}

impl RegionConfig {
    /// Convenience constructor for a `φ = 0` computation with `algorithm`.
    pub fn flat(algorithm: Algorithm) -> Self {
        RegionConfig {
            algorithm,
            ..Default::default()
        }
    }

    /// Convenience constructor for a `φ > 0` computation with `algorithm`.
    pub fn with_phi(algorithm: Algorithm, phi: usize) -> Self {
        RegionConfig {
            algorithm,
            phi,
            ..Default::default()
        }
    }

    /// Same configuration but in composition-only mode.
    pub fn composition_only(mut self) -> Self {
        self.mode = PerturbationMode::CompositionOnly;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_capabilities() {
        assert!(!Algorithm::Scan.prunes());
        assert!(!Algorithm::Scan.thresholds());
        assert!(Algorithm::Prune.prunes());
        assert!(!Algorithm::Prune.thresholds());
        assert!(!Algorithm::Thres.prunes());
        assert!(Algorithm::Thres.thresholds());
        assert!(Algorithm::Cpt.prunes());
        assert!(Algorithm::Cpt.thresholds());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["Scan", "Thres", "Prune", "CPT"]);
    }

    #[test]
    fn config_builders() {
        let c = RegionConfig::flat(Algorithm::Scan);
        assert_eq!(c.phi, 0);
        assert_eq!(c.mode, PerturbationMode::WithReorderings);
        let c = RegionConfig::with_phi(Algorithm::Cpt, 5).composition_only();
        assert_eq!(c.phi, 5);
        assert_eq!(c.mode, PerturbationMode::CompositionOnly);
        assert_eq!(RegionConfig::default().algorithm, Algorithm::Cpt);
    }
}
