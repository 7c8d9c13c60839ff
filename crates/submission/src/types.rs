//! Divisions, categories, and system descriptions.

/// Submission division (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Division {
    /// Same model, data set, and quality targets; enables comparison of
    /// different systems. Retraining prohibited.
    Closed,
    /// Same task, arbitrary model/processing/targets; fosters innovation.
    /// Results are not directly comparable.
    Open,
}

impl std::fmt::Display for Division {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Division::Closed => f.write_str("closed"),
            Division::Open => f.write_str("open"),
        }
    }
}

/// Hardware/software availability category (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Category {
    /// Readily available for rent or purchase.
    Available,
    /// Soon to be available.
    Preview,
    /// Research, development, or other systems.
    Rdo,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Available => f.write_str("available"),
            Category::Preview => f.write_str("preview"),
            Category::Rdo => f.write_str("RDO"),
        }
    }
}

/// The system-description file accompanying a submission: "accelerator
/// count, CPU count, software release, and memory system" (Section V-A).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SystemDescription {
    /// System name, unique within the round.
    pub(crate) system_name: String,
    /// Submitting organization.
    pub(crate) vendor: String,
    /// Inference framework / run time (Table VII rows).
    pub(crate) framework: String,
    /// Processor architecture class (Figure 7 buckets).
    pub(crate) architecture: String,
    /// Number of accelerator units.
    pub(crate) accelerator_count: u32,
    /// Number of host CPUs.
    pub(crate) cpu_count: u32,
    /// System memory in GiB.
    pub(crate) memory_gib: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(Division::Closed.to_string(), "closed");
        assert_eq!(Division::Open.to_string(), "open");
        assert_eq!(Category::Available.to_string(), "available");
        assert_eq!(Category::Rdo.to_string(), "RDO");
    }
}
