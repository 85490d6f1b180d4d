//! A record catalogue with an unproduced variant, a wildcard accessor and
//! an incomplete `Layer::ALL`.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

#[derive(Clone, Copy, Debug)]
pub enum Layer {
    Phy,
    Agt,
}

impl Layer {
    pub const ALL: [Layer; 2] = [Layer::Phy, Layer::Phy];
}

pub enum TraceRecord {
    PhyPing { node: u32 },
    AgtPong { node: u32 },
    Orphan { node: u32 },
}

impl TraceRecord {
    pub fn layer(&self) -> Layer {
        match self {
            TraceRecord::PhyPing { .. } => Layer::Phy,
            _ => Layer::Agt,
        }
    }
}
