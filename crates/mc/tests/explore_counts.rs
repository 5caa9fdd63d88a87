//! Pins the default model check's reach: any change to the subjects,
//! the transition function, or the canonical encoding that merges or
//! splits states moves these counts.

use capcheri_mc::{explore, ExploreConfig};

/// The default 2-task × 3-object model at depth 6 reaches exactly these
/// canonical states through exactly these transitions.
#[test]
fn default_depth_six_check_reaches_pinned_counts() {
    let result = explore(ExploreConfig::new(6));
    assert!(result.violation.is_none(), "{:?}", result.violation);
    assert_eq!((result.states, result.transitions), (13_107, 253_368));
}
