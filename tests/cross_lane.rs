//! The socket lane's exact oracle, at tier 1: `sock::lane::Lane` on a
//! stepped clock (no socket, no sleep) against the two-host simulation,
//! bit for bit, one cell per controller. The full 3 × 3 matrix and the
//! real-socket cells are `cross_lane_conformance` in `lossburst-testkit`.

use lossburst::transport::cc::CcAlgorithm;
use lossburst_testkit::prelude::*;

#[test]
fn stepped_socket_lane_equals_the_simulator_exactly() {
    for controller in [CcAlgorithm::NewReno, CcAlgorithm::Cubic, CcAlgorithm::Bbr] {
        check_stepped_lane_equals_netsim(&CrossLaneScenario::quick(controller, 2006)).unwrap();
    }
}
