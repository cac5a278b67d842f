//! The untraced §5 wire check under the name the frozen benchmark
//! harness under `benchmark/` calls. Workspace code calls
//! [`ActiveMeasurement::wire_spot_check`] with its tracer argument.

use crate::{ActiveMeasurement, SampleGroup};
use origin_telemetry::metrics::Registry;

impl ActiveMeasurement {
    /// [`ActiveMeasurement::wire_spot_check`] untraced.
    #[doc(hidden)]
    pub fn wire_spot_check_metrics(
        &self,
        group: &SampleGroup,
        n: usize,
        metrics: Option<&mut Registry>,
    ) -> usize {
        self.wire_spot_check(group, n, metrics, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_netsim::SimRng;

    #[test]
    fn the_untraced_name_checks_as_the_traceable_one() {
        let group = SampleGroup::build(400, &mut SimRng::seed_from_u64(0xAC71));
        let m = ActiveMeasurement::origin_experiment();
        let (mut compat, mut real) = (Registry::new(), Registry::new());
        let n = m.wire_spot_check_metrics(&group, 40, Some(&mut compat));
        assert_eq!(n, m.wire_spot_check(&group, 40, Some(&mut real), None));
        assert_eq!(n, 40);
        assert_eq!(compat.to_json(), real.to_json());
        assert_eq!(real.counter("cdn.wire_checks"), 40);
    }
}
