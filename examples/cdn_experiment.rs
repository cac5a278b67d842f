//! Re-run the paper's §5 CDN deployment: the 5000-certificate reissue,
//! the IP-alignment experiment (§5.2), and the ORIGIN frame
//! experiment (§5.3), with both active and passive measurements.
//!
//! ```sh
//! cargo run --release --example cdn_experiment
//! ```

use respect_origin::cdn::{ActiveMeasurement, DeploymentMode, PassivePipeline, SampleGroup};
use respect_origin::netsim::SimRng;

fn main() {
    let mut rng = SimRng::seed_from_u64(0x0516);
    let group = SampleGroup::build(5_000, &mut rng);
    println!(
        "sample group: 5000 candidates − {} subpage-only = {} domains; equal-byte cert check: {}",
        group.removed_subpage_only,
        group.sites.len(),
        if group.equal_byte_check() {
            "OK"
        } else {
            "FAILED"
        }
    );

    // §5.2 — IP-based coalescing via DNS alignment.
    println!("\n== §5.2 IP-based coalescing (August 2021) ==");
    let (exp, ctl) = ActiveMeasurement::ip_experiment().run_both_threads(&group, 42, 1);
    println!(
        "active (Firefox v91): zero new connections to the third party: experiment {:.0}%, control {:.0}% (paper: 70% / 9%)",
        exp.fraction_with(0) * 100.0,
        ctl.fraction_with(0) * 100.0
    );
    let passive = PassivePipeline::new(DeploymentMode::IpAligned).run(&group, 42);
    println!(
        "passive (1% sampled, all browsers): {:.0}% reduction in TLS connection rate (paper: 56%)",
        passive.tp_connection_reduction() * 100.0
    );

    // §5.3 — ORIGIN frames, DNS reverted.
    println!("\n== §5.3 ORIGIN frame coalescing (January 2022) ==");
    let (exp, ctl) = ActiveMeasurement::origin_experiment().run_both_threads(&group, 43, 1);
    println!(
        "active (Firefox v96): zero new connections: experiment {:.0}%, control {:.0}% (paper: 64% / 6%)",
        exp.fraction_with(0) * 100.0,
        ctl.fraction_with(0) * 100.0
    );
    println!(
        "active: one new connection: experiment {:.0}% (paper: 33%); max connections seen: {}",
        exp.fraction_with(1) * 100.0,
        exp.max_connections()
    );
    let passive = PassivePipeline::new(DeploymentMode::OriginFrames).run(&group, 43);
    println!(
        "passive (Firefox UAs): {:.0}% reduction in TLS connection rate (paper: ≈50%)",
        passive.tp_connection_reduction() * 100.0
    );
    println!(
        "PLT: experiment median {:.0}ms vs control {:.0}ms — 'no worse' (§6.1)",
        exp.median_plt(),
        ctl.median_plt()
    );
}
