//! A miniature "edge" demo on the raw frame layer: shows the exact
//! bytes of an ORIGIN frame on the wire, the fail-open rule for
//! unknown frames, and the §6.7 middlebox failure.
//!
//! ```sh
//! cargo run --example origin_server
//! ```

use bytes_dump::hex;
use respect_origin::h2::{Frame, FrameDecoder, FrameType, OriginSet};
use respect_origin::netsim::{Middlebox, MiddleboxVerdict};

mod bytes_dump {
    /// Tiny hex-dump helper for the demo output.
    pub fn hex(data: &[u8]) -> String {
        data.iter()
            .map(|b| format!("{b:02x}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn main() {
    // Build the origin set the paper's deployment advertised.
    let set = OriginSet::from_hosts(["sample-00001.example", "cdnjs.cloudflare.com"]);
    let frame = set.to_frame();
    let wire = frame.to_bytes();
    println!("ORIGIN frame ({} bytes on the wire):", wire.len());
    println!("  {}", hex(&wire));
    println!(
        "  type octet = {:#04x} (RFC 8336)",
        FrameType::Origin.to_u8()
    );

    // Decode it back.
    let decoder = FrameDecoder::default();
    let mut buf = bytes::BytesMut::from(&wire[..]);
    let decoded = decoder.decode(&mut buf).expect("valid").expect("complete");
    if let Frame::Origin { origins } = &decoded {
        println!("decoded origin set: {origins:?}");
    }

    // RFC 7540 §4.1: a compliant endpoint must IGNORE unknown frames.
    // The §6.7 antivirus agent instead tore the connection down:
    let buggy = Middlebox::NonCompliant;
    println!("\n§6.7 middlebox inspecting frame types:");
    for (label, ft) in [
        ("DATA", 0x00u8),
        ("SETTINGS", 0x04),
        ("ALTSVC", 0x0a),
        ("ORIGIN", 0x0c),
    ] {
        let verdict = buggy.inspect(ft);
        println!(
            "  {label:<8} ({ft:#04x}) → {verdict:?}{}",
            if verdict == MiddleboxVerdict::TearDown {
                "   ← the bug: must be Forward"
            } else {
                ""
            }
        );
    }
    println!("\nclients behind that agent lost every connection to ORIGIN-enabled sites");
    println!("until the vendor fixed the product (confirmed September 2022).");
}
