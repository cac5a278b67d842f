//! Pages and their resource dependency trees.

use crate::content::ContentType;
use origin_dns::DnsName;

/// Application protocol a request was served over (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// HTTP/2.
    H2,
    /// HTTP/1.1.
    H11,
    /// HTTP/3 (pre-standard Google draft, "h3-Q050").
    H3Q050,
    /// QUIC (gQUIC).
    Quic,
    /// HTTP/1.0.
    H10,
    /// HTTP/0.9.
    H09,
    /// Protocol not recorded (failed/aborted requests).
    NA,
}

impl Protocol {
    /// Every protocol, in discriminant order: `ALL[p as usize] == p`,
    /// the index space of per-protocol tallies.
    pub const ALL: [Protocol; 7] = [
        Protocol::H2,
        Protocol::H11,
        Protocol::H3Q050,
        Protocol::Quic,
        Protocol::H10,
        Protocol::H09,
        Protocol::NA,
    ];

    /// Display string matching Table 3 rows.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::H2 => "HTTP/2",
            Protocol::H11 => "HTTP/1.1",
            Protocol::H3Q050 => "H3-Q050",
            Protocol::Quic => "QUIC",
            Protocol::H10 => "HTTP/1.0",
            Protocol::H09 => "HTTP/0.9",
            Protocol::NA => "N/A",
        }
    }
}

/// How a subresource is fetched; decides CORS behaviour.
///
/// The paper found (§5.3) that subresources requested with
/// `crossorigin=anonymous` or via `XMLHttpRequest`/`fetch` did not
/// coalesce in Firefox, capping the measured reduction near 50%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchMode {
    /// Plain element fetch (img, script without crossorigin, link).
    Normal,
    /// CORS-anonymous fetch (fonts, `crossorigin=anonymous` scripts).
    CorsAnonymous,
    /// Programmatic XHR / `fetch()` request.
    XhrFetch,
}

/// What a resource's URL path is a function of. Only an HTTP/1.1
/// request line and an HTTP/3 field section ever read a path, so a page
/// carries the integers and [`Resource::render_path`] spells them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSpec {
    /// A fixed path: `/` for a root document, literals in hand-built
    /// pages.
    Fixed(&'static str),
    /// `/{label}/r{slot}-{ordinal}.{ext}`: `label` is the first label
    /// of `Page::hosts[slot]` — the host the generator *placed* the
    /// resource on; a legacy page re-homes resources onto shards
    /// afterwards and their paths stay — and `ext` follows the content
    /// type.
    Slot {
        /// Index into [`Page::hosts`] of the placing host.
        slot: u16,
        /// Position among that slot's resources.
        ordinal: u32,
    },
    /// `{prefix}{n}{suffix}`, the template being `[prefix, suffix]`.
    Numbered(&'static [&'static str; 2], u32),
}

impl From<&'static str> for PathSpec {
    fn from(path: &'static str) -> Self {
        PathSpec::Fixed(path)
    }
}

/// One resource in a page: where it lives, what it is, and which
/// earlier resource discovered it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resource {
    /// Index into [`Page::hosts`] of the hostname serving the resource
    /// ([`Page::push`] assigns it; [`Page::host_of`] reads it back).
    pub host: u16,
    /// URL path.
    pub path: PathSpec,
    /// Content type.
    pub content_type: ContentType,
    /// Transfer size in bytes.
    pub size: u64,
    /// Index (into the page's resource list) of the resource whose
    /// parsing discovered this one; `None` for resources referenced
    /// directly by the root document. The root itself uses `None`.
    pub discovered_by: Option<usize>,
    /// Fetch mode (CORS behaviour).
    pub fetch_mode: FetchMode,
    /// Protocol the origin negotiates for this resource.
    pub protocol: Protocol,
    /// Whether the request is HTTPS (Table 3: 98.53% secure).
    pub secure: bool,
}

impl Resource {
    /// A plain HTTPS HTTP/2 resource on the page's root host, until
    /// [`Page::push`] places it.
    pub fn new(path: impl Into<PathSpec>, content_type: ContentType, size: u64) -> Self {
        Resource {
            host: 0,
            path: path.into(),
            content_type,
            size,
            discovered_by: None,
            fetch_mode: FetchMode::Normal,
            protocol: Protocol::H2,
            secure: true,
        }
    }

    /// Set the discovering parent.
    pub fn discovered_by(mut self, parent: usize) -> Self {
        self.discovered_by = Some(parent);
        self
    }

    /// Set the fetch mode.
    pub fn fetch_mode(mut self, mode: FetchMode) -> Self {
        self.fetch_mode = mode;
        self
    }

    /// Write the URL path over `out` and return it. `hosts` is the
    /// owning page's [`Page::hosts`].
    pub fn render_path<'o>(&self, hosts: &[DnsName], out: &'o mut String) -> &'o str {
        use std::fmt::Write as _;
        out.clear();
        // Writing to a `String` cannot fail.
        let _ = match self.path {
            PathSpec::Fixed(path) => out.write_str(path),
            PathSpec::Slot { slot, ordinal } => {
                let label = hosts[slot as usize].labels().next().unwrap_or("x");
                let ext = self.content_type.extension();
                write!(out, "/{label}/r{slot}-{ordinal}.{ext}")
            }
            PathSpec::Numbered([prefix, suffix], n) => write!(out, "{prefix}{n}{suffix}"),
        };
        out
    }
}

/// A web page: the root document plus its subresources.
///
/// Resource 0 is always the root HTML document; `discovered_by`
/// indices form a forest rooted there (an index must be smaller than
/// the referring resource's own index, so iteration order is a valid
/// discovery order).
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Tranco-style popularity rank (1 = most popular).
    pub rank: u32,
    /// The site's root document host.
    pub root_host: DnsName,
    /// The page's hostnames, each once, the root host first: what
    /// [`Resource::host`] and [`PathSpec::Slot`] index. Per-host work
    /// (certificate planning, hostname tallies) runs over this table
    /// instead of over every resource.
    pub hosts: Vec<DnsName>,
    /// Resources; index 0 is the root document.
    pub resources: Vec<Resource>,
    /// Whether this is a legacy (pre-h2) site: first-party assets
    /// are served over HTTP/1.1 from domain shards, and the loader
    /// drives the `origin-h1` state machine for them. Always `false`
    /// outside a mixed-protocol universe (`legacy_share > 0`), so
    /// the default universe is byte-identical with the flag ignored.
    pub legacy: bool,
    /// Whether this site's origins deploy HTTP/3: they advertise
    /// `alt-svc: h3`, and the loader upgrades eligible connections to
    /// QUIC once a certificate scope has been learned. Always `false`
    /// outside an h3 universe (`h3_share > 0`), so the default
    /// universe is byte-identical with the flag ignored.
    pub h3: bool,
}

impl Page {
    /// Create a page with its root document resource.
    pub fn new(rank: u32, root_host: DnsName, root_size: u64) -> Self {
        Page {
            rank,
            hosts: vec![root_host.clone()],
            root_host,
            resources: vec![Resource::new("/", ContentType::Html, root_size)],
            legacy: false,
            h3: false,
        }
    }

    /// Append a subresource served by `host`; returns its index.
    ///
    /// # Panics
    /// Panics if `discovered_by` points at itself or a later index.
    pub fn push(&mut self, host: DnsName, mut resource: Resource) -> usize {
        let idx = self.resources.len();
        if let Some(parent) = resource.discovered_by {
            assert!(
                parent < idx,
                "resource {idx} discovered by later resource {parent}"
            );
        }
        let slot = self.hosts.iter().position(|h| *h == host);
        let slot = slot.unwrap_or_else(|| {
            self.hosts.push(host);
            self.hosts.len() - 1
        });
        resource.host = u16::try_from(slot).expect("a page has at most 65,536 hosts");
        self.resources.push(resource);
        idx
    }

    /// The hostname serving `resource`, a resource of this page.
    pub fn host_of(&self, resource: &Resource) -> &DnsName {
        &self.hosts[resource.host as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;

    fn page() -> Page {
        let mut p = Page::new(1, name("www.example.com"), 14_000);
        let css = p.push(
            name("static.example.com"),
            Resource::new("/css/style.css", ContentType::Css, 12_000),
        );
        p.push(
            name("fonts.cdnhost.com"),
            Resource::new("/fonts/arial.woff", ContentType::Woff2, 20_000)
                .discovered_by(css)
                .fetch_mode(FetchMode::CorsAnonymous),
        );
        p.push(
            name("static.example.com"),
            Resource::new("/js/jquery.js", ContentType::Javascript, 30_000),
        );
        p
    }

    #[test]
    fn root_is_resource_zero() {
        let p = page();
        assert_eq!(p.resources[0].content_type, ContentType::Html);
        assert_eq!(p.resources[0].path, PathSpec::Fixed("/"));
        assert_eq!(p.host_of(&p.resources[0]), &p.root_host);
        assert_eq!(p.resources.len(), 4);
    }

    #[test]
    fn hosts_are_listed_once_in_first_use_order() {
        let p = page();
        assert_eq!(
            p.hosts,
            ["www.example.com", "static.example.com", "fonts.cdnhost.com"].map(name)
        );
        let slots: Vec<u16> = p.resources.iter().map(|r| r.host).collect();
        assert_eq!(slots, [0, 1, 2, 1]);
    }

    #[test]
    fn paths_render_from_what_they_are_a_function_of() {
        let mut p = page();
        let mut buf = String::from("stale");
        assert_eq!(p.resources[0].render_path(&p.hosts, &mut buf), "/");
        assert_eq!(
            p.resources[1].render_path(&p.hosts, &mut buf),
            "/css/style.css"
        );
        // A slot path takes its label from the slot it names, not from
        // the host the resource is (now) served by.
        let mut r = Resource::new(
            PathSpec::Slot {
                slot: 2,
                ordinal: 7,
            },
            ContentType::Woff2,
            1,
        );
        r.host = 1;
        assert_eq!(r.render_path(&p.hosts, &mut buf), "/fonts/r2-7.woff2");
        p.hosts.swap(1, 2);
        assert_eq!(r.render_path(&p.hosts, &mut buf), "/static/r2-7.woff2");
        static LIB: [&str; 2] = ["/ajax/libs/lib", ".min.js"];
        let numbered = Resource::new(PathSpec::Numbered(&LIB, 12), ContentType::Javascript, 1);
        assert_eq!(
            numbered.render_path(&p.hosts, &mut buf),
            "/ajax/libs/lib12.min.js"
        );
    }

    #[test]
    #[should_panic(expected = "discovered by later")]
    fn forward_reference_panics() {
        let mut p = Page::new(1, name("a.com"), 1_000);
        p.push(
            name("b.com"),
            Resource::new("/x", ContentType::Css, 10).discovered_by(5),
        );
    }

    #[test]
    fn protocol_labels_and_order() {
        assert_eq!(Protocol::H2.label(), "HTTP/2");
        assert_eq!(Protocol::H3Q050.label(), "H3-Q050");
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }
}
