//! Content types (the Table 5 vocabulary).

/// Subresource content types, covering the paper's Table 5 top-12
/// plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentType {
    /// `application/javascript`.
    Javascript,
    /// `image/jpeg`.
    Jpeg,
    /// `image/png`.
    Png,
    /// `text/html`.
    Html,
    /// `image/gif`.
    Gif,
    /// `text/css`.
    Css,
    /// `text/javascript` (obsolete media type, §3.3 notes Google
    /// still serves it).
    TextJavascript,
    /// `application/json`.
    Json,
    /// `application/x-javascript` (another legacy JS type).
    XJavascript,
    /// `font/woff2`.
    Woff2,
    /// `image/webp`.
    Webp,
    /// `text/plain`.
    Plain,
    /// Everything else.
    Other,
}

impl ContentType {
    /// Every content type, in discriminant order (`ALL[ct as usize] ==
    /// ct`, the index space of per-type tallies): the Table 5 top-12
    /// in paper order, most- to least-requested, then the catch-all.
    pub const ALL: [ContentType; 13] = [
        ContentType::Javascript,
        ContentType::Jpeg,
        ContentType::Png,
        ContentType::Html,
        ContentType::Gif,
        ContentType::Css,
        ContentType::TextJavascript,
        ContentType::Json,
        ContentType::XJavascript,
        ContentType::Woff2,
        ContentType::Webp,
        ContentType::Plain,
        ContentType::Other,
    ];

    /// The file extension generated URL paths carry for this type.
    pub fn extension(self) -> &'static str {
        match self {
            ContentType::Javascript | ContentType::TextJavascript | ContentType::XJavascript => {
                "js"
            }
            ContentType::Jpeg => "jpg",
            ContentType::Png => "png",
            ContentType::Html => "html",
            ContentType::Gif => "gif",
            ContentType::Css => "css",
            ContentType::Json => "json",
            ContentType::Woff2 => "woff2",
            ContentType::Webp => "webp",
            ContentType::Plain => "txt",
            ContentType::Other => "bin",
        }
    }

    /// The MIME string, matching Table 5 rows.
    pub fn mime(self) -> &'static str {
        match self {
            ContentType::Javascript => "application/javascript",
            ContentType::Jpeg => "image/jpeg",
            ContentType::Png => "image/png",
            ContentType::Html => "text/html",
            ContentType::Gif => "image/gif",
            ContentType::Css => "text/css",
            ContentType::TextJavascript => "text/javascript",
            ContentType::Json => "application/json",
            ContentType::XJavascript => "application/x-javascript",
            ContentType::Woff2 => "font/woff2",
            ContentType::Webp => "image/webp",
            ContentType::Plain => "text/plain",
            ContentType::Other => "application/octet-stream",
        }
    }

    /// Is this type render-blocking when referenced from the document
    /// head (scripts and stylesheets block parsing; images don't)?
    pub fn is_render_blocking(self) -> bool {
        matches!(
            self,
            ContentType::Javascript
                | ContentType::TextJavascript
                | ContentType::XJavascript
                | ContentType::Css
        )
    }

    /// Is this a font type? Fonts are fetched CORS-anonymously per
    /// the CSS font-fetch rules — the §5.3 coalescing obstruction.
    pub fn is_font(self) -> bool {
        matches!(self, ContentType::Woff2)
    }

    /// Typical transfer size in bytes (median-ish, used by generators
    /// as the log-normal median).
    pub fn typical_size(self) -> u64 {
        match self {
            ContentType::Javascript | ContentType::TextJavascript | ContentType::XJavascript => {
                22_000
            }
            ContentType::Jpeg => 45_000,
            ContentType::Png => 18_000,
            ContentType::Html => 14_000,
            ContentType::Gif => 2_500,
            ContentType::Css => 12_000,
            ContentType::Json => 3_000,
            ContentType::Woff2 => 20_000,
            ContentType::Webp => 30_000,
            ContentType::Plain => 1_500,
            ContentType::Other => 8_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mimes_match_table5() {
        assert_eq!(ContentType::Javascript.mime(), "application/javascript");
        assert_eq!(ContentType::TextJavascript.mime(), "text/javascript");
        assert_eq!(ContentType::Woff2.mime(), "font/woff2");
        assert_eq!(ContentType::ALL[11].mime(), "text/plain");
    }

    #[test]
    fn blocking_classification() {
        assert!(ContentType::Javascript.is_render_blocking());
        assert!(ContentType::Css.is_render_blocking());
        assert!(!ContentType::Jpeg.is_render_blocking());
        assert!(!ContentType::Woff2.is_render_blocking());
    }

    #[test]
    fn font_helper() {
        assert!(ContentType::Woff2.is_font());
        assert!(!ContentType::Css.is_font());
    }

    #[test]
    fn sizes_positive() {
        for ct in ContentType::ALL {
            assert!(ct.typical_size() > 0);
        }
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, ct) in ContentType::ALL.into_iter().enumerate() {
            assert_eq!(ct as usize, i);
            assert!(!ct.extension().is_empty());
        }
    }
}
